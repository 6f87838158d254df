from unittest import mock

import numpy as np
import pytest
from scipy.optimize import brentq

from randpoled import spectra
from randpoled import (ProcessConfig, RandomSource, StructureSpec,
                       ensemble_run, fwhm, joint_density, match_parameter,
                       pair_rate, signal_spectrum, two_photon_amplitude)
from randpoled.constants import CONSTANTS
from randpoled.phasematch import BoundaryPlan, f_exact
from randpoled.spectra import (SpectraError, SpectralGrid, SpectralSlice,
                               _mismatch_slice, coupling_g, extractor_rate,
                               extractor_width, map_realizations, mean_f2)


class TestConfigAndGrid:
    def test_defaults(self, cfg):
        assert cfg.pump_wavelength == 775e-9
        assert cfg.omega_s0 == pytest.approx(0.5 * cfg.omega_p0, rel=1e-15)

    def test_invalid_config(self):
        with pytest.raises(SpectraError):
            ProcessConfig(pump_wavelength=-1.0)

    def test_grid_validation(self):
        with pytest.raises(SpectraError):
            SpectralGrid(np.array([2.0, 1.0, 3.0]) * 1e15)
        with pytest.raises(SpectraError):
            SpectralGrid(np.array([1e15, 2e15, 4e15]))
        with pytest.raises(SpectraError):
            SpectralGrid(np.array([5.0]))

    def test_default_grid(self, cfg):
        g = SpectralGrid.default(cfg.omega_s0, n=101, span=0.2)
        assert g.n_points == 101
        assert g.omega_s[0] == pytest.approx(0.8 * cfg.omega_s0)
        assert g.omega_s[-1] == pytest.approx(1.2 * cfg.omega_s0)

    def test_slice_idler_positive(self, cfg):
        g = SpectralGrid(np.linspace(0.9, 1.1, 11) * cfg.omega_p0)
        with pytest.raises(SpectraError):
            SpectralSlice(g, np.ones(11, dtype=complex), cfg.omega_p0)


class TestCoupling:
    def test_magnitude_and_phase(self, cfg, model):
        g = coupling_g(cfg.omega_s0, cfg.omega_s0, cfg, model)
        n = model.refractive_index(cfg.omega_s0)
        want = cfg.omega_s0 / (2.0 * CONSTANTS.c * np.pi * n) * cfg.chi2_effective
        assert g == pytest.approx(1j * want, rel=1e-12)

    def test_symmetric(self, cfg, model):
        ws, wi = 1.1 * cfg.omega_s0, 0.9 * cfg.omega_s0
        assert coupling_g(ws, wi, cfg, model) == pytest.approx(
            coupling_g(wi, ws, cfg, model), rel=1e-14)


class TestDensities:
    # frozen reference values on the 1025-point default grid
    FROZEN = {
        ("rps", 2.1e-6, 0.0): (2.6381104392650805e-05, 737343982581594.9),
        ("weakly-random", 1e-6, 0.0): (0.00020031266404701444, 129247388089374.5),
        ("chirped", 0.0, 2.5e6): (3.927588878845482e-05, 771059507970020.4),
        ("ideal", 0.0, 0.0): (0.00021100913975059384, 129333016610506.0),
    }

    def test_frozen_rates_and_widths(self, cfg, model, grid, l0):
        for (kind, sigma, zeta), (rate, width) in self.FROZEN.items():
            spec = StructureSpec(kind, 700, l0, sigma=sigma, zeta=zeta)
            jd = joint_density(spec, cfg, model, grid)
            assert pair_rate(jd, grid) == pytest.approx(rate, rel=1e-10)
            assert fwhm(grid.omega_s, jd) == pytest.approx(width, rel=1e-10)

    def test_single_realization_frozen(self, cfg, model, grid, l0):
        s = StructureSpec("rps", 700, l0, sigma=2.1e-6).generate(RandomSource(7))
        jd = joint_density(s, cfg, model, grid)
        assert pair_rate(jd, grid) == pytest.approx(2.2408128682314295e-05,
                                                    rel=1e-10)
        assert fwhm(grid.omega_s, jd) == pytest.approx(752026607021998.9,
                                                       rel=1e-10)

    def test_disorder_broadens_and_weakens(self, cfg, model, grid, l0):
        rates, widths = [], []
        for sigma in (0.5e-6, 1.0e-6, 2.0e-6):
            spec = StructureSpec("rps", 700, l0, sigma=sigma)
            jd = joint_density(spec, cfg, model, grid)
            rates.append(pair_rate(jd, grid))
            widths.append(fwhm(grid.omega_s, jd))
        assert rates[0] > rates[1] > rates[2]
        assert widths[0] < widths[1] < widths[2]

    def test_weak_family_narrows_only(self, cfg, model, grid, l0):
        # independent jitter filters the spectrum instead of broadening it
        wid0 = fwhm(grid.omega_s, joint_density(
            StructureSpec("ideal", 700, l0), cfg, model, grid))
        wid1 = fwhm(grid.omega_s, joint_density(
            StructureSpec("weakly-random", 700, l0, sigma=2e-6), cfg, model, grid))
        assert wid1 <= wid0 * 1.01

    def test_mean_f2_structure_vs_spec_consistency(self, cfg, model, grid, l0):
        # a chirped spec is deterministic: the analytic profile must track
        # the explicit realization closely near the peak region
        spec = StructureSpec("chirped", 700, l0, zeta=2.5e6)
        s = spec.generate(RandomSource(0))
        fa = mean_f2(spec, cfg, model, grid)
        fe = mean_f2(s, cfg, model, grid)
        sel = fe > 0.2 * fe.max()
        assert np.max(np.abs(fa[sel] / fe[sel] - 1.0)) < 0.02

    def test_amplitude_requires_realization(self, cfg, model, grid, l0):
        with pytest.raises(SpectraError):
            two_photon_amplitude(StructureSpec("rps", 700, l0, sigma=1e-6),
                                 cfg, model, grid)

    def test_amplitude_density_consistency(self, cfg, model, grid, l0):
        s = StructureSpec("rps", 700, l0, sigma=2.1e-6).generate(RandomSource(3))
        amp = two_photon_amplitude(s, cfg, model, grid)
        jd = joint_density(s, cfg, model, grid)
        assert np.allclose(np.abs(amp.values) ** 2, jd, rtol=1e-12)


class TestSpectrumHelpers:
    def test_signal_spectrum_normalization(self, cfg, model, grid, l0):
        jd = joint_density(StructureSpec("rps", 700, l0, sigma=2.1e-6),
                           cfg, model, grid)
        s = signal_spectrum(jd, cfg, grid)
        photons = np.trapezoid(s / (CONSTANTS.hbar * grid.omega_s), grid.omega_s)
        assert photons == pytest.approx(1.0, rel=1e-12)
        raw = signal_spectrum(jd, cfg, grid, normalize=None)
        assert np.allclose(raw, CONSTANTS.hbar * grid.omega_s * jd)

    def test_unknown_normalization(self, cfg, grid):
        with pytest.raises(SpectraError):
            signal_spectrum(np.ones(grid.n_points), cfg, grid, normalize="area")

    def test_fwhm_triangle(self):
        x = np.linspace(-2.0, 2.0, 4001)
        y = np.clip(1.0 - np.abs(x), 0.0, None)
        assert fwhm(x, y) == pytest.approx(1.0, abs=1e-3)

    def test_fwhm_outermost_crossings(self):
        # double-peaked curve: inner dip is ignored by design
        x = np.linspace(-3.0, 3.0, 6001)
        y = np.exp(-((x - 1) ** 2) / 0.1) + np.exp(-((x + 1) ** 2) / 0.1)
        w_double = fwhm(x, y)
        w_single = fwhm(x, np.exp(-(x ** 2) / 0.1))
        assert w_double > 2.0
        assert w_single < 1.0

    def test_fwhm_span_too_narrow(self):
        x = np.linspace(-0.1, 0.1, 101)
        with pytest.raises(SpectraError, match="span too narrow"):
            fwhm(x, np.exp(-x ** 2))


    def test_fwhm_rejects_non_finite(self):
        # a NaN used to slip past the peak checks and raise IndexError
        with pytest.raises(SpectraError, match="finite"):
            fwhm(np.arange(5.0), [0.0, 1.0, np.nan, 1.0, 0.0])
        with pytest.raises(SpectraError, match="finite"):
            fwhm([0.0, 1.0, np.inf, 3.0, 4.0], [0.0, 1.0, 2.0, 1.0, 0.0])

class TestEnsemble:
    def test_stats_and_determinism(self, cfg, model, l0):
        grid = SpectralGrid.default(cfg.omega_s0, n=257)
        spec = StructureSpec("rps", 700, l0, sigma=1.5e-6)
        extractors = {"rate": extractor_rate, "width": extractor_width}
        a = ensemble_run(spec, extractors, 50, 11, cfg, model, grid)
        b = ensemble_run(spec, extractors, 50, 11, cfg, model, grid)
        for name in extractors:
            assert a[name].mean == b[name].mean
            assert a[name].variance == b[name].variance
            assert np.array_equal(a[name].values, b[name].values)
        assert a["rate"].realizations == 50
        assert a["rate"].failures == 0
        assert a["rate"].hist_counts.sum() == 50
        assert a["rate"].rel_fluctuation == pytest.approx(
            np.sqrt(a["rate"].variance) / a["rate"].mean, rel=1e-12)

    def test_mean_matches_analytic(self, cfg, model, l0):
        grid = SpectralGrid.default(cfg.omega_s0, n=257)
        spec = StructureSpec("rps", 700, l0, sigma=1.5e-6)
        stats = ensemble_run(spec, {"rate": extractor_rate}, 200, 5,
                             cfg, model, grid)["rate"]
        ana = pair_rate(joint_density(spec, cfg, model, grid), grid)
        se = np.sqrt(stats.variance / stats.realizations)
        assert abs(stats.mean - ana) < 4.0 * se

    def test_too_few_realizations(self, cfg, model, l0):
        grid = SpectralGrid.default(cfg.omega_s0, n=257)
        spec = StructureSpec("rps", 700, l0, sigma=1.5e-6)
        with pytest.raises(SpectraError):
            ensemble_run(spec, {"rate": extractor_rate}, 1, 0, cfg, model, grid)

    def test_failing_extractor_reported(self, cfg, model, l0):
        grid = SpectralGrid.default(cfg.omega_s0, n=257)
        spec = StructureSpec("rps", 700, l0, sigma=1.5e-6)

        def broken(omega, density):
            raise ValueError("no value")

        with pytest.raises(SpectraError, match="broken"):
            ensemble_run(spec, {"broken": broken}, 10, 0, cfg, model, grid)

    def test_rare_failure_counted(self, cfg, model, l0):
        grid = SpectralGrid.default(cfg.omega_s0, n=257)
        spec = StructureSpec("rps", 700, l0, sigma=1.5e-6)
        calls = []

        def first_fails(omega, density):
            calls.append(1)
            if len(calls) == 1:
                raise SpectraError("off the grid")
            return extractor_rate(omega, density)

        stats = ensemble_run(spec, {"rate": first_fails}, 100, 0, cfg, model,
                             grid)["rate"]
        assert stats.failures == 1
        assert stats.values.size == 99

    def test_engine_builds_one_plan(self, cfg, model, l0):
        # one boundary-sum plan per call, and every F as f_exact gives it
        grid = SpectralGrid.default(cfg.omega_s0, n=257, span=0.6)
        spec = StructureSpec("rps", 700, l0, sigma=2.1e-6)
        layouts = [spec.generate(RandomSource(3, i)) for i in range(20)]
        with mock.patch.object(spectra, "BoundaryPlan", wraps=BoundaryPlan) as build:
            got = map_realizations(layouts.__getitem__, len(layouts), cfg, model,
                                   grid, lambda g, f: f)
        build.assert_called_once()
        dk_tot = _mismatch_slice(cfg, model, grid)
        for s, f in zip(layouts, got):
            want = f_exact(s, dk_tot)
            assert np.max(np.abs(f - want)) <= 1e-12 * np.max(np.abs(want))
            assert np.array_equal(f, want)

    def test_unexpected_error_propagates(self, cfg, model, l0):
        # only domain errors (ValueError) count as failed extractions
        grid = SpectralGrid.default(cfg.omega_s0, n=257)
        spec = StructureSpec("rps", 700, l0, sigma=1.5e-6)

        def buggy(omega, density):
            raise RuntimeError("a bug, not a failed extraction")

        with pytest.raises(RuntimeError, match="a bug"):
            ensemble_run(spec, {"rate": extractor_rate, "buggy": buggy}, 10, 0,
                         cfg, model, grid)


class TestMatching:
    def test_equal_width_match(self, cfg, model, l0):
        grid = SpectralGrid.default(cfg.omega_s0, n=513, span=0.6)
        template = StructureSpec("rps", 700, l0, sigma=1e-6)
        rows = match_parameter("equal-width", [2.5e6], cfg, model, grid, template)
        assert rows[0]["matched"]
        # disorder equivalent to the reference chirp, known to land in
        # the low-micrometer range
        assert 1.7e-6 < rows[0]["sigma"] < 3.0e-6
        assert rows[0]["observable_rps"] == pytest.approx(
            rows[0]["observable_chirp"], rel=0.02)

    @pytest.mark.parametrize("target", ["equal-width", "equal-rate"])
    def test_rows_equal_per_probe_joint_density(self, cfg, model, l0, target):
        # oracle: the same probe and root search on full joint_density calls
        grid = SpectralGrid.default(cfg.omega_s0, n=257, span=0.6)
        template = StructureSpec("rps", 700, l0)
        zetas = (0.5e6, 2.5e6)
        with mock.patch.object(spectra, "_mismatch_slice",
                               wraps=spectra._mismatch_slice) as mismatch:
            rows = match_parameter(target, zetas, cfg, model, grid, template)
        assert mismatch.call_count == 1
        observable = extractor_width if target == "equal-width" else extractor_rate

        def measure(spec):
            return observable(grid.omega_s, joint_density(spec, cfg, model, grid))

        want = []
        for zeta in zetas:
            goal = measure(StructureSpec("chirped", 700, l0, zeta=zeta))

            def gap(sig, goal=goal):
                return measure(StructureSpec("rps", 700, l0, sigma=sig)) - goal

            probes = np.geomspace(5e-8, 8e-6, 25)
            vals = []
            for p in probes:
                try:
                    vals.append(gap(p))
                except SpectraError:
                    vals.append(np.nan)
            vals = np.array(vals)
            ok = np.nonzero(np.isfinite(vals[:-1]) & np.isfinite(vals[1:])
                            & (np.sign(vals[:-1]) != np.sign(vals[1:])))[0]
            assert ok.size
            sigma = brentq(gap, probes[ok[0]], probes[ok[0] + 1], rtol=1e-2)
            rate_chirp, rate_rps = (
                extractor_rate(grid.omega_s, joint_density(spec, cfg, model, grid))
                for spec in (StructureSpec("chirped", 700, l0, zeta=zeta),
                             StructureSpec("rps", 700, l0, sigma=sigma)))
            want.append({"zeta": zeta, "sigma": sigma, "observable_chirp": goal,
                         "observable_rps": gap(sigma) + goal,
                         "rate_chirp": rate_chirp, "rate_rps": rate_rps,
                         "matched": True})
        assert rows == want

    def test_unknown_target(self, cfg, model, grid, l0):
        with pytest.raises(SpectraError):
            match_parameter("equal-phase", [1e6], cfg, model, grid,
                            StructureSpec("rps", 700, l0, sigma=1e-6))
