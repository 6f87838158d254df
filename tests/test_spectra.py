import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import examples, fab_error_mean_f2

from randpoled import spectra
from randpoled import (DomainError, ProcessConfig, RandomSource, StructureSpec,
                       apply_fabrication_error, ensemble_run, fwhm,
                       joint_density, match_parameter, two_photon_amplitude)
from randpoled.dispersion import SPEED_OF_LIGHT, DispersionModel, omega_from_wavelength
from randpoled.phasematch import BoundaryPlan, avg_f2_rps, f_exact
from randpoled.scenarios import _BASE_ROWS, _ROW_STREAMS, _workspace
from randpoled.structures import _check_redraw_rate
from randpoled.spectra import (CHI2_EFFECTIVE, SpectralGrid,
                               SpectralSlice, _cw_slice, _f2,
                               extractor_rate, extractor_width,
                               map_realizations)


class TestConfigAndGrid:
    def test_defaults(self, cfg):
        assert spectra.PUMP_WAVELENGTH == 775e-9
        assert cfg.omega_s0 == pytest.approx(0.5 * cfg.omega_p0, rel=1e-15)

    def test_invalid_config(self):
        with pytest.raises(DomainError, match="pump width must be positive and finite"):
            ProcessConfig(pump_width=-1.0)

    @pytest.mark.parametrize("width", [np.nan, np.inf])
    def test_pump_width_must_be_finite(self, width):
        with pytest.raises(DomainError, match="finite"):
            ProcessConfig(pump_width=width)

    def test_grid_validation(self):
        with pytest.raises(DomainError, match="grid must be uniform and increasing"):
            SpectralGrid(np.array([2.0, 1.0, 3.0]) * 1e15)
        with pytest.raises(DomainError, match="grid must be uniform and increasing"):
            SpectralGrid(np.array([1e15, 2e15, 4e15]))
        with pytest.raises(DomainError, match="grid needs at least two samples"):
            SpectralGrid(np.array([5.0]))

    def test_default_grid(self, cfg):
        g = SpectralGrid.default(cfg.omega_s0, n=101, span=0.2)
        assert g.n_points == 101
        assert g.omega_s[0] == pytest.approx(0.8 * cfg.omega_s0)
        assert g.omega_s[-1] == pytest.approx(1.2 * cfg.omega_s0)

    def test_slice_idler_positive(self, cfg):
        with pytest.raises(DomainError, match=r"past the pump frequency \(idler <= 0\)"):
            SpectralGrid(np.linspace(0.9, 1.1, 11) * cfg.omega_p0)

    def test_pump_is_a_constant(self, cfg, grid):
        # the pump frequency is no field: a slice derives its idler from it
        assert [f.name for f in dataclasses.fields(ProcessConfig)] == ["pump_width"]
        assert ProcessConfig.omega_p0 == omega_from_wavelength(spectra.PUMP_WAVELENGTH)
        assert cfg.omega_s0 == 0.5 * ProcessConfig.omega_p0
        assert [f.name for f in dataclasses.fields(SpectralSlice)] == ["grid", "values"]
        slice_ = SpectralSlice(grid, np.ones(grid.n_points))
        assert np.array_equal(slice_.omega_i, cfg.omega_p0 - grid.omega_s)


class TestCwSlice:
    def test_coupling_magnitude_and_phase(self, cfg, model):
        g = _cw_slice(cfg, model, cfg.omega_s0)[5]
        n = model.refractive_index(cfg.omega_s0)
        want = cfg.omega_s0 / (2.0 * SPEED_OF_LIGHT * np.pi * n) * CHI2_EFFECTIVE
        assert g == pytest.approx(1j * want, rel=1e-12)

    def test_coupling_exchange_symmetric(self, cfg, model, grid):
        # the default grid is mirrored about omega_s0: reversing it exchanges
        # signal and idler
        g = _cw_slice(cfg, model, grid.omega_s)[5]
        assert np.allclose(g, g[::-1], rtol=1e-14, atol=0.0)

    def test_three_index_evaluations(self, cfg, model, grid, monkeypatch):
        # n(omega_s), n(omega_i) and the pump's n, each once
        calls = []
        original = DispersionModel.refractive_index

        def counted(self, omega):
            calls.append(1)
            return original(self, omega)

        monkeypatch.setattr(DispersionModel, "refractive_index", counted)
        _cw_slice(cfg, model, grid.omega_s)
        assert len(calls) == 3

    def test_wavenumbers_and_mismatch_to_the_bit(self, cfg, model, grid):
        omega_s = grid.omega_s
        omega_i, k_s, k_i, k_p, dk_tot, _ = _cw_slice(cfg, model, omega_s)
        assert np.array_equal(omega_i, cfg.omega_p0 - omega_s)
        assert np.array_equal(k_s, model.wavenumber(omega_s))
        assert np.array_equal(k_i, model.wavenumber(omega_i))
        assert np.array_equal(k_p, model.wavenumber(np.full_like(omega_s, cfg.omega_p0)))
        assert np.array_equal(dk_tot, model.collinear_mismatch(omega_s, omega_i))

    def test_idler_sums_back_to_the_pump(self, cfg):
        # k_p = n(omega_s + omega_i) omega / c is the pump's to the bit because
        # the sum rounds back to omega_p0 for every omega_s the band admits
        # (vacuum wavelengths up to 4 um: 0.3875 omega_s0): above omega_s0 the
        # subtraction is exact, below it omega_i lies one binade under omega_p0
        band = np.linspace(0.3875 * cfg.omega_s0, cfg.omega_p0, 1_000_001,
                           endpoint=False)
        near = cfg.omega_s0 + np.arange(-1000, 1001) * np.spacing(cfg.omega_s0)
        spatial_study = np.linspace(cfg.omega_s0 * 0.65, cfg.omega_s0 * 1.35, 201)
        for omega_s in (band, near, spatial_study):
            assert np.all(omega_s + (cfg.omega_p0 - omega_s) == cfg.omega_p0)


class TestDensities:
    # frozen reference values on the 1025-point default grid
    FROZEN = {
        ("rps", 2.1e-6, 0.0): (2.6381104392650805e-05, 737343982581594.9),
        ("chirped", 0.0, 2.5e6): (3.927588878845482e-05, 771059507970020.4),
        ("ideal", 0.0, 0.0): (0.00021100913975059384, 129333016610506.0),
    }

    def test_frozen_rates_and_widths(self, cfg, model, grid, l0):
        for (kind, sigma, zeta), (rate, width) in self.FROZEN.items():
            spec = StructureSpec(kind, 700, l0, sigma=sigma, zeta=zeta)
            jd = joint_density(spec, cfg, model, grid)
            assert extractor_rate(grid.omega_s, jd) == pytest.approx(
                rate, rel=1e-10)
            assert fwhm(grid.omega_s, jd) == pytest.approx(width, rel=1e-10)

    def test_single_realization_frozen(self, cfg, model, grid, l0):
        s = StructureSpec("rps", 700, l0, sigma=2.1e-6).generate(RandomSource(7))
        jd = joint_density(s, cfg, model, grid)
        assert extractor_rate(grid.omega_s, jd) == pytest.approx(
            2.2408128682314295e-05, rel=1e-10)
        assert fwhm(grid.omega_s, jd) == pytest.approx(752026607021998.9,
                                                       rel=1e-10)

    def test_disorder_broadens_and_weakens(self, cfg, model, grid, l0):
        rates, widths = [], []
        for sigma in (0.5e-6, 1.0e-6, 2.0e-6):
            spec = StructureSpec("rps", 700, l0, sigma=sigma)
            jd = joint_density(spec, cfg, model, grid)
            rates.append(extractor_rate(grid.omega_s, jd))
            widths.append(fwhm(grid.omega_s, jd))
        assert rates[0] > rates[1] > rates[2]
        assert widths[0] < widths[1] < widths[2]

    def test_mean_f2_structure_vs_spec_consistency(self, cfg, model, grid, l0):
        # a chirped spec is deterministic: the analytic profile must track
        # the explicit realization closely near the peak region
        spec = StructureSpec("chirped", 700, l0, zeta=2.5e6)
        s = spec.generate(RandomSource(0))
        *_, dk_tot, _ = _cw_slice(cfg, model, grid.omega_s)
        fa = _f2(spec, dk_tot)
        fe = _f2(s, dk_tot)
        sel = fe > 0.2 * fe.max()
        assert np.max(np.abs(fa[sel] / fe[sel] - 1.0)) < 0.02

    def test_amplitude_requires_realization(self, cfg, model, grid, l0):
        with pytest.raises(DomainError, match="amplitude requires an explicit structure"):
            two_photon_amplitude(StructureSpec("rps", 700, l0, sigma=1e-6),
                                 cfg, model, grid)

    def test_amplitude_density_consistency(self, cfg, model, grid, l0):
        s = StructureSpec("rps", 700, l0, sigma=2.1e-6).generate(RandomSource(3))
        amp = two_photon_amplitude(s, cfg, model, grid)
        jd = joint_density(s, cfg, model, grid)
        assert np.allclose(np.abs(amp.values) ** 2, jd, rtol=1e-12)


class TestSpectrumHelpers:
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
        with pytest.raises(DomainError, match="span too narrow"):
            fwhm(x, np.exp(-x ** 2))


    def test_fwhm_rejects_non_finite(self):
        # a NaN used to slip past the peak checks and raise IndexError
        with pytest.raises(DomainError, match="finite"):
            fwhm(np.arange(5.0), [0.0, 1.0, np.nan, 1.0, 0.0])
        with pytest.raises(DomainError, match="finite"):
            fwhm([0.0, 1.0, np.inf, 3.0, 4.0], [0.0, 1.0, 2.0, 1.0, 0.0])


def _draws(spec, seed):
    """draw(i) of ensemble_run: layout i of spec from stream i of seed."""
    return lambda i: spec.generate(RandomSource(seed, i))


class TestEnsemble:
    def test_stats_and_determinism(self, cfg, model, l0):
        grid = SpectralGrid.default(cfg.omega_s0, n=257)
        spec = StructureSpec("rps", 700, l0, sigma=1.5e-6)
        extractors = {"rate": extractor_rate, "width": extractor_width}
        a = ensemble_run(_draws(spec, 11), extractors, 50, cfg, model, grid)
        b = ensemble_run(_draws(spec, 11), extractors, 50, cfg, model, grid)
        for name in extractors:
            assert a[name].mean == b[name].mean
            assert a[name].variance == b[name].variance
            assert np.array_equal(a[name].values, b[name].values)
        assert a["rate"].realizations == 50
        assert a["rate"].failures == 0
        assert a["rate"].values.size == 50
        assert a["rate"].rel_fluctuation == pytest.approx(
            np.sqrt(a["rate"].variance) / a["rate"].mean, rel=1e-12)

    def test_mean_matches_analytic(self, cfg, model, l0):
        grid = SpectralGrid.default(cfg.omega_s0, n=257)
        spec = StructureSpec("rps", 700, l0, sigma=1.5e-6)
        stats = ensemble_run(_draws(spec, 5), {"rate": extractor_rate}, 200,
                             cfg, model, grid)["rate"]
        ana = extractor_rate(grid.omega_s, joint_density(spec, cfg, model, grid))
        se = np.sqrt(stats.variance / stats.realizations)
        assert abs(stats.mean - ana) < 4.0 * se

    def test_too_few_realizations(self, cfg, model, l0):
        grid = SpectralGrid.default(cfg.omega_s0, n=257)
        spec = StructureSpec("rps", 700, l0, sigma=1.5e-6)
        with pytest.raises(DomainError, match="at least one"):
            ensemble_run(_draws(spec, 0), {"rate": extractor_rate}, 0, cfg, model, grid)
        # one layout: its own value is the mean, and it has no variance
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st = ensemble_run(_draws(spec, 0), {"rate": extractor_rate}, 1, cfg,
                              model, grid)["rate"]
        want = extractor_rate(grid.omega_s, joint_density(
            spec.generate(RandomSource(0, 0)), cfg, model, grid))
        assert st.mean == pytest.approx(want, rel=1e-12)
        assert np.array_equal(st.values, [st.mean])
        assert np.isnan(st.variance) and np.isnan(st.rel_fluctuation)
        assert (st.realizations, st.failures) == (1, 0)

    def test_failing_extractor_reported(self, cfg, model, l0):
        grid = SpectralGrid.default(cfg.omega_s0, n=257)
        spec = StructureSpec("rps", 700, l0, sigma=1.5e-6)

        def broken(omega, density):
            raise DomainError("no value")

        with pytest.raises(DomainError, match="broken"):
            ensemble_run(_draws(spec, 0), {"broken": broken}, 10, cfg, model, grid)

    def test_non_domain_error_propagates(self, cfg, model, l0):
        # a bug in an extractor is not a failed extraction: numpy's own error
        # ends the run with its message
        grid = SpectralGrid.default(cfg.omega_s0, n=257)
        spec = StructureSpec("rps", 700, l0, sigma=1.5e-6)

        def bug(omega, density):
            return np.trapezoid(density[:-1], omega)

        with pytest.raises(ValueError, match="could not be broadcast") as exc:
            ensemble_run(_draws(spec, 0), {"bug": bug}, 20, cfg, model, grid)
        assert not isinstance(exc.value, DomainError)

    def test_rare_failure_counted(self, cfg, model, l0):
        grid = SpectralGrid.default(cfg.omega_s0, n=257)
        spec = StructureSpec("rps", 700, l0, sigma=1.5e-6)
        calls = []

        def first_fails(omega, density):
            calls.append(1)
            if len(calls) == 1:
                raise DomainError("off the grid")
            return extractor_rate(omega, density)

        stats = ensemble_run(_draws(spec, 0), {"rate": first_fails}, 100, cfg,
                             model, grid)["rate"]
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
        *_, dk_tot, _ = _cw_slice(cfg, model, grid.omega_s)
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
            ensemble_run(_draws(spec, 0), {"rate": extractor_rate, "buggy": buggy},
                         10, cfg, model, grid)


class TestFabricationErrorMean:
    """conftest.fab_error_mean_f2, the exact mean of |F|^2 under fabrication
    error, as the oracle of apply_fabrication_error plus map_realizations."""

    SIGMA_ERS = (2.5e-7, 5e-7, 1e-6)

    @pytest.fixture(scope="class")
    def ws(self):
        # fab-error-scan's grid
        return _workspace(297.0, 257, span=0.6)

    @pytest.mark.parametrize("b, kind, kw", [
        (0, "chirped", {"zeta": 2.5e6}), (1, "rps", {"sigma": 2.1e-6})])
    def test_monte_carlo_rate_within_four_standard_errors(self, ws, b, kind,
                                                          kw):
        # fab-error-scan's bases at seed 0 (cpps from stream 0, rps from
        # stream 1) and its streams for rows e = 1, 2, 3 of base b
        base = StructureSpec(kind, 700, ws.l0, **kw).generate(RandomSource(0, b))
        *_, dk_tot, g = _cw_slice(ws.cfg, ws.model, ws.grid.omega_s)
        omega_s, n = ws.grid.omega_s, 400
        for e, sigma_er in enumerate(self.SIGMA_ERS, start=1):
            first = 1000 + (b * _BASE_ROWS + e) * _ROW_STREAMS
            rates = np.array(map_realizations(
                lambda i: apply_fabrication_error(base, sigma_er,
                                                  RandomSource(0, first + i)),
                n, ws.cfg, ws.model, ws.grid,
                lambda g, f: extractor_rate(omega_s, np.abs(g) ** 2 * np.abs(f) ** 2)))
            exact = extractor_rate(
                omega_s, np.abs(g) ** 2 * fab_error_mean_f2(base, sigma_er, dk_tot))
            se = rates.std(ddof=1) / np.sqrt(n)
            assert abs(rates.mean() - exact) <= 4.0 * se, (kind, sigma_er)

    def test_full_end_weights_give_the_rps_mean(self, ws):
        # on an ideal base the error's walk is the rps walk of spread
        # sqrt(2) sigma_er, and full end weights are avg_f2_rps's model
        *_, dk_tot, _ = _cw_slice(ws.cfg, ws.model, ws.grid.omega_s)
        base = StructureSpec("ideal", 700, ws.l0).generate(None)
        for sigma_er in self.SIGMA_ERS:
            got = fab_error_mean_f2(base, sigma_er, dk_tot, end_weight=1.0)
            want = avg_f2_rps(dk_tot - np.pi / ws.l0, 700, ws.l0,
                              np.sqrt(2.0) * sigma_er)
            # measured at 0.5e-14 to 1.5e-14 of the peak
            assert np.max(np.abs(got - want)) <= 1e-13 * want.max(), sigma_er

    @staticmethod
    def _largest_accepted(gaps) -> float:
        """The largest sigma_er whose redraw share on gaps passes the redraw
        gate, to 50 bisection steps."""
        lo, hi = 0.0, float(np.max(gaps))
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            try:
                _check_redraw_rate(gaps, mid)
                lo = mid
            except DomainError:
                hi = mid
        return lo

    @given(law=st.sampled_from(["rps", "fab-error-cpps", "fab-error-rps"]),
           n_domains=st.integers(50, 700), points=st.integers(257, 1025),
           span=st.floats(0.35, 0.6), share=st.floats(0.05, 1.0),
           seed=st.integers(0, 2**16))
    @settings(max_examples=examples(10), deadline=None)
    def test_ensemble_rate_mean_is_the_exact_mean(self, law, n_domains, points, span,
                                                  share, seed):
        # ensemble_run's rate mean over 300 layouts of one draw law lies within
        # 4 standard errors of the exact mean.  The spread is a share of the
        # law's accepted range: up to l0/3 for rps (above it generate warns),
        # up to the redraw gate for fabrication error.  Above a floor share,
        # since at zero spread the standard error vanishes.
        ws = _workspace(297.0, points, span)
        if law == "rps":
            # an rps layout is fabrication error of spread sigma/sqrt(2) on
            # the ideal layout, as in test_full_end_weights_give_the_rps_mean
            spec = StructureSpec("rps", n_domains, ws.l0, sigma=share * ws.l0 / 3.0)
            base = StructureSpec("ideal", n_domains, ws.l0).generate(None)
            sigma_er = spec.sigma / np.sqrt(2.0)
            draw = lambda i: spec.generate(RandomSource(seed, i))  # noqa: E731
        else:
            kind, kw = (("chirped", {"zeta": 2.5e6}) if law == "fab-error-cpps"
                        else ("rps", {"sigma": 2.1e-6}))
            base = StructureSpec(kind, n_domains, ws.l0, **kw).generate(
                RandomSource(seed, 0))
            sigma_er = share * self._largest_accepted(base.domain_lengths)
            draw = lambda i: apply_fabrication_error(  # noqa: E731
                base, sigma_er, RandomSource(seed, 1 + i))
        rate = ensemble_run(draw, {"rate": extractor_rate}, 300, ws.cfg, ws.model,
                            ws.grid)["rate"]
        *_, dk_tot, g = _cw_slice(ws.cfg, ws.model, ws.grid.omega_s)
        exact = extractor_rate(ws.grid.omega_s, np.abs(g) ** 2
                               * fab_error_mean_f2(base, sigma_er, dk_tot, 0.5))
        sem = np.sqrt(rate.variance / rate.realizations)
        assert abs(rate.mean - exact) <= 4.0 * sem, (rate.mean - exact) / sem


class TestMatching:
    def test_equal_width_match(self, cfg, model, l0):
        grid = SpectralGrid.default(cfg.omega_s0, n=513, span=0.6)
        template = StructureSpec("rps", 700, l0, sigma=1e-6)
        rows = match_parameter(extractor_width, [2.5e6], cfg, model, grid, template)
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
        observable = extractor_width if target == "equal-width" else extractor_rate
        with mock.patch.object(spectra, "_cw_slice",
                               wraps=spectra._cw_slice) as cw_slice:
            rows = match_parameter(observable, zetas, cfg, model, grid, template)
        assert cw_slice.call_count == 1

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
                except DomainError:
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

    def test_each_probe_evaluated_once(self, cfg, model, l0):
        # the probes' rps observables do not depend on zeta: one density each
        grid = SpectralGrid.default(cfg.omega_s0, n=257, span=0.6)
        with mock.patch.object(spectra, "_f2", wraps=spectra._f2) as f2:
            rows = match_parameter(extractor_width, (0.5e6, 2.5e6, 3e6), cfg, model,
                                   grid, StructureSpec("rps", 700, l0))
        assert all(row["matched"] for row in rows)
        sigmas = [c.args[0].sigma for c in f2.call_args_list
                  if c.args[0].kind == "rps"]
        assert [sigmas.count(p) for p in np.geomspace(5e-8, 8e-6, 25)] == [1] * 25
