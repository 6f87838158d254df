import contextlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import fft

from conftest import dispersion_cancellation_check, examples

from randpoled import (RandomSource, StructureSpec, compensate,
                       entanglement_time, fwhm, hom_trace,
                       sumfreq_ensemble_mc, sumfreq_trace,
                       two_photon_amplitude, xcorr_rps)
from randpoled import temporal
from randpoled.spectra import SpectralGrid, SpectralSlice, _cw_slice
from randpoled.temporal import (_INV_GOLDEN, WEIGHT_FLOOR, TemporalError, _apply_phase,
                                _direct_oscillatory_sum, _golden_min, _hom_weights,
                                _next_fast_len, _oscillatory_sum, _trapezoid_weights,
                                fit_quadratic_phase)

TAU = np.linspace(-50e-15, 50e-15, 2001)
TAU_WIDE = np.linspace(-400e-15, 400e-15, 2001)


@pytest.fixture(scope="module")
def grid513(cfg):
    return SpectralGrid.default(cfg.omega_s0, n=513)


class TestHom:
    def test_dip_reaches_zero_exactly(self, cfg, model, grid, l0):
        for spec in (StructureSpec("rps", 700, l0, sigma=2.1e-6),
                     StructureSpec("chirped", 700, l0, zeta=2.5e6)):
            tr = hom_trace(spec, cfg, model, grid, TAU)
            assert tr.values[np.argmin(np.abs(TAU))] == 0.0

    @pytest.mark.parametrize("n", [257, 513, 1025, 1537, 2049, 3073, 4097])
    @pytest.mark.parametrize("source", ["rps", "chirped", "ideal",
                                        "layout0", "layout3", "layout7"])
    def test_zero_delay_is_exact_on_every_grid(self, cfg, model, l0, n, source):
        # the normaliser is summed as the tau = 0 row is: R_n(0) is 0.0, not
        # a rounding residue of either summation order
        rps = StructureSpec("rps", 700, l0, sigma=2.1e-6)
        sources = {"rps": rps,
                   "chirped": StructureSpec("chirped", 700, l0, zeta=2.5e6),
                   "ideal": StructureSpec("ideal", 700, l0)}
        src = (sources[source] if source in sources
               else rps.generate(RandomSource(int(source[-1]), 0)))
        tau = np.linspace(-100e-15, 100e-15, 201)
        assert tau[100] == 0.0
        grid = SpectralGrid.default(cfg.omega_s0, n=n)
        assert hom_trace(src, cfg, model, grid, tau).values[100] == 0.0

    def test_edges_approach_unity(self, cfg, model, grid, l0):
        spec = StructureSpec("rps", 700, l0, sigma=2.1e-6)
        tr = hom_trace(spec, cfg, model, grid, TAU)
        assert tr.values[0] == pytest.approx(1.0, abs=0.02)
        assert tr.values[-1] == pytest.approx(1.0, abs=0.02)

    def test_frozen_dip_widths(self, cfg, model, grid, l0):
        tr = hom_trace(StructureSpec("rps", 700, l0, sigma=2.1e-6),
                       cfg, model, grid, TAU)
        assert entanglement_time(tr) == pytest.approx(5.2347865022799585e-15,
                                                      rel=1e-10)
        tc = hom_trace(StructureSpec("chirped", 700, l0, zeta=2.5e6),
                       cfg, model, grid, TAU)
        assert entanglement_time(tc) == pytest.approx(4.771676110256338e-15,
                                                      rel=1e-10)

    def test_single_realization_matches_family_scale(self, cfg, model, grid, l0):
        spec = StructureSpec("rps", 700, l0, sigma=2.1e-6)
        s = spec.generate(RandomSource(7))
        t_single = entanglement_time(hom_trace(s, cfg, model, grid, TAU))
        t_mean = entanglement_time(hom_trace(spec, cfg, model, grid, TAU))
        assert 0.3 < t_single / t_mean < 3.0

    def test_symmetric_trace(self, cfg, model, grid, l0):
        tr = hom_trace(StructureSpec("rps", 700, l0, sigma=2.1e-6),
                       cfg, model, grid, TAU)
        assert np.allclose(tr.values, tr.values[::-1], atol=1e-12)

    def test_no_dip_error(self):
        from randpoled.temporal import TemporalTrace
        flat = TemporalTrace(TAU, np.ones_like(TAU))
        with pytest.raises(TemporalError):
            entanglement_time(flat)

    def test_phase_insensitive(self, cfg, model, grid513, l0):
        # HOM dip depends only on the spectral density, not the phase
        s = StructureSpec("chirped", 700, l0, zeta=2.5e6)
        sl = two_photon_amplitude(s, cfg, model, grid513)
        flat = SpectralSlice(grid513, np.abs(sl.values))
        a = hom_trace(sl, cfg, model, grid513, TAU)
        b = hom_trace(flat, cfg, model, grid513, TAU)
        assert np.max(np.abs(a.values - b.values)) < 1e-10

    def test_dispersion_cancellation(self, cfg, model, grid513, l0):
        s = StructureSpec("rps", 700, l0, sigma=2.1e-6).generate(RandomSource(7))
        dev = dispersion_cancellation_check(
            s, cfg, model, grid513,
            lambda w: 3e-27 * (w - cfg.omega_s0) ** 2 + 5e-14 * w, TAU)
        assert dev < 1e-8


def _transform_only():
    """Context in which a fallback to the direct sum fails the test."""
    return mock.patch.object(temporal, "_direct_oscillatory_sum",
                             side_effect=AssertionError("direct fallback"))


def _peak_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@given(m=st.integers(2, 600), n=st.integers(2, 600),
       tau0=st.floats(-1.0, 1.0), tau_span=st.floats(1e-3, 2.0),
       f0=st.floats(-1.0, 1.0), f_span=st.floats(1e-3, 2.0),
       phase=st.floats(1.0, 2000.0), seed=st.integers(0, 2 ** 16))
@settings(max_examples=examples(60), deadline=None)
# 510 tau x 2 omega: chirp phases theta k^2 / 2 up to 72,449 rad, whose
# rounding left the transform 1.13e-11 off; the rounding gate sums directly
@example(m=510, n=2, tau0=-1.0, tau_span=2.0, f0=1.0, f_span=2.0, phase=638.0,
         seed=2)
def test_transform_matches_direct_sum(m, n, tau0, tau_span, f0, f_span,
                                      phase, seed):
    # |tau * freq| reaches `phase` rad (up to 2000) at the far corner
    tau = np.linspace(tau0, tau0 + tau_span, m) * 1e-13
    freq = np.linspace(f0, f0 + f_span, n) * (phase / 9.0) * 1e13
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=n) + 1j * rng.normal(size=n)
    want = _direct_oscillatory_sum(tau, freq, amp)
    # draws whose largest chirp phase rounds within _PHASE_TOL stay on the
    # transform; the rest are the gate's to send to the direct sum
    theta = (tau[-1] - tau[0]) / (m - 1) * (freq[-1] - freq[0]) / (n - 1)
    rounding = theta * max(m, n) ** 2 / 2 * 2.0 ** -52
    with (_transform_only() if rounding <= temporal._PHASE_TOL
          else contextlib.nullcontext()):
        got = _oscillatory_sum(tau, freq, amp)
    assert _peak_error(got, want) <= 1e-11


class TestOscillatorySum:
    def test_scenario_grids(self, cfg, model, grid, l0):
        # sum-frequency: 1025 omega x 4096 tau over +-500 fs
        spec = StructureSpec("chirped", 700, l0, zeta=2.5e6)
        sl = two_photon_amplitude(spec, cfg, model, grid)
        freq = grid.omega_s - cfg.omega_s0
        amp = _trapezoid_weights(grid.omega_s) * sl.values
        tau = np.linspace(-500e-15, 500e-15, 4096)
        with _transform_only():
            got = _oscillatory_sum(tau, freq, amp)
        assert _peak_error(got, _direct_oscillatory_sum(tau, freq, amp)) <= 1e-12
        # HOM: 2049 omega x 2001 tau over +-100 fs, frequency factor 2
        grid2049 = SpectralGrid.default(cfg.omega_s0, n=2049)
        rps = StructureSpec("rps", 700, l0, sigma=2.1e-6)
        omega_s, interf, _ = _hom_weights(rps, cfg, model, grid2049)
        freq = 2.0 * (omega_s - cfg.omega_s0)
        amp = _trapezoid_weights(omega_s) * interf
        tau = np.linspace(-100e-15, 100e-15, 2001)
        with _transform_only():
            got = _oscillatory_sum(tau, freq, amp)
        assert _peak_error(got, _direct_oscillatory_sum(tau, freq, amp)) <= 1e-12

    def test_non_uniform_tau_is_direct_sum(self):
        rng = np.random.default_rng(3)
        freq = np.linspace(-4e14, 4e14, 257)
        amp = rng.normal(size=257) + 1j * rng.normal(size=257)
        for tau in (np.sort(rng.uniform(-3e-13, 3e-13, 300)),
                    np.geomspace(1e-16, 3e-13, 300), np.array([2e-14])):
            got = _oscillatory_sum(tau, freq, amp)
            assert np.array_equal(got, _direct_oscillatory_sum(tau, freq, amp))

    def test_next_fast_len_is_scipy_rule(self):
        assert [_next_fast_len(n) for n in range(1, 5000)] == \
            [fft.next_fast_len(n) for n in range(1, 5000)]

    def test_zero_delay_rows_are_exact_sums(self):
        rng = np.random.default_rng(4)
        freq = np.linspace(-4e14, 4e14, 513)
        amp = rng.normal(size=513) + 1j * rng.normal(size=513)
        tau = np.linspace(-3e-13, 3e-13, 2001)
        assert tau[1000] == 0.0
        assert _oscillatory_sum(tau, freq, amp)[1000] == amp.sum()


class TestSumFrequency:
    def test_frozen_widths_and_compensation(self, cfg, model, grid513, l0):
        spec = StructureSpec("chirped", 700, l0, zeta=2.5e6)
        wn = fwhm(*_trace(spec, cfg, model, grid513, "none"))
        wq = fwhm(*_trace(spec, cfg, model, grid513, "quadratic"))
        wi = fwhm(*_trace(spec, cfg, model, grid513, "ideal"))
        assert wn == pytest.approx(198.72154881039162e-15, rel=1e-9)
        assert wq == pytest.approx(10.348600560014935e-15, rel=1e-6)
        assert wi == pytest.approx(6.815486181156991e-15, rel=1e-9)
        assert wi < wq < wn

    def test_normalized_area(self, cfg, model, grid513, l0):
        spec = StructureSpec("chirped", 700, l0, zeta=2.5e6)
        tr = sumfreq_trace(spec, cfg, model, grid513, TAU_WIDE)
        assert np.trapezoid(tr.values, tr.tau) == pytest.approx(1.0, rel=1e-12)

    def test_analytic_ensemble_vs_mc(self, cfg, model, l0):
        # analytic cross-correlator trace equals the MC ensemble mean
        grid = SpectralGrid.default(cfg.omega_s0, n=257)
        tau = np.linspace(-60e-15, 60e-15, 801)
        spec = StructureSpec("rps", 300, l0, sigma=1.5e-6)
        ana = sumfreq_trace(spec, cfg, model, grid, tau)
        mc = sumfreq_ensemble_mc(lambda i: spec.generate(RandomSource(31, i)), cfg,
                                 model, grid, 600, tau)
        scale = ana.values.max()
        assert np.max(np.abs(ana.values - mc.values)) / scale < 0.08

    @pytest.mark.parametrize("compensation", ["none", "quadratic", "ideal"])
    def test_mc_is_mean_of_single_traces(self, cfg, model, l0, compensation):
        # the engine's ensemble equals the mean of one sumfreq_trace per layout
        grid = SpectralGrid.default(cfg.omega_s0, n=257)
        tau = np.linspace(-100e-15, 100e-15, 401)
        spec = StructureSpec("rps", 700, l0, sigma=2.1e-6)
        mc = sumfreq_ensemble_mc(lambda i: spec.generate(RandomSource(7, i)), cfg,
                                 model, grid, 3, tau, compensation)
        mean = np.mean([sumfreq_trace(spec.generate(RandomSource(7, i)), cfg,
                                      model, grid, tau, compensation).values
                        for i in range(3)], axis=0)
        assert _peak_error(mc.values, mean / np.trapezoid(mean, tau)) <= 1e-12

    def test_analytic_ensemble_matches_contraction(self, cfg, model, l0):
        # oracle: the direct contraction I(tau) = Re e(tau)^T M conj(e(tau))
        # of the whole n x n matrix M, for row blocks of one row, of the
        # default size and of the whole grid
        tau = np.linspace(-100e-15, 100e-15, 401)
        spec = StructureSpec("rps", 700, l0, sigma=2.1e-6)
        for n in (257, 1000, 1025):
            grid = SpectralGrid.default(cfg.omega_s0, n=n)
            omega_s = grid.omega_s
            omega_i, *_, dk_tot, g = _cw_slice(cfg, model, omega_s)
            delta_k = dk_tot - np.pi / l0
            fmat = xcorr_rps(delta_k[:, None], delta_k[None, :], 700, l0, spec.sigma)
            a = np.sqrt(omega_s * omega_i) * _trapezoid_weights(omega_s) * g
            m = (a[:, None] * np.conj(a[None, :])) * fmat
            e = np.exp(-1j * np.outer(tau, omega_s - cfg.omega_s0))
            want = np.real(((e @ m) * np.conj(e)).sum(axis=1))
            want /= np.trapezoid(want, tau)
            for rows in (1, temporal._ROW_BLOCK, n):
                with _transform_only(), \
                        mock.patch.object(temporal, "_ROW_BLOCK", rows):
                    got = sumfreq_trace(spec, cfg, model, grid, tau).values
                assert _peak_error(got, want) <= 1e-12

    @pytest.mark.parametrize("n", [1024, 1025])
    def test_analytic_ensemble_independent_of_row_block(self, cfg, model, l0, n):
        # blocks of 7 rows straddle the mirror row and blocks of 16 end at it, on
        # odd and even grids; each row is the same whatever its block
        spec = StructureSpec("rps", 700, l0, sigma=2.1e-6)
        grid = SpectralGrid.default(cfg.omega_s0, n=n)
        traces = []
        for rows in (1, 7, 16, 32, n):
            with mock.patch.object(temporal, "_ROW_BLOCK", rows):
                traces.append(sumfreq_trace(spec, cfg, model, grid, TAU_WIDE).values)
        for got in traces[1:]:
            assert _peak_error(got, traces[0]) <= 1e-15

    def test_analytic_ensemble_memory(self, cfg, model, grid, l0):
        # the row blocks never form the n x n correlator (196 MB when they did)
        spec = StructureSpec("rps", 700, l0, sigma=2.1e-6)
        tau = np.linspace(-300e-15, 300e-15, 2001)
        tracemalloc.start()
        try:
            sumfreq_trace(spec, cfg, model, grid, tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.n_points == 1025
        assert peak <= 64 * 2 ** 20

    def test_zero_area_rejected(self, cfg, model):
        grid = SpectralGrid.default(cfg.omega_s0, n=257)
        zero = SpectralSlice(grid, np.zeros(257))
        with pytest.raises(TemporalError, match="zero area"):
            sumfreq_trace(zero, cfg, model, grid, TAU)

    def test_mc_needs_a_realization(self, cfg, model, l0):
        grid = SpectralGrid.default(cfg.omega_s0, n=257)
        spec = StructureSpec("rps", 300, l0, sigma=1.5e-6)
        for realizations in (0, -1):
            with pytest.raises(TemporalError):
                sumfreq_ensemble_mc(lambda i: spec.generate(RandomSource(0, i)), cfg,
                                    model, grid, realizations, TAU)

    def test_ensemble_compensation_requires_mc(self, cfg, model, grid513, l0):
        spec = StructureSpec("rps", 700, l0, sigma=2.1e-6)
        with pytest.raises(TemporalError):
            sumfreq_trace(spec, cfg, model, grid513, TAU, compensation="ideal")

    def test_unknown_compensation(self, cfg, model, grid513, l0):
        spec = StructureSpec("chirped", 700, l0, zeta=2.5e6)
        with pytest.raises(TemporalError):
            sumfreq_trace(spec, cfg, model, grid513, TAU, compensation="cubic")


class TestPhase:
    def test_spectral_phase_masks_low_weight(self, cfg, model, grid513, l0):
        # the chirped band fills this grid; the ideal sinc^2 has side lobes
        # below the floor; the synthetic slice's phase jumps by 3.5 rad
        # across a gap below the floor.  Oracle: each run above the floor
        # unwrapped on its own, then polyfit with w = |Phi|, to the last bit
        slices = [two_photon_amplitude(s, cfg, model, grid513)
                  for s in (StructureSpec("chirped", 700, l0, zeta=2.5e6),
                            StructureSpec("ideal", 700, l0))]
        half = grid513.n_points // 2
        jump = np.where(np.arange(grid513.n_points) < half, np.exp(-0.5j), np.exp(3.0j))
        jump[half - 5:half + 5] = 0.0
        slices.append(SpectralSlice(grid513, jump))
        runs = []
        for sl in slices:
            weight = np.abs(sl.values) ** 2
            inside = weight >= WEIGHT_FLOOR * weight.max()
            edges = np.flatnonzero(np.diff(np.concatenate(([0], inside, [0]))))
            phase = np.concatenate([np.unwrap(np.angle(sl.values[a:b]))
                                    for a, b in zip(edges[::2], edges[1::2])])
            x = grid513.omega_s[inside] - cfg.omega_s0
            w = np.sqrt(weight[inside])
            want = np.polynomial.polynomial.polyfit(x, phase, 2, w=w)
            assert fit_quadratic_phase(sl) == tuple(float(c) for c in want)
            runs.append(edges.size // 2)
        assert runs[0] == 1 and runs[1] > 1 and runs[2] == 2
        # one unwrap over both runs would carry the jump into the fit
        joint = np.polynomial.polynomial.polyfit(
            x, np.unwrap(np.angle(sl.values[inside])), 2, w=w)
        assert not np.array_equal(joint, want)

    def test_fit_needs_a_nonzero_amplitude(self, grid513):
        zero = SpectralSlice(grid513, np.zeros(grid513.n_points))
        with pytest.raises(TemporalError, match="zero amplitude everywhere"):
            fit_quadratic_phase(zero)

    @pytest.mark.parametrize("kept", [[200], [200, 201], [10, 400]])
    def test_fit_needs_three_samples_above_the_floor(self, grid513, kept):
        # a sample just below WEIGHT_FLOOR of the peak does not count
        values = np.zeros(grid513.n_points, dtype=complex)
        values[kept] = np.exp(0.3j)
        values[300] = np.sqrt(0.99 * WEIGHT_FLOOR)
        with pytest.raises(TemporalError, match="fewer than three weighted samples"):
            fit_quadratic_phase(SpectralSlice(grid513, values))
        if len(kept) == 2:  # just above the floor it is the third sample
            values[300] = np.sqrt(1.01 * WEIGHT_FLOOR)
            sl = SpectralSlice(grid513, values)
            assert np.all(np.isfinite(fit_quadratic_phase(sl)))

    def test_quadratic_fit_recovers_injection(self, cfg, model, grid513, l0):
        ideal = StructureSpec("ideal", 700, l0).generate(RandomSource(0))
        sl = two_photon_amplitude(ideal, cfg, model, grid513)
        base = fit_quadratic_phase(sl)
        x = grid513.omega_s - cfg.omega_s0
        inj = SpectralSlice(
            grid513, sl.values * np.exp(1j * (0.3 + 1e-15 * x + 4e-29 * x ** 2)))
        got = fit_quadratic_phase(inj)
        assert got[0] - base[0] == pytest.approx(0.3, rel=1e-9)
        assert got[1] - base[1] == pytest.approx(1e-15, rel=1e-9)
        assert got[2] - base[2] == pytest.approx(4e-29, rel=1e-9)

    def test_compensate_none_identity(self, cfg, model, grid513, l0):
        s = StructureSpec("chirped", 700, l0, zeta=2.5e6)
        sl = two_photon_amplitude(s, cfg, model, grid513)
        assert compensate(sl, "none") is sl

    def test_compensate_ideal_flattens(self, cfg, model, grid513, l0):
        s = StructureSpec("chirped", 700, l0, zeta=2.5e6)
        sl = two_photon_amplitude(s, cfg, model, grid513)
        flat = compensate(sl, "ideal")
        assert np.allclose(flat.values.imag, 0.0)
        assert np.allclose(np.abs(flat.values), np.abs(sl.values))

    def test_compensate_quadratic_removes_injected(self, cfg, model, grid513, l0):
        # an amplitude with purely quadratic extra phase compensates back
        # to (at least) the original trace width
        ideal = StructureSpec("ideal", 700, l0).generate(RandomSource(0))
        sl = two_photon_amplitude(ideal, cfg, model, grid513)
        x = grid513.omega_s - cfg.omega_s0
        inj = SpectralSlice(grid513, sl.values * np.exp(1j * 3e-28 * x ** 2))
        w_orig = fwhm(*_trace_slice(sl, cfg, model, grid513, "none"))
        w_inj = fwhm(*_trace_slice(inj, cfg, model, grid513, "none"))
        w_comp = fwhm(*_trace_slice(inj, cfg, model, grid513, "quadratic"))
        assert w_inj > 2.0 * w_orig
        assert w_comp < 1.05 * w_orig

    @pytest.mark.parametrize("zeta", [4e6, -1e6])
    def test_compensate_survives_probes_past_the_window(self, cfg, model, l0, zeta):
        # some curvature probes widen the trace past the +-500 fs probe
        # window; they must lose the search, not abort it
        grid = SpectralGrid.default(cfg.omega_s0, n=257)
        spec = StructureSpec("chirped", 700, l0, zeta=zeta)
        sl = two_photon_amplitude(spec, cfg, model, grid)
        fitted = _apply_phase(sl, *fit_quadratic_phase(sl))
        w_fit = fwhm(*_trace_slice(fitted, cfg, model, grid, "none"))
        w_quad = fwhm(*_trace(spec, cfg, model, grid, "quadratic"))
        assert w_quad <= w_fit

    @pytest.mark.parametrize("curvature", [0.0, 3e-28, -1e-27])
    def test_compensate_keeps_exact_fit(self, cfg, curvature):
        # a Gaussian amplitude with a purely quadratic phase: the fit is
        # exact, no curvature narrows its trace by 1e-3, so the fit stays
        grid = SpectralGrid.default(cfg.omega_s0, n=257)
        x = grid.omega_s - cfg.omega_s0
        sl = SpectralSlice(grid, np.exp(-(10.0 * x / np.ptp(x)) ** 2
                                        + 1j * curvature * x ** 2))
        fitted = _apply_phase(sl, *fit_quadratic_phase(sl))
        assert np.array_equal(compensate(sl, "quadratic").values, fitted.values)

    def test_compensate_probe_budget(self, cfg, model, grid, l0):
        # each width probe is a 4096 x 1025 transform: the base width and
        # 26 golden-section probes on sumfreq-study's default chirp
        sl = two_photon_amplitude(StructureSpec("chirped", 700, l0, zeta=2.5e6),
                                  cfg, model, grid)
        with mock.patch.object(temporal, "fwhm", wraps=fwhm) as probe:
            compensate(sl, "quadratic")
        assert probe.call_count <= 27


def _trace(spec, cfg, model, grid, mode):
    tr = sumfreq_trace(spec, cfg, model, grid, TAU_WIDE, compensation=mode)
    return tr.tau, tr.values


def _trace_slice(slice_, cfg, model, grid, mode):
    tr = sumfreq_trace(slice_, cfg, model, grid, TAU_WIDE, compensation=mode)
    return tr.tau, tr.values


class TestGrids:
    @pytest.mark.parametrize("trace, shift", [
        pytest.param("sumfreq-rps", 1e-9, id="1e-09"),
        pytest.param("sumfreq-rps", 1e-3, id="0.001"),
        pytest.param("hom-slice", 1e-9, id="hom-slice-1e-09"),
        pytest.param("hom-slice", 1e-3, id="hom-slice-0.001"),
    ])
    def test_analytic_trace_needs_mirror_grid(self, cfg, model, l0, trace, shift):
        # the exchange symmetry both rely on holds on grids symmetric about
        # omega_s0 alone: off it, the reversed amplitude is not Phi(omega_i)
        grid = SpectralGrid.default(cfg.omega_s0 * (1 + shift), n=257)
        if trace == "sumfreq-rps":
            run, source = sumfreq_trace, StructureSpec("rps", 700, l0, sigma=2.1e-6)
        else:
            run, source = hom_trace, two_photon_amplitude(
                StructureSpec("chirped", 700, l0, zeta=2.5e6), cfg, model, grid)
        with pytest.raises(TemporalError, match="symmetric about omega_s0"):
            run(source, cfg, model, grid, TAU)

    @pytest.mark.parametrize("span", [0.35, 0.6])
    def test_default_grids_are_mirror_grids(self, cfg, span):
        # every default grid of 257-4096 points is mirrored about omega_s0,
        # measured to at most 4.1e-16 of omega_s0
        for n in range(257, 4097):
            temporal._check_mirror_grid(
                SpectralGrid.default(cfg.omega_s0, n=n, span=span).omega_s)

    def test_asymmetric_grid_rejected(self, cfg, model, l0):
        bad = SpectralGrid(np.linspace(0.8, 1.5, 257) * cfg.omega_s0)
        s = StructureSpec("chirped", 700, l0, zeta=2.5e6)
        sl = two_photon_amplitude(s, cfg, model, bad)
        with pytest.raises(TemporalError):
            hom_trace(sl, cfg, model, bad, TAU)


def _golden_shapes(rng, k):
    """(f, minimizer, lo, hi) on the unit scale: a family of the bounded
    search's battery, strictly unimodal on a bracket around its minimizer."""
    c, m = rng.uniform(-1.0, 1.0, 3), rng.uniform(-2.0, 2.0)
    f, x_min, reach = [
        (lambda u: (u - m) ** 2 * (1.0 + c[0] ** 2) + c[1], m, 3.0),
        (lambda u: abs(u - m) ** (1.0 + abs(c[0])), m, 3.0),
        # tilted cosine, bracketed inside one well
        (lambda u: -math.cos(3.0 * (u - m)) + 0.1 * c[2] * u,
         m - math.asin(0.1 * c[2] / 3.0) / 3.0, 1.0),
        (lambda u: abs(u - m) + 0.5 * c[0] * (u - m), m, 3.0)][k % 4]
    return f, x_min, m - rng.uniform(0.1, reach), m + rng.uniform(0.1, reach)


def _golden_probes(lo, hi, xatol):
    return 2 + max(0, math.ceil(math.log(xatol / (hi - lo)) / math.log(_INV_GOLDEN)))


class TestGoldenMin:
    def test_finds_minimum_within_xatol(self):
        # compensate's magnitudes: curvatures ~1e-28 s^2, xatol 1e-4 of the scale
        rng = np.random.default_rng(12)
        for k in range(400):
            shape, m, lo, hi = _golden_shapes(rng, k)
            scale = 10.0 ** rng.integers(-30, 3)
            xatol = 1e-4 * scale
            probed = []

            def f(x, shape=shape, scale=scale):
                probed.append(shape(x / scale))
                return probed[-1]
            x, fx = _golden_min(f, lo * scale, hi * scale, xatol)
            assert len(probed) == _golden_probes(lo, hi, 1e-4)
            assert abs(x - m * scale) <= xatol
            assert fx == shape(x / scale) == min(probed)

    @pytest.mark.parametrize("xatol, probes", [(5.0, 2), (2.0, 3), (0.9, 5), (0.3, 7),
                                               (1e-3, 19), (1e-7, 38)])
    def test_probe_count(self, xatol, probes):
        calls = []

        def f(x):
            calls.append(x)
            return math.cos(3.0 * x)
        _golden_min(f, -1.0, 2.0, xatol)
        assert len(calls) == _golden_probes(-1.0, 2.0, xatol) == probes

    @pytest.mark.parametrize("window", [(-0.5, 0.45), (-0.05, 1.7), (-1.9, 0.05)])
    def test_infinite_values_lose(self, window):
        # +inf off a window around the minimum, as for the width probes whose
        # trace overruns compensate's window; one first probe lies inside
        m = 0.3

        def f(u):
            if not window[0] < u - m < window[1]:
                return math.inf
            return (u - m) ** 2
        x, fx = _golden_min(f, m - 2.0, m + 2.0, 1e-6)
        assert abs(x - m) <= 1e-6 and fx == (x - m) ** 2
