from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import examples

from scipy import special

from randpoled import (RandomSource, StructureSpec, apply_fabrication_error,
                       avg_f2_rps, avg_f2_rps_asymptotic, avg_f2_weak,
                       f_boundary_sum, f_chirp, f_exact, gen_chirped,
                       gen_ideal, shuffle_segments, xcorr_chirp, xcorr_rps,
                       xcorr_weak)
from randpoled import phasematch
from randpoled.phasematch import (PhasematchError, _dirichlet, characteristic_g,
                                  response)
from randpoled.spectra import SpectralGrid, _mismatch_slice
from randpoled.structures import StructureError

L0 = 9.489154805833549e-06
DK0 = np.pi / L0


class TestFExact:
    # oracle: 30-digit quadrature of the chi(2)-weighted plane-wave
    # integral over each domain of a 6-domain equidistant structure
    # with entrance face at -6 l0
    ORACLE = {
        331071.915: -3.1645643850207112e-14 + 3.624590143806067e-05j,
        3.5e5: 1.6709100127452332e-05 + 2.7948810275507301e-05j,
        1e5: -8.6738740346699078e-07 + 2.8560830802092166e-06j,
    }

    def test_against_quadrature_oracle(self):
        s = gen_ideal(6, L0)
        for dk, want in self.ORACLE.items():
            val = f_exact(s, dk)
            assert val == pytest.approx(want, rel=1e-11, abs=1e-16)

    def test_zero_mismatch_limit(self):
        # alternating-sign integral of equal domains cancels pairwise;
        # odd domain count leaves exactly one domain
        assert abs(f_exact(gen_ideal(6, L0), 0.0)) < 1e-20
        assert f_exact(gen_ideal(7, L0), 0.0) == pytest.approx(L0, rel=1e-12)

    def test_tiny_branch_continuous(self):
        s = gen_ideal(101, L0)
        dk_switch = 1e-6 / s.length
        lo = f_exact(s, dk_switch * 0.99)
        hi = f_exact(s, dk_switch * 1.01)
        assert lo == pytest.approx(hi, rel=1e-6)

    def test_array_shape(self):
        s = gen_ideal(10, L0)
        dk = np.linspace(-1e5, 1e5, 7).reshape(7, 1)
        assert f_exact(s, dk).shape == (7, 1)

    def test_boundary_sum_close_to_exact(self):
        s = gen_ideal(700, L0)
        dk = np.linspace(0.8 * DK0, 1.2 * DK0, 11)
        fe = f_exact(s, dk)
        fb = f_boundary_sum(s, dk)
        # differs only by the two half-weighted end-face boundary terms,
        # each of magnitude 1/dk: small relative to the 2 N_L/dk peak
        assert np.max(np.abs(fb - fe)) < 3.0 / (0.8 * DK0)

    def test_boundary_sum_rejects_zero(self):
        with pytest.raises(PhasematchError):
            f_boundary_sum(gen_ideal(4, L0), 0.0)


def _kernel_only():
    """Context in which a fallback to the direct boundary sum fails the test."""
    return mock.patch.object(phasematch, "_direct_boundary_sum",
                             side_effect=AssertionError("direct fallback"))


def _direct(fn, s, dk):
    """fn(s, dk) with the NUFFT kernel replaced by the direct sum."""
    def direct(z, w, dk, plan=None):
        return phasematch._direct_boundary_sum(z, w, dk)
    with mock.patch.object(phasematch, "_boundary_sum", direct):
        return fn(s, dk)


def _peak_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _layout(kind, n_domains, sigma, seed):
    gen = RandomSource(seed).generator()
    chirped = gen_chirped(n_domains, L0, 2.5e6)
    if kind == "ideal":
        return gen_ideal(n_domains, L0)
    if kind in ("rps", "weakly-random"):
        return StructureSpec(kind, n_domains, L0, sigma=sigma).generate(gen)
    if kind == "chirped":
        return chirped
    if kind == "shuffled":
        return shuffle_segments(chirped, int(gen.integers(1, n_domains + 1)), gen)
    rps = StructureSpec("rps", n_domains, L0, sigma=sigma).generate(gen)
    return apply_fabrication_error(rps, 0.5 * sigma, gen)


# the scenario grids: (points, span) of the spectral slices
SCENARIO_GRIDS = ((257, 0.6), (513, 0.35), (1025, 0.35), (2049, 0.35))


@pytest.fixture(scope="module")
def scenario_dk(cfg, model):
    return {key: _mismatch_slice(cfg, model, SpectralGrid.default(
        cfg.omega_s0, n=key[0], span=key[1])) for key in SCENARIO_GRIDS}


class TestChebyshevKernel:
    @given(kind=st.sampled_from(["ideal", "rps", "weakly-random", "chirped",
                                 "shuffled", "perturbed"]),
           n_domains=st.integers(10, 2000), grid=st.sampled_from(SCENARIO_GRIDS),
           sigma_um=st.floats(0.1, 3.0), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=examples(40), deadline=None)
    def test_matches_direct_sum(self, scenario_dk, kind, n_domains, grid,
                                sigma_um, seed):
        try:
            s = _layout(kind, n_domains, sigma_um * 1e-6, seed)
        except StructureError:
            # the generator rejects some draws by design (too many
            # overlapping boundaries); the kernel has nothing to sum there
            assume(False)
        dk = scenario_dk[grid]
        for fn in (f_exact, f_boundary_sum):
            want = _direct(fn, s, dk)
            with _kernel_only():
                got = fn(s, dk)
            # measured at about 1e-13 of the peak (3.7e-13 at N_L = 2000)
            assert _peak_error(got, want) <= 1e-12

    def test_plan_nodes_follow_layout_length(self, scenario_dk):
        # each layout gets the nodes its length selects, whatever the plan
        # served before, so F is the same to the last bit with or without it
        short, long = _layout("ideal", 300, 0.0, 0), _layout("rps", 700, 2.1e-6, 4)
        dk = scenario_dk[(257, 0.6)]
        plan = phasematch.BoundaryPlan(dk)
        with _kernel_only():
            got = [f_exact(x, dk, plan) for x in (short, long, short)]
            alone = [f_exact(x, dk) for x in (short, long)]
        assert np.array_equal(got[0], alone[0]) and np.array_equal(got[2], alone[0])
        assert np.array_equal(got[1], alone[1])
        for x, f in zip((short, long), alone):
            h = plan.nodes(0.5 * x.length)[0]
            assert 0.5 * x.length <= np.pi / (2.0 * h) <= 0.5 * x.length * 2 ** (1 / 32)
            assert _peak_error(f, _direct(f_exact, x, dk)) <= 1e-12
        assert len(plan._nodes) == 2

    def test_plan_of_another_grid_rejected(self, scenario_dk):
        s = _layout("rps", 700, 2.1e-6, 0)
        plan = phasematch.BoundaryPlan(scenario_dk[(257, 0.6)])
        with pytest.raises(PhasematchError, match="another dk grid"):
            f_exact(s, scenario_dk[(513, 0.35)], plan)

    @pytest.mark.parametrize("n_points", [11, 41])
    def test_grid_with_few_points_takes_direct_sum(self, n_points):
        # no more points than the 2 m + 1 nodes of the plan: the direct sum
        s = _layout("rps", 700, 2.1e-6, 0)
        dk = np.linspace(0.8 * DK0, 1.2 * DK0, n_points)
        plan = phasematch.BoundaryPlan(dk)
        (part, block), = plan.nodes(0.5 * s.length)[3]
        assert block is None
        with mock.patch.object(phasematch, "_direct_boundary_sum",
                               wraps=phasematch._direct_boundary_sum) as direct:
            got = f_exact(s, dk, plan)
        direct.assert_called_once()
        assert np.array_equal(got, _direct(f_exact, s, dk))

    def test_non_finite_grid_takes_direct_sum(self, scenario_dk):
        s = _layout("rps", 700, 2.1e-6, 0)
        dk = scenario_dk[(257, 0.6)].copy()
        dk[100] = np.nan
        with mock.patch.object(phasematch, "_direct_boundary_sum",
                               wraps=phasematch._direct_boundary_sum) as direct:
            got = f_exact(s, dk)
        direct.assert_called_once()
        np.testing.assert_array_equal(got, _direct(f_exact, s, dk))

    def test_shape_and_order_kept(self, scenario_dk):
        s = _layout("rps", 700, 2.1e-6, 1)
        dk = scenario_dk[(257, 0.6)]
        perm = np.random.default_rng(0).permutation(dk.size)
        want = _direct(f_exact, s, dk)
        with _kernel_only():
            column = f_exact(s, dk.reshape(-1, 1))
            shuffled = f_exact(s, dk[perm])
        assert column.shape == (dk.size, 1)
        assert _peak_error(column[:, 0], want) <= 1e-12
        assert _peak_error(shuffled, want[perm]) <= 1e-12

    def test_long_grid_taken_in_blocks(self, scenario_dk):
        s = _layout("rps", 700, 2.1e-6, 3)
        dk = scenario_dk[(1025, 0.35)]
        want = _direct(f_exact, s, dk)
        with mock.patch.object(phasematch, "_BLOCK", 300), _kernel_only():
            plan = phasematch.BoundaryPlan(dk)
            got = f_exact(s, dk, plan)
        blocks = plan.nodes(0.5 * s.length)[3]
        assert [part.size for part, _ in blocks] == [257, 256, 256, 256]
        assert all(block is not None for _, block in blocks)
        assert _peak_error(got, want) <= 1e-12

    def test_zero_mismatch_keeps_series_value(self):
        s = _layout("rps", 100, 2.1e-6, 2)
        dk = np.linspace(-2e5, 2e5, 401)
        assert dk[200] == 0.0
        with _kernel_only():
            got = f_exact(s, dk)
        assert got[200] == f_exact(s, 0.0)
        assert _peak_error(got, _direct(f_exact, s, dk)) <= 1e-12


class TestExactPowers:
    """avg_f2_rps, summed in the exact log H = i dk l0 - sigma^2 dk_tot^2 / 4,
    against its lag sum."""

    @pytest.mark.parametrize("n_domains", [10, 300, 700, 2000])
    @pytest.mark.parametrize("sigma", [0.0, 0.5e-6, 2.1e-6, 3e-6])
    def test_avg_f2_rps_matches_lag_sum(self, scenario_dk, n_domains, sigma):
        m = n_domains + 1
        lag = np.arange(1, m)
        for grid in ((257, 0.6), (1025, 0.35)):
            dk_tot = scenario_dk[grid]
            h = np.exp(1j * (dk_tot - DK0) * L0 - sigma ** 2 * dk_tot ** 2 / 4.0)
            lag_sum = m + 2.0 * (np.real(h[:, None] ** lag) @ (m - lag))
            want = 4.0 / dk_tot ** 2 * lag_sum
            got = avg_f2_rps(dk_tot - DK0, n_domains, L0, sigma, DK0)
            assert _peak_error(got, want) <= 1e-12

    @pytest.mark.parametrize("n_domains, sigma",
                             [(10, 0.0), (700, 0.0), (2000, 0.0), (700, 1e-8)])
    def test_avg_f2_rps_branches_agree_at_switch(self, n_domains, sigma):
        # both branches on the points where |m log H| is up to twice the
        # switch: the closed form taken there must equal the lag sum
        m = n_domains + 1
        eps = np.geomspace(1e-7, 1e-1, 4001)
        dk = np.concatenate([-eps[::-1], eps]) / L0
        log_h = 1j * dk * L0 - sigma ** 2 * (DK0 + dk) ** 2 / 4.0
        ratio = m * np.abs(log_h) / phasematch._LAG_SWITCH
        near = dk[(ratio >= 1.0) & (ratio < 2.0)]
        assert near.size > 10
        with mock.patch.object(phasematch, "_LAG_SWITCH", 0.0):
            closed = avg_f2_rps(near, n_domains, L0, sigma, DK0)
        with mock.patch.object(phasematch, "_LAG_SWITCH", np.inf):
            lag_sum = avg_f2_rps(near, n_domains, L0, sigma, DK0)
        peak = avg_f2_rps(0.0, n_domains, L0, sigma, DK0)
        assert np.max(np.abs(closed - lag_sum)) <= 1e-12 * peak

    def test_avg_f2_rps_nd_matches_raveled(self):
        # a degenerate (lag-sum) element inside an N-d detuning array
        for dk in (np.array([[0.0, 1e3], [2e3, 3e3]]),
                   np.linspace(-2e5, 2e5, 24).reshape(2, 3, 4)):
            for sigma in (0.0, 2.1e-6):
                got = avg_f2_rps(dk, 100, L0, sigma, DK0)
                assert got.shape == dk.shape
                assert np.array_equal(got.ravel(),
                                      avg_f2_rps(dk.ravel(), 100, L0, sigma, DK0))


class TestResponse:
    def test_maps_every_source(self):
        dk = DK0 + np.linspace(-2e4, 2e4, 9)
        s = _layout("rps", 50, 2.1e-6, 3)
        assert np.array_equal(response(s, dk), f_exact(s, dk))
        assert np.array_equal(response(StructureSpec("ideal", 50, L0), dk),
                              f_exact(gen_ideal(50, L0), dk))
        chirp = StructureSpec("chirped", 50, L0, zeta=2.5e6)
        assert np.array_equal(response(chirp, dk),
                              f_chirp(dk - DK0, 50, L0, 2.5e6 / DK0, DK0))
        for kind, mean in (("rps", avg_f2_rps), ("weakly-random", avg_f2_weak)):
            spec = StructureSpec(kind, 50, L0, sigma=1e-6)
            assert np.array_equal(response(spec, dk),
                                  mean(dk - DK0, 50, L0, 1e-6, DK0))
        with pytest.raises(PhasematchError):
            response("rps", dk)


class TestEnsembleMeans:
    def test_ordered_limit_maximum(self):
        # sigma = 0, delta_k = 0: mean reduces to 4 (N_L + 1)^2 / dk0^2
        n = 700
        val = avg_f2_rps(0.0, n, L0, 0.0, DK0)
        assert val == pytest.approx(4.0 * (n + 1) ** 2 / DK0 ** 2, rel=1e-8)
        assert avg_f2_weak(0.0, n, L0, 0.0, DK0) == pytest.approx(val, rel=1e-8)

    def test_rps_frozen_values(self):
        assert avg_f2_rps(0.0, 700, L0, 2.1e-6, DK0) == pytest.approx(
            4.189126194858169e-07, rel=1e-10)
        assert avg_f2_rps(5e4, 700, L0, 2.1e-6, DK0) == pytest.approx(
            2.535834693772302e-08, rel=1e-10)
        assert avg_f2_rps(-1.3e5, 700, L0, 2.1e-6, DK0) == pytest.approx(
            4.7619412727445975e-09, rel=1e-10)

    def test_weak_frozen_values(self):
        assert avg_f2_weak(0.0, 700, L0, 1.0e-6, DK0) == pytest.approx(
            1.6979285325820253e-05, rel=1e-10)
        assert avg_f2_weak(5e4, 700, L0, 1.0e-6, DK0) == pytest.approx(
            1.3685085260942837e-09, rel=1e-10)

    def test_rps_fallback_branch_continuous(self):
        # at sigma=0 the geometric denominator degenerates as delta_k -> 0;
        # the result must stay smooth at |delta_k| l0 ~ 1e-6, inside the
        # exact lag-sum region (its switch is tested in TestExactPowers)
        switch = 1e-6 / L0
        lo = avg_f2_rps(switch * 0.99, 300, L0, 0.0, DK0)
        hi = avg_f2_rps(switch * 1.01, 300, L0, 0.0, DK0)
        assert lo == pytest.approx(hi, rel=1e-6)

    def test_weak_large_sigma_diagonal_limit(self):
        # fully dephased boundaries: mean -> 4 (N_L + 1) / dk_tot^2
        n = 500
        val = avg_f2_weak(0.0, n, L0, 40e-6, DK0)
        assert val == pytest.approx(4.0 * (n + 1) / DK0 ** 2, rel=1e-6)

    def test_asymptotic_frozen_and_validity(self):
        val, validity = avg_f2_rps_asymptotic(5e4, 700, L0, 2.0e-6, DK0)
        assert val == pytest.approx(2.3250902369788674e-08, rel=1e-10)
        assert validity == pytest.approx(153.45205809090473, rel=1e-10)

    def test_asymptotic_matches_exact_when_valid(self):
        dk = np.linspace(-3e5, 3e5, 301)
        exact = avg_f2_rps(dk, 700, L0, 2.0e-6, DK0)
        approx, validity = avg_f2_rps_asymptotic(dk, 700, L0, 2.0e-6, DK0)
        assert validity > 100
        # peak-normalized deviation; the pointwise error grows only at
        # the small-mismatch band edge where dephasing locally vanishes
        assert np.max(np.abs(approx - exact)) / exact.max() < 0.02
        mask = dk > -1e5
        assert np.max(np.abs(approx[mask] / exact[mask] - 1.0)) < 0.03

    def test_rps_mc_agreement(self):
        # analytic mean vs 400 explicit realizations at 6 detunings
        n, sigma, reals = 200, 1.0e-6, 400
        dk = np.linspace(-2e5, 2e5, 6)
        spec = StructureSpec("rps", n, L0, sigma=sigma)
        samples = np.empty((reals, dk.size))
        for i in range(reals):
            s = spec.generate(RandomSource(1234, i))
            samples[i] = np.abs(f_boundary_sum(s, DK0 + dk)) ** 2
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / np.sqrt(reals)
        ana = avg_f2_rps(dk, n, L0, sigma, DK0)
        assert np.all(np.abs(mean - ana) < 5.0 * se)

    def test_weak_mc_agreement(self):
        n, sigma, reals = 200, 1.0e-6, 400
        dk = np.linspace(-2e5, 2e5, 6)
        spec = StructureSpec("weakly-random", n, L0, sigma=sigma)
        samples = np.empty((reals, dk.size))
        for i in range(reals):
            s = spec.generate(RandomSource(99, i))
            samples[i] = np.abs(f_boundary_sum(s, DK0 + dk)) ** 2
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / np.sqrt(reals)
        ana = avg_f2_weak(dk, n, L0, sigma, DK0)
        assert np.all(np.abs(mean - ana) < 5.0 * se)


class TestChirp:
    def test_frozen_value(self):
        val = f_chirp(2e4, 700, L0, 2.5e6 / DK0, DK0)
        assert val == pytest.approx(
            0.00016871649645698334 - 6.824485696357057e-05j, rel=1e-10)

    def test_matches_direct_sum(self):
        # the chirp sweeps local mismatch over +- zeta N_L l0 ~ 1.7e4 1/m;
        # compare across the central 80% of that emission plateau
        s = gen_chirped(700, L0, 2.5e6)
        half_span = 2.5e6 * 700 * L0 / 2
        dk = np.linspace(-0.8 * half_span, 0.8 * half_span, 41)
        direct = np.abs(f_exact(s, DK0 + dk)) ** 2
        closed = np.abs(f_chirp(dk, 700, L0, 2.5e6 / DK0, DK0)) ** 2
        assert np.max(np.abs(closed / direct - 1.0)) < 0.02

    def test_zero_chirp_rejected(self):
        with pytest.raises(PhasematchError):
            f_chirp(0.0, 700, L0, 0.0, DK0)

    def test_plateau_height_scales_inverse_chirp(self):
        # stationary-phase plateau: |F|^2 proportional to 1/zeta' on
        # average (pointwise values ripple)
        dk = np.linspace(-1e4, 1e4, 400)
        v1 = np.mean(np.abs(f_chirp(dk, 700, L0, 2.5e6 / DK0, DK0)) ** 2)
        v2 = np.mean(np.abs(f_chirp(dk, 700, L0, 5.0e6 / DK0, DK0)) ** 2)
        assert v1 / v2 == pytest.approx(2.0, rel=0.15)


# erf(z) overflows double precision for |Im z| beyond ~27.
ERF_IM_MAX = 26.0


def complex_erf(z):
    """Error function for complex argument, >= 10 significant digits: the
    oracle of f_chirp's erf form, which f_chirp itself does not take.

    Delegates to the Faddeeva-based scaled complementary error
    function; rejects the overflow region Im(z)^2 - Re(z)^2 > 676,
    where |erf z| itself exceeds double range.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag ** 2 - z.real ** 2 > ERF_IM_MAX ** 2):
        raise PhasematchError(
            f"complex_erf overflow: Im(z)^2 - Re(z)^2 > {ERF_IM_MAX ** 2}")
    out = special.erf(z)
    return complex(out) if out.ndim == 0 else out


def _chirp_erf_form(delta_k, n, zp):
    """The erf form of f_chirp: (2i/dk_tot) e^(i phi) sqrt(pi) / (2a)
    [erf(a (N_L/2 + beta)) - erf(a (-N_L/2 + beta))]."""
    dk = np.atleast_1d(np.asarray(delta_k, dtype=float))
    dk_tot = DK0 + dk
    a = np.sqrt(-1j * dk_tot * zp + 0j) * L0
    beta = dk / (2.0 * dk_tot * zp * L0)
    pre = (2j / dk_tot * np.exp(-1j * dk_tot * n * L0)
           * np.exp(1j * dk * L0 * n / 2.0)
           * np.exp(-1j * dk ** 2 / (4.0 * dk_tot * zp)))
    return pre * np.sqrt(np.pi) / (2.0 * a) * (
        complex_erf(a * (n / 2.0 + beta)) - complex_erf(a * (-n / 2.0 + beta)))


def _chirp_mpmath(delta_k, n, zp):
    """The erf form at 50 digits from the double inputs."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        dk, l0, zp = mp.mpf(float(delta_k)), mp.mpf(L0), mp.mpf(zp)
        dk_tot = mp.mpf(DK0) + dk
        a = mp.sqrt(-1j * dk_tot * zp) * l0
        beta = dk / (2 * dk_tot * zp * l0)
        phi = -dk_tot * n * l0 + dk * l0 * n / 2 - dk ** 2 / (4 * dk_tot * zp)
        half = mp.mpf(n) / 2
        return complex(2j / dk_tot * mp.expj(phi) * mp.sqrt(mp.pi) / (2 * a)
                       * (mp.erf(a * (half + beta)) - mp.erf(a * (beta - half))))


class TestChirpFresnelForm:
    BAND = np.linspace(-0.5 * DK0, 0.5 * DK0, 2001)  # dk_tot in [0.5, 1.5] dk0
    CASES = [(n, sign * zeta) for n in (10, 50, 200, 700, 2000)
             for zeta in (0.5e6, 2.5e6) for sign in (1, -1)]

    @pytest.mark.parametrize("n,zeta", CASES)
    def test_matches_erf_form(self, n, zeta):
        want = _chirp_erf_form(self.BAND, n, zeta / DK0)
        got = f_chirp(self.BAND, n, L0, zeta / DK0, DK0)
        assert _peak_error(got, want) <= 1e-10

    @pytest.mark.parametrize("n,zeta", CASES)
    def test_against_mpmath(self, n, zeta):
        peak = np.abs(f_chirp(self.BAND, n, L0, zeta / DK0, DK0)).max()
        idx = np.random.default_rng(n).choice(self.BAND.size, 8, replace=False)
        for dk in self.BAND[idx]:
            want = _chirp_mpmath(dk, n, zeta / DK0)
            assert abs(f_chirp(dk, n, L0, zeta / DK0, DK0) - want) <= 1e-11 * peak

    def test_near_zero_mismatch_no_worse_than_erf_form(self):
        # as dk_tot -> 0 both forms cancel phases of dk^2 / (4 dk_tot zeta')
        # rad, ~1e9 at dk_tot ~ 1e-4 dk0: both keep ~1e-7 of the peak in the
        # median and a few 1e-6 at worst.  Which form is ahead at a point is
        # rounding luck (and may change with the platform's libm), so "no
        # worse" allows a factor 2 on the median and on the worst point
        rng = np.random.default_rng(3)
        err_fresnel, err_erf = [], []
        for n in (10, 100, 700, 2000):
            for zeta in (2.5e6, -2.5e6):
                zp = zeta / DK0
                peak = np.abs(f_chirp(self.BAND, n, L0, zp, DK0)).max()
                rel = np.geomspace(1e-4, 1e-3, 5) * rng.choice([-1, 1], 5)
                dk = -DK0 * (1.0 - rel)
                want = np.array([_chirp_mpmath(x, n, zp) for x in dk])
                err_fresnel.append(np.abs(f_chirp(dk, n, L0, zp, DK0) - want) / peak)
                err_erf.append(np.abs(_chirp_erf_form(dk, n, zp) - want) / peak)
        assert np.median(err_fresnel) <= 2.0 * np.median(err_erf)
        assert np.max(err_fresnel) <= 2.0 * np.max(err_erf)
        assert np.max(err_fresnel) < 1e-5


class TestComplexErf:
    # oracle: mpmath.erf at 30 digits
    ORACLE = {
        1 + 0j: 0.8427007929497149 + 0.0j,
        0.5 + 1.2j: 1.737238382004892 + 1.290472981831509j,
        -2 + 3j: 20.82946142761457 + 8.687318271470163j,
        4 - 4j: 0.9785492330760819 - 0.09733969063083187j,
        10 + 9.9j: 1.003585986617351 - 0.004144419783771208j,
    }

    def test_against_oracle(self):
        for z, want in self.ORACLE.items():
            got = complex_erf(z)
            assert got == pytest.approx(want, rel=1e-10)

    def test_overflow_guard(self):
        with pytest.raises(PhasematchError):
            complex_erf(30j)

    def test_ray_arguments_allowed(self):
        # arguments on the arg z = -pi/4 ray stay bounded at any size
        z = 100.0 * np.exp(-1j * np.pi / 4)
        assert abs(complex_erf(z)) < 2.0

    def test_mpmath_cross_check(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            want = complex(mp.erf(mp.mpc(z)))
            assert complex_erf(z) == pytest.approx(want, rel=1e-10)


class TestCrossCorrelators:
    def test_diagonal_matches_mean(self):
        dk = np.linspace(-2e5, 2e5, 9)
        diag = xcorr_rps(dk, dk, 700, L0, 2.1e-6, DK0)
        assert np.max(np.abs(diag.imag)) < 1e-18
        assert np.allclose(diag.real, avg_f2_rps(dk, 700, L0, 2.1e-6, DK0),
                           rtol=1e-10)
        diag_w = xcorr_weak(dk, dk, 700, L0, 1e-6, DK0)
        assert np.allclose(diag_w.real, avg_f2_weak(dk, 700, L0, 1e-6, DK0),
                           rtol=1e-10)

    @pytest.mark.parametrize("sigma", [0.0, 0.5e-6, 2.1e-6])
    def test_diagonal_equals_avg_f2_rps(self, scenario_dk, sigma):
        # the sum-frequency grids, the sigma = 0 centre rows on the lag sum
        for key in ((257, 0.6), (1025, 0.35)):
            delta_k = scenario_dk[key] - DK0
            diag = xcorr_rps(delta_k, delta_k, 700, L0, sigma, DK0)
            mean = avg_f2_rps(delta_k, 700, L0, sigma, DK0)
            assert _peak_error(diag, mean) <= 1e-12

    def test_hermitian(self):
        a = xcorr_rps(5e4, -3e4, 700, L0, 2.1e-6, DK0)
        b = xcorr_rps(-3e4, 5e4, 700, L0, 2.1e-6, DK0)
        assert a == pytest.approx(np.conj(b), rel=1e-12)

    def test_frozen_values(self):
        assert xcorr_rps(5e4, -3e4, 700, L0, 2.1e-6, DK0) == pytest.approx(
            9.038688728746031e-11 - 2.3191694185772467e-10j, rel=1e-10)
        assert xcorr_weak(5e4, -3e4, 700, L0, 1e-6, DK0) == pytest.approx(
            3.417092918976038e-11 + 1.2349842179681629e-10j, rel=1e-10)

    def test_fallback_branch_continuous(self):
        # sigma = 0 makes |1 - H| degenerate below |delta_k| l0 ~ 1e-6;
        # the exact lag sum must join the closed form across the switch
        switch = 1e-6 / L0
        near = xcorr_rps(switch * 0.99, 4e4, 300, L0, 0.0, DK0)
        off = xcorr_rps(switch * 1.01, 4e4, 300, L0, 0.0, DK0)
        assert near == pytest.approx(off, rel=1e-5)

    def test_outer_call_matches_scalar_calls(self):
        # an (n,1) x (1,n) call takes its powers on the unbroadcast
        # factors; each element must equal its own scalar call, including
        # the sigma = 0 elements on the degenerate lag-sum branch
        switch = 1e-6 / L0
        dk = np.array([-2e5, -4e4, -switch * 0.5, 0.0, switch * 0.99,
                       switch * 1.01, 3e4, 1.5e5])
        for n, sigma in ((300, 0.0), (700, 2.1e-6)):
            full = xcorr_rps(dk[:, None], dk[None, :], n, L0, sigma, DK0)
            assert full.shape == (dk.size, dk.size)
            for i, a in enumerate(dk):
                for j, b in enumerate(dk):
                    want = xcorr_rps(a, b, n, L0, sigma, DK0)
                    assert abs(full[i, j] - want) <= 1e-13 * abs(want)

    def test_rps_mc_agreement_offdiagonal(self):
        n, sigma, reals = 200, 1.5e-6, 500
        pairs = [(3e4, -2e4), (8e4, 8e4 + 5e3), (-1e5, 5e4)]
        spec = StructureSpec("rps", n, L0, sigma=sigma)
        fs = np.empty((reals, 6), dtype=complex)
        dks = np.array([p[0] for p in pairs] + [p[1] for p in pairs])
        for i in range(reals):
            s = spec.generate(RandomSource(777, i))
            fs[i] = f_boundary_sum(s, DK0 + dks)
        for j, (a, b) in enumerate(pairs):
            prod = fs[:, j] * np.conj(fs[:, j + 3])
            mean = prod.mean()
            se = prod.std(ddof=1) / np.sqrt(reals)
            ana = xcorr_rps(a, b, n, L0, sigma, DK0)
            assert abs(mean - ana) < 5.0 * se

    def test_chirp_correlator_is_product(self):
        zp = 2.5e6 / DK0
        val = xcorr_chirp(2e4, -1e4, 700, L0, zp, DK0)
        want = f_chirp(2e4, 700, L0, zp, DK0) * np.conj(
            f_chirp(-1e4, 700, L0, zp, DK0))
        assert val == pytest.approx(want, rel=1e-12)


def _xcorr_oracle(mp, dk, dkp, n_domains, sigma):
    """<F(dk) F*(dk')> of random-walk structures as a 40-digit lag sum:
    4 e^(-i D N_L l0) / (dk_tot dk'_tot) sum_{j<m} c^j (1 + A_{m-1-j} + B_{m-1-j})."""
    with mp.workdps(40):
        dk, dkp, l0, sigma = (mp.mpf(float(x)) for x in (dk, dkp, L0, sigma))
        dk0 = mp.pi / l0
        m = n_domains + 1

        def h(x, k0):
            return mp.exp(1j * x * l0 - sigma ** 2 * (k0 + x) ** 2 / 4)

        a, b, c = h(dk, dk0), mp.conj(h(dkp, dk0)), h(dk - dkp, 0)
        geo, pa, pb = [mp.mpf(1)], mp.mpf(1), mp.mpf(1)  # 1 + A_k + B_k
        for _ in range(1, m):
            pa, pb = pa * a, pb * b
            geo.append(geo[-1] + pa + pb)
        s, cj = mp.mpf(0), mp.mpf(1)
        for j in range(m):
            s += cj * geo[m - 1 - j]
            cj *= c
        return complex(4 / ((dk0 + dk) * (dk0 + dkp))
                       * mp.exp(-1j * (dk - dkp) * n_domains * l0) * s)


class TestXcorrOracle:
    """xcorr_rps against the 40-digit lag sum, to <= 1e-12 of the peak
    <|F(0)|^2>: sigma = 0, the former series switch |1 - H| = 1e-6, the
    present lag-sum switch, and equal arguments off the grid diagonal."""

    OLD_SWITCH = 1.1e-6 / L0

    def _check(self, mp, dk, dkp, n_domains, sigma):
        got = xcorr_rps(dk, dkp, n_domains, L0, sigma, DK0)
        dk, dkp = np.broadcast_arrays(dk, dkp)
        want = np.array([_xcorr_oracle(mp, a, b, n_domains, sigma)
                         for a, b in zip(dk.ravel(), dkp.ravel())])
        peak = abs(_xcorr_oracle(mp, 0.0, 0.0, n_domains, sigma))
        assert np.max(np.abs(got.ravel() - want)) <= 1e-12 * peak

    @pytest.mark.parametrize("n_domains", [10, 100, 700])
    def test_old_switch_region(self, n_domains):
        mp = pytest.importorskip("mpmath")
        s = self.OLD_SWITCH
        dk = np.array([s, -s, s, -4e4, s, 0.0, 0.99 * s, 1.01 * s])
        dkp = np.array([s, s, 4e4, s, 0.0, 0.0, 1.01 * s, -3e4])
        self._check(mp, dk, dkp, n_domains, 0.0)

    @pytest.mark.parametrize("n_domains, sigma",
                             [(10, 0.0), (100, 0.0), (700, 0.0), (700, 1e-8)])
    def test_lag_switch_region(self, n_domains, sigma):
        # both sides of |m log H| = _LAG_SWITCH, alone and with each other
        mp = pytest.importorskip("mpmath")
        x = np.array([0.5, 0.99, 1.01, 2.0, 10.0]) * phasematch._LAG_SWITCH / (
            (n_domains + 1) * L0)
        dk = np.concatenate([x, x, -x, x])
        dkp = np.concatenate([x, -x[::-1], np.full(x.size, 2e4), x[::-1]])
        self._check(mp, dk, dkp, n_domains, sigma)

    @pytest.mark.parametrize("sigma", [0.0, 2.1e-6])
    def test_equal_arguments_off_diagonal(self, scenario_dk, sigma):
        # the mismatch is symmetric about the degenerate point, so mirrored
        # grid points give D = 0 off the main diagonal: one block call
        delta_k = scenario_dk[(1025, 0.35)] - DK0
        mirror = np.nonzero(delta_k[:512] == delta_k[:512:-1])[0]
        assert mirror.size > 100
        rows = mirror[np.linspace(0, mirror.size - 1, 4).astype(int)]
        cols = delta_k.size - 1 - rows
        mp = pytest.importorskip("mpmath")
        self._check(mp, delta_k[rows, None], delta_k[None, cols], 700, sigma)

    def test_disordered_pairs(self, scenario_dk):
        mp = pytest.importorskip("mpmath")
        delta_k = scenario_dk[(257, 0.6)] - DK0
        idx = np.array([0, 40, 100, 127, 128, 129, 200, 256])
        self._check(mp, delta_k[idx, None], delta_k[None, idx[::3]], 300, 0.5e-6)


class TestHelpers:
    def test_characteristic_g(self):
        assert characteristic_g(0.0, 2e-6) == 1.0
        dk = 3e5
        assert characteristic_g(dk, 2e-6) == pytest.approx(
            np.exp(-(2e-6) ** 2 * dk ** 2 / 4.0), rel=1e-14)

    def test_dirichlet_periods(self):
        m = 41
        for k in (0, 1, 2, 3):
            x = 2.0 * np.pi * k + 1e-9
            brute = np.sum(np.exp(1j * np.arange(m) * (2.0 * np.pi * k + 1e-9)))
            assert _dirichlet(x, m) == pytest.approx(brute, rel=1e-6)
        x = 0.37
        brute = np.sum(np.exp(1j * np.arange(m) * x))
        assert _dirichlet(x, m) == pytest.approx(brute, rel=1e-12)


@given(dk=st.floats(-3e5, 3e5), sigma_um=st.floats(0.0, 3.0))
@settings(max_examples=examples(60), deadline=None)
def test_ensemble_means_nonnegative(dk, sigma_um):
    sigma = sigma_um * 1e-6
    assert avg_f2_rps(dk, 300, L0, sigma, DK0) >= 0.0
    assert avg_f2_weak(dk, 300, L0, sigma, DK0) >= 0.0


@given(dk=st.floats(-3e5, 3e5))
@settings(max_examples=examples(30), deadline=None)
def test_disorder_never_raises_peak(dk):
    # disorder redistributes, never exceeds the ordered-structure bound
    bound = 4.0 * 301 ** 2 / (DK0 + dk) ** 2
    assert avg_f2_rps(dk, 300, L0, 2e-6, DK0) <= bound * (1 + 1e-9)
