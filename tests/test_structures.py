import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples

from scipy.optimize import brentq
from scipy.special import ndtr

from randpoled import (PolingStructure, RandomSource, StructureError,
                       StructureSpec, apply_fabrication_error, shuffle_segments,
                       structures)
from randpoled.structures import MAX_REJECTION_RATE, _check_redraw_rate

L0 = 9.489154805833549e-06


class TestRandomSource:
    def test_reproducible(self):
        a = RandomSource(42).generator().normal(size=5)
        b = RandomSource(42).generator().normal(size=5)
        assert np.array_equal(a, b)

    def test_streams_independent(self):
        a = RandomSource(42, 0).generator().normal(size=5)
        b = RandomSource(42, 1).generator().normal(size=5)
        assert not np.array_equal(a, b)


class TestPolingStructure:
    def test_basic_properties(self):
        s = StructureSpec("ideal", 4, L0).generate(None)
        assert s.n_domains == 4
        assert s.length == pytest.approx(4 * L0)
        assert np.allclose(s.domain_lengths, L0)
        assert np.array_equal(s.signs, [1.0, -1.0, 1.0, -1.0])
        assert s.boundaries[0] == pytest.approx(-4 * L0)
        assert s.boundaries[-1] == pytest.approx(0.0)

    def test_nonmonotone_rejected(self):
        with pytest.raises(StructureError, match="index 2"):
            PolingStructure(np.array([0.0, 1.0, 0.5, 2.0]))

    def test_too_few_boundaries(self):
        with pytest.raises(StructureError):
            PolingStructure(np.array([0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where, message", [(0, "finite"), (2, "index [23]"),
                                                (3, "finite")])
    def test_non_finite_boundary_rejected(self, bad, where, message):
        # NaN fails every comparison: a non-finite end is refused as such, and an
        # inner one as a step that does not increase
        b = np.array([0.0, 1.0, 2.0, 3.0])
        b[where] = bad
        with pytest.raises(StructureError, match=message):
            PolingStructure(b)


class TestGenerators:
    def test_rps_mean_and_spread(self):
        # per-boundary std is sigma/sqrt(2) by the characteristic-function
        # convention exp(-sigma^2 dk^2/4)
        sigma = 1.5e-6
        s = StructureSpec("rps", 20000, L0, sigma=sigma).generate(RandomSource(1))
        lengths = s.domain_lengths
        assert lengths.mean() == pytest.approx(L0, rel=1e-3)
        assert lengths.std() == pytest.approx(sigma / np.sqrt(2), rel=2e-2)

    def test_rps_zero_sigma_is_ideal(self):
        s = StructureSpec("rps", 10, L0, sigma=0.0).generate(RandomSource(1))
        assert np.allclose(s.domain_lengths, L0)

    def test_rps_excessive_sigma_fails(self):
        # sigma comparable to l0 drives the rejection rate over the cap
        with pytest.warns(UserWarning), pytest.raises(StructureError):
            StructureSpec("rps", 5000, L0, sigma=3 * L0).generate(RandomSource(1))

    def test_large_sigma_warns_past_l0_over_3(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            StructureSpec("rps", 50, L0, sigma=L0 / 3.0).generate(RandomSource(0))
        with pytest.warns(UserWarning, match="exceeds l0/3") as record:
            StructureSpec("rps", 50, L0, sigma=1.01 * L0 / 3.0).generate(RandomSource(0))
        assert record[0].filename == __file__  # attributed to the caller

    def test_chirped_layout(self):
        s = StructureSpec("chirped", 700, L0, zeta=2.5e6).generate(None)
        n = np.arange(701)
        zeta_prime = 2.5e6 / (np.pi / L0)
        expect = -700 * L0 + n * L0 + zeta_prime * (n - 350.0) ** 2 * L0 ** 2
        assert np.allclose(s.boundaries, expect, rtol=0, atol=1e-18)

    @pytest.mark.parametrize("n", [1, 10, 700])
    def test_layouts_match_former_generators(self, n):
        # oracles: the former ideal and chirped generators, to the last bit
        ideal = -(n * L0) + np.arange(n + 1) * L0
        chirped = ideal + 2.5e6 / (np.pi / L0) * (np.arange(n + 1) - n / 2.0) ** 2 * L0 ** 2
        for spec, want in ((StructureSpec("ideal", n, L0), ideal),
                           (StructureSpec("chirped", n, L0), ideal),
                           (StructureSpec("rps", n, L0), ideal),
                           (StructureSpec("chirped", n, L0, zeta=2.5e6), chirped)):
            assert np.array_equal(spec.generate(None).boundaries, want)

    def test_chirped_zero_zeta_is_ideal(self):
        s = StructureSpec("chirped", 100, L0, zeta=0.0).generate(None)
        assert np.allclose(s.domain_lengths, L0)

    def test_chirp_too_strong_names_index(self):
        with pytest.raises(StructureError, match="index 1"):
            StructureSpec("chirped", 700, L0, zeta=5e9).generate(None)

    @pytest.mark.parametrize("n", [2, 700])
    def test_spec_refuses_non_monotone_chirp(self, n):
        # z_1 - z_0 = l0 (1 - zeta' l0 (N_L - 1)) with zeta' = zeta / dk0: at
        # zeta > 0 the first domain closes first, at zeta < 0 the last one
        limit = np.pi / (L0 ** 2 * (n - 1))
        StructureSpec("chirped", n, L0, zeta=0.99 * limit)
        StructureSpec("chirped", n, L0, zeta=-0.99 * limit)
        with pytest.raises(StructureError, match="monotone at index 1$"):
            StructureSpec("chirped", n, L0, zeta=1.01 * limit)
        with pytest.raises(StructureError, match="chirp too strong"):
            StructureSpec("chirped", n, L0, zeta=-1.01 * limit)

    def test_spec_generate_dispatch(self):
        for kind, kw in [("ideal", {}), ("rps", dict(sigma=1e-6)),
                         ("chirped", dict(zeta=2.5e6))]:
            spec = StructureSpec(kind, 50, L0, **kw)
            s = spec.generate(RandomSource(0))
            assert s.n_domains == 50

    def test_spec_validation(self):
        with pytest.raises(StructureError):
            StructureSpec("fibonacci", 10, L0)
        with pytest.raises(StructureError):
            StructureSpec("rps", 0, L0)
        with pytest.raises(StructureError):
            StructureSpec("rps", 10, -1.0)
        with pytest.raises(StructureError):
            StructureSpec("rps", 10, L0, sigma=-1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["n_domains", "l0", "sigma", "zeta"])
    def test_spec_refuses_non_finite(self, field, bad):
        # NaN fails every comparison and +inf passes sign checks: each field
        # must be finite as well (a NaN chirp would give NaN boundaries)
        kw = {"kind": "chirped" if field == "zeta" else "rps", "n_domains": 700,
              "l0": L0, field: bad}
        with pytest.raises(StructureError, match="finite"):
            StructureSpec(**kw)

    @pytest.mark.parametrize("kind,field", [("ideal", "sigma"), ("chirped", "sigma"),
                                            ("ideal", "zeta"), ("rps", "zeta")])
    def test_spec_refuses_foreign_field(self, kind, field):
        # a field the family does not read would be ignored without notice
        value = {"sigma": 2e-6, "zeta": 2.5e6}[field]
        with pytest.raises(StructureError, match=field):
            StructureSpec(kind, 700, L0, **{field: value})
        StructureSpec(kind, 700, L0, **{field: 0.0})


class TestRedrawGate:
    # the gate reads the law's expected redraw share, so it refuses a law over
    # MAX_REJECTION_RATE at every size, not only where a draw happens to redraw
    @pytest.mark.filterwarnings("ignore:sigma = .* exceeds l0/3")
    @pytest.mark.parametrize("kind,sigma", [("rps", 4.4e-6)])
    @pytest.mark.parametrize("n", [2, 63, 700])
    def test_law_over_cap_raises_at_every_size(self, kind, sigma, n):
        for seed in range(5):
            with pytest.raises(StructureError, match="redraw rate"):
                StructureSpec(kind, n, L0, sigma=sigma).generate(RandomSource(seed))

    @pytest.mark.parametrize("sigma_er", [pytest.param(3.1e-6, id="length-3.1e-06")])
    def test_fabrication_law_over_cap_raises(self, sigma_er):
        with pytest.raises(StructureError, match="redraw rate"):
            apply_fabrication_error(StructureSpec("ideal", 2, L0).generate(None),
                                    sigma_er, RandomSource(0))

    @pytest.mark.parametrize("sigma_er", [pytest.param(2.5e-6, id="length-2.5e-06")])
    def test_fabrication_law_under_cap_draws(self, sigma_er):
        s = StructureSpec("ideal", 700, L0).generate(None)
        for seed in range(20):
            p = apply_fabrication_error(s, sigma_er, RandomSource(seed))
            assert np.all(np.diff(p.boundaries) > 0)


class TestRedrawRate:
    # oracle: the former rate, the mean of scipy's ndtr
    GAPS = StructureSpec("rps", 700, L0, sigma=2.1e-6).generate(
        RandomSource(4)).domain_lengths

    @staticmethod
    def _ndtr_rate(gap, scale):
        return float(np.mean(ndtr(-np.asarray(gap) / scale)))

    @pytest.mark.parametrize("gap,scale", [
        (L0, L0 / 3.0),
        (GAPS, 1e-6),
        (np.array([-1e-6, 0.0, 1e-7, L0]), 1e-6)])
    def test_rate_matches_ndtr(self, monkeypatch, gap, scale):
        monkeypatch.setattr(structures, "MAX_REJECTION_RATE", 1.0)  # no refusal
        want = self._ndtr_rate(gap, scale)
        assert want > 1e-12
        assert _check_redraw_rate(gap, scale) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("gap", [L0, GAPS])
    def test_decision_matches_ndtr_across_cap(self, gap):
        # scales from 20 % under to 20 % over the one whose ndtr rate is the cap
        at_cap = brentq(lambda scale: self._ndtr_rate(gap, scale) - MAX_REJECTION_RATE,
                        1e-8, 1e-4)
        refused = []
        for scale in at_cap * np.linspace(0.8, 1.2, 401):
            try:
                _check_redraw_rate(gap, scale)
                refused.append(False)
            except StructureError:
                refused.append(True)
            assert refused[-1] == (self._ndtr_rate(gap, scale) > MAX_REJECTION_RATE)
        assert 0 < sum(refused) < len(refused)

    def test_subnormal_scale_is_silent(self, monkeypatch):
        # gap / (scale sqrt 2) overflows to inf: no warning, and the rate
        # stays erfc(inf) / 2 = 0 in both generators that check it
        rates = []

        def recording(gap, scale):
            rates.append(_check_redraw_rate(gap, scale))
            return rates[-1]

        monkeypatch.setattr(structures, "_check_redraw_rate", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            StructureSpec("rps", 700, L0, sigma=1e-318).generate(RandomSource(0))
            apply_fabrication_error(StructureSpec("ideal", 700, L0).generate(None),
                                    1e-318, RandomSource(0))
        assert rates == [0.0, 0.0]


class TestSharedLengthRedraw:
    # oracles: the former inline loops, seed by seed, to the last bit (the
    # shuffle's rebuild is the oracle of TestShuffle.test_matches_run_list_form)
    def test_rps_matches_inline_loop(self):
        for seed in range(20):
            gen = RandomSource(seed).generator()
            scale = 2.1e-6 / np.sqrt(2.0)
            lengths = L0 + gen.normal(0.0, scale, 700)
            bad = np.nonzero(lengths <= 0.0)[0]
            while bad.size:
                lengths[bad] = L0 + gen.normal(0.0, scale, bad.size)
                bad = bad[lengths[bad] <= 0.0]
            length = 700 * L0
            want = np.concatenate(([-length], -length + np.cumsum(lengths)))
            got = StructureSpec("rps", 700, L0, sigma=2.1e-6).generate(RandomSource(seed))
            assert np.array_equal(got.boundaries, want)

    def test_length_error_matches_inline_loop(self):
        # a 10 nm domain makes redraws happen at this error level
        z = StructureSpec("chirped", 700, L0, zeta=2.5e6).generate(None).boundaries.copy()
        z[1] = z[0] + 0.01e-6
        s = PolingStructure(z)
        redrawn = 0
        for seed in range(20):
            gen = RandomSource(seed).generator()
            lengths = s.domain_lengths + gen.normal(0.0, 1e-7, s.n_domains)
            bad = np.nonzero(lengths <= 0.0)[0]
            while bad.size:
                redrawn += bad.size
                lengths[bad] = s.domain_lengths[bad] + gen.normal(0.0, 1e-7, bad.size)
                bad = bad[lengths[bad] <= 0.0]
            want = np.concatenate(([s.boundaries[0]],
                                   s.boundaries[0] + np.cumsum(lengths)))
            got = apply_fabrication_error(s, 1e-7, RandomSource(seed))
            assert np.array_equal(got.boundaries, want)
        assert redrawn > 0


class TestFabricationError:
    def test_zero_error_is_identity(self):
        s = StructureSpec("chirped", 100, L0, zeta=2.5e6).generate(None)
        assert apply_fabrication_error(s, 0.0, RandomSource(0)) is s

    @pytest.mark.parametrize("sigma_er", [np.nan, np.inf])
    def test_non_finite_error_rejected(self, sigma_er):
        s = StructureSpec("ideal", 100, L0).generate(None)
        with pytest.raises(StructureError, match="finite"):
            apply_fabrication_error(s, sigma_er, RandomSource(0))

    def test_length_mode_accumulates(self):
        s = StructureSpec("ideal", 4000, L0).generate(None)
        p = apply_fabrication_error(s, 5e-7, RandomSource(2))
        assert p.boundaries[0] == s.boundaries[0]
        dev = p.boundaries - s.boundaries
        # cumulative: far-end deviation ~ sigma_er * sqrt(N) >> sigma_er
        assert np.abs(dev[-1000:]).max() > 5e-6
        assert np.std(np.diff(p.boundaries) - L0) == pytest.approx(
            5e-7, rel=5e-2)


class TestShuffle:
    def test_conserves_lengths_and_total(self):
        s = StructureSpec("chirped", 700, L0, zeta=2.5e6).generate(None)
        t = shuffle_segments(s, 35, RandomSource(9))
        assert t.length == pytest.approx(s.length, rel=1e-14)
        assert np.allclose(np.sort(t.domain_lengths), np.sort(s.domain_lengths))

    def test_d_equals_n_is_identity_layout(self):
        s = StructureSpec("chirped", 100, L0, zeta=2.5e6).generate(None)
        t = shuffle_segments(s, 100, RandomSource(0))
        assert np.allclose(t.boundaries, s.boundaries)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 10, 69, 70, 350, 699, 700])
    def test_matches_run_list_form(self, d):
        # oracle: the runs as a list of slices, concatenated in the drawn order
        s = StructureSpec("chirped", 700, L0, zeta=2.5e6).generate(None)
        for seed in range(20):
            gen = RandomSource(seed).generator()
            runs = [s.domain_lengths[i:i + d] for i in range(0, 700, d)]
            order = gen.permutation(len(runs))
            lengths = np.concatenate([runs[i] for i in order])
            want = np.concatenate(([s.boundaries[0]],
                                   s.boundaries[0] + np.cumsum(lengths)))
            got = shuffle_segments(s, d, RandomSource(seed))
            assert np.array_equal(got.boundaries, want)

    def test_short_final_run_participates(self):
        s = StructureSpec("chirped", 10, L0, zeta=2.5e6).generate(None)
        t = shuffle_segments(s, 3, RandomSource(4))
        assert t.n_domains == 10
        assert np.allclose(np.sort(t.domain_lengths), np.sort(s.domain_lengths))

    def test_invalid_d(self):
        s = StructureSpec("ideal", 10, L0).generate(None)
        with pytest.raises(StructureError):
            shuffle_segments(s, 0, RandomSource(0))
        with pytest.raises(StructureError):
            shuffle_segments(s, 11, RandomSource(0))


class TestHistogram:
    def test_histogram_counts(self):
        spec = StructureSpec("rps", 5000, L0, sigma=1e-6)
        lengths = spec.generate(RandomSource(6)).domain_lengths
        bins = np.arange(np.floor(lengths.min() / 0.2e-6),
                         np.ceil(lengths.max() / 0.2e-6) + 1) * 0.2e-6
        counts, edges = np.histogram(lengths, bins=bins)
        assert counts.sum() == 5000
        # the domain-length law peaks at l0
        peak = 0.5 * (edges[np.argmax(counts)] + edges[np.argmax(counts) + 1])
        assert peak == pytest.approx(L0, abs=0.3e-6)


@given(seed=st.integers(0, 2**32 - 1),
       n=st.integers(2, 300),
       sigma_um=st.floats(0.0, 2.5))
@settings(max_examples=examples(60), deadline=None)
def test_generated_structures_valid(seed, n, sigma_um):
    s = StructureSpec("rps", n, L0, sigma=sigma_um * 1e-6).generate(RandomSource(seed))
    assert s.n_domains == n
    assert np.all(np.diff(s.boundaries) > 0)
    assert s.boundaries[0] == pytest.approx(-n * L0, rel=1e-12)


@given(seed=st.integers(0, 2**16), d=st.integers(1, 50))
@settings(max_examples=examples(40), deadline=None)
def test_shuffle_total_length_invariant(seed, d):
    s = StructureSpec("chirped", 50, L0, zeta=2.5e6).generate(None)
    t = shuffle_segments(s, d, RandomSource(seed))
    assert t.length == pytest.approx(s.length, rel=1e-13)
    assert np.allclose(np.sort(t.domain_lengths), np.sort(s.domain_lengths))


@given(seed=st.integers(0, 2**16))
@settings(max_examples=examples(20), deadline=None)
def test_generation_deterministic(seed):
    spec = StructureSpec("rps", 100, L0, sigma=1.3e-6)
    a = spec.generate(RandomSource(seed))
    b = spec.generate(RandomSource(seed))
    assert np.array_equal(a.boundaries, b.boundaries)
