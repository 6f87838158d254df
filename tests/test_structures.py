import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import examples

from randpoled import (PolingStructure, RandomSource, StructureError,
                       StructureSpec, apply_fabrication_error,
                       domain_length_histogram, gen_chirped, gen_ideal,
                       gen_rps, gen_weakly_random, load_structure,
                       save_structure, shuffle_segments)

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

    def test_split(self):
        src = RandomSource(7)
        assert src.split(3) == RandomSource(7, 3)


class TestPolingStructure:
    def test_basic_properties(self):
        s = gen_ideal(4, L0)
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


class TestGenerators:
    def test_rps_mean_and_spread(self):
        # per-boundary std is sigma/sqrt(2) by the characteristic-function
        # convention exp(-sigma^2 dk^2/4)
        sigma = 1.5e-6
        s = gen_rps(20000, L0, sigma, RandomSource(1).generator())
        lengths = s.domain_lengths
        assert lengths.mean() == pytest.approx(L0, rel=1e-3)
        assert lengths.std() == pytest.approx(sigma / np.sqrt(2), rel=2e-2)

    def test_rps_zero_sigma_is_ideal(self):
        s = gen_rps(10, L0, 0.0, RandomSource(1).generator())
        assert s.kind == "rps"
        assert np.allclose(s.domain_lengths, L0)

    def test_rps_excessive_sigma_fails(self):
        # sigma comparable to l0 drives the rejection rate over the cap
        with pytest.warns(UserWarning), pytest.raises(StructureError):
            gen_rps(5000, L0, 3 * L0, RandomSource(1).generator())

    def test_weakly_random_entrance_fixed(self):
        s = gen_weakly_random(500, L0, 1e-6, RandomSource(3).generator())
        assert s.boundaries[0] == pytest.approx(-500 * L0, rel=1e-14)
        # interior boundaries jittered about the ideal grid
        ideal = -500 * L0 + np.arange(501) * L0
        dev = s.boundaries - ideal
        assert dev[0] == 0.0
        assert np.abs(dev[1:]).max() < 6e-6
        assert np.std(dev[1:]) == pytest.approx(1e-6 / np.sqrt(2), rel=0.15)

    def test_weakly_random_jitter_not_cumulative(self):
        # deviation from the ideal grid stays O(sigma) at the far end,
        # unlike the cumulative walk whose deviation grows as sqrt(n)
        sw = gen_weakly_random(5000, L0, 1e-6, RandomSource(5).generator())
        sr = gen_rps(5000, L0, 1e-6, RandomSource(5).generator())
        ideal = -5000 * L0 + np.arange(5001) * L0
        assert np.abs(sw.boundaries - ideal).max() < 1e-5
        assert np.abs(sr.boundaries - ideal).max() > 2e-5

    def test_chirped_layout(self):
        s = gen_chirped(700, L0, 2.5e6)
        n = np.arange(701)
        zeta_prime = 2.5e6 / (np.pi / L0)
        expect = -700 * L0 + n * L0 + zeta_prime * (n - 350.0) ** 2 * L0 ** 2
        assert np.allclose(s.boundaries, expect, rtol=0, atol=1e-18)

    def test_chirped_zero_zeta_is_ideal(self):
        s = gen_chirped(100, L0, 0.0)
        assert s.kind == "chirped"
        assert np.allclose(s.domain_lengths, L0)

    def test_chirp_too_strong_names_index(self):
        with pytest.raises(StructureError, match="index 1"):
            gen_chirped(700, L0, 5e9)

    def test_spec_generate_dispatch(self):
        for kind, kw in [("ideal", {}), ("rps", dict(sigma=1e-6)),
                         ("weakly-random", dict(sigma=1e-6)),
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


class TestRedrawGate:
    # the gate reads the law's expected redraw share, so it refuses a law over
    # MAX_REJECTION_RATE at every size, not only where a draw happens to redraw
    @pytest.mark.filterwarnings("ignore:sigma = .* exceeds l0/3")
    @pytest.mark.parametrize("kind,sigma", [("weakly-random", 3.1e-6),
                                            ("rps", 4.4e-6)])
    @pytest.mark.parametrize("n", [2, 63, 700])
    def test_law_over_cap_raises_at_every_size(self, kind, sigma, n):
        for seed in range(5):
            with pytest.raises(StructureError, match="redraw rate"):
                StructureSpec(kind, n, L0, sigma=sigma).generate(RandomSource(seed))

    @pytest.mark.parametrize("mode,sigma_er", [("length", 3.1e-6),
                                               ("boundary", 2.2e-6)])
    def test_fabrication_law_over_cap_raises(self, mode, sigma_er):
        with pytest.raises(StructureError, match="redraw rate"):
            apply_fabrication_error(gen_ideal(2, L0), sigma_er, RandomSource(0),
                                    mode=mode)

    @pytest.mark.parametrize("mode,sigma_er", [("length", 2.5e-6),
                                               ("boundary", 2.1e-6)])
    def test_fabrication_law_under_cap_draws(self, mode, sigma_er):
        s = gen_ideal(700, L0)
        for seed in range(20):
            p = apply_fabrication_error(s, sigma_er, RandomSource(seed), mode=mode)
            assert np.all(np.diff(p.boundaries) > 0)


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
            got = gen_rps(700, L0, 2.1e-6, RandomSource(seed))
            assert np.array_equal(got.boundaries, want)

    def test_length_error_matches_inline_loop(self):
        # a 10 nm domain makes redraws happen at this error level
        z = gen_chirped(700, L0, 2.5e6).boundaries.copy()
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
            assert got.kind == "perturbed"
            assert np.array_equal(got.boundaries, want)
        assert redrawn > 0


class TestFabricationError:
    def test_zero_error_is_identity(self):
        s = gen_chirped(100, L0, 2.5e6)
        assert apply_fabrication_error(s, 0.0, RandomSource(0).generator()) is s

    def test_length_mode_accumulates(self):
        s = gen_ideal(4000, L0)
        p = apply_fabrication_error(s, 5e-7, RandomSource(2).generator())
        assert p.kind == "perturbed"
        assert p.boundaries[0] == s.boundaries[0]
        dev = p.boundaries - s.boundaries
        # cumulative: far-end deviation ~ sigma_er * sqrt(N) >> sigma_er
        assert np.abs(dev[-1000:]).max() > 5e-6
        assert np.std(np.diff(p.boundaries) - L0) == pytest.approx(
            5e-7, rel=5e-2)

    def test_boundary_mode_endpoints_fixed(self):
        s = gen_ideal(1000, L0)
        p = apply_fabrication_error(s, 5e-7, RandomSource(2).generator(),
                                    mode="boundary")
        assert p.boundaries[0] == s.boundaries[0]
        assert p.boundaries[-1] == s.boundaries[-1]
        dev = p.boundaries[1:-1] - s.boundaries[1:-1]
        assert np.std(dev) == pytest.approx(5e-7, rel=0.1)
        assert np.abs(dev).max() < 3e-6  # independent, not cumulative

    def test_unknown_mode(self):
        s = gen_ideal(10, L0)
        with pytest.raises(StructureError):
            apply_fabrication_error(s, 1e-7, RandomSource(0).generator(),
                                    mode="angular")


class TestShuffle:
    def test_conserves_lengths_and_total(self):
        s = gen_chirped(700, L0, 2.5e6)
        t = shuffle_segments(s, 35, RandomSource(9).generator())
        assert t.kind == "shuffled"
        assert t.length == pytest.approx(s.length, rel=1e-14)
        assert np.allclose(np.sort(t.domain_lengths), np.sort(s.domain_lengths))

    def test_d_equals_n_is_identity_layout(self):
        s = gen_chirped(100, L0, 2.5e6)
        t = shuffle_segments(s, 100, RandomSource(0).generator())
        assert np.allclose(t.boundaries, s.boundaries)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 10, 69, 70, 350, 699, 700])
    def test_matches_run_list_form(self, d):
        # oracle: the runs as a list of slices, concatenated in the drawn order
        s = gen_chirped(700, L0, 2.5e6)
        for seed in range(20):
            gen = RandomSource(seed).generator()
            runs = [s.domain_lengths[i:i + d] for i in range(0, 700, d)]
            order = gen.permutation(len(runs))
            lengths = np.concatenate([runs[i] for i in order])
            want = np.concatenate(([s.boundaries[0]],
                                   s.boundaries[0] + np.cumsum(lengths)))
            got = shuffle_segments(s, d, RandomSource(seed).generator())
            assert np.array_equal(got.boundaries, want)

    def test_short_final_run_participates(self):
        s = gen_chirped(10, L0, 2.5e6)
        t = shuffle_segments(s, 3, RandomSource(4).generator())
        assert t.n_domains == 10
        assert np.allclose(np.sort(t.domain_lengths), np.sort(s.domain_lengths))

    def test_invalid_d(self):
        s = gen_ideal(10, L0)
        with pytest.raises(StructureError):
            shuffle_segments(s, 0, RandomSource(0).generator())
        with pytest.raises(StructureError):
            shuffle_segments(s, 11, RandomSource(0).generator())


class TestHistogramAndIo:
    def test_histogram_counts(self):
        s = gen_rps(5000, L0, 1e-6, RandomSource(6).generator())
        edges, counts = domain_length_histogram(s, 0.2e-6)
        assert counts.sum() == 5000
        assert np.allclose(np.diff(edges), 0.2e-6)
        # peak bin near l0
        peak = 0.5 * (edges[np.argmax(counts)] + edges[np.argmax(counts) + 1])
        assert peak == pytest.approx(L0, abs=0.3e-6)

    def test_save_load_roundtrip(self, tmp_path):
        s = gen_rps(50, L0, 1e-6, RandomSource(8).generator())
        path = tmp_path / "structure.csv"
        save_structure(s, path, meta={"sigma": 1e-6})
        back = load_structure(path)
        assert back.kind == "rps"
        assert np.allclose(back.boundaries, s.boundaries, rtol=0, atol=1e-21)
        sidecar = (tmp_path / "structure.csv.json").read_text()
        assert '"sigma"' in sidecar

    def test_load_without_sidecar(self, tmp_path):
        s = gen_ideal(5, L0)
        path = tmp_path / "s.csv"
        save_structure(s, path)
        (tmp_path / "s.csv.json").unlink()
        assert load_structure(path).kind == "ideal"


@given(seed=st.integers(0, 2**32 - 1),
       n=st.integers(2, 300),
       sigma_um=st.floats(0.0, 2.5))
@settings(max_examples=examples(60), deadline=None)
# one weakly-random redraw in 64 draws: a gate on the drawn share refused it
@example(seed=97780978, n=63, sigma_um=2.5)
def test_generated_structures_valid(seed, n, sigma_um):
    for kind in ("rps", "weakly-random"):
        spec = StructureSpec(kind, n, L0, sigma=sigma_um * 1e-6)
        s = spec.generate(RandomSource(seed))
        assert s.n_domains == n
        assert np.all(np.diff(s.boundaries) > 0)
        assert s.boundaries[0] == pytest.approx(-n * L0, rel=1e-12)


@given(seed=st.integers(0, 2**16), d=st.integers(1, 50))
@settings(max_examples=examples(40), deadline=None)
def test_shuffle_total_length_invariant(seed, d):
    s = gen_chirped(50, L0, 2.5e6)
    t = shuffle_segments(s, d, RandomSource(seed).generator())
    assert t.length == pytest.approx(s.length, rel=1e-13)
    assert np.allclose(np.sort(t.domain_lengths), np.sort(s.domain_lengths))


@given(seed=st.integers(0, 2**16))
@settings(max_examples=examples(20), deadline=None)
def test_generation_deterministic(seed):
    spec = StructureSpec("rps", 100, L0, sigma=1.3e-6)
    a = spec.generate(RandomSource(seed))
    b = spec.generate(RandomSource(seed))
    assert np.array_equal(a.boundaries, b.boundaries)
