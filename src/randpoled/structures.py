"""Domain-boundary layouts for all poling-structure families.

A structure is the ordered list of domain boundaries z_0 .. z_{N_L}
with z_0 = -L at the entrance face.  The sign of chi(2) alternates per
domain, with the first domain positive.  Families:

* ideal           -- equidistant boundaries, z_n = -L + n*l0
* rps             -- cumulative random walk, z_n = z_{n-1} + l0 + dl_n
* weakly-random   -- independent jitter about the ideal grid
* chirped         -- quadratic-in-index boundary displacement
* perturbed       -- any structure after fabrication error
* shuffled        -- chirped structure with permuted segments

The spread parameter sigma follows the characteristic-function
convention exp(-sigma^2 dk^2 / 4): the per-boundary Gaussian standard
deviation is sigma/sqrt(2), NOT sigma.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

# Monotonicity repair must stay rare or the boundary law is distorted.
MAX_REJECTION_RATE = 1e-3


class StructureError(ValueError):
    """Raised for invalid structure parameters or generation failures."""


@dataclass(frozen=True)
class RandomSource:
    """Deterministic, splittable source of randomness.

    Identical (seed, stream) pairs reproduce identical draws on every
    platform and under any thread schedule.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))

    def split(self, stream: int) -> "RandomSource":
        return RandomSource(self.seed, stream)


@dataclass(frozen=True)
class PolingStructure:
    """Ordered domain boundaries plus the family tag."""

    boundaries: np.ndarray
    kind: str = "ideal"

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        object.__setattr__(self, "boundaries", b)
        if b.ndim != 1 or b.size < 2:
            raise StructureError("need at least two boundaries")
        bad = np.nonzero(np.diff(b) <= 0.0)[0]
        if bad.size:
            raise StructureError(
                f"boundaries not strictly increasing at index {bad[0] + 1}"
            )

    @property
    def n_domains(self) -> int:
        return self.boundaries.size - 1

    @property
    def length(self) -> float:
        return float(self.boundaries[-1] - self.boundaries[0])

    @property
    def domain_lengths(self) -> np.ndarray:
        return np.diff(self.boundaries)

    @property
    def signs(self) -> np.ndarray:
        """chi(2) sign per domain; first domain positive."""
        return (-1.0) ** np.arange(self.n_domains)


@dataclass(frozen=True)
class StructureSpec:
    """Recipe for one structure family.

    Doubles as the handle for analytic ensemble formulas downstream:
    the spectra module accepts a StructureSpec wherever an ensemble
    average (rather than one explicit realization) is wanted.
    """

    kind: str
    n_domains: int
    l0: float
    sigma: float = 0.0
    zeta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("ideal", "rps", "weakly-random", "chirped"):
            raise StructureError(f"unknown structure kind {self.kind!r}")
        if self.n_domains < 1:
            raise StructureError("n_domains must be >= 1")
        if self.l0 <= 0:
            raise StructureError("l0 must be positive")
        if self.sigma < 0:
            raise StructureError("sigma must be >= 0")

    def generate(self, rng: "RandomSource | np.random.Generator") -> "PolingStructure":
        """Draw one explicit realization of this spec."""
        gen = rng.generator() if isinstance(rng, RandomSource) else rng
        if self.kind == "ideal":
            return gen_ideal(self.n_domains, self.l0)
        if self.kind == "rps":
            return gen_rps(self.n_domains, self.l0, self.sigma, gen)
        if self.kind == "weakly-random":
            return gen_weakly_random(self.n_domains, self.l0, self.sigma, gen)
        return gen_chirped(self.n_domains, self.l0, self.zeta)


def _check_redraw_rate(gap, scale: float) -> None:
    """Refuse, before any draw, a N(0, scale) error on domains of length gap
    whose expected redraw share, mean Phi(-gap / scale), exceeds the cap."""
    rate = float(np.mean(ndtr(-np.asarray(gap) / scale)))
    if rate > MAX_REJECTION_RATE:
        raise StructureError(
            f"expected redraw rate {rate:.3g} exceeds {MAX_REJECTION_RATE}"
        )


def _jittered_lengths(base: np.ndarray, scale: float, gen) -> np.ndarray:
    """base + N(0, scale) per domain, nonpositive lengths redrawn."""
    lengths = base + gen.normal(0.0, scale, base.size)
    bad = np.nonzero(lengths <= 0.0)[0]
    while bad.size:
        lengths[bad] = base[bad] + gen.normal(0.0, scale, bad.size)
        bad = bad[lengths[bad] <= 0.0]
    return lengths


def _from_lengths(z0: float, lengths: np.ndarray, kind: str) -> PolingStructure:
    """Boundaries rebuilt cumulatively from the entrance face z0."""
    return PolingStructure(np.concatenate(([z0], z0 + np.cumsum(lengths))), kind=kind)


def _warn_large_sigma(sigma: float, l0: float) -> None:
    if sigma > l0 / 3.0:
        warnings.warn(
            f"sigma = {sigma:g} m exceeds l0/3; Gaussian boundary law "
            "will be noticeably truncated",
            stacklevel=3,
        )


def gen_ideal(n_domains: int, l0: float) -> PolingStructure:
    """Equidistant structure of n_domains domains of length l0."""
    if n_domains < 1:
        raise StructureError("n_domains must be >= 1")
    if l0 <= 0:
        raise StructureError("l0 must be positive")
    length = n_domains * l0
    z = -length + np.arange(n_domains + 1) * l0
    return PolingStructure(z, kind="ideal")

def gen_rps(n_domains: int, l0: float, sigma: float,
            rng: RandomSource | np.random.Generator) -> PolingStructure:
    """Randomly poled structure: boundaries follow a cumulative walk.

    Each domain length is l0 + dl with dl ~ N(0, sigma/sqrt(2)).
    Nonpositive lengths are rejected and redrawn; a law whose expected
    rejection rate exceeds MAX_REJECTION_RATE is refused.
    """
    if sigma < 0:
        raise StructureError("sigma must be >= 0")
    if sigma == 0.0:
        return replace(gen_ideal(n_domains, l0), kind="rps")
    _warn_large_sigma(sigma, l0)
    scale = sigma / np.sqrt(2.0)
    _check_redraw_rate(l0, scale)
    gen = rng.generator() if isinstance(rng, RandomSource) else rng
    lengths = _jittered_lengths(np.full(n_domains, l0), scale, gen)
    return _from_lengths(-(n_domains * l0), lengths, "rps")


def gen_weakly_random(n_domains: int, l0: float, sigma: float,
                      rng: RandomSource | np.random.Generator) -> PolingStructure:
    """Weakly-random structure: independent jitter about the ideal grid.

    z_n = -L + n*l0 + dl_n with dl_n ~ N(0, sigma/sqrt(2)) for
    n = 1..N_L; the entrance face z_0 = -L stays fixed.  Boundary
    ordering is enforced by redrawing offending jitters; a law whose
    expected rejection rate exceeds MAX_REJECTION_RATE is refused.
    """
    if sigma < 0:
        raise StructureError("sigma must be >= 0")
    if sigma == 0.0:
        return replace(gen_ideal(n_domains, l0), kind="weakly-random")
    _warn_large_sigma(sigma, l0)
    _check_redraw_rate(l0, sigma)  # l0 + dl_n+1 - dl_n has std sigma
    gen = rng.generator() if isinstance(rng, RandomSource) else rng
    scale = sigma / np.sqrt(2.0)
    ideal = gen_ideal(n_domains, l0).boundaries
    dl = np.concatenate(([0.0], gen.normal(0.0, scale, n_domains)))
    while True:
        z = ideal + dl
        bad = np.nonzero(np.diff(z) <= 0.0)[0] + 1
        if not bad.size:
            break
        dl[bad] = gen.normal(0.0, scale, bad.size)
    return PolingStructure(z, kind="weakly-random")


def gen_chirped(n_domains: int, l0: float, zeta: float) -> PolingStructure:
    """Chirped structure: z_n = -L + n*l0 + zeta'*(n - N_L/2)^2*l0^2.

    The reduced chirp is zeta' = zeta / dk0, with dk0 = pi/l0 by the
    design relation.
    """
    if zeta == 0.0:
        return replace(gen_ideal(n_domains, l0), kind="chirped")
    zeta_prime = zeta / (np.pi / l0)
    n = np.arange(n_domains + 1)
    z = gen_ideal(n_domains, l0).boundaries \
        + zeta_prime * (n - n_domains / 2.0) ** 2 * l0 ** 2
    bad = np.nonzero(np.diff(z) <= 0.0)[0]
    if bad.size:
        raise StructureError(
            f"chirp too strong: boundaries not monotone at index {bad[0] + 1}"
        )
    return PolingStructure(z, kind="chirped")


def apply_fabrication_error(s: PolingStructure, sigma_er: float,
                            rng: RandomSource | np.random.Generator,
                            mode: str = "length") -> PolingStructure:
    """Perturb a structure by Gaussian fabrication (duty-cycle) error.

    mode "length" (default): each DOMAIN LENGTH gains an independent
    N(0, sigma_er) error and boundaries are rebuilt cumulatively from
    the fixed entrance face, so errors accumulate along the sample as
    they do in a sequential poling process.

    mode "boundary": each interior boundary is displaced independently
    by N(0, sigma_er) with both end faces fixed.

    Nonpositive lengths / ordering violations are redrawn in either
    mode.  A law whose expected rejection rate exceeds
    MAX_REJECTION_RATE is refused.
    """
    if sigma_er < 0:
        raise StructureError("sigma_er must be >= 0")
    if sigma_er == 0.0:
        return s
    if mode not in ("length", "boundary"):
        raise StructureError(f"unknown fabrication-error mode {mode!r}")
    # a length error has std sigma_er, or up to sigma_er sqrt(2) between
    # two displaced boundaries
    _check_redraw_rate(s.domain_lengths,
                       sigma_er if mode == "length" else sigma_er * np.sqrt(2.0))
    gen = rng.generator() if isinstance(rng, RandomSource) else rng
    if mode == "length":
        lengths = _jittered_lengths(s.domain_lengths, sigma_er, gen)
        return _from_lengths(s.boundaries[0], lengths, "perturbed")
    z = s.boundaries.copy()
    err = gen.normal(0.0, sigma_er, s.n_domains - 1)
    while True:
        z[1:-1] = s.boundaries[1:-1] + err
        bad = np.nonzero(np.diff(z) <= 0.0)[0]
        if not bad.size:
            break
        idx = np.unique(np.clip(bad, 0, s.n_domains - 2))
        err[idx] = gen.normal(0.0, sigma_er, idx.size)
    return PolingStructure(z, kind="perturbed")


def shuffle_segments(s: PolingStructure, d: int,
                     rng: RandomSource | np.random.Generator) -> PolingStructure:
    """Randomly reorder consecutive runs of d domain lengths.

    The sequence of domain lengths is cut into runs of d (a final short
    run, if d does not divide N_L, participates in the permutation);
    runs are uniformly permuted and boundaries rebuilt cumulatively
    from the fixed entrance face.  The total length and the multiset of
    domain lengths are preserved exactly.
    """
    if not 1 <= d <= s.n_domains:
        raise StructureError("segment size d must satisfy 1 <= d <= n_domains")
    gen = rng.generator() if isinstance(rng, RandomSource) else rng
    order = gen.permutation(-(-s.n_domains // d))
    # domain indices run by run in the new order; a short final run is cut
    idx = (order[:, None] * d + np.arange(d)).ravel()
    return _from_lengths(s.boundaries[0], s.domain_lengths[idx[idx < s.n_domains]],
                         "shuffled")


def domain_length_histogram(s: PolingStructure, bin_width: float):
    """Histogram of domain lengths; returns (bin_edges, counts)."""
    if bin_width <= 0:
        raise StructureError("bin_width must be positive")
    lengths = s.domain_lengths
    lo = np.floor(lengths.min() / bin_width) * bin_width
    hi = np.ceil(lengths.max() / bin_width) * bin_width
    nbins = max(1, int(round((hi - lo) / bin_width)))
    counts, edges = np.histogram(lengths, bins=nbins, range=(lo, lo + nbins * bin_width))
    return edges, counts


def save_structure(s: PolingStructure, path, meta: dict | None = None) -> None:
    """Write boundaries as CSV (one per line, meters) plus a JSON sidecar."""
    path = str(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["z_m"])
        for z in s.boundaries:
            writer.writerow([f"{z:.16e}"])
    sidecar = {"kind": s.kind, "n_domains": s.n_domains}
    if meta:
        sidecar.update(meta)
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_structure(path) -> PolingStructure:
    """Read a structure written by save_structure."""
    path = str(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    z = np.array([float(r[0]) for r in rows[1:]])
    kind = "ideal"
    try:
        with open(path + ".json") as fh:
            kind = json.load(fh).get("kind", "ideal")
    except FileNotFoundError:
        pass
    return PolingStructure(z, kind=kind)
