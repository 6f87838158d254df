"""Domain-boundary layouts of the poling-structure families.

A structure is the ordered list of domain boundaries z_0 .. z_{N_L}
with z_0 = -L at the entrance face.  The sign of chi(2) alternates per
domain, with the first domain positive.  A StructureSpec names one
family, and StructureSpec.generate holds the three layout laws:

* ideal    -- equidistant boundaries, z_n = -L + n*l0
* rps      -- cumulative random walk, z_n = z_{n-1} + l0 + dl_n, spread sigma
* chirped  -- quadratic-in-index boundary displacement, chirp zeta

A spec takes only its family's field: sigma on an ideal or chirped
spec, or zeta on an ideal or rps one, is refused, and so is a chirp
too strong for monotone boundaries.

Any layout can further take fabrication error (apply_fabrication_error)
or have its domain runs permuted (shuffle_segments).

The spread parameter sigma follows the characteristic-function
convention exp(-sigma^2 dk^2 / 4): the Gaussian step, an rps domain
length increment, has standard deviation sigma/sqrt(2), NOT sigma.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

# Monotonicity repair must stay rare or the boundary law is distorted.
MAX_REJECTION_RATE = 1e-3


class StructureError(ValueError):
    """Raised for invalid structure parameters or generation failures."""


@dataclass(frozen=True)
class RandomSource:
    """Deterministic source of randomness: one stream of a seed.

    Identical (seed, stream) pairs reproduce identical draws on every
    platform and under any thread schedule.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class PolingStructure:
    """Ordered domain boundaries."""

    boundaries: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        object.__setattr__(self, "boundaries", b)
        if b.ndim != 1 or b.size < 2:
            raise StructureError("need at least two boundaries")
        if not math.isfinite(b[-1] - b[0]):
            raise StructureError("boundaries must be finite")
        # NaN is not > 0, and increasing steps between finite ends are finite
        bad = np.nonzero(~(np.diff(b) > 0.0))[0]
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
        if self.kind not in ("ideal", "rps", "chirped"):
            raise StructureError(f"unknown structure kind {self.kind!r}")
        if not 1 <= self.n_domains < math.inf:
            raise StructureError("n_domains must be >= 1 and finite")
        if not 0.0 < self.l0 < math.inf:
            raise StructureError("l0 must be positive and finite")
        if not 0.0 <= self.sigma < math.inf:
            raise StructureError("sigma must be >= 0 and finite")
        if not math.isfinite(self.zeta):
            raise StructureError("zeta must be finite")
        if self.sigma and self.kind != "rps":
            raise StructureError(f"sigma applies to rps specs, not {self.kind!r}")
        if self.zeta and self.kind != "chirped":
            raise StructureError(f"zeta applies to chirped specs, not {self.kind!r}")
        if self.zeta:  # the closed forms describe only layouts generate accepts
            self.generate(None)

    def generate(self, rng: RandomSource | None) -> PolingStructure:
        """Draw one explicit layout of this spec; only rps with sigma > 0 reads rng.

        rps: each domain length is l0 + N(0, sigma/sqrt(2)), nonpositive ones
        redrawn; a law whose expected redraw rate exceeds MAX_REJECTION_RATE
        is refused, and sigma > l0/3 warns.  chirped: z_n = -L + n l0 +
        zeta' (n - N_L/2)^2 l0^2 with zeta' = zeta / dk0, dk0 = pi/l0, refused
        unless monotone.  ideal, sigma = 0 and zeta = 0: z_n = -L + n l0.
        """
        n, l0 = self.n_domains, self.l0
        if self.kind == "rps" and self.sigma:
            if self.sigma > l0 / 3.0:
                warnings.warn(f"sigma = {self.sigma:g} m exceeds l0/3; Gaussian boundary "
                              "law will be noticeably truncated", stacklevel=2)
            scale = self.sigma / np.sqrt(2.0)
            _check_rps_law(l0, scale)
            lengths = _jittered_lengths(np.full(n, l0), scale, rng.generator())
            return _from_lengths(-(n * l0), lengths)
        z = -(n * l0) + np.arange(n + 1) * l0
        if self.kind == "chirped" and self.zeta:
            z = z + self.zeta / (np.pi / l0) * (np.arange(n + 1) - n / 2.0) ** 2 * l0 ** 2
            bad = np.nonzero(np.diff(z) <= 0.0)[0]
            if bad.size:
                raise StructureError(
                    f"chirp too strong: boundaries not monotone at index {bad[0] + 1}"
                )
        return PolingStructure(z)


def _check_redraw_rate(gap, scale: float) -> float:
    """Refuse, before any draw, a N(0, scale) error on domains of length gap
    whose expected redraw share, mean Phi(-gap / scale) = mean erfc(x) / 2 at
    x = gap / (scale sqrt 2), exceeds the cap (x >= 8 adds < 1e-29: skipped)."""
    with np.errstate(over="ignore"):  # a subnormal scale: x = inf, erfc(inf) = 0
        x = np.ravel(gap) / (scale * np.sqrt(2.0))
    rate = math.fsum(map(math.erfc, x[x < 8.0].tolist())) / (2 * x.size)
    if rate > MAX_REJECTION_RATE:
        raise StructureError(
            f"expected redraw rate {rate:.3g} exceeds {MAX_REJECTION_RATE}"
        )
    return rate


@functools.cache  # a Monte Carlo run draws one law many times
def _check_rps_law(l0: float, scale: float) -> float:
    """_check_redraw_rate of the rps law on domains l0, once per (l0, scale)."""
    return _check_redraw_rate(l0, scale)


def _jittered_lengths(base: np.ndarray, scale: float, gen) -> np.ndarray:
    """base + N(0, scale) per domain, nonpositive lengths redrawn."""
    lengths = base + gen.normal(0.0, scale, base.size)
    bad = np.nonzero(lengths <= 0.0)[0]
    while bad.size:
        lengths[bad] = base[bad] + gen.normal(0.0, scale, bad.size)
        bad = bad[lengths[bad] <= 0.0]
    return lengths


def _from_lengths(z0: float, lengths: np.ndarray) -> PolingStructure:
    """Boundaries rebuilt cumulatively from the entrance face z0."""
    return PolingStructure(np.concatenate(([z0], z0 + np.cumsum(lengths))))


def apply_fabrication_error(s: PolingStructure, sigma_er: float,
                            rng: RandomSource, *,
                            _law_checked: bool = False) -> PolingStructure:
    """Perturb a structure by Gaussian fabrication (duty-cycle) error.

    Each DOMAIN LENGTH gains an independent N(0, sigma_er) error and
    boundaries are rebuilt cumulatively from the fixed entrance face, so
    errors accumulate along the sample as they do in a sequential poling
    process.  Nonpositive lengths are redrawn; a law whose expected rejection
    rate exceeds MAX_REJECTION_RATE is refused, unless ``_law_checked``.
    """
    if not 0.0 <= sigma_er < math.inf:
        raise StructureError("sigma_er must be >= 0 and finite")
    if sigma_er == 0.0:
        return s
    if not _law_checked:
        _check_redraw_rate(s.domain_lengths, sigma_er)
    lengths = _jittered_lengths(s.domain_lengths, sigma_er, rng.generator())
    return _from_lengths(s.boundaries[0], lengths)


def shuffle_segments(s: PolingStructure, d: int,
                     rng: RandomSource) -> PolingStructure:
    """Randomly reorder consecutive runs of d domain lengths.

    The sequence of domain lengths is cut into runs of d (a final short
    run, if d does not divide N_L, participates in the permutation);
    runs are uniformly permuted and boundaries rebuilt cumulatively
    from the fixed entrance face.  The total length and the multiset of
    domain lengths are preserved exactly.
    """
    if not 1 <= d <= s.n_domains:
        raise StructureError("segment size d must satisfy 1 <= d <= n_domains")
    order = rng.generator().permutation(-(-s.n_domains // d))
    # domain indices run by run in the new order; a short final run is cut
    idx = (order[:, None] * d + np.arange(d)).ravel()
    return _from_lengths(s.boundaries[0], s.domain_lengths[idx[idx < s.n_domains]])

