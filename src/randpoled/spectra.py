"""Two-photon amplitudes, spectral densities, spectra and ensemble statistics.

The pump is cw, so the idler frequency is slaved to the signal one,
omega_i = omega_p0 - omega_s, and every two-dimensional spectral object
collapses to a one-dimensional slice along the signal frequency.

Rates are reported in relative units: all known prefactors are applied
but the absolute calibration (pump power to photon pairs per second)
would additionally require the collection bandwidth and beam geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import CONSTANTS
from .dispersion import DispersionModel, omega_from_wavelength
from .phasematch import BoundaryPlan, f_exact, response
from .structures import RandomSource, StructureSpec


class SpectraError(ValueError):
    """Raised for invalid grids, sources, or failed width searches."""


@dataclass(frozen=True)
class ProcessConfig:
    """Pump and material-interaction parameters of the process."""

    pump_wavelength: float = 775e-9     # m
    pump_amplitude: float = 1.0         # V*s/m (cw spectral amplitude)
    chi2_effective: float = 1e-12       # m/V
    pump_dx: float = 1e-5               # m, transverse 1/e half-width
    pump_dy: float = 1e-5               # m

    def __post_init__(self):
        if self.pump_wavelength <= 0 or self.chi2_effective <= 0:
            raise SpectraError("pump wavelength and chi2 must be positive")
        if self.pump_dx <= 0 or self.pump_dy <= 0:
            raise SpectraError("beam geometry parameters must be positive")

    @property
    def omega_p0(self) -> float:
        return omega_from_wavelength(self.pump_wavelength)

    @property
    def omega_s0(self) -> float:
        """Degenerate design point: half the pump frequency."""
        return 0.5 * self.omega_p0


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform signal-frequency grid centered on the design point."""

    omega_s: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.omega_s, dtype=float)
        object.__setattr__(self, "omega_s", w)
        if w.ndim != 1 or w.size < 2:
            raise SpectraError("grid needs at least two samples")
        steps = np.diff(w)
        if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9):
            raise SpectraError("grid must be uniform and increasing")
        if w[0] <= 0:
            raise SpectraError("grid frequencies must be positive")

    @classmethod
    def default(cls, omega_s0: float, n: int = 4096, span: float = 0.35):
        return cls(np.linspace(omega_s0 * (1 - span), omega_s0 * (1 + span), n))

    @property
    def n_points(self) -> int:
        return self.omega_s.size


@dataclass(frozen=True)
class SpectralSlice:
    """Complex two-photon amplitude along omega_s at fixed cw pump."""

    grid: SpectralGrid
    values: np.ndarray
    omega_p0: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        if v.shape != self.grid.omega_s.shape:
            raise SpectraError("values and grid shapes differ")
        if not np.all(np.isfinite(v)):
            raise SpectraError("amplitude contains non-finite values")
        if np.any(self.omega_i <= 0):
            raise SpectraError("grid extends past the pump frequency (idler <= 0)")

    @property
    def omega_i(self) -> np.ndarray:
        return self.omega_p0 - self.grid.omega_s


@dataclass(frozen=True)
class EnsembleStats:
    """Summary of a scalar observable over structure realizations."""

    name: str
    mean: float
    variance: float
    rel_fluctuation: float
    hist_edges: np.ndarray
    hist_counts: np.ndarray
    realizations: int
    seed: int
    failures: int = 0
    values: np.ndarray = field(default=None, repr=False)


def coupling_g(omega_s, omega_i, cfg: ProcessConfig, model: DispersionModel):
    """Coupling constant g = i sqrt(ws wi) / (2 c pi sqrt(ns ni)) chi2."""
    omega_s = np.asarray(omega_s, dtype=float)
    omega_i = np.asarray(omega_i, dtype=float)
    n_s = model.refractive_index(omega_s)
    n_i = model.refractive_index(omega_i)
    return (
        1j * np.sqrt(omega_s * omega_i)
        / (2.0 * CONSTANTS.c * np.pi * np.sqrt(n_s * n_i))
        * cfg.chi2_effective
    )


def _pumped_g(cfg: ProcessConfig, model: DispersionModel, omega_s):
    """g * pump_amplitude on the cw slice: the amplitude per unit F."""
    return coupling_g(omega_s, cfg.omega_p0 - omega_s, cfg, model) * cfg.pump_amplitude


def _mismatch_slice(cfg: ProcessConfig, model: DispersionModel, grid: SpectralGrid):
    omega_i = cfg.omega_p0 - grid.omega_s
    if np.any(omega_i <= 0):
        raise SpectraError("grid extends past the pump frequency (idler <= 0)")
    return model.collinear_mismatch(grid.omega_s, omega_i)


def _f2(source, dk_tot):
    """|F|^2 of a source with an amplitude, else its ensemble mean <|F|^2>."""
    r = response(source, dk_tot)
    return np.abs(r) ** 2 if np.iscomplexobj(r) else r


def mean_f2(source, cfg: ProcessConfig, model: DispersionModel, grid: SpectralGrid):
    """<|F|^2> along the cw slice for a structure or an analytic family.

    A PolingStructure gives the exact per-realization |F|^2; a
    StructureSpec gives the closed-form ensemble mean of its family
    (a chirped or ideal spec being deterministic, its "mean" is |F|^2).
    """
    return _f2(source, _mismatch_slice(cfg, model, grid))


def two_photon_amplitude(source, cfg: ProcessConfig, model: DispersionModel,
                         grid: SpectralGrid) -> SpectralSlice:
    """Complex amplitude slice for one realization or a deterministic spec.

    Random-family StructureSpec objects have no single amplitude (only
    second-order moments); generate a realization first.
    """
    f = response(source, _mismatch_slice(cfg, model, grid))
    if not np.iscomplexobj(f):
        raise SpectraError("amplitude requires an explicit structure or a "
                           "deterministic spec")
    return SpectralSlice(grid, _pumped_g(cfg, model, grid.omega_s) * f, cfg.omega_p0)


def joint_density(source, cfg: ProcessConfig, model: DispersionModel,
                  grid: SpectralGrid) -> np.ndarray:
    """Spectral density n(omega_s) = |g|^2 |pump|^2 <|F|^2> on the slice."""
    return np.abs(_pumped_g(cfg, model, grid.omega_s)) ** 2 \
        * mean_f2(source, cfg, model, grid)


def signal_spectrum(density, cfg: ProcessConfig, grid: SpectralGrid,
                    normalize: str | None = "unit-photon") -> np.ndarray:
    """Signal spectrum S_s = hbar omega_s n(omega_s).

    With normalize="unit-photon" the spectrum is scaled so that the
    emitted photon number integrates to one.
    """
    s = CONSTANTS.hbar * grid.omega_s * np.asarray(density, dtype=float)
    if normalize == "unit-photon":
        photons = np.trapezoid(s / (CONSTANTS.hbar * grid.omega_s), grid.omega_s)
        if photons <= 0:
            raise SpectraError("empty spectrum cannot be normalized")
        s = s / photons
    elif normalize is not None:
        raise SpectraError(f"unknown normalization {normalize!r}")
    return s


def pair_rate(density, grid: SpectralGrid) -> float:
    """Photon-pair generation rate (relative units): integral of n."""
    return extractor_rate(grid.omega_s, density)


def fwhm(x, y) -> float:
    """Full width at half maximum between the OUTERMOST crossings.

    Crossing positions are linearly interpolated between adjacent
    samples; inner structure (multi-peak curves) is ignored by design.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    peak = y.max()
    if not (peak > 0 and np.isfinite(x).all() and np.isfinite(y).all()):
        raise SpectraError("fwhm needs finite values and a positive maximum")
    half = 0.5 * peak
    above = np.nonzero(y >= half)[0]
    i0, i1 = above[0], above[-1]
    if i0 == 0 or i1 == y.size - 1:
        raise SpectraError("span too narrow: half maximum not crossed inside grid")
    x_lo = x[i0 - 1] + (half - y[i0 - 1]) / (y[i0] - y[i0 - 1]) * (x[i0] - x[i0 - 1])
    x_hi = x[i1] + (half - y[i1]) / (y[i1 + 1] - y[i1]) * (x[i1 + 1] - x[i1])
    return float(x_hi - x_lo)


def extractor_rate(omega_s, density) -> float:
    """Pair rate of a density on omega_s (relative units)."""
    return float(np.trapezoid(np.asarray(density, dtype=float), omega_s))


def extractor_width(omega_s, density) -> float:
    """FWHM of the signal spectrum of a density on omega_s."""
    return fwhm(omega_s, omega_s * density)


def map_realizations(draw, count: int, cfg: ProcessConfig, model: DispersionModel,
                     grid: SpectralGrid, observe) -> list:
    """The Monte Carlo engine: observe(g, F) for the layouts draw(0) ..
    draw(count - 1), in index order.

    The per-grid work is done once per call: the mismatch dk_tot, the
    pumped coupling g = coupling_g * pump_amplitude and the boundary-sum
    plan (phasematch.BoundaryPlan).  Each layout then costs one boundary
    sum F = f_exact(draw(i), dk_tot, plan), equal to the last bit to
    f_exact(draw(i), dk_tot): the plan builds the nodes for each length
    class of layout once.  Failures are the observable's to handle: one
    that raises ends the run.
    """
    dk_tot = _mismatch_slice(cfg, model, grid)
    g = _pumped_g(cfg, model, grid.omega_s)
    plan = BoundaryPlan(dk_tot)
    return [observe(g, f_exact(draw(i), dk_tot, plan)) for i in range(count)]


def ensemble_run(spec: StructureSpec, extractors: dict, realizations: int,
                 seed: int, cfg: ProcessConfig, model: DispersionModel,
                 grid: SpectralGrid) -> dict:
    """Monte Carlo ensemble of per-realization scalar observables.

    Each realization i is a pure function of (spec, seed, i): the
    structure is drawn from stream i, its exact density evaluated, and
    every extractor applied.  Extractions that raise a domain error
    (ValueError) are recorded and excluded; the run fails above 1%
    failures.  Reduction order is fixed by index, so results are
    bit-reproducible.
    """
    if realizations < 2:
        raise SpectraError("need at least two realizations")
    failures = dict.fromkeys(extractors, 0)

    def observe(g, f):
        density = np.abs(g) ** 2 * np.abs(f) ** 2
        row = []
        for name, extract in extractors.items():
            try:
                row.append(extract(grid.omega_s, density))
            except ValueError:
                failures[name] += 1
                row.append(np.nan)
        return row

    rows = map_realizations(lambda i: spec.generate(RandomSource(seed, i)),
                            realizations, cfg, model, grid, observe)
    results = np.array(rows, dtype=float).reshape(realizations, len(extractors)).T
    stats = {}
    for name, vals in zip(extractors, results):
        good = vals[np.isfinite(vals)]
        if failures[name] > 0.01 * realizations:
            raise SpectraError(
                f"extractor {name!r} failed on {failures[name]}/{realizations} "
                "realizations"
            )
        mean = float(good.mean())
        var = float(good.var(ddof=1))
        counts, edges = np.histogram(good, bins=40)
        stats[name] = EnsembleStats(
            name=name,
            mean=mean,
            variance=var,
            rel_fluctuation=float(np.sqrt(var) / mean) if mean > 0 else np.nan,
            hist_edges=edges,
            hist_counts=counts,
            realizations=realizations,
            seed=seed,
            failures=failures[name],
            values=good,
        )
    return stats


def match_parameter(target: str, zeta_grid, cfg: ProcessConfig,
                    model: DispersionModel, grid: SpectralGrid,
                    template: StructureSpec):
    """Map chirp values to the disorder sigma giving equal width or rate.

    For each zeta the ensemble-mean observable of the random family is
    root-found (bisection within a bracket located on a log grid from
    5e-8 to 8e-6 m) to match the chirped structure's value.  Unbracketed
    entries are returned with sigma = nan and matched = False.  The
    slice mismatch and |g|^2 |pump|^2 are computed once per call.

    Returns a list of dicts with keys zeta, sigma, observable_chirp,
    observable_rps, rate_chirp, rate_rps (the pair rates of the chirped
    and the matched densities) and matched.
    """
    if target not in ("equal-width", "equal-rate"):
        raise SpectraError(f"unknown matching target {target!r}")
    observable = extractor_width if target == "equal-width" else extractor_rate
    rows = []
    probes = np.geomspace(5e-8, 8e-6, 25)
    dk_tot = _mismatch_slice(cfg, model, grid)
    weight = np.abs(_pumped_g(cfg, model, grid.omega_s)) ** 2

    def density(kind, **value):
        spec = StructureSpec(kind, template.n_domains, template.l0, **value)
        return weight * _f2(spec, dk_tot)

    for zeta in np.asarray(zeta_grid, dtype=float):
        chirp = density("chirped", zeta=zeta)
        goal = observable(grid.omega_s, chirp)

        def mismatch(sig, goal=goal):
            return observable(grid.omega_s, density("rps", sigma=sig)) - goal

        vals = np.full(probes.size, np.nan)
        for k, p in enumerate(probes):
            try:
                vals[k] = mismatch(p)
            except SpectraError:
                # off-grid observable (e.g. width beyond the span): the
                # probe is unusable but neighbors may still bracket
                continue
        finite = np.isfinite(vals)
        usable = np.nonzero(finite[:-1] & finite[1:]
                            & (np.sign(vals[:-1]) != np.sign(vals[1:])))[0]
        row = {"zeta": float(zeta), "sigma": float("nan"),
               "observable_chirp": goal, "observable_rps": float("nan"),
               "rate_chirp": extractor_rate(grid.omega_s, chirp),
               "rate_rps": float("nan"), "matched": False}
        if usable.size:
            from scipy.optimize import brentq  # on first use: ~0.25 s to import
            lo, hi = probes[usable[0]], probes[usable[0] + 1]
            sigma = brentq(mismatch, lo, hi, rtol=1e-2)
            row.update(sigma=float(sigma), observable_rps=mismatch(sigma) + goal,
                       rate_rps=extractor_rate(grid.omega_s, density("rps", sigma=sigma)),
                       matched=True)
        rows.append(row)
    return rows
