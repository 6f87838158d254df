"""Two-photon amplitudes, spectral densities, spectra and ensemble statistics.

The pump is cw, so the idler frequency is slaved to the signal one,
omega_i = omega_p0 - omega_s, and every two-dimensional spectral object
collapses to a one-dimensional slice along the signal frequency.

Rates are reported in relative units: all known prefactors are applied
but the absolute calibration (pump power to photon pairs per second)
would additionally require the collection bandwidth and beam geometry.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ._brent import _brentq
from .dispersion import SPEED_OF_LIGHT, DispersionModel, omega_from_wavelength
from .phasematch import BoundaryPlan, f2_chirp, f_exact, response
from .structures import RandomSource, StructureSpec


# effective nonlinear coefficient, m/V: rates are relative (see above)
CHI2_EFFECTIVE = 1e-12


class SpectraError(ValueError):
    """Raised for invalid grids, sources, or failed width searches."""


@dataclass(frozen=True)
class ProcessConfig:
    """The cw pump of unit spectral amplitude: wavelength and beam width."""

    pump_wavelength: float = 775e-9     # m
    pump_width: float = 1e-5            # m, transverse 1/e half-width

    def __post_init__(self):
        if self.pump_wavelength <= 0 or self.pump_width <= 0:
            raise SpectraError("pump wavelength and width must be positive")

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

    mean: float
    variance: float
    rel_fluctuation: float
    hist_edges: np.ndarray
    hist_counts: np.ndarray
    realizations: int
    failures: int = 0
    values: np.ndarray = field(default=None, repr=False)


def coupling_g(omega_s, omega_i, model: DispersionModel):
    """Coupling constant g = i sqrt(ws wi) / (2 c pi sqrt(ns ni)) chi2."""
    omega_s = np.asarray(omega_s, dtype=float)
    omega_i = np.asarray(omega_i, dtype=float)
    n_s = model.refractive_index(omega_s)
    n_i = model.refractive_index(omega_i)
    return (
        1j * np.sqrt(omega_s * omega_i)
        / (2.0 * SPEED_OF_LIGHT * np.pi * np.sqrt(n_s * n_i))
        * CHI2_EFFECTIVE
    )


def _cw_slice(cfg: ProcessConfig, model: DispersionModel, grid: SpectralGrid):
    """(omega_i, dk_tot, g) on the cw slice: the idler omega_p0 - omega_s,
    the collinear mismatch and the coupling pumped at unit amplitude,
    which is the amplitude per unit F."""
    omega_i = cfg.omega_p0 - grid.omega_s
    if np.any(omega_i <= 0):
        raise SpectraError("grid extends past the pump frequency (idler <= 0)")
    return (omega_i, model.collinear_mismatch(grid.omega_s, omega_i),
            coupling_g(grid.omega_s, omega_i, model))


def _f2(source, dk_tot):
    """|F|^2 of a source with an amplitude (a structure, a chirped or ideal
    spec), else the closed-form ensemble mean <|F|^2> of an rps spec.  A
    chirped spec's |F|^2 is taken without the phase of its F."""
    if isinstance(source, StructureSpec) and source.kind == "chirped" and source.zeta:
        return f2_chirp(dk_tot - np.pi / source.l0, source.n_domains, source.l0, source.zeta)
    r = response(source, dk_tot)
    return np.abs(r) ** 2 if np.iscomplexobj(r) else r


def two_photon_amplitude(source, cfg: ProcessConfig, model: DispersionModel,
                         grid: SpectralGrid) -> SpectralSlice:
    """Complex amplitude slice for one realization or a deterministic spec.

    An rps StructureSpec has no single amplitude (only second-order
    moments); generate a realization first.
    """
    _, dk_tot, g = _cw_slice(cfg, model, grid)
    f = response(source, dk_tot)
    if not np.iscomplexobj(f):
        raise SpectraError("amplitude requires an explicit structure or a "
                           "deterministic spec")
    return SpectralSlice(grid, g * f, cfg.omega_p0)


def joint_density(source, cfg: ProcessConfig, model: DispersionModel,
                  grid: SpectralGrid) -> np.ndarray:
    """Spectral density n(omega_s) = |g|^2 |pump|^2 <|F|^2> on the slice."""
    _, dk_tot, g = _cw_slice(cfg, model, grid)
    return np.abs(g) ** 2 * _f2(source, dk_tot)


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
    pumped coupling g and the boundary-sum plan (phasematch.BoundaryPlan).
    Each layout then costs one boundary sum F = f_exact(draw(i), dk_tot,
    plan), equal to the last bit to f_exact(draw(i), dk_tot): the plan
    builds the nodes for each length class of layout once.  Failures are
    the observable's to handle: one that raises ends the run.
    """
    _, dk_tot, g = _cw_slice(cfg, model, grid)
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
            mean=mean,
            variance=var,
            rel_fluctuation=float(np.sqrt(var) / mean) if mean > 0 else np.nan,
            hist_edges=edges,
            hist_counts=counts,
            realizations=realizations,
            failures=failures[name],
            values=good,
        )
    return stats


def match_parameter(target: str, zeta_grid, cfg: ProcessConfig,
                    model: DispersionModel, grid: SpectralGrid,
                    template: StructureSpec):
    """Map chirp values to the disorder sigma giving equal width or rate.

    For each zeta the ensemble-mean observable of the random family is
    root-found (Brent's method within a bracket located on a log grid from
    5e-8 to 8e-6 m) to match the chirped structure's value.  Unbracketed entries
    are returned with sigma = nan and matched = False.  The slice mismatch,
    |g|^2 |pump|^2 and the density of each sigma are computed once per call.

    Returns a list of dicts with keys zeta, sigma, observable_chirp,
    observable_rps, rate_chirp, rate_rps (the pair rates of the chirped
    and the matched densities) and matched.
    """
    if target not in ("equal-width", "equal-rate"):
        raise SpectraError(f"unknown matching target {target!r}")
    observable = extractor_width if target == "equal-width" else extractor_rate
    rows = []
    probes = np.geomspace(5e-8, 8e-6, 25)
    _, dk_tot, g = _cw_slice(cfg, model, grid)
    weight = np.abs(g) ** 2

    @functools.cache  # the probes' densities serve every zeta
    def density(kind, **value):
        spec = StructureSpec(kind, template.n_domains, template.l0, **value)
        return weight * _f2(spec, dk_tot)

    probe_vals = np.full(probes.size, np.nan)
    for k, p in enumerate(probes):
        try:
            probe_vals[k] = observable(grid.omega_s, density("rps", sigma=p))
        except SpectraError:
            # off-grid observable (e.g. width beyond the span): the
            # probe is unusable but neighbors may still bracket
            continue
    for zeta in np.asarray(zeta_grid, dtype=float):
        chirp = density("chirped", zeta=zeta)
        goal = observable(grid.omega_s, chirp)

        def mismatch(sig, goal=goal):
            return observable(grid.omega_s, density("rps", sigma=sig)) - goal

        vals = probe_vals - goal
        finite = np.isfinite(vals)
        usable = np.nonzero(finite[:-1] & finite[1:]
                            & (np.sign(vals[:-1]) != np.sign(vals[1:])))[0]
        row = {"zeta": float(zeta), "sigma": float("nan"),
               "observable_chirp": goal, "observable_rps": float("nan"),
               "rate_chirp": extractor_rate(grid.omega_s, chirp),
               "rate_rps": float("nan"), "matched": False}
        if usable.size:
            lo, hi = probes[usable[0]], probes[usable[0] + 1]
            sigma = _brentq(mismatch, lo, hi, rtol=1e-2)
            row.update(sigma=float(sigma), observable_rps=mismatch(sigma) + goal,
                       rate_rps=extractor_rate(grid.omega_s, density("rps", sigma=sigma)),
                       matched=True)
        rows.append(row)
    return rows
