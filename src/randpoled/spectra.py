"""Two-photon amplitudes, spectral densities, spectra and ensemble statistics.

The pump is cw, so the idler frequency is slaved to the signal one,
omega_i = omega_p0 - omega_s, and every two-dimensional spectral object
collapses to a one-dimensional slice along the signal frequency, whose
kinematics _cw_slice alone computes, for spatial and temporal too.

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
from .phasematch import BoundaryPlan, avg_f2_rps, f2_chirp, f_chirp, f_exact, xcorr_rps
from .structures import PolingStructure, StructureSpec


# effective nonlinear coefficient, m/V: rates are relative (see above)
CHI2_EFFECTIVE = 1e-12
PUMP_WAVELENGTH = 775e-9  # m, the cw pump's vacuum wavelength


class SpectraError(ValueError):
    """Raised for invalid grids, sources, or failed width searches."""


@dataclass(frozen=True)
class ProcessConfig:
    """The cw pump of unit spectral amplitude at PUMP_WAVELENGTH: its beam width,
    with the constants omega_p0 and the design point omega_s0 = omega_p0 / 2."""

    pump_width: float = 1e-5            # m, transverse 1/e half-width
    omega_p0 = omega_from_wavelength(PUMP_WAVELENGTH)
    omega_s0 = 0.5 * omega_p0

    def __post_init__(self):
        if not 0.0 < self.pump_width < np.inf:
            raise SpectraError("pump width must be positive and finite")


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
        if w[-1] >= ProcessConfig.omega_p0:
            raise SpectraError("grid extends past the pump frequency (idler <= 0)")

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

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        if v.shape != self.grid.omega_s.shape:
            raise SpectraError("values and grid shapes differ")
        if not np.all(np.isfinite(v)):
            raise SpectraError("amplitude contains non-finite values")

    @property
    def omega_i(self) -> np.ndarray:
        return ProcessConfig.omega_p0 - self.grid.omega_s


@dataclass(frozen=True)
class EnsembleStats:
    """Summary of a scalar observable over structure realizations."""

    mean: float
    variance: float
    rel_fluctuation: float
    realizations: int
    failures: int
    values: np.ndarray = field(repr=False)


def _cw_slice(cfg: ProcessConfig, model: DispersionModel, omega_s):
    """(omega_i, k_s, k_i, k_p, dk_tot, g) on the cw slice, from one n(omega_s)
    and one n(omega_i): wavenumbers k = n omega / c, the collinear mismatch
    dk_tot = k_p - k_s - k_i, and the coupling g = i sqrt(ws wi) /
    (2 c pi sqrt(ns ni)) chi2 pumped at unit amplitude (amplitude per unit F)."""
    omega_i = cfg.omega_p0 - omega_s
    n_s = model.refractive_index(omega_s)
    n_i = model.refractive_index(omega_i)
    k_s = n_s * omega_s / SPEED_OF_LIGHT
    k_i = n_i * omega_i / SPEED_OF_LIGHT
    k_p = model.wavenumber(omega_s + omega_i)  # = omega_p0 exactly for in-band omega_s
    g = (1j * np.sqrt(omega_s * omega_i)
         / (2.0 * SPEED_OF_LIGHT * np.pi * np.sqrt(n_s * n_i))
         * CHI2_EFFECTIVE)
    return omega_i, k_s, k_i, k_p, k_p - k_s - k_i, g


def _amplitude(source, dk_tot):
    """F of a source at total mismatch dk_tot: f_exact of a PolingStructure,
    or of the layout of an ideal or zeta = 0 chirped spec, and the closed
    form f_chirp of a chirped one.  Spec detunings are measured from pi/l0,
    the fabricated design point, not the dispersion operating point.  An rps
    spec has no single F (only second-order moments): generate a layout."""
    if isinstance(source, PolingStructure):
        return f_exact(source, dk_tot)
    if not isinstance(source, StructureSpec) or source.kind == "rps":
        raise SpectraError("amplitude requires an explicit structure or a "
                           "deterministic spec")
    if not source.zeta:
        return f_exact(source.generate(None), dk_tot)
    delta_k = np.asarray(dk_tot, dtype=float) - np.pi / source.l0
    return f_chirp(delta_k, source.n_domains, source.l0, source.zeta)


def _f2(source, dk_tot):
    """|F|^2 of a source at total mismatch dk_tot: the closed-form ensemble
    mean <|F|^2> of an rps spec, f2_chirp (without the phase of F) of a
    chirped spec with zeta != 0, else |_amplitude|^2."""
    if isinstance(source, StructureSpec) and (source.kind == "rps" or source.zeta):
        delta_k = np.asarray(dk_tot, dtype=float) - np.pi / source.l0
        if source.kind == "rps":
            return avg_f2_rps(delta_k, source.n_domains, source.l0, source.sigma)
        return f2_chirp(delta_k, source.n_domains, source.l0, source.zeta)
    return np.abs(_amplitude(source, dk_tot)) ** 2


def _xcorr(spec: StructureSpec, dk_tot, dk_tot_prime):
    """<F(dk_tot) F*(dk_tot')> of an rps spec, whose diagonal is _f2's <|F|^2>."""
    design = np.pi / spec.l0
    return xcorr_rps(dk_tot - design, dk_tot_prime - design, spec.n_domains,
                     spec.l0, spec.sigma)


def two_photon_amplitude(source, cfg: ProcessConfig, model: DispersionModel,
                         grid: SpectralGrid) -> SpectralSlice:
    """Complex amplitude slice for one realization or a deterministic spec.

    An rps StructureSpec has no single amplitude (only second-order
    moments); generate a realization first.
    """
    *_, dk_tot, g = _cw_slice(cfg, model, grid.omega_s)
    return SpectralSlice(grid, g * _amplitude(source, dk_tot))


def joint_density(source, cfg: ProcessConfig, model: DispersionModel,
                  grid: SpectralGrid) -> np.ndarray:
    """Spectral density n(omega_s) = |g|^2 |pump|^2 <|F|^2> on the slice."""
    *_, dk_tot, g = _cw_slice(cfg, model, grid.omega_s)
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
    *_, dk_tot, g = _cw_slice(cfg, model, grid.omega_s)
    plan = BoundaryPlan(dk_tot)
    return [observe(g, f_exact(draw(i), dk_tot, plan)) for i in range(count)]


def ensemble_run(draw, extractors: dict, realizations: int, cfg: ProcessConfig,
                 model: DispersionModel, grid: SpectralGrid) -> dict:
    """Every extractor applied to the exact density of each of the layouts
    draw(0) .. draw(realizations - 1), reduced to EnsembleStats.

    An extraction that raises a domain error (ValueError) is recorded as NaN
    and counted; the run fails above 1% failures of one extractor.  Moments
    and ``values`` cover the finite values in index order (one realization:
    NaN variance), so results are bit-reproducible.
    """
    if realizations < 1:
        raise SpectraError("need at least one realization")
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

    rows = map_realizations(draw, realizations, cfg, model, grid, observe)
    results = np.array(rows, dtype=float).T
    stats = {}
    for name, vals in zip(extractors, results):
        good = vals[np.isfinite(vals)]
        if failures[name] > 0.01 * realizations:
            raise SpectraError(
                f"extractor {name!r} failed on {failures[name]}/{realizations} "
                "realizations"
            )
        mean = float(good.mean())
        var = float(good.var(ddof=1)) if good.size > 1 else np.nan
        stats[name] = EnsembleStats(
            mean=mean,
            variance=var,
            rel_fluctuation=float(np.sqrt(var) / mean) if mean > 0 else np.nan,
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
    *_, dk_tot, g = _cw_slice(cfg, model, grid.omega_s)
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
