"""Experiment drivers producing flat result tables.

Each scenario is a pure function of (parameters, seed): reruns with
identical inputs reproduce identical outputs bit for bit.  Tables are
designed so that each one feeds a single downstream plotting command.

Random-number streams are derived as (seed, stream) pairs with
disjoint stream ranges per scenario sub-task, so grid points can be
evaluated concurrently without changing results.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace

import numpy as np

from .dispersion import DispersionModel
from .spectra import (ProcessConfig, SpectraError, SpectralGrid,
                      ensemble_run, extractor_rate, extractor_width, fwhm,
                      joint_density, map_realizations, match_parameter)
from .structures import (RandomSource, StructureError, StructureSpec,
                         apply_fabrication_error, shuffle_segments)
from .temporal import (entanglement_time, hom_trace, sumfreq_ensemble_mc,
                       sumfreq_trace)
from .spatial import AngularGrid, correlated_area, correlated_width_scan


@dataclass(frozen=True)
class Table:
    columns: tuple
    rows: tuple


@dataclass(frozen=True)
class ScenarioResult:
    scenario: str
    tables: dict
    metadata: dict


@dataclass(frozen=True)
class Workspace:
    """Shared per-scenario context: config, model, grids, design point."""

    cfg: ProcessConfig
    model: DispersionModel
    grid: SpectralGrid
    l0: float
    dk0: float


def _workspace(temperature: float = 297.0, grid_points: int = 1025,
               span: float = 0.35, design_temperature: float = 297.0) -> Workspace:
    cfg = ProcessConfig()
    model = DispersionModel(temperature=temperature)
    design = (model if temperature == design_temperature
              else DispersionModel(temperature=design_temperature))
    l0 = design.qpm_period(cfg.omega_s0, cfg.omega_s0)
    dk0 = np.pi / l0
    grid = SpectralGrid.default(cfg.omega_s0, n=grid_points, span=span)
    return Workspace(cfg, model, grid, float(l0), float(dk0))


def _scan_means(draw, count: int, ws: Workspace):
    """Mean width and rate over the layouts draw(0) .. draw(count - 1);
    a width that falls off the grid ends the scan."""
    omega_s = ws.grid.omega_s

    def observe(g, f):
        density = np.abs(g) ** 2 * np.abs(f) ** 2
        return extractor_width(omega_s, density), extractor_rate(omega_s, density)

    rows = map_realizations(draw, count, ws.cfg, ws.model, ws.grid, observe)
    widths, rates = np.reshape(rows, (count, 2)).T
    return widths.mean(), rates.mean()


def _trace_table(tau, traces: dict) -> Table:
    """One row per delay, one column per named trace."""
    return Table(("tau",) + tuple(traces), tuple(
        (float(t),) + tuple(float(tr.values[i]) for tr in traces.values())
        for i, t in enumerate(tau)))


def run_rate_vs_nl(seed: int = 0,
                   sigmas=(0.0, 0.1e-6, 0.5e-6, 1e-6, 2e-6),
                   nl_values=(100, 200, 300, 400, 500, 600, 700),
                   grid_points: int = 1025, temperature: float = 297.0) -> ScenarioResult:
    """Pair rate and spectral width versus domain count per disorder level."""
    ws = _workspace(temperature, grid_points)
    rows = []
    for sigma in sigmas:
        for nl in nl_values:
            spec = StructureSpec("rps", int(nl), ws.l0, sigma=float(sigma))
            density = joint_density(spec, ws.cfg, ws.model, ws.grid)
            rows.append((float(sigma), int(nl), extractor_rate(ws.grid.omega_s, density),
                         extractor_width(ws.grid.omega_s, density)))
    table = Table(("sigma", "n_domains", "rate", "width"), tuple(rows))
    return ScenarioResult("rate-vs-NL", {"scan": table}, {})


def run_width_vs_nl(seed: int = 0, **kwargs) -> ScenarioResult:
    """Same scan as rate-vs-NL with the width as the headline column."""
    result = run_rate_vs_nl(seed, **kwargs)
    return ScenarioResult("width-vs-NL", result.tables, result.metadata)


run_width_vs_nl.__signature__ = inspect.signature(run_rate_vs_nl)


def run_sigma_zeta_match(seed: int = 0,
                         zeta_values=(0.5e6, 1.0e6, 1.5e6, 2.0e6, 2.5e6, 3.0e6),
                         target: str = "equal-width", n_domains: int = 700,
                         grid_points: int = 1025,
                         temperature: float = 297.0) -> ScenarioResult:
    """Disorder-to-chirp transformation curve at matched width or rate."""
    # matching probes strongly disordered spectra whose wings extend far
    # beyond the default span, so use a wider one
    ws = _workspace(temperature, grid_points, span=0.6)
    template = StructureSpec("rps", n_domains, ws.l0)
    # an unmatched row's nan rate_rps makes its ratio nan
    rows = tuple((e["zeta"], e["sigma"], e["observable_chirp"], e["rate_rps"],
                  e["rate_chirp"], e["rate_rps"] / e["rate_chirp"], int(e["matched"]))
                 for e in match_parameter(target, zeta_values, ws.cfg, ws.model,
                                          ws.grid, template))
    table = Table(("zeta", "sigma", "observable_chirp", "rate_rps",
                   "rate_chirp", "rate_ratio", "matched"), rows)
    return ScenarioResult("sigma-zeta-match", {"match": table}, {})


def _skew_kurtosis(x: np.ndarray) -> tuple[float, float]:
    """Skewness m3/m2^1.5 and excess kurtosis m4/m2^2 - 3, m_k = mean((x - mean)^k):
    scipy.stats' defaults (biased, Fisher), NaN for a sample constant to rounding."""
    mean = np.mean(x)
    d = x - mean
    d2 = d * d
    m2, m3, m4 = np.mean(d2), np.mean(d2 * d), np.mean(d2 * d2)
    if m2 <= (np.finfo(float).eps * mean) ** 2:
        return float("nan"), float("nan")
    return float(m3 / m2 ** 1.5), float(m4 / m2 ** 2.0 - 3)


def run_histogram_study(seed: int = 0, sigma: float = 2.1e-6,
                        n_domains: int = 700, realizations: int = 10000,
                        grid_points: int = 257,
                        temperature: float = 297.0) -> ScenarioResult:
    """Ensemble histograms of pair rate and spectral width."""
    # the widest disorder realizations spill past the default span
    ws = _workspace(temperature, grid_points, span=0.6)
    spec = StructureSpec("rps", n_domains, ws.l0, sigma=sigma)
    stats = ensemble_run(
        spec, {"rate": extractor_rate, "width": extractor_width},
        realizations, seed, ws.cfg, ws.model, ws.grid,
    )
    tables = {}
    summary_rows = []
    for name, st in stats.items():
        hist_rows = tuple(
            (float(st.hist_edges[i]), float(st.hist_edges[i + 1]), int(c))
            for i, c in enumerate(st.hist_counts)
        )
        tables[f"histogram_{name}"] = Table(("bin_lo", "bin_hi", "count"), hist_rows)
        summary_rows.append((
            name, st.mean, st.variance, st.rel_fluctuation,
            *_skew_kurtosis(st.values),
            st.realizations, st.failures,
        ))
    tables["summary"] = Table(
        ("observable", "mean", "variance", "rel_fluctuation", "skewness",
         "excess_kurtosis", "realizations", "failures"), tuple(summary_rows))
    tables["realizations"] = Table(
        ("index", "rate", "width"),
        tuple((i, float(r), float(w)) for i, (r, w)
              in enumerate(zip(stats["rate"].values, stats["width"].values))),
    )
    return ScenarioResult("histogram-study", tables, {})


def run_hom_study(seed: int = 0, sigma: float = 2.1e-6, zeta: float = 2.5e6,
                  n_domains: int = 700, grid_points: int = 2049,
                  tau_span: float = 100e-15, tau_points: int = 2001,
                  temperature: float = 297.0) -> ScenarioResult:
    """HOM coincidence traces: one realization, ensemble, chirped."""
    ws = _workspace(temperature, grid_points)
    tau = np.linspace(-tau_span, tau_span, tau_points)
    ens = StructureSpec("rps", n_domains, ws.l0, sigma=sigma)
    single = ens.generate(RandomSource(seed, 0))
    chirp = StructureSpec("chirped", n_domains, ws.l0, zeta=zeta)
    traces = {
        "rn_rps_single": hom_trace(single, ws.cfg, ws.model, ws.grid, tau),
        "rn_rps_ensemble": hom_trace(ens, ws.cfg, ws.model, ws.grid, tau),
        "rn_cpps": hom_trace(chirp, ws.cfg, ws.model, ws.grid, tau),
    }
    table = _trace_table(tau, traces)
    dips = {name: entanglement_time(tr) for name, tr in traces.items()}
    return ScenarioResult("hom-study", {"traces": table}, {"dip_fwhm_s": dips})


def run_sumfreq_study(seed: int = 0, sigma: float = 2.1e-6, zeta: float = 2.5e6,
                      n_domains: int = 700, grid_points: int = 1025,
                      realizations: int = 100, tau_span: float = 300e-15,
                      tau_points: int = 2001,
                      temperature: float = 297.0) -> ScenarioResult:
    """Sum-frequency traces of the chirped structure under the three
    compensation modes, plus the ideally compensated ensemble mean."""
    ws = _workspace(temperature, grid_points)
    tau = np.linspace(-tau_span, tau_span, tau_points)
    chirp = StructureSpec("chirped", n_domains, ws.l0, zeta=zeta)
    ens = StructureSpec("rps", n_domains, ws.l0, sigma=sigma)
    traces = {
        "cpps_none": sumfreq_trace(chirp, ws.cfg, ws.model, ws.grid, tau, "none"),
        "cpps_quadratic": sumfreq_trace(chirp, ws.cfg, ws.model, ws.grid, tau,
                                        "quadratic"),
        "cpps_ideal": sumfreq_trace(chirp, ws.cfg, ws.model, ws.grid, tau, "ideal"),
        "rps_ensemble_ideal": sumfreq_ensemble_mc(
            ens, ws.cfg, ws.model, ws.grid, realizations, seed, tau, "ideal"),
    }
    table = _trace_table(tau, traces)
    widths = {name: fwhm(tr.tau, tr.values) for name, tr in traces.items()}
    return ScenarioResult("sumfreq-study", {"traces": table},
                          {"trace_fwhm_s": widths})


def run_spatial_study(seed: int = 0, sigma: float = 2.1e-6, zeta: float = 2.5e6,
                      n_domains: int = 700, pump_width: float = 1e-5,
                      pump_widths=(3e-6, 1e-5, 3e-5, 1e-4, 3e-4),
                      n_omega: int = 201, n_theta: int = 320,
                      temperature: float = 297.0) -> ScenarioResult:
    """Correlated-area profiles and their width versus pump focusing."""
    ws = _workspace(temperature)
    cfg = replace(ws.cfg, pump_dx=pump_width, pump_dy=pump_width)
    omega = np.linspace(ws.cfg.omega_s0 * 0.65, ws.cfg.omega_s0 * 1.35, n_omega)
    chirp = StructureSpec("chirped", n_domains, ws.l0, zeta=zeta)
    ens = StructureSpec("rps", n_domains, ws.l0, sigma=sigma)
    agrid = AngularGrid.on_axis(ws.cfg, ws.model, pump_width, omega, n_theta)
    scan_rows, profiles = [], []
    for spec_name, spec in (("cpps", chirp), ("rps_ensemble", ens)):
        scan = correlated_width_scan(spec, ws.cfg, ws.model, pump_widths, omega,
                                     n_theta=n_theta)
        scan_rows += [(spec_name, row["pump_width"], row["delta_theta_i"])
                      for row in scan]
        # the area at pump_width is the scan's row of that width, whose
        # theta grid is agrid's
        same = [row["profile"] for row in scan if row["pump_width"] == pump_width]
        profiles.append(same[0] if same else
                        correlated_area(spec, cfg, ws.model, agrid).values[:, 0])
    area_rows = tuple(zip(*(map(float, col) for col in (agrid.theta_i, *profiles))))
    tables = {
        "correlated_area": Table(("theta_i", "g_cpps", "g_rps_ensemble"),
                                 area_rows),
        "width_scan": Table(("source", "pump_width", "delta_theta_i"),
                            tuple(scan_rows)),
    }
    return ScenarioResult("spatial-study", tables, {})


def run_temperature_scan(seed: int = 0,
                         t_values=tuple(float(t) for t in range(284, 301, 2)),
                         sigma: float = 2.1e-6, zeta: float = 2.5e6,
                         n_domains: int = 700, grid_points: int = 513,
                         design_temperature: float = 297.0) -> ScenarioResult:
    """Spectral width versus operating temperature for fixed structures.

    Structures are fabricated for the design temperature; only the
    dispersion experienced by the fields follows the scan.
    """
    ws0 = _workspace(design_temperature, grid_points)
    ens = StructureSpec("rps", n_domains, ws0.l0, sigma=sigma)
    single = ens.generate(RandomSource(seed, 0))
    chirp = StructureSpec("chirped", n_domains, ws0.l0, zeta=zeta)
    rows = []
    for t in t_values:
        ws = _workspace(float(t), grid_points,
                        design_temperature=design_temperature)
        rows.append((float(t),) + tuple(
            extractor_width(ws.grid.omega_s, joint_density(s, ws.cfg, ws.model, ws.grid))
            for s in (single, ens, chirp)))
    table = Table(("temperature", "width_single", "width_ensemble",
                   "width_cpps"), tuple(rows))
    return ScenarioResult("temperature-scan", {"scan": table}, {})


def run_fab_error_scan(seed: int = 0,
                       sigma_er_values=(0.0, 2.5e-7, 5e-7, 1e-6),
                       bases=("cpps", "rps"), sigma: float = 2.1e-6,
                       zeta: float = 2.5e6, n_domains: int = 700,
                       realizations: int = 1000, grid_points: int = 257,
                       temperature: float = 297.0) -> ScenarioResult:
    """Mean width and rate under random fabrication error of the boundaries."""
    if realizations < 1:
        raise SpectraError(f"need at least one realization, got {realizations}")
    # large error levels broaden spectra past the default span
    ws = _workspace(temperature, grid_points, span=0.6)
    # rows and streams follow this order, whatever the order of `bases`
    specs = {"cpps": StructureSpec("chirped", n_domains, ws.l0, zeta=zeta),
             "rps": StructureSpec("rps", n_domains, ws.l0, sigma=sigma)}
    unknown = [name for name in bases if name not in specs]
    if unknown:
        raise StructureError(f"unknown fab-error base {unknown[0]!r}; "
                             f"expected one of {', '.join(specs)}")
    base_structures = {name: spec.generate(RandomSource(seed, k))
                       for k, (name, spec) in enumerate(specs.items())
                       if name in bases}
    rows = []
    for b, (name, base) in enumerate(base_structures.items()):
        for e, sigma_er in enumerate(sigma_er_values):
            # at sigma_er = 0 every realization is the base layout: one suffices
            width, rate = _scan_means(
                lambda i: apply_fabrication_error(
                    base, float(sigma_er),
                    RandomSource(seed, 1000 + b * 10_000_000 + e * 100_000 + i)),
                realizations if sigma_er > 0 else 1, ws)
            rows.append((name, float(sigma_er), float(width), float(rate)))
    table = Table(("base", "sigma_er", "width_mean", "rate_mean"), tuple(rows))
    return ScenarioResult("fab-error-scan", {"scan": table}, {})


def run_segment_scan(seed: int = 0,
                     d_values=(1, 2, 5, 10, 35, 70, 350, 700),
                     zeta: float = 2.5e6, n_domains: int = 700,
                     permutations: int = 1000, grid_points: int = 257,
                     temperature: float = 297.0) -> ScenarioResult:
    """Mean width and rate after random reordering of chirped segments."""
    if permutations < 1:
        raise SpectraError(f"need at least one permutation, got {permutations}")
    ws = _workspace(temperature, grid_points)
    base = StructureSpec("chirped", n_domains, ws.l0, zeta=zeta) \
        .generate(RandomSource(seed, 0))
    rows = []
    for e, d in enumerate(d_values):
        # with d = N_L there is one run: every permutation is the same layout
        width, rate = _scan_means(
            lambda i: shuffle_segments(base, int(d),
                                       RandomSource(seed, 1000 + e * 100_000 + i)),
            1 if int(d) == n_domains else permutations, ws)
        rows.append((int(d), float(width), float(rate)))
    table = Table(("d", "width_mean", "rate_mean"), tuple(rows))
    return ScenarioResult("segment-scan", {"scan": table}, {})


SCENARIOS = {
    "rate-vs-NL": run_rate_vs_nl,
    "width-vs-NL": run_width_vs_nl,
    "sigma-zeta-match": run_sigma_zeta_match,
    "histogram-study": run_histogram_study,
    "hom-study": run_hom_study,
    "sumfreq-study": run_sumfreq_study,
    "spatial-study": run_spatial_study,
    "temperature-scan": run_temperature_scan,
    "fab-error-scan": run_fab_error_scan,
    "segment-scan": run_segment_scan,
}

SCENARIO_NOTES = {
    "rate-vs-NL": "pair rate versus domain count per disorder level",
    "width-vs-NL": "spectral width versus domain count per disorder level",
    "sigma-zeta-match": "disorder-to-chirp transformation curve",
    "histogram-study": "ensemble histograms of rate and width",
    "hom-study": "Hong-Ou-Mandel coincidence dips",
    "sumfreq-study": "sum-frequency traces under phase compensation",
    "spatial-study": "correlated emission areas versus pump focusing",
    "temperature-scan": "spectral width versus operating temperature",
    "fab-error-scan": "effect of fabrication error on width and rate",
    "segment-scan": "effect of segment reordering of a chirped structure",
}
