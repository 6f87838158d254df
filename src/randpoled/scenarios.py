"""Experiment drivers producing flat result tables.

Each scenario is a pure function of (parameters, seed): reruns with
identical inputs reproduce identical outputs bit for bit.  Tables are
designed so that each one feeds a single downstream plotting command.

Random-number streams are derived as (seed, stream) pairs with
disjoint stream ranges per scenario sub-task, so grid points can be
evaluated concurrently without changing results.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dispersion import DispersionModel
from .spectra import (ProcessConfig, SpectraError, SpectralGrid,
                      ensemble_run, extractor_rate, extractor_width, fwhm,
                      joint_density, match_parameter)
from .structures import (RandomSource, StructureError, StructureSpec,
                         apply_fabrication_error, shuffle_segments)
from .temporal import (entanglement_time, hom_trace, sumfreq_ensemble_mc,
                       sumfreq_trace)
from .spatial import AngularGrid, correlated_area, correlated_width_scan


# draw i of scan row r takes stream 1000 + r * _ROW_STREAMS + i, and fab-error-scan
# numbers row e of base b as b * _BASE_ROWS + e: larger counts would share streams
_ROW_STREAMS, _BASE_ROWS = 100_000, 100


@dataclass(frozen=True)
class Table:
    columns: tuple
    rows: tuple


@dataclass(frozen=True)
class ScenarioResult:
    tables: dict
    metadata: dict


@dataclass(frozen=True)
class Workspace:
    """Shared per-scenario context: config, model, grid, domain length."""

    cfg: ProcessConfig
    model: DispersionModel
    grid: SpectralGrid
    l0: float


def _check_counts(floor: int, **counts):
    """Refuse a count below floor before any grid is built: 2 for a grid's
    samples or a histogram's layouts, 1 for the layouts a mean averages."""
    for name, n in counts.items():
        if n < floor:
            raise SpectraError(f"{name} must be at least {floor}, got {n}")


def _delays(tau_span: float, tau_points: int) -> np.ndarray:
    """tau_points >= 2 delays on [-tau_span, tau_span], tau_span > 0."""
    _check_counts(2, tau_points=tau_points)
    if not tau_span > 0:
        raise SpectraError(f"tau_span must be positive, got {tau_span:g}")
    return np.linspace(-tau_span, tau_span, tau_points)


def _workspace(temperature: float = 297.0, grid_points: int = 1025,
               span: float = 0.35, design_temperature: float = 297.0) -> Workspace:
    _check_counts(2, grid_points=grid_points)
    cfg = ProcessConfig()
    model = DispersionModel(temperature=temperature)
    design = DispersionModel(temperature=design_temperature)
    l0 = design.qpm_period(cfg.omega_s0, cfg.omega_s0)
    grid = SpectralGrid.default(cfg.omega_s0, n=grid_points, span=span)
    return Workspace(cfg, model, grid, float(l0))


def _scan_means(draw, count: int, ws: Workspace):
    """Mean width and rate over the layouts draw(0) .. draw(count - 1), with
    ensemble_run's failure rule."""
    stats = ensemble_run(draw, {"width": extractor_width, "rate": extractor_rate},
                         count, ws.cfg, ws.model, ws.grid)
    return stats["width"].mean, stats["rate"].mean


def _trace_table(tau, traces: dict) -> Table:
    """One row per delay, one column per named trace."""
    columns = np.column_stack([tau, *(tr.values for tr in traces.values())])
    return Table(("tau",) + tuple(traces), tuple(map(tuple, columns.tolist())))


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
    return ScenarioResult({"scan": table}, {})


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
    return ScenarioResult({"match": table}, {})


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
    _check_counts(2, realizations=realizations)
    # the widest disorder realizations spill past the default span
    ws = _workspace(temperature, grid_points, span=0.6)
    spec = StructureSpec("rps", n_domains, ws.l0, sigma=sigma)
    stats = ensemble_run(
        lambda i: spec.generate(RandomSource(seed, i)),
        {"rate": extractor_rate, "width": extractor_width},
        realizations, ws.cfg, ws.model, ws.grid,
    )
    tables = {}
    summary_rows = []
    for name, st in stats.items():
        counts, edges = np.histogram(st.values, bins=40)
        hist_rows = tuple((float(lo), float(hi), int(c))
                          for lo, hi, c in zip(edges[:-1], edges[1:], counts))
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
    return ScenarioResult(tables, {})


def run_hom_study(seed: int = 0, sigma: float = 2.1e-6, zeta: float = 2.5e6,
                  n_domains: int = 700, grid_points: int = 2049,
                  tau_span: float = 100e-15, tau_points: int = 2001,
                  temperature: float = 297.0) -> ScenarioResult:
    """HOM coincidence traces: one realization, ensemble, chirped."""
    tau = _delays(tau_span, tau_points)
    ws = _workspace(temperature, grid_points)
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
    return ScenarioResult({"traces": table}, {"dip_fwhm_s": dips})


def run_sumfreq_study(seed: int = 0, sigma: float = 2.1e-6, zeta: float = 2.5e6,
                      n_domains: int = 700, grid_points: int = 1025,
                      realizations: int = 100, tau_span: float = 300e-15,
                      tau_points: int = 2001,
                      temperature: float = 297.0) -> ScenarioResult:
    """Sum-frequency traces of the chirped structure under the three
    compensation modes, plus the ideally compensated ensemble mean."""
    tau = _delays(tau_span, tau_points)
    _check_counts(1, realizations=realizations)
    ws = _workspace(temperature, grid_points)
    chirp = StructureSpec("chirped", n_domains, ws.l0, zeta=zeta)
    ens = StructureSpec("rps", n_domains, ws.l0, sigma=sigma)
    traces = {
        "cpps_none": sumfreq_trace(chirp, ws.cfg, ws.model, ws.grid, tau, "none"),
        "cpps_quadratic": sumfreq_trace(chirp, ws.cfg, ws.model, ws.grid, tau,
                                        "quadratic"),
        "cpps_ideal": sumfreq_trace(chirp, ws.cfg, ws.model, ws.grid, tau, "ideal"),
        "rps_ensemble_ideal": sumfreq_ensemble_mc(
            lambda i: ens.generate(RandomSource(seed, i)), ws.cfg, ws.model,
            ws.grid, realizations, tau, "ideal"),
    }
    widths = {}
    for name, tr in traces.items():
        try:
            widths[name] = fwhm(tr.tau, tr.values)
        except SpectraError as exc:
            raise SpectraError(f"trace {name!r}: {exc} (tau within +-{tau_span:g} s); "
                               "a larger tau_span widens the window") from exc
    return ScenarioResult({"traces": _trace_table(tau, traces)}, {"trace_fwhm_s": widths})


def run_spatial_study(seed: int = 0, sigma: float = 2.1e-6, zeta: float = 2.5e6,
                      n_domains: int = 700, pump_width: float = 1e-5,
                      pump_widths=(3e-6, 1e-5, 3e-5, 1e-4, 3e-4),
                      n_omega: int = 201, n_theta: int = 320,
                      temperature: float = 297.0) -> ScenarioResult:
    """Correlated-area profiles and their width versus pump focusing."""
    _check_counts(2, n_omega=n_omega, n_theta=n_theta)
    ws = _workspace(temperature)
    cfg = replace(ws.cfg, pump_width=pump_width)
    omega = np.linspace(ws.cfg.omega_s0 * 0.65, ws.cfg.omega_s0 * 1.35, n_omega)
    chirp = StructureSpec("chirped", n_domains, ws.l0, zeta=zeta)
    ens = StructureSpec("rps", n_domains, ws.l0, sigma=sigma)
    agrid = AngularGrid.on_axis(cfg, ws.model, omega, n_theta)
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
                        correlated_area(spec, cfg, ws.model, agrid)[:, 0])
    area_rows = tuple(zip(*(map(float, col) for col in (agrid.theta_i, *profiles))))
    tables = {
        "correlated_area": Table(("theta_i", "g_cpps", "g_rps_ensemble"),
                                 area_rows),
        "width_scan": Table(("source", "pump_width", "delta_theta_i"),
                            tuple(scan_rows)),
    }
    return ScenarioResult(tables, {})


def run_temperature_scan(seed: int = 0,
                         t_values=tuple(float(t) for t in range(284, 301, 2)),
                         sigma: float = 2.1e-6, zeta: float = 2.5e6,
                         n_domains: int = 700, grid_points: int = 513,
                         design_temperature: float = 297.0) -> ScenarioResult:
    """Spectral width versus operating temperature for fixed structures.

    Structures are fabricated for the design temperature; only the
    dispersion experienced by the fields follows the scan.
    """
    ws = _workspace(design_temperature, grid_points,
                    design_temperature=design_temperature)
    ens = StructureSpec("rps", n_domains, ws.l0, sigma=sigma)
    single = ens.generate(RandomSource(seed, 0))
    chirp = StructureSpec("chirped", n_domains, ws.l0, zeta=zeta)
    rows = []
    for t in t_values:
        model = DispersionModel(temperature=float(t))
        rows.append((float(t),) + tuple(
            extractor_width(ws.grid.omega_s, joint_density(s, ws.cfg, model, ws.grid))
            for s in (single, ens, chirp)))
    table = Table(("temperature", "width_single", "width_ensemble",
                   "width_cpps"), tuple(rows))
    return ScenarioResult({"scan": table}, {})


def run_fab_error_scan(seed: int = 0,
                       sigma_er_values=(0.0, 2.5e-7, 5e-7, 1e-6),
                       bases=("cpps", "rps"), sigma: float = 2.1e-6,
                       zeta: float = 2.5e6, n_domains: int = 700,
                       realizations: int = 1000, grid_points: int = 257,
                       temperature: float = 297.0) -> ScenarioResult:
    """Mean width and rate under random fabrication error of the boundaries."""
    _check_counts(1, realizations=realizations)
    if realizations > _ROW_STREAMS or len(sigma_er_values) > _BASE_ROWS:
        raise SpectraError(f"at most {_ROW_STREAMS} realizations and {_BASE_ROWS} sigma_er "
                           f"values, got {realizations} and {len(sigma_er_values)}")
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
            # realization 0 checks the error law for the whole row
            width, rate = _scan_means(
                lambda i: apply_fabrication_error(
                    base, float(sigma_er),
                    RandomSource(seed, 1000 + (b * _BASE_ROWS + e) * _ROW_STREAMS + i),
                    _law_checked=i > 0),
                realizations if sigma_er > 0 else 1, ws)
            rows.append((name, float(sigma_er), float(width), float(rate)))
    table = Table(("base", "sigma_er", "width_mean", "rate_mean"), tuple(rows))
    return ScenarioResult({"scan": table}, {})


def run_segment_scan(seed: int = 0,
                     d_values=(1, 2, 5, 10, 35, 70, 350, 700),
                     zeta: float = 2.5e6, n_domains: int = 700,
                     permutations: int = 1000, grid_points: int = 257,
                     temperature: float = 297.0) -> ScenarioResult:
    """Mean width and rate after random reordering of chirped segments."""
    _check_counts(1, permutations=permutations)
    if permutations > _ROW_STREAMS:
        raise SpectraError(f"at most {_ROW_STREAMS} permutations, got {permutations}")
    ws = _workspace(temperature, grid_points)
    base = StructureSpec("chirped", n_domains, ws.l0, zeta=zeta) \
        .generate(RandomSource(seed, 0))
    rows = []
    for e, d in enumerate(d_values):
        # with d = N_L there is one run: every permutation is the same layout
        width, rate = _scan_means(
            lambda i: shuffle_segments(base, int(d),
                                       RandomSource(seed, 1000 + e * _ROW_STREAMS + i)),
            1 if int(d) == n_domains else permutations, ws)
        rows.append((int(d), float(width), float(rate)))
    table = Table(("d", "width_mean", "rate_mean"), tuple(rows))
    return ScenarioResult({"scan": table}, {})


SCENARIOS = {
    "rate-vs-NL": run_rate_vs_nl,
    # the rate-vs-NL scan, written under its own id
    "width-vs-NL": run_rate_vs_nl,
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
