"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line naming the
measured quantities.  Criterion 5 applies the linear rate law only in
the disorder-dominated regime (v >= 1) and checks the N_L^{3/2} to N_L
crossover of the exponent on every row.  Criterion 7 is kept red: its
Gaussian-shape gate is not met (rate skew 0.83, excess kurtosis 1.56;
width -0.36 / 0.11 over 10 000 realizations), nor does a
moment-matched Gamma law at the measured CV of 0.225 (skew 0.45,
kurtosis 0.30) explain the data; the gate stays until the expected
histogram shape is documented.
"""

import json
import time

import numpy as np
import pytest
from scipy import stats as sstats

from conftest import (angular_grid, avg_f2_rps_asymptotic,
                      dispersion_cancellation_check, f_boundary_sum)

from randpoled import (RandomSource, StructureSpec, cli, entanglement_time,
                       fwhm, hom_trace, joint_density, match_parameter,
                       sumfreq_ensemble_mc, sumfreq_trace)
from randpoled.phasematch import avg_f2_rps, f_chirp, f_exact
from randpoled.scenarios import (_workspace, run_fab_error_scan,
                                 run_rate_vs_nl, run_segment_scan,
                                 run_sigma_zeta_match)
from randpoled.spatial import angular_spectral_density, correlated_width_scan
from randpoled.spectra import (SpectralGrid, ensemble_run, extractor_rate,
                               extractor_width)

ZETA_REF = 2.5e6
N_DOMAINS = 700


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def matched_sigma(cfg, model):
    """Disorder level whose mean spectrum matches the reference chirp."""
    grid = SpectralGrid.default(cfg.omega_s0, n=513, span=0.6)
    template = StructureSpec("rps", N_DOMAINS,
                             model.qpm_period(cfg.omega_s0, cfg.omega_s0))
    row = match_parameter("equal-width", [ZETA_REF], cfg, model, grid,
                          template)[0]
    assert row["matched"]
    return row["sigma"]


def test_criterion_01_analytic_mc_equivalence(l0, dk0):
    start = time.perf_counter()
    delta_k = np.linspace(-1.5e5, 1.5e5, 20)
    dk_tot = dk0 + delta_k
    n_real = 1000
    worst = 0.0
    for sigma in (0.5e-6, 1.0e-6, 2.0e-6):
        spec = StructureSpec("rps", N_DOMAINS, l0, sigma=sigma)
        samples = np.empty((n_real, delta_k.size))
        for i in range(n_real):
            s = spec.generate(RandomSource(0, i))
            samples[i] = np.abs(f_boundary_sum(s, dk_tot)) ** 2
        mc = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / np.sqrt(n_real)
        ana = avg_f2_rps(delta_k, N_DOMAINS, l0, sigma)
        worst = max(worst, np.max(np.abs(ana - mc) / se))
    elapsed = time.perf_counter() - start
    ok = worst < 4.0 and elapsed < 120.0
    _report(1, ok, f"max |analytic-MC| = {worst:.2f} standard errors "
            f"(gate 4) over 3 disorder levels x 20 detunings, "
            f"{elapsed:.0f} s (gate 120 s)")


def test_criterion_02_ordered_limit(l0, dk0):
    want = 4.0 * (N_DOMAINS + 1) ** 2 / dk0 ** 2
    got = avg_f2_rps(0.0, N_DOMAINS, l0, 0.0)
    rel = abs(got / want - 1.0)
    s = StructureSpec("ideal", N_DOMAINS, l0).generate(RandomSource(0))
    direct = np.abs(f_exact(s, dk0)) ** 2
    rel_direct = abs(direct / want - 1.0)
    ok = rel < 1e-8 and rel_direct < 5.0 / N_DOMAINS
    _report(2, ok, f"zero-disorder peak off by {rel:.1e} (gate 1e-8); "
            f"direct structure off by {rel_direct:.1e} "
            f"(gate {5.0 / N_DOMAINS:.1e})")


def test_criterion_03_asymptotic_formula(l0, dk0):
    sigma = 2.0e-6
    delta_k = np.linspace(-3.0e5, 3.0e5, 1201)
    exact = avg_f2_rps(delta_k, N_DOMAINS, l0, sigma)
    asym, validity = avg_f2_rps_asymptotic(delta_k, N_DOMAINS, l0, sigma)
    # error measured against the peak of the exact mean: the pointwise
    # ratio is ill-conditioned where the total mismatch approaches zero
    # and both curves vanish
    err = np.max(np.abs(asym - exact)) / exact.max()
    ok = err <= 0.02 and validity > 10.0
    _report(3, ok, f"peak-normalized error {100 * err:.2f}% (gate 2%), "
            f"validity metric {validity:.0f}")


def test_criterion_04_chirped_closed_form(cfg, model, l0, dk0):
    spec = StructureSpec("chirped", N_DOMAINS, l0, zeta=ZETA_REF)
    s = spec.generate(RandomSource(0))
    half_band = 0.5 * ZETA_REF * N_DOMAINS * l0
    delta_k = np.linspace(-0.8 * half_band, 0.8 * half_band, 401)
    direct = np.abs(f_exact(s, dk0 + delta_k)) ** 2
    closed = np.abs(f_chirp(delta_k, N_DOMAINS, l0, ZETA_REF)) ** 2
    err = np.max(np.abs(closed / direct - 1.0))
    ok = err <= 0.02
    _report(4, ok, f"closed form vs direct sum: max error {100 * err:.2f}% "
            f"(gate 2%) over the central 80% of the band")


def test_criterion_05_linear_rate_scaling():
    # The rate grows linearly with N_L only where disorder dominates.
    # At sigma = 0 the crystal is periodic: the peak of |F|^2 grows as
    # L^2, and at the degenerate point the signal-idler group-velocity
    # mismatch vanishes, so the mismatch is quadratic in detuning,
    # dk ~ k'' Omega^2, and the bandwidth shrinks as L^{-1/2}; the rate
    # is their product, N_L^{3/2}.  Once v = sigma^2 dk0^2 N_L / 2 >> 1
    # (the validity metric of avg_f2_rps_asymptotic), the phases
    # decorrelate, <|F|^2> ~ N_L + 1 over an N_L-independent band, and
    # the rate is linear.  So the linear-fit gate applies to rows with
    # v >= 1 at their smallest N_L; every row gets the log-log exponent
    # check, which runs from 3/2 at sigma = 0 down towards 1.
    sigmas = (0.0, 0.1e-6, 0.5e-6, 1e-6, 2e-6)
    nl_values = (100, 200, 300, 400, 500, 600, 700)
    res = run_rate_vs_nl(sigmas=sigmas, nl_values=nl_values)
    rows = res.tables["scan"].rows
    dk0 = np.pi / _workspace(297.0).l0
    v, r2, slope = {}, {}, {}
    width_at_max_nl = []
    for sigma in sigmas:
        sel = [(r[1], r[2]) for r in rows if r[0] == sigma]
        nl, rate = zip(*sel)
        v[sigma] = sigma ** 2 * dk0 ** 2 * min(nl) / 2.0
        r2[sigma] = sstats.linregress(nl, rate).rvalue ** 2
        slope[sigma] = sstats.linregress(np.log(nl), np.log(rate)).slope
        width_at_max_nl.append([r[3] for r in rows
                                if r[0] == sigma and r[1] == max(nl_values)][0])
    widths_ok = all(a <= b * (1 + 1e-12)
                    for a, b in zip(width_at_max_nl, width_at_max_nl[1:]))
    fits_ok = all(r2[s] >= 0.99 for s in sigmas if v[s] >= 1.0)
    slopes = [slope[s] for s in sigmas]
    slopes_ok = (abs(slope[0.0] - 1.5) <= 0.03
                 and all(b <= a for a, b in zip(slopes, slopes[1:]))
                 and all(1.0 <= p <= 1.53 for p in slopes))
    detail = ", ".join(
        f"sigma={s * 1e6:.1f}um: v={v[s]:.3g} R2={r2[s]:.4f}"
        f"{'' if v[s] >= 1.0 else ' (not gated)'} exponent={slope[s]:.3f}"
        for s in sigmas)
    ok = fits_ok and slopes_ok and widths_ok
    _report(5, ok, f"{detail} (gates: R2 >= 0.99 where v >= 1; exponent "
            f"1.5+-0.03 at sigma=0, nonincreasing, in [1, 1.53]); "
            f"width nondecreasing in sigma: {widths_ok}")


def test_criterion_06_sigma_zeta_matching():
    res = run_sigma_zeta_match()
    rows = {r[0]: r for r in res.tables["match"].rows}
    sigma_ref = rows[ZETA_REF][1]
    ratios = [r[5] for r in rows.values()]
    all_matched = all(r[6] for r in rows.values())
    sigma_ok = abs(sigma_ref / 2.1e-6 - 1.0) <= 0.15
    ratio_ok = all(0.5 <= r <= 1.5 for r in ratios)
    ok = all_matched and sigma_ok and ratio_ok
    _report(6, ok, f"matched sigma {sigma_ref * 1e6:.3f} um at reference "
            f"chirp (gate 2.1 um +-15%); rate ratios "
            f"{min(ratios):.2f}..{max(ratios):.2f} (gate [0.5, 1.5])")


def test_criterion_07_ensemble_histograms(cfg, model, l0):
    grid = SpectralGrid.default(cfg.omega_s0, n=257, span=0.6)
    extractors = {"rate": extractor_rate, "width": extractor_width}
    spec = StructureSpec("rps", N_DOMAINS, l0, sigma=2.1e-6)
    stats = ensemble_run(lambda i: spec.generate(RandomSource(0, i)),
                         extractors, 10_000, cfg, model, grid)
    shape = {}
    for name, st in stats.items():
        shape[name] = (float(sstats.skew(st.values)),
                       float(sstats.kurtosis(st.values)))
    shape_ok = all(abs(sk) < 0.3 and abs(ku) < 0.5
                   for sk, ku in shape.values())
    fluct = []
    for sigma in (0.5e-6, 1.0e-6, 2.1e-6):
        ens = StructureSpec("rps", N_DOMAINS, l0, sigma=sigma)
        st = ensemble_run(lambda i: ens.generate(RandomSource(1, i)),
                          extractors, 2000, cfg, model, grid)
        fluct.append(st["rate"].rel_fluctuation)
    fluct_ok = fluct[0] > fluct[1] > fluct[2] and 0.3 <= fluct[0] <= 0.45
    detail = "; ".join(f"{n}: skew {sk:.2f}, kurt {ku:.2f}"
                       for n, (sk, ku) in shape.items())
    ok = shape_ok and fluct_ok
    _report(7, ok, f"{detail} (gates |skew|<0.3, |kurt|<0.5); fluctuations "
            + "->".join(f"{f:.2f}" for f in fluct)
            + " decreasing with 0.3-0.45 start: " + str(fluct_ok))


def test_criterion_08_hom(cfg, model, l0, matched_sigma):
    grid = SpectralGrid.default(cfg.omega_s0, n=1025)
    tau = np.linspace(-50e-15, 50e-15, 2001)
    rps = StructureSpec("rps", N_DOMAINS, l0, sigma=matched_sigma)
    cpps = StructureSpec("chirped", N_DOMAINS, l0, zeta=ZETA_REF)
    tr = hom_trace(rps, cfg, model, grid, tau)
    tc = hom_trace(cpps, cfg, model, grid, tau)
    r0 = tr.values[np.argmin(np.abs(tau))]
    edges_ok = abs(tr.values[0] - 1) <= 0.02 and abs(tr.values[-1] - 1) <= 0.02
    t_rps = entanglement_time(tr)
    t_cpps = entanglement_time(tc)
    dip_ratio = t_rps / t_cpps
    s = rps.generate(RandomSource(11))
    cancel = dispersion_cancellation_check(
        s, cfg, model, grid,
        lambda w: 2e-27 * (w - cfg.omega_s0) ** 2, tau)
    width = fwhm(grid.omega_s, joint_density(rps, cfg, model, grid))
    tbp = t_rps * width / (2.0 * np.pi)
    ok = (r0 <= 1e-6 and edges_ok and abs(dip_ratio - 1.0) <= 0.10
          and cancel <= 1e-8 and 1e-15 <= t_rps < 1e-14
          and 0.3 <= tbp <= 1.5)
    _report(8, ok, f"dip zero {r0:.1e}, edges at 1+-2%: {edges_ok}, "
            f"dip FWHM ratio {dip_ratio:.3f} (gate 1+-0.10), "
            f"dispersion cancellation {cancel:.1e}, entanglement time "
            f"{t_rps * 1e15:.2f} fs, time-bandwidth product {tbp:.2f}")


def test_criterion_09_sum_frequency(cfg, model, l0, matched_sigma):
    grid = SpectralGrid.default(cfg.omega_s0, n=513)
    tau = np.linspace(-400e-15, 400e-15, 2001)
    cpps = StructureSpec("chirped", N_DOMAINS, l0, zeta=ZETA_REF)
    w_quad = fwhm(tau, sumfreq_trace(cpps, cfg, model, grid, tau,
                                     "quadratic").values)
    w_ideal = fwhm(tau, sumfreq_trace(cpps, cfg, model, grid, tau,
                                      "ideal").values)
    rps = StructureSpec("rps", N_DOMAINS, l0, sigma=matched_sigma)
    ens = sumfreq_ensemble_mc(lambda i: rps.generate(RandomSource(0, i)), cfg, model,
                              grid, 100, tau, "ideal")
    w_ens = fwhm(tau, ens.values)
    ratio = w_quad / w_ideal
    ens_rel = abs(w_ens / w_ideal - 1.0)
    ok = 1.0 <= ratio <= 3.0 and ens_rel <= 0.20
    _report(9, ok, f"quadratic/ideal width ratio {ratio:.2f} "
            f"(gate 2 +-50%); ensemble vs chirped ideal widths differ "
            f"by {100 * ens_rel:.1f}% (gate 20%)")


def test_criterion_10_spatial(cfg, model, l0, matched_sigma):
    rps = StructureSpec("rps", N_DOMAINS, l0, sigma=matched_sigma)
    cpps = StructureSpec("chirped", N_DOMAINS, l0, zeta=ZETA_REF)
    agrid = angular_grid(cfg.omega_s0, n_theta_s=48, theta_max=0.04,
                         n_theta_i=96, n_phi=48, n_omega=151)
    dm = angular_spectral_density(rps, cfg, model, agrid)
    col = dm[:, -1]
    splitting = col[agrid.omega_s.size // 2] < 0.7 * col.max()
    omega = np.linspace(0.65, 1.35, 201) * cfg.omega_s0
    w_r = correlated_width_scan(rps, cfg, model, [1e-5], omega)[0]
    w_c = correlated_width_scan(cpps, cfg, model, [1e-5], omega)[0]
    area_rel = abs(w_c["delta_theta_i"] / w_r["delta_theta_i"] - 1.0)
    scan = correlated_width_scan(rps, cfg, model,
                                 (3e-6, 1e-5, 3e-5, 1e-4, 3e-4), omega)
    widths = [r["delta_theta_i"] for r in scan]
    span = max(widths) / min(widths)
    ok = splitting and area_rel <= 0.10 and span >= 7.0
    _report(10, ok, f"off-axis spectral splitting: {splitting}; correlated "
            f"widths differ by {100 * area_rel:.1f}% (gate 10%); angular "
            f"width dynamic range x{span:.0f} (gate >= 7)")


def test_criterion_11_fabrication_error():
    res = run_fab_error_scan(sigma_er_values=(0.0, 5e-7), bases=("cpps",),
                             realizations=1000)
    rows = {r[1]: r for r in res.tables["scan"].rows}
    reduction = 1.0 - rows[5e-7][2] / rows[0.0][2]
    ok = 0.05 <= reduction <= 0.15
    _report(11, ok, f"mean spectral width reduced by "
            f"{100 * reduction:.1f}% under boundary error (gate 10% +-5 pp)")


def test_criterion_12_segment_ordering():
    d_values = (1, 2, 5, 10, 35, 70, 350, 700)
    res = run_segment_scan(d_values=d_values, permutations=1000)
    rows = res.tables["scan"].rows
    widths = [r[1] for r in rows]
    rates = [r[2] for r in rows]
    rho_w = sstats.spearmanr(d_values, widths).statistic
    rho_r = sstats.spearmanr(d_values, rates).statistic
    ok = rho_w >= 0.9 and rho_r <= -0.9
    _report(12, ok, f"Spearman rho(width, d) = {rho_w:.2f}, "
            f"rho(rate, d) = {rho_r:.2f} (gates +0.9 / -0.9)")


def test_criterion_13_determinism(tmp_path):
    args = ["rate-vs-NL", "--sigmas", "0,1e-6", "--nl-values", "100,300",
            "--grid-points", "257"]
    dirs = [tmp_path / "t1", tmp_path / "t8"]
    for d, threads in zip(dirs, ("1", "8")):
        assert cli.main(args + ["--out-dir", str(d),
                                "--threads", threads]) == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    identical = all((dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes()
                    for n in names)
    meta = json.loads((dirs[0] / "metadata.json").read_text())
    ok = identical and meta["seed"] == 0
    _report(13, ok, f"reruns with different worker hints byte-identical "
            f"across {len(names)} files: {identical}")
