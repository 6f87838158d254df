import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy import stats as sstats

from randpoled import cli, scenarios, spatial, spectra, structures
from randpoled.dispersion import DispersionModel
from randpoled.scenarios import (SCENARIO_NOTES, SCENARIOS, _skew_kurtosis, _workspace,
                                 run_fab_error_scan, run_histogram_study,
                                 run_hom_study, run_rate_vs_nl, run_segment_scan,
                                 run_sigma_zeta_match, run_spatial_study,
                                 run_sumfreq_study, run_temperature_scan)
from randpoled.spatial import AngularGrid, correlated_area
from randpoled.spectra import extractor_rate, fwhm, joint_density
from randpoled.structures import (RandomSource, StructureSpec,
                                  apply_fabrication_error, shuffle_segments)

FAST = ["--sigmas", "0,1e-6", "--nl-values", "100,200", "--grid-points", "257"]


class TestScenarios:
    def test_registry_complete(self):
        assert set(SCENARIOS) == set(SCENARIO_NOTES)
        assert len(SCENARIOS) == 10

    def test_rate_vs_nl_deterministic(self):
        kw = dict(sigmas=(0.0, 1e-6), nl_values=(100, 300), grid_points=257)
        a = run_rate_vs_nl(seed=0, **kw)
        b = run_rate_vs_nl(seed=0, **kw)
        assert a.tables["scan"].rows == b.tables["scan"].rows

    def test_rate_vs_nl_trends(self):
        res = run_rate_vs_nl(sigmas=(0.0,), nl_values=(100, 300, 700),
                             grid_points=513)
        rates = [row[2] for row in res.tables["scan"].rows]
        widths = [row[3] for row in res.tables["scan"].rows]
        assert rates[0] < rates[1] < rates[2]
        assert widths[0] > widths[1] > widths[2]

    def test_width_vs_nl_shares_table(self, tmp_path):
        kw = dict(sigmas=(0.0,), nl_values=(100,), grid_points=257)
        a = run_rate_vs_nl(**kw)
        b = SCENARIOS["width-vs-NL"](**kw)
        assert a.tables["scan"].rows == b.tables["scan"].rows
        # the CLI writes the id it ran under
        assert cli.main(["width-vs-NL", "--out-dir", str(tmp_path)] + FAST) == 0
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["scenario"] == "width-vs-NL"

    def test_histogram_study(self):
        res = run_histogram_study(realizations=300)
        summary = {row[0]: row for row in res.tables["summary"].rows}
        assert summary["rate"][7] == 0  # failures
        assert summary["rate"][6] == 300
        assert summary["rate"][4] > 0  # right-skewed rate distribution
        counts = [row[2] for row in res.tables["histogram_rate"].rows]
        assert sum(counts) == 300
        assert len(res.tables["realizations"].rows) == 300

    @pytest.mark.parametrize("n", [10, 300, 10000])
    @pytest.mark.parametrize("draw", ["normal", "lognormal"])
    def test_skew_kurtosis_match_scipy(self, n, draw):
        x = getattr(np.random.default_rng(n), draw)(size=n)
        want = (sstats.skew(x, bias=True), sstats.kurtosis(x, fisher=True, bias=True))
        np.testing.assert_allclose(_skew_kurtosis(x), want, rtol=1e-12)

    @pytest.mark.parametrize("x", [np.full(50, 3.0), np.full(50, 0.1),
                                   np.array([1.0, np.nan, 2.0, 5.0])],
                             ids=["constant", "constant-to-rounding", "with-nan"])
    @pytest.mark.filterwarnings("ignore:Precision loss:RuntimeWarning")
    def test_skew_kurtosis_degenerate_like_scipy(self, x):
        want = (sstats.skew(x), sstats.kurtosis(x))  # NaN, (1, -2), NaN
        np.testing.assert_array_equal(_skew_kurtosis(x), want)

    def test_hom_study(self):
        res = run_hom_study(grid_points=513, tau_points=401)
        dips = res.metadata["dip_fwhm_s"]
        assert dips["rn_cpps"] < dips["rn_rps_ensemble"]
        rows = res.tables["traces"].rows
        center = rows[len(rows) // 2]
        assert center[0] == 0.0
        assert all(v == 0.0 for v in center[1:])

    def test_sumfreq_study(self):
        res = run_sumfreq_study(grid_points=513, realizations=20,
                                tau_points=801)
        w = res.metadata["trace_fwhm_s"]
        assert w["cpps_ideal"] < w["cpps_quadratic"] < w["cpps_none"]
        assert w["rps_ensemble_ideal"] == pytest.approx(w["cpps_ideal"],
                                                        rel=0.25)

    def test_temperature_scan_design_point_narrowest(self):
        res = run_temperature_scan(t_values=(290.0, 297.0), grid_points=257)
        rows = {row[0]: row for row in res.tables["scan"].rows}
        # the fixed single realization is narrowest at its design point
        assert rows[297.0][1] < rows[290.0][1]

    def test_temperature_scan_designs_at_design_temperature(self):
        design = 310.0
        with mock.patch.object(scenarios, "StructureSpec",
                               wraps=StructureSpec) as build:
            run_temperature_scan(t_values=(297.0,), grid_points=257,
                                 design_temperature=design)
        omega_s0 = spectra.ProcessConfig().omega_s0
        want = DispersionModel(design).qpm_period(omega_s0, omega_s0)
        assert build.call_count == 2
        assert all(c.args[2] == want for c in build.call_args_list)

    def test_fab_error_reduces_rate(self):
        res = run_fab_error_scan(realizations=50,
                                 sigma_er_values=(0.0, 1e-6))
        rows = res.tables["scan"].rows
        by_base = {}
        for base, sig, width, rate in rows:
            by_base.setdefault(base, {})[sig] = rate
        for base, rates in by_base.items():
            assert rates[1e-6] < rates[0.0]

    def test_segment_scan_orders_matter(self):
        res = run_segment_scan(permutations=30, d_values=(1, 10, 700))
        rows = {row[0]: row for row in res.tables["scan"].rows}
        # short segments scramble the chirp away: narrow and bright
        assert rows[1][1] < rows[10][1] < rows[700][1]
        assert rows[1][2] > rows[10][2] > rows[700][2]


def _oracle_means(layouts, ws):
    """Mean width and rate with one joint_density call per layout."""
    densities = [joint_density(s, ws.cfg, ws.model, ws.grid) for s in layouts]
    return (np.mean([fwhm(ws.grid.omega_s, ws.grid.omega_s * d) for d in densities]),
            np.mean([extractor_rate(ws.grid.omega_s, d) for d in densities]))


class TestScanEngine:
    def test_segment_scan_grid_work_once(self, monkeypatch):
        # n(omega) is per-grid work: the number of permutations must not
        # change how often it is evaluated
        calls = []
        original = DispersionModel.refractive_index

        def counted(self, omega):
            calls.append(1)
            return original(self, omega)

        monkeypatch.setattr(DispersionModel, "refractive_index", counted)
        counts = []
        for permutations in (2, 20):
            calls.clear()
            run_segment_scan(permutations=permutations, d_values=(1, 10))
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_segment_scan_matches_oracle(self):
        d_values, permutations = (2, 35, 700), 3
        res = run_segment_scan(seed=4, d_values=d_values, permutations=permutations)
        ws = _workspace(297.0, 257)
        base = StructureSpec("chirped", 700, ws.l0, zeta=2.5e6) \
            .generate(RandomSource(4, 0))
        want = []
        for e, d in enumerate(d_values):
            count = 1 if d == 700 else permutations
            width, rate = _oracle_means(
                [shuffle_segments(base, d, RandomSource(4, 1000 + e * 100_000 + i))
                 for i in range(count)], ws)
            want.append((d, float(width), float(rate)))
        assert res.tables["scan"].rows == tuple(want)

    @pytest.mark.parametrize("pump_width,calls", [(1e-5, 10), (2e-5, 12)])
    def test_spatial_study_evaluates_each_area_once(self, monkeypatch,
                                                    pump_width, calls):
        # the area profile at pump_width is the width scan's row when that
        # row has the same width and theta grid (1e-5); otherwise its own call
        counted = []
        original = spatial.correlated_area

        def counting(*args, **kwargs):
            counted.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(spatial, "correlated_area", counting)
        monkeypatch.setattr(scenarios, "correlated_area", counting)
        res = run_spatial_study(pump_width=pump_width)
        assert len(counted) == calls
        monkeypatch.undo()
        ws = _workspace()
        cfg = replace(ws.cfg, pump_width=pump_width)
        omega = np.linspace(ws.cfg.omega_s0 * 0.65, ws.cfg.omega_s0 * 1.35, 201)
        theta_max = float(np.clip(14.0 / (ws.model.wavenumber(ws.cfg.omega_s0)
                                          * pump_width), 0.01, 0.35))
        agrid = AngularGrid(theta_s=np.array([0.0]),
                            theta_i=np.linspace(0.0, theta_max, 320),
                            phi_i=np.array([np.pi]), omega_s=omega)
        # the shared constructor gives the same grid
        on_axis = AngularGrid.on_axis(cfg, ws.model, omega, 320)
        for name in ("theta_s", "theta_i", "phi_i", "omega_s"):
            assert np.array_equal(getattr(on_axis, name), getattr(agrid, name))
        want = [agrid.theta_i] + [
            correlated_area(spec, cfg, ws.model, agrid)[:, 0]
            for spec in (StructureSpec("chirped", 700, ws.l0, zeta=2.5e6),
                         StructureSpec("rps", 700, ws.l0, sigma=2.1e-6))]
        got = np.array(res.tables["correlated_area"].rows).T
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_sigma_zeta_match_reuses_matching_densities(self, monkeypatch):
        # the rates come with the match_parameter rows: no density is rebuilt
        counted = []
        original = spectra.joint_density

        def counting(*args, **kwargs):
            counted.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(spectra, "joint_density", counting)
        monkeypatch.setattr(scenarios, "joint_density", counting)
        res = run_sigma_zeta_match(zeta_values=(0.5e6, 2.5e6), grid_points=257)
        assert counted == []
        rows = res.tables["match"].rows
        assert [row[-1] for row in rows] == [1, 1]
        assert all(row[5] == row[3] / row[4] for row in rows)

    def test_fab_error_scan_matches_oracle(self):
        sigma_er_values, realizations = (0.0, 2.5e-7), 3
        with mock.patch.object(structures, "_check_redraw_rate",
                               wraps=structures._check_redraw_rate) as check:
            res = run_fab_error_scan(seed=2, sigma_er_values=sigma_er_values,
                                     realizations=realizations)
        # one check of the error law per (base, sigma_er > 0) row
        assert [c.args[1] for c in check.call_args_list].count(2.5e-7) == 2
        ws = _workspace(297.0, 257, span=0.6)
        bases = {"cpps": StructureSpec("chirped", 700, ws.l0, zeta=2.5e6)
                 .generate(RandomSource(2, 0)),
                 "rps": StructureSpec("rps", 700, ws.l0, sigma=2.1e-6)
                 .generate(RandomSource(2, 1))}
        want = []
        for b, (name, base) in enumerate(bases.items()):
            for e, sigma_er in enumerate(sigma_er_values):
                layouts = [base] if sigma_er == 0 else [
                    apply_fabrication_error(
                        base, sigma_er,
                        RandomSource(2, 1000 + b * 10_000_000 + e * 100_000 + i))
                    for i in range(realizations)]
                width, rate = _oracle_means(layouts, ws)
                want.append((name, sigma_er, float(width), float(rate)))
        assert res.tables["scan"].rows == tuple(want)


class _Started(Exception):
    """Raised in place of a scenario's first work: its checks have passed."""


class TestStreamLimits:
    # draw i of scan row r takes stream 1000 + r * 100_000 + i, and fab-error-scan
    # row e of base b is row 100 b + e: larger counts would reuse the next row's
    # streams (the oracle tests above pin the formula)
    ACCEPTED = [(run_fab_error_scan, dict(realizations=100_000)),
                (run_fab_error_scan, dict(sigma_er_values=(1e-7,) * 100)),
                (run_segment_scan, dict(permutations=100_000))]
    REFUSED = [(run_fab_error_scan, dict(realizations=100_001)),
               (run_fab_error_scan, dict(sigma_er_values=(1e-7,) * 101)),
               (run_segment_scan, dict(permutations=100_001))]
    IDS = ["realizations", "sigma_er_values", "permutations"]

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        monkeypatch.setattr(scenarios, "_workspace", mock.Mock(side_effect=_Started))

    @pytest.mark.parametrize("run,kwargs", ACCEPTED, ids=IDS)
    def test_limit_accepted(self, run, kwargs):
        with pytest.raises(_Started):
            run(**kwargs)

    @pytest.mark.parametrize("run,kwargs", REFUSED, ids=IDS)
    def test_limit_plus_one_refused(self, run, kwargs):
        with pytest.raises(spectra.SpectraError, match="at most"):
            run(**kwargs)
        scenarios._workspace.assert_not_called()


def _run_cli(args):
    return cli.main(args)


class TestCli:
    def test_scenario_run_builds_its_own_subparser(self, tmp_path, capsys):
        with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as build:
            assert _run_cli(["rate-vs-NL", *FAST, "--out-dir", str(tmp_path)]) == 0
            assert build.call_args.args == (["rate-vs-NL"],)
            with pytest.raises(SystemExit) as exc:
                _run_cli(["--help"])
        assert exc.value.code == 0
        assert build.call_args.args == (SCENARIOS,)
        listed = capsys.readouterr().out
        assert all(scenario in listed for scenario in SCENARIOS)
        for argv, code in ((["hom-study", "--help"], 0), (["no-such-scenario"], 2)):
            with pytest.raises(SystemExit) as exc:
                _run_cli(argv)
            assert exc.value.code == code

    def test_import_loads_only_the_scipy_it_needs(self, tmp_path):
        # it needs none: neither the import nor any scenario loads a scipy
        # module, the Monte-Carlo scenarios nor the five that take the
        # chirped closed form (Fresnel integrals), with the root search of
        # sigma-zeta-match and the quadratic compensation of sumfreq-study
        runs = [
            ["histogram-study", "--realizations", "20"],
            ["segment-scan", "--permutations", "1", "--d-values", "1,700"],
            # the sigma_er > 0 row checks the redraw rate of 700 gaps
            ["fab-error-scan", "--bases", "rps", "--sigma-er-values", "0,1e-6",
             "--realizations", "5"],
            ["sigma-zeta-match", "--zeta-values", "2.5e6", "--grid-points", "257"],
            ["hom-study", "--grid-points", "257", "--tau-points", "101"],
            ["sumfreq-study", "--grid-points", "257", "--realizations", "1",
             "--tau-points", "201"],
            ["spatial-study", "--n-omega", "21", "--n-theta", "40",
             "--pump-widths", "1e-5"],
            ["temperature-scan", "--t-values", "296,298", "--grid-points", "257"]]
        runs = [[*args, "--out-dir", str(tmp_path / args[0])] for args in runs]
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import json, sys\n"
                "from randpoled import cli\n"
                "def scipy(): return sorted(m for m in sys.modules"
                " if m.split('.')[0] == 'scipy')\n"
                "out = [[0, scipy()]]\n"
                "for args in json.loads(sys.argv[1]):\n"
                "    out.append([cli.main(args), scipy()])\n"
                "print(json.dumps(out))")
        out = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(src))).stdout
        for name, result in zip(["import", *(args[0] for args in runs)], json.loads(out),
                                strict=True):
            assert result == [0, []], name
        # the one zeta was matched: brentq ran
        with open(tmp_path / "sigma-zeta-match" / "match.csv") as fh:
            assert [*csv.DictReader(fh)][0]["matched"] == "1"

    def test_list(self, capsys):
        assert _run_cli(["list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_run_writes_bundle(self, tmp_path):
        out = tmp_path / "run1"
        code = _run_cli(["rate-vs-NL", "--out-dir", str(out)] + FAST)
        assert code == 0
        assert (out / "scan.csv").exists()
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["scenario"] == "rate-vs-NL"
        assert meta["seed"] == 0
        assert meta["parameters"]["grid_points"] == 257
        assert meta["parameters"]["sigmas"] == [0.0, 1e-6]
        header = (out / "scan.csv").read_text().splitlines()[0]
        assert header == "sigma,n_domains,rate,width"

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run_cli(["rate-vs-NL", "--out-dir", str(a)] + FAST) == 0
        assert _run_cli(["rate-vs-NL", "--out-dir", str(b)] + FAST) == 0
        assert (a / "scan.csv").read_bytes() == (b / "scan.csv").read_bytes()
        assert (a / "metadata.json").read_bytes() == \
            (b / "metadata.json").read_bytes()

    def test_metadata_reparses(self, tmp_path):
        # replaying metadata.json with --config rewrites every file byte for
        # byte; hom-study's metadata carries an "extra" entry, the dip widths
        for k, args in enumerate([
                ["rate-vs-NL"] + FAST,
                ["hom-study", "--grid-points", "513", "--tau-points", "201"]]):
            out, replay = tmp_path / f"run{k}", tmp_path / f"replay{k}"
            assert _run_cli(args + ["--seed", "3", "--out-dir", str(out)]) == 0
            assert _run_cli([args[0], "--config", str(out / "metadata.json"),
                             "--out-dir", str(replay)]) == 0
            names = sorted(p.name for p in out.iterdir())
            assert names == sorted(p.name for p in replay.iterdir())
            for name in names:
                assert (replay / name).read_bytes() == (out / name).read_bytes(), name

    def test_unknown_parameter_suggestion(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps({"scenario": "rate-vs-NL",
                                       "parameters": {"sgimas": [0.0]}}))
        code = _run_cli(["rate-vs-NL", "--config", str(cfgfile)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "config"
        assert "sigmas" in err["message"]

    def test_unknown_scenario_suggestion(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps({"scenario": "rate-vs-NLL"}))
        with pytest.raises(cli.ConfigError, match="rate-vs-NL"):
            cli.parse_config(str(cfgfile), {"params": {}})

    def test_bad_json_config(self, tmp_path, capsys):
        cfgfile = tmp_path / "broken.json"
        cfgfile.write_text("{not json")
        code = _run_cli(["rate-vs-NL", "--config", str(cfgfile)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert "line 1" in err["message"]

    def test_flag_overrides_config(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "scenario": "rate-vs-NL", "seed": 5,
            "parameters": {"grid_points": 1025, "sigmas": [0.0],
                           "nl_values": [100]},
        }))
        cfg = cli.parse_config(str(cfgfile), {
            "params": {"grid_points": 257}, "seed": None,
        })
        assert cfg.params["grid_points"] == 257
        assert cfg.seed == 5
        assert cfg.params["sigmas"] == (0.0,)

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "envout"))
        assert _run_cli(["rate-vs-NL"] + FAST) == 0
        assert (tmp_path / "envout" / "scan.csv").exists()

    def test_hom_study_zero_chirp(self, tmp_path):
        # a zeta = 0 chirped spec is the ideal layout that its spec generates
        code = _run_cli(["hom-study", "--zeta", "0", "--grid-points", "513",
                         "--tau-points", "201", "--out-dir", str(tmp_path)])
        assert code == 0

    def test_numeric_error_exit_code(self, tmp_path, capsys):
        code = _run_cli(["rate-vs-NL", "--out-dir", str(tmp_path),
                         "--grid-points", "2"])
        assert code == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "numeric"

    def test_io_error_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = _run_cli(["rate-vs-NL", "--out-dir",
                         str(blocker / "sub")] + FAST)
        assert code == 4
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "io"

    @pytest.mark.parametrize("blocker", ["scan.csv", "metadata.json"])
    def test_io_error_leaves_no_temp_file(self, tmp_path, capsys, blocker):
        # a directory where a file goes: the rename onto it fails
        (tmp_path / blocker).mkdir()
        code = _run_cli(["rate-vs-NL", "--out-dir", str(tmp_path)] + FAST)
        assert code == 4
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "io"
        assert [p.name for p in tmp_path.iterdir()] == [blocker]

    def test_non_integral_flag_rejected(self, tmp_path, capsys):
        code = _run_cli(["rate-vs-NL", "--out-dir", str(tmp_path),
                         "--grid-points", "257.7"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "config"
        assert "grid_points" in err["message"]
        assert not (tmp_path / "scan.csv").exists()

    def test_non_integral_config_value_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"scenario": "rate-vs-NL",
                                       "parameters": {"grid_points": 257.7}}))
        code = _run_cli(["rate-vs-NL", "--config", str(cfgfile),
                         "--out-dir", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "config"
        for value in (257, 257.0, "257"):
            cfg = cli.parse_config(None, {"scenario": "rate-vs-NL",
                                          "params": {"grid_points": value}})
            assert cfg.params["grid_points"] == 257
            assert isinstance(cfg.params["grid_points"], int)

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_non_integral_list_element_rejected(self, tmp_path, capsys, via):
        args = ["rate-vs-NL", "--out-dir", str(tmp_path), "--sigmas", "0",
                "--grid-points", "257"]
        if via == "flag":
            args += ["--nl-values", "100.5,200"]
        else:
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(json.dumps({"nl_values": [100.5, 200]}))
            args += ["--config", str(cfgfile)]
        assert _run_cli(args) == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "config"
        assert "nl_values" in err["message"]
        assert not (tmp_path / "scan.csv").exists()

    def test_real_temperature_list_accepted(self, tmp_path):
        code = _run_cli(["temperature-scan", "--out-dir", str(tmp_path),
                         "--t-values", "296.5", "--grid-points", "257"])
        assert code == 0
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["parameters"]["t_values"] == [296.5]

    def test_non_integral_config_seed_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"scenario": "rate-vs-NL", "seed": 2.5}))
        code = _run_cli(["rate-vs-NL", "--config", str(cfgfile),
                         "--out-dir", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "config"
        assert "seed" in err["message"]
        for seed in (2, 2.0):
            cfgfile.write_text(json.dumps({"scenario": "rate-vs-NL", "seed": seed}))
            cfg = cli.parse_config(str(cfgfile), {})
            assert cfg.seed == 2 and isinstance(cfg.seed, int)

    @pytest.mark.parametrize("config", [
        {"seed": True},
        {"parameters": {"grid_points": True}},
        {"parameters": {"nl_values": [True, 200]}},
    ])
    def test_boolean_integer_rejected(self, tmp_path, capsys, config):
        # JSON true is not an integer, though Python's bool subclasses int
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"scenario": "rate-vs-NL", **config}))
        code = _run_cli(["rate-vs-NL", "--config", str(cfgfile),
                         "--out-dir", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "config"
        name = next(iter(config.get("parameters", config)))
        assert name in err["message"]
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("config", [
        {"temperature": True},
        {"sigmas": [True, 0]},
    ])
    def test_boolean_real_rejected(self, tmp_path, capsys, config):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"scenario": "rate-vs-NL",
                                       "sigmas": [0], **config}))
        code = _run_cli(["rate-vs-NL", "--config", str(cfgfile), "--out-dir",
                         str(tmp_path), "--nl-values", "100",
                         "--grid-points", "257"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "config"
        assert next(iter(config)) in err["message"]
        assert not (tmp_path / "scan.csv").exists()

    def test_non_numeric_flag_rejected(self, tmp_path, capsys):
        code = _run_cli(["hom-study", "--out-dir", str(tmp_path),
                         "--sigma", "abc"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "config"
        assert "sigma" in err["message"]

    @pytest.mark.parametrize("bases", ["xyz", "cpps,xyz"])
    def test_unknown_base_is_a_domain_error(self, tmp_path, capsys, bases):
        code = _run_cli(["fab-error-scan", "--out-dir", str(tmp_path),
                         "--bases", bases, "--realizations", "2"])
        assert code == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "numeric"
        assert "xyz" in err["message"]
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("args", [
        ["segment-scan", "--permutations", "0", "--d-values", "1,700"],
        ["fab-error-scan", "--realizations", "0", "--bases", "rps"],
    ])
    def test_empty_ensemble_is_a_domain_error(self, tmp_path, capsys, args):
        # no layouts to average: an error, not a row of NaN means
        code = _run_cli(args + ["--out-dir", str(tmp_path)])
        assert code == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "numeric"
        assert "at least one" in err["message"]
        assert not (tmp_path / "scan.csv").exists()

    def test_stream_overlap_is_a_domain_error(self, tmp_path, capsys):
        code = _run_cli(["segment-scan", "--permutations", "100001",
                         "--out-dir", str(tmp_path)])
        assert code == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "numeric"
        assert "at most 100000 permutations" in err["message"]
        assert not (tmp_path / "scan.csv").exists()

    def test_non_monotone_chirp_is_a_domain_error(self, tmp_path, capsys):
        # the closed forms would give this crystal a spectrum; its layout
        # does not exist, as segment-scan's generate already says
        code = _run_cli(["spatial-study", "--zeta=6e7", "--out-dir", str(tmp_path)])
        assert code == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "numeric"
        assert err["message"] == "chirp too strong: boundaries not monotone at index 1"
        assert not (tmp_path / "correlated_area.csv").exists()

    def test_sumfreq_trace_past_the_window_names_it(self, tmp_path, capsys):
        # the uncompensated trace at zeta = -4e6 is ~670 fs wide, against the
        # default +-300 fs window
        code = _run_cli(["sumfreq-study", "--zeta=-4e6", "--grid-points", "257",
                         "--realizations", "1", "--tau-points", "201",
                         "--out-dir", str(tmp_path)])
        assert code == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "numeric"
        assert "'cpps_none'" in err["message"]
        assert "tau_span" in err["message"]
        assert not (tmp_path / "traces.csv").exists()

    @pytest.mark.parametrize("scenario, config", [
        ("sigma-zeta-match", {"target": 5}),
        ("fab-error-scan", {"bases": ["cpps", 5]}),
    ])
    def test_non_string_rejected(self, tmp_path, capsys, scenario, config):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"scenario": scenario, **config}))
        code = _run_cli([scenario, "--config", str(cfgfile), "--out-dir",
                         str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "config"
        assert next(iter(config)) in err["message"]
        assert not (tmp_path / "scan.csv").exists()

    def test_coercion_of_string_flags(self):
        cfg = cli.parse_config(None, {
            "scenario": "fab-error-scan", "params": {"bases": "cpps, rps"},
        })
        assert cfg.params["bases"] == ("cpps", "rps")
        cfg = cli.parse_config(None, {
            "scenario": "sigma-zeta-match", "params": {"target": "equal-rate"},
        })
        assert cfg.params["target"] == "equal-rate"

    def test_coercion_of_tuple_flags(self):
        cfg = cli.parse_config(None, {
            "scenario": "rate-vs-NL",
            "params": {"nl_values": "100,200,300", "sigmas": "0,1e-6"},
        })
        assert cfg.params["nl_values"] == (100, 200, 300)
        assert cfg.params["sigmas"] == (0, 1e-6)

    def test_no_scenario_error(self):
        with pytest.raises(cli.ConfigError, match="no scenario"):
            cli.parse_config(None, {"params": {}})
