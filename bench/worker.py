"""The measured interpreter of the benchmark: workloads, passes, checks.

`run.py` starts this file in a fresh single-threaded interpreter per
run, with `src/` on the path. Modes:

  setup   import the program and build the workspace, print "ready", exit
  run     setup, print "ready", then run passes over the workload until
          the time budget is spent; untraced passes first, traced ones
          after them with --trace; write the result JSON to --result
  record  write reference/<workload>.json.gz from this commit's outputs
  smoke   run every operation of every workload once at minimal size,
          traced, and run the tracer's binding self-check

An operation is one CLI invocation through `randpoled.cli.main` or one
library call. It fails when it exits non-zero or raises, when its
output is outside the reference tolerance, or when its output files
differ byte-wise from an earlier pass of the same run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import reference

# The workload inputs come from a pool of POOL_SIZE scenario seeds with
# recorded references; the benchmark seed picks seed % POOL_SIZE.
POOL_SIZE = 8

# The cpps_quadratic trace comes from a bounded Brent search over the
# curvature that stops at xatol = 1e-4 * scale. A correct change to the
# temporal sums (a few 1e-10 of the peak) can steer the search to
# another point inside its final bracket. Measured at the reference
# commit, a curvature shift of 10 * xatol moves the trace by 3.9e-3 of
# its peak and its FWHM by 1.07e-3 (relative), so these tolerances
# admit such a shift and nothing larger.
QUADRATIC_TOLS = {"traces.csv:cpps_quadratic": 5e-3,
                  "metadata:trace_fwhm_s.cpps_quadratic": 1.5e-3}


@dataclass(frozen=True)
class Op:
    op_id: str
    argv: tuple = ()                  # CLI argv after the scenario name
    library: bool = False             # the library call instead of the CLI
    seeded: bool = True               # False: always scenario seed 0
    # argv the reference was recorded with, when the reference commit
    # cannot finish `argv`; the reference then covers the leading rows only
    record_argv: tuple | None = None
    skip_files: tuple = ()            # outputs left out of the value check
    tols: dict = field(default_factory=dict)
    smoke_argv: tuple = ()            # extra argv for the smoke mode


WORKLOADS = {
    # Many small boundary sums (N_L = 700, 257-point grids) on one reused
    # grid: the Monte-Carlo loops of ROADMAP items B and D.
    "ensemble-mc": (
        Op("histogram-study", ("--realizations", "300"),
           skip_files=("histogram_rate.csv", "histogram_width.csv"),
           smoke_argv=("--realizations", "2")),
        Op("segment-scan", ("--permutations", "40"),
           smoke_argv=("--permutations", "1", "--d-values", "1,700")),
        # seed 0 reproduces the known defect (exit 3, "span too narrow",
        # realization 15 of the sigma_er = 1e-6 row); the reference holds
        # the sigma_er = 0 row, the only one the reference commit finishes
        Op("fab-error-scan", ("--bases", "rps", "--sigma-er-values", "0,1e-6",
                              "--realizations", "100"),
           seeded=False,
           record_argv=("--bases", "rps", "--sigma-er-values", "0",
                        "--realizations", "100"),
           smoke_argv=("--realizations", "2")),
    ),
    # Direct (tau x omega) sums and the n^2 cross-correlator: item C.
    # Then the closed forms and source dispatch on grids that are never
    # reused (the four analytic scans), where a per-grid cache misses.
    "temporal-traces": (
        Op("sumfreq-study", ("--realizations", "10"), tols=QUADRATIC_TOLS,
           smoke_argv=("--realizations", "1", "--grid-points", "257",
                       "--tau-points", "201")),
        Op("hom-study", smoke_argv=("--grid-points", "513", "--tau-points", "201")),
        Op("sumfreq-trace-rps", library=True, seeded=False),
        Op("rate-vs-NL", smoke_argv=("--sigmas", "0,2e-6", "--nl-values", "100,700")),
        Op("sigma-zeta-match", smoke_argv=("--zeta-values", "2.5e6",)),
        Op("temperature-scan", smoke_argv=("--t-values", "296,298")),
        Op("spatial-study", smoke_argv=("--n-omega", "21", "--n-theta", "40",
                                        "--pump-widths", "1e-5")),
    ),
}


class Workspace:
    """Imported program plus the inputs of the library calls."""

    def __init__(self, workload: str, smoke: bool = False):
        import numpy as np
        from randpoled import cli, temporal
        from randpoled.dispersion import DispersionModel
        from randpoled.spectra import ProcessConfig, SpectralGrid
        from randpoled.structures import StructureSpec

        self.cli = cli
        self.temporal = temporal
        if any(op.library for op in WORKLOADS[workload]):
            cfg = ProcessConfig()
            model = DispersionModel()
            l0 = model.qpm_period(cfg.omega_s0, cfg.omega_s0)
            grid = SpectralGrid.default(cfg.omega_s0, n=257 if smoke else 1025)
            tau = np.linspace(-300e-15, 300e-15, 201 if smoke else 2001)
            spec = StructureSpec("rps", 700, l0, sigma=2.1e-6)
            self.trace_args = (spec, cfg, model, grid, tau, "none")

    def call_library(self) -> dict:
        # looked up at call time so that a traced run sees the wrapper
        trace = self.temporal.sumfreq_trace(*self.trace_args)
        return {"trace:values": [repr(float(v)) for v in trace.values]}


def run_op(ws: Workspace, op: Op, argv, out_dir: str):
    """Execute one operation; returns (seconds, error or None, vectors)."""
    os.makedirs(out_dir)
    vectors = None
    error = None
    t0 = time.perf_counter()
    try:
        if op.library:
            vectors = ws.call_library()
        else:
            code = ws.cli.main([op.op_id, *argv, "--out-dir", out_dir])
            if code != 0:
                error = f"exit code {code}"
    except SystemExit as exc:
        error = f"exit code {exc.code}"
    except Exception:  # the pass goes on; the failure is counted
        traceback.print_exc()
        error = "raised " + traceback.format_exc(limit=1).strip().splitlines()[-1]
    return time.perf_counter() - t0, error, vectors


def op_argv(op: Op, pool_seed: int, smoke: bool = False) -> tuple:
    seed = pool_seed if op.seeded else 0
    extra = op.smoke_argv if smoke else ()
    return (*op.argv, *extra, "--seed", str(seed))


class Checker:
    """Reference check on an operation's first output, digests after it."""

    def __init__(self, workload: str, pool_seed: int):
        self.table = reference.load(workload)
        self.pool_seed = pool_seed
        self.digests = {}
        self.verdicts = {}

    def check(self, op: Op, out_dir: str, vectors) -> str | None:
        """Why a completed operation's output is wrong, or None."""
        if vectors is not None:
            digest = hashlib.sha256(json.dumps(vectors).encode()).hexdigest()
        else:
            digest = reference.digest_dir(out_dir)
        first = self.digests.setdefault(op.op_id, digest)
        if digest != first:
            return "output differs byte-wise from an earlier pass"
        if op.op_id not in self.verdicts:
            if vectors is None:
                vectors = reference.flatten_dir(out_dir, op.skip_files)
            ref = reference.for_seed(self.table, op.op_id,
                                     self.pool_seed if op.seeded else 0)
            problems = reference.compare(vectors, ref, op.tols,
                                         partial=op.record_argv is not None)
            self.verdicts[op.op_id] = "; ".join(problems) or None
        return self.verdicts[op.op_id]


def run_pass(ws, ops, pool_seed, work, label, checker, log):
    """One pass over the operations; returns (op seconds, failures, wrong)."""
    times = []
    failed = wrong = 0
    for k, op in enumerate(ops):
        out_dir = os.path.join(work, f"{label}-{k}")
        seconds, error, vectors = run_op(ws, op, op_argv(op, pool_seed), out_dir)
        times.append(seconds)
        if error is None:
            error = checker.check(op, out_dir, vectors)
            wrong += error is not None
        if error:
            failed += 1
            log.append({"pass": label, "op": op.op_id, "error": error})
        shutil.rmtree(out_dir)
    return times, failed, wrong


def typical_pass(op_times: list) -> float:
    """Time of one pass: the sum over operations of their median time.

    Per-operation medians keep one slow operation in one pass from
    setting the result.
    """
    return sum(statistics.median(times) for times in zip(*op_times))


def versions() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {var: os.environ.get(var) for var in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def run_mode(args) -> dict:
    ws = Workspace(args.workload)
    print("ready", flush=True)
    ops = WORKLOADS[args.workload]
    pool_seed = args.seed % POOL_SIZE
    checker = Checker(args.workload, pool_seed)
    start = time.perf_counter()
    log = []
    counts = {"attempted": 0, "failed": 0, "wrong": 0}

    def passes(budget, label, tracer=None):
        times, layers = [], []
        while True:
            if tracer:
                tracer.reset()
            op_times, failed, wrong = run_pass(
                ws, ops, pool_seed, args.work, f"{label}{len(times)}", checker, log)
            times.append(op_times)
            if tracer:
                layers.append(tracer.layer_metrics())
            counts["attempted"] += len(ops)
            counts["failed"] += failed
            counts["wrong"] += wrong
            elapsed = time.perf_counter() - start
            if elapsed + typical_pass(times) > budget:
                return times, layers

    result = {"log": log, "counts": counts, "info": versions()}
    if not args.trace:
        times, _ = passes(args.seconds, "p")
        result["op_seconds"] = times
        result["wall_s"] = typical_pass(times)
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return result
    from tracer import Tracer, per_layer
    plain, _ = passes(args.seconds / 2.0, "u")
    tracer = Tracer()
    tracer.install()
    left = tracer.unwrapped_bindings()
    if left:
        raise SystemExit(f"tracer self-check: original functions still bound at {left}")
    traced, layers = passes(args.seconds, "t", tracer)
    overhead = typical_pass(traced) - typical_pass(plain)
    scenario_ids = sorted(op.op_id for ops in WORKLOADS.values()
                          for op in ops if not op.library)
    result["per_layer"] = per_layer(layers, overhead, scenario_ids)
    result["op_seconds"] = traced
    result["untraced_op_seconds"] = plain
    result["bindings"] = tracer.bindings
    return result


def record_mode(args) -> dict:
    """Write the reference tables from this commit's outputs."""
    summary = {}
    for workload, ops in WORKLOADS.items():
        if args.workload and workload != args.workload:
            continue
        ws = Workspace(workload)
        recorded = {}
        for op in ops:
            seeds = range(POOL_SIZE) if op.seeded else (0,)
            for seed in seeds:
                argv = (*(op.record_argv or op.argv), "--seed", str(seed))
                out_dir = os.path.join(args.work, f"rec-{op.op_id}-{seed}")
                _, error, vectors = run_op(ws, op, argv, out_dir)
                if error:
                    raise SystemExit(f"cannot record {op.op_id} seed {seed}: {error}")
                if vectors is None:
                    vectors = reference.flatten_dir(out_dir, op.skip_files)
                recorded.setdefault(op.op_id, {})[seed] = vectors
                shutil.rmtree(out_dir)
                print(f"recorded {workload} {op.op_id} seed {seed}", flush=True)
        reference.save(workload, recorded)
        summary[workload] = sorted(recorded)
    return summary


def smoke_mode(args) -> dict:
    """Every operation once at minimal size, traced, with the self-check."""
    from tracer import Tracer
    ws = {w: Workspace(w, smoke=True) for w in WORKLOADS}
    tracer = Tracer()
    tracer.install()
    left = tracer.unwrapped_bindings()
    errors = {}
    for workload, ops in WORKLOADS.items():
        for k, op in enumerate(ops):
            out_dir = os.path.join(args.work, f"smoke-{workload}-{k}")
            seconds, error, _ = run_op(ws[workload], op,
                                       op_argv(op, 0, smoke=True), out_dir)
            shutil.rmtree(out_dir)
            print(f"{workload} {op.op_id}: {seconds:.2f} s {error or 'ok'}",
                  flush=True)
            if error:
                errors[op.op_id] = error
    spans = tracer.layer_metrics()["functions"]
    return {"ok": not left and not errors, "unwrapped": left, "errors": errors,
            "bindings": tracer.bindings, "traced_functions": len(spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "record", "smoke"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        Workspace(args.workload)
        print("ready", flush=True)
        return 0
    if args.mode == "run":
        result = run_mode(args)
    elif args.mode == "record":
        result = record_mode(args)
    else:
        result = smoke_mode(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
