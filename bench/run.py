"""Benchmark of randpoled: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --smoke            # every operation at minimal size
  python3 bench/run.py --record           # rewrite the reference outputs

A run starts fresh single-threaded interpreters (bench/worker.py) with
src/ on the path: SETUP_PROBES of them only to time set-up, then one that
measures the passes. With --trace 0 the last stdout line holds wall_s
(one pass: the sum of the operations' median times), setup_s (median set-up time), peak_rss_mb (peak
resident memory of the measuring interpreter) and pass_frac (operations
that passed over operations attempted). With --trace 1 it holds the
per-layer metrics of the traced passes. The line before it carries the
machine and library versions. Scratch files go to .bench_build/ and are
removed at exit. See bench/NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("ensemble-mc", "temporal-traces")
SETUP_PROBES = 3
DEADLINE_S = 170.0  # a run must end well inside 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
UNITS = (("_s", "s"), ("_mb", "MB"), ("_frac", "ratio"), (".calls", "count"),
         (".elements", "count"), (".width_probes", "count"), (".bytes_written", "B"),
         (".ns_per_element", "ns"), (".fail_ratio", "ratio"))


class BenchError(RuntimeError):
    pass


def child_env(work: str) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = work
    return env


def start(mode: str, args: list, work: str, name: str,
          stdout=subprocess.PIPE) -> subprocess.Popen:
    log = open(os.path.join(work, f"{name}.log"), "w")
    try:
        return subprocess.Popen(
            [sys.executable, WORKER, mode, "--work", work, *args],
            stdout=stdout, stderr=log, env=child_env(work), cwd=ROOT, text=True)
    finally:
        log.close()


def wait_ready(proc: subprocess.Popen, timeout: float) -> None:
    ready, _, _ = select.select([proc.stdout], [], [], max(timeout, 0.0))
    if not ready or proc.stdout.readline().strip() != "ready":
        raise BenchError("worker did not finish its set-up")


def finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        code = proc.wait(timeout=max(timeout, 0.0))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the deadline") from None
    if code != 0:
        raise BenchError(f"worker exited with code {code}")


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def timed_setup(mode, args, work, name, deadline):
    """Start a worker; return it and seconds from start to 'ready'."""
    t0 = time.perf_counter()
    proc = start(mode, args, work, name)
    try:
        wait_ready(proc, deadline - time.perf_counter())
    except BaseException:
        stop(proc)
        raise
    return proc, time.perf_counter() - t0


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version()}


def measure(opts, work: str) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", opts.workload]
    setups = []
    if not opts.trace:
        for k in range(SETUP_PROBES):
            proc, seconds = timed_setup("setup", common, work, f"setup{k}", deadline)
            try:
                finish(proc, deadline - time.perf_counter())
            finally:
                stop(proc)
            setups.append(seconds)
    result_path = os.path.join(work, "result.json")
    proc, seconds = timed_setup(
        "run", [*common, "--seed", str(opts.seed), "--seconds", str(opts.seconds),
                "--trace", str(opts.trace), "--result", result_path],
        work, "run", deadline)
    try:
        finish(proc, deadline - time.perf_counter())
    finally:
        stop(proc)
    setups.append(seconds)
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_seconds"] = setups
    return result


def unit_of(name: str) -> str:
    return next(unit for suffix, unit in UNITS if name.endswith(suffix))


def report(opts, result: dict) -> dict:
    counts = result["counts"]
    if opts.trace:
        values = result["per_layer"]
    else:
        values = {
            "wall_s": result["wall_s"],
            "setup_s": statistics.median(result["setup_seconds"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "pass_frac": (counts["attempted"] - counts["failed"]) / counts["attempted"],
        }
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in values.items()}
    return {"correct": counts["wrong"] == 0, "attempted": counts["attempted"],
            "failed": counts["failed"], "metrics": metrics}


def run_tool(mode: str, args: list, work: str) -> dict:
    result_path = os.path.join(work, "result.json")
    proc = start(mode, [*args, "--result", result_path], work, mode,
                 stdout=sys.stderr)
    if proc.wait() != 0:
        raise BenchError(f"{mode} failed with code {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    opts = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "randpoled", "cli.py")):
        print(f"bench: no randpoled sources under {SRC}", file=sys.stderr)
        return 2
    if not (opts.smoke or opts.record or opts.workload):
        parser.error("--workload is required")
    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=build)
    try:
        if opts.smoke:
            summary = run_tool("smoke", [], work)
            print(json.dumps(summary))
            return 0 if summary["ok"] else 1
        if opts.record:
            extra = ["--workload", opts.workload] if opts.workload else []
            print(json.dumps(run_tool("record", extra, work)))
            return 0
        result = measure(opts, work)
        print(json.dumps({"info": machine_info() | result["info"],
                          "op_seconds": result["op_seconds"],
                          "setup_seconds": result["setup_seconds"],
                          "traced_bindings": result.get("bindings"),
                          "errors": result["log"][:20]}))
        print(json.dumps(report(opts, result)))
        return 0
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        for name in sorted(os.listdir(work)):
            if name.endswith(".log"):
                with open(os.path.join(work, name)) as fh:
                    tail = fh.read()[-2000:]
                if tail.strip():
                    print(f"--- {name}\n{tail}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(build)
        except OSError:
            pass  # not empty: other files of the checkout's build


if __name__ == "__main__":
    sys.exit(main())
