"""python tools/compare_outputs.py REF: run every scenario at its defaults for seeds
0 and 5, here and in a `git archive` export of git ref REF, and compare exit codes
and output files byte for byte.  A differing CSV reports its first differing cell
and the largest relative difference per column.  Exits 1 on any difference."""
import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(tree: Path, *args):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, "-m", "randpoled.cli", *args], env=env,
                          capture_output=True, text=True)


def diff(name: str, ours, ref) -> str:
    a, b = ([*csv.reader(d.decode().splitlines())] for d in (ours or b"", ref or b""))
    cells = [(i, col, u, v) for i, (x, y) in enumerate(zip(a[1:], b[1:]), 1)
             for col, u, v in zip(a[0], x, y) if u != v]
    if not name.endswith(".csv") or len(a) != len(b) or a[:1] != b[:1] or not cells:
        return f"{name} is missing on one side or differs in form, length or header"
    worst = {}
    for _, col, u, v in cells:
        try:
            rel = abs(float(u) - float(v)) / max(abs(float(u)), abs(float(v)), 1e-300)
        except ValueError:  # not a number
            rel = float("inf")
        worst[col] = max(worst.get(col, 0.0), rel)
    spread = ", ".join(f"{col} {rel:.3g}" for col, rel in worst.items())
    return "{}: row {} {} {} vs {} (ref); largest relative difference {}".format(
        name, *cells[0], spread)


def main(ref: str) -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(f"git -C '{ROOT}' archive --prefix=ref/ '{ref}' | tar -x -C '{tmp}'",
                       shell=True, check=True)
        for scenario in [s.split()[0] for s in run(ROOT, "list").stdout.splitlines()]:
            for seed in ("0", "5"):
                outs = [Path(tmp, side, scenario, seed) for side in ("ours", "ref")]
                codes = [run(tree, scenario, "--seed", seed, "--out-dir", out).returncode
                         for tree, out in zip((ROOT, Path(tmp, "ref")), outs)]
                ours, refs = ({p.name: p.read_bytes() for p in o.glob("*")} for o in outs)
                notes = [] if codes[0] == codes[1] else [f"exit {codes[1]} in ref"]
                notes += [diff(n, ours.get(n), refs.get(n)) for n in sorted(ours | refs)
                          if ours.get(n) != refs.get(n)]
                failed += bool(notes)
                print(f"{scenario} seed {seed}: exit {codes[0]},",
                      "; ".join(notes) or "byte-identical", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
