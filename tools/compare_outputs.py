"""python tools/compare_outputs.py REF: run every scenario at its defaults for seeds
0 and 5, here and in a `git archive` export of git ref REF, and compare exit codes
and output files byte for byte.  A differing CSV reports its first differing cell
and, per differing column, the largest difference relative to each cell and to the
column's peak |value|; a differing JSON file of the same structure reports its
largest numeric difference relative to the value, with its key path.  Exits 1 on
any difference."""
import csv
import json
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


def _number(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:  # not a number
        return float("nan")


def _leaves(value, path: str = "") -> list:
    """[(key path, leaf)] of a parsed JSON value, in document order; an empty
    object or array is a leaf."""
    if isinstance(value, dict) and value:
        return [leaf for key, v in value.items()
                for leaf in _leaves(v, f"{path}.{key}" if path else key)]
    if isinstance(value, list) and value:
        return [leaf for i, v in enumerate(value) for leaf in _leaves(v, f"{path}[{i}]")]
    return [(path, value)]


def _json_diff(name: str, ours: bytes, ref: bytes) -> str | None:
    """The largest relative difference of two JSON files' numbers, or None
    unless both parse to the same keys with only numbers differing."""
    try:
        a, b = (_leaves(json.loads(d)) for d in (ours, ref))
    except ValueError:
        return None
    if [path for path, _ in a] != [path for path, _ in b]:
        return None
    moved = []
    for (path, x), (_, y) in zip(a, b):
        if x == y or x != x and y != y:  # equal, or nan on both sides
            continue
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
            return None
        rel = abs(x - y) / max(abs(x), abs(y))
        moved.append((rel if rel == rel else float("inf"), path, x, y))
    if not moved:
        return None
    rel, path, x, y = max(moved)
    return (f"{name}: {len(moved)} numbers differ, largest relative difference "
            f"{rel:.3g} at {path} ({x!r} vs {y!r} (ref))")


def diff(name: str, ours, ref) -> str:
    if name.endswith(".json") and ours and ref:
        note = _json_diff(name, ours, ref)
        if note:
            return note
    a, b = ([*csv.reader(d.decode().splitlines())] for d in (ours or b"", ref or b""))
    cells = [(i, col, u, v) for i, (x, y) in enumerate(zip(a[1:], b[1:]), 1)
             for col, u, v in zip(a[0], x, y) if u != v]
    if not name.endswith(".csv") or len(a) != len(b) or a[:1] != b[:1] or not cells:
        return f"{name} is missing on one side or differs in form, length or header"
    # a column's peak |value| over both sides: aim 3 bounds differences by 1e-9 of it
    peak = {col: max((abs(f) for f in map(_number, values) if f == f), default=0.0)
            for col, values in zip(a[0], zip(*a[1:], *b[1:]))}
    worst, worst_of_peak = {}, {}
    for _, col, u, v in cells:
        x, y = _number(u), _number(v)
        if x == x and y == y:
            rel, of_peak = (abs(x - y) / max(scale, 1e-300)
                            for scale in (max(abs(x), abs(y)), peak[col]))
        else:  # not a number
            rel = of_peak = float("inf")
        worst[col] = max(worst.get(col, 0.0), rel)
        worst_of_peak[col] = max(worst_of_peak.get(col, 0.0), of_peak)
    spread, of_peak = (", ".join(f"{col} {rel:.3g}" for col, rel in w.items())
                       for w in (worst, worst_of_peak))
    return ("{}: row {} {} {} vs {} (ref); largest relative difference {}; "
            "relative to the column's peak |value| {}").format(name, *cells[0], spread,
                                                                of_peak)


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
