"""Reference outputs of the benchmark operations and the check against them.

An operation's output is flattened into named vectors of text tokens:
one per CSV column (`<file>:<column>`) and one per numeric leaf of
`metadata.json["extra"]` (`metadata:<path>`), leaving out the echoed
inputs (`seed`, `parameters`). Library calls give their vectors directly.

The references were recorded at the commit that introduced the
benchmark (`run.py --record`) for every seed of the pool, and are kept as
`reference/<workload>.json.gz`: vectors equal at every pool seed are
stored once under "shared", the others per seed under "by_seed".

A vector matches when every value lies within `tol * peak` of the
reference, where `peak` is the largest finite |value| of the reference
vector (its column peak). Non-numeric vectors must match exactly, and
NaN must sit where the reference has NaN.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(HERE, "reference")
SKIP_META = ("seed", "parameters")
# The CSV cells carry 10 significant digits, so 1e-9 of the column peak
# is the print precision: a change in the last digit of the peak passes,
# anything larger fails.
DEFAULT_TOL = 1e-9


def digest_dir(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def flatten_dir(out_dir: str, skip_files=()) -> dict:
    vectors = {}
    for name in sorted(os.listdir(out_dir)):
        if name in skip_files:
            continue
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            with open(path, newline="") as fh:
                header, *body = list(csv.reader(fh))
            for j, column in enumerate(header):
                vectors[f"{name}:{column}"] = [row[j] for row in body]
        elif name == "metadata.json":
            with open(path) as fh:
                extra = json.load(fh)["extra"]
            for key in SKIP_META:
                extra.pop(key, None)
            for key, value in _leaves(extra):
                vectors[f"metadata:{key}"] = [repr(value)]
    return vectors


def _leaves(value, prefix=""):
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _leaves(value[k], f"{prefix}{k}.")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{prefix}{i}.")
    else:
        yield prefix[:-1], value


def _floats(tokens):
    try:
        return [float(t) for t in tokens]
    except ValueError:
        return None


def compare_vector(got: list, ref: list, tol: float) -> str | None:
    """None when `got` matches `ref`, else a one-line reason."""
    if len(got) != len(ref):
        return f"{len(got)} values, reference has {len(ref)}"
    g, r = _floats(got), _floats(ref)
    if g is None or r is None:
        if got != ref:
            i = next(i for i, (a, b) in enumerate(zip(got, ref)) if a != b)
            return f"value {i}: {got[i]!r} != {ref[i]!r}"
        return None
    peak = max((abs(v) for v in r if math.isfinite(v)), default=0.0)
    for i, (a, b) in enumerate(zip(g, r)):
        if math.isnan(a) or math.isnan(b):
            if not (math.isnan(a) and math.isnan(b)):
                return f"value {i}: {a!r} vs {b!r}"
        elif math.isinf(a) or math.isinf(b):
            if a != b:
                return f"value {i}: {a!r} vs {b!r}"
        elif abs(a - b) > tol * peak:
            return (f"value {i}: {a!r} vs {b!r}, off by "
                    f"{abs(a - b) / peak if peak else math.inf:.3g} of the peak")
    return None


def compare(got: dict, ref: dict, tols: dict, partial: bool = False) -> list:
    """Reasons why the flattened output `got` fails its reference.

    With `partial`, the reference holds only the leading rows of each
    vector (the rows the reference commit could produce); the remaining
    rows must be finite numbers or text.
    """
    problems = []
    if set(got) != set(ref):
        missing = sorted(set(ref) - set(got))
        extra = sorted(set(got) - set(ref))
        problems.append(f"vectors missing {missing}, unexpected {extra}")
    for key in sorted(set(got) & set(ref)):
        values = got[key]
        if partial:
            values, rest = values[:len(ref[key])], values[len(ref[key]):]
            nums = _floats(rest)
            if nums is not None and not all(math.isfinite(v) for v in nums):
                problems.append(f"{key}: non-finite value beyond the reference rows")
        why = compare_vector(values, ref[key], tols.get(key, DEFAULT_TOL))
        if why:
            problems.append(f"{key}: {why}")
    return problems


def _path(workload: str) -> str:
    return os.path.join(REF_DIR, f"{workload}.json.gz")


def load(workload: str) -> dict:
    with gzip.open(_path(workload), "rt") as fh:
        return json.load(fh)


def for_seed(table: dict, op_id: str, pool_seed: int) -> dict:
    entry = table[op_id]
    return entry["shared"] | entry["by_seed"].get(str(pool_seed), {})


def save(workload: str, recorded: dict) -> None:
    """Store {op_id: {pool_seed: vectors}}, sharing seed-independent vectors."""
    table = {}
    for op_id, by_seed in recorded.items():
        seeds = sorted(by_seed)
        first = by_seed[seeds[0]]
        shared = {k: v for k, v in first.items()
                  if all(by_seed[s].get(k) == v for s in seeds)}
        table[op_id] = {
            "shared": shared,
            "by_seed": {str(s): {k: v for k, v in by_seed[s].items()
                                 if k not in shared} for s in seeds},
        }
    os.makedirs(REF_DIR, exist_ok=True)
    # mtime=0 keeps the archive byte-identical for identical content
    with open(_path(workload), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
            gz.write(json.dumps(table, sort_keys=True).encode())
