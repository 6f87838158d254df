"""In-process tracer for randpoled: spans around its public functions.

`install()` replaces every public function of the package, in every
module namespace that binds it, by one timing wrapper per function. It
also wraps the entries of `scenarios.SCENARIOS` (through which the CLI
dispatches) under their scenario ids, and the `StructureSpec.generate`
and `DispersionModel.refractive_index` methods. Nothing in the package
is edited on disk; the wrappers live only in the traced interpreter.

Each call records a span (name, parent span, start, end, whether it
raised, and a work count for the functions listed in ELEMENTS). Spans
are kept in memory and reduced by `layer_metrics()` at the end of a
pass. A layer's self time is the duration of its spans minus the part
covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import statistics
import time

import numpy as np

PACKAGE = "randpoled"
# methods wrapped besides module-level functions: they sit on the hot
# paths (one structure draw per realization, n(omega) per grid)
METHODS = (("structures", "StructureSpec", "generate"),
           ("dispersion", "DispersionModel", "refractive_index"))

DEFAULT_TAU_POINTS = 4096  # temporal.default_tau_grid() when tau is None


def _f_exact_elements(a):
    return int(np.size(a["dk_total"])) * (a["s"].n_domains + 1)


def _xcorr_elements(a):
    return int(np.broadcast(np.asarray(a["delta_k"]),
                            np.asarray(a["delta_k_prime"])).size)


def _hom_elements(a):
    tau = a["tau"]
    n_tau = DEFAULT_TAU_POINTS if tau is None else int(np.size(tau))
    return n_tau * a["grid"].n_points


def _bytes_written(a):
    return sum(len(text.encode()) for text in a["files"].values())


# work counted from the bound arguments: boundary-sum elements
# n_dk*(N_L+1), correlator elements, (tau x omega) sum elements, bytes
ELEMENTS = {
    "phasematch.f_exact": _f_exact_elements,
    "phasematch.xcorr_rps": _xcorr_elements,
    "temporal.hom_trace": _hom_elements,
    "io.atomic_write_files": _bytes_written,
}


def _counter(name, fn):
    count = ELEMENTS.get(name)
    if count is None:
        return None
    sig = inspect.signature(fn)

    def counted(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return count(bound.arguments)

    return counted


class Tracer:
    def __init__(self):
        self.spans = []    # [name, parent index, t0, t1, raised, elements]
        self._stack = []   # indices of open spans
        self.originals = {}  # id(original) -> original
        self.bindings = 0

    def _wrap(self, name, fn):
        count = _counter(name, fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, False,
                    count(args, kwargs) if count else 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap every public function wherever the package binds it."""
        modules = _package_modules()
        wrappers = {}  # id(original) -> wrapper
        for mod in modules.values():
            for fn in vars(mod).values():
                if _is_public_function(fn) and id(fn) not in wrappers:
                    layer = fn.__module__.rpartition(".")[2]
                    wrappers[id(fn)] = self._wrap(f"{layer}.{fn.__name__}", fn)
                    self.originals[id(fn)] = fn
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = vars(cls)[meth]
            self.originals[id(fn)] = fn
            setattr(cls, meth, self._wrap(f"{layer}.{meth}", fn))
            self.bindings += 1
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if id(value) in wrappers and value is self.originals[id(value)]:
                    setattr(mod, key, wrappers[id(value)])
                    self.bindings += 1
        table = modules["scenarios"].SCENARIOS
        for scenario_id, fn in list(table.items()):
            inner = wrappers.get(id(fn), fn)
            table[scenario_id] = self._wrap(f"scenarios.{scenario_id}", inner)
            self.bindings += 1

    def unwrapped_bindings(self) -> list:
        """Places in the package still bound to an original function."""
        left = []
        modules = _package_modules()
        for mod_name, mod in modules.items():
            for key, value in vars(mod).items():
                if key == "__builtins__":
                    continue
                containers = [(key, value)]
                if isinstance(value, dict):
                    containers += [(f"{key}[{k!r}]", v) for k, v in value.items()]
                elif isinstance(value, (list, tuple)):
                    containers += [(f"{key}[{i}]", v) for i, v in enumerate(value)]
                elif inspect.isclass(value) and value.__module__.startswith(PACKAGE):
                    containers += [(f"{key}.{k}", v) for k, v in vars(value).items()]
                for where, obj in containers:
                    if id(obj) in self.originals and self.originals[id(obj)] is obj:
                        left.append(f"{mod_name}.{where}")
        return left

    def reset(self) -> None:
        self.spans.clear()

    def layer_metrics(self) -> dict:
        """Reduce the recorded spans to per-function aggregates."""
        agg = {}
        child = [0.0] * len(self.spans)
        probes = 0
        for name, parent, t0, t1, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
                if name == "spectra.fwhm" and self.spans[parent][0] == "temporal.compensate":
                    probes += 1
        for i, (name, _, t0, t1, raised, elements) in enumerate(self.spans):
            a = agg.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "raised": 0, "elements": 0})
            a["calls"] += 1
            a["total_s"] += t1 - t0
            a["self_s"] += (t1 - t0) - child[i]
            a["raised"] += raised
            a["elements"] += elements
        return {"functions": agg, "width_probes": probes}


def _package_modules() -> dict:
    pkg = importlib.import_module(PACKAGE)
    mods = {"__init__": pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        mods[info.name] = importlib.import_module(f"{PACKAGE}.{info.name}")
    return mods


def _is_public_function(obj) -> bool:
    return (inspect.isfunction(obj) and obj.__module__.startswith(PACKAGE + ".")
            and not obj.__name__.startswith("_"))


def per_layer(passes: list, overhead_s: float, scenario_ids) -> dict:
    """Per-layer metrics as the median over traced passes."""

    def med(fn):
        return statistics.median(fn(p) for p in passes)

    def fn_stat(name, key):
        return med(lambda p: p["functions"].get(name, {}).get(key, 0))

    def layer_self(layer):
        return med(lambda p: sum(a["self_s"] for n, a in p["functions"].items()
                                 if n.startswith(layer + ".")))

    def ratio(name, num, den):
        def one(p):
            a = p["functions"].get(name)
            return a[num] / a[den] if a and a[den] else 0.0
        return med(one)

    m = {}
    for name, keys in (
            ("phasematch.f_exact", ("calls", "elements", "self_s")),
            ("phasematch.xcorr_rps", ("elements", "self_s")),
            ("phasematch.avg_f2_rps", ("calls", "self_s")),
            ("phasematch.f_chirp", ("self_s",)),
            ("phasematch.complex_erf", ("self_s",)),
            ("temporal.hom_trace", ("elements", "self_s")),
            ("temporal.sumfreq_trace", ("self_s",)),
            ("temporal.sumfreq_ensemble_mc", ("self_s",)),
            ("temporal.compensate", ("self_s",)),
            ("structures.generate", ("calls", "self_s")),
            ("structures.apply_fabrication_error", ("self_s",)),
            ("structures.shuffle_segments", ("self_s",)),
            ("spectra.joint_density", ("calls", "self_s")),
            ("spectra.ensemble_run", ("self_s",)),
            ("spectra.match_parameter", ("self_s",)),
            ("spectra.fwhm", ("calls",)),
            ("spatial.correlated_area", ("calls", "self_s")),
            ("spatial.correlated_width_scan", ("self_s",)),
            ("dispersion.refractive_index", ("calls", "self_s"))):
        for key in keys:
            m[f"{name}.{key}"] = fn_stat(name, key)
    m["phasematch.f_exact.ns_per_element"] = 1e9 * ratio(
        "phasematch.f_exact", "self_s", "elements")
    m["spectra.fwhm.fail_ratio"] = ratio("spectra.fwhm", "raised", "calls")
    m["temporal.compensate.width_probes"] = med(lambda p: p["width_probes"])
    for layer in ("scenarios", "io", "cli"):
        m[f"{layer}.self_s"] = layer_self(layer)
    m["io.bytes_written"] = fn_stat("io.atomic_write_files", "elements")
    for sid in scenario_ids:
        m[f"scenarios.{sid}.wall_s"] = fn_stat(f"scenarios.{sid}", "total_s")
    m["trace.overhead_s"] = overhead_s
    return m
