"""Every public function of the package is reached by a scenario or the CLI.

The walk parses src/randpoled/*.py and starts from `cli.main` and the
`scenarios.SCENARIOS` table. A reached function, method or module-level
assignment reaches every definition whose name its code mentions, as a
plain name or as an attribute; a reached class also reaches the bodies
of its underscore methods (`__post_init__` and the like run implicitly).

The walk goes by name alone, so it over-approximates: a method whose
name collides with one the code calls on another type (a `split` next
to `str.split`) passes unreached. It would miss a call made through a
string (`getattr` on a function name); the package makes none. A branch
picked by a string value (`if spec.kind == "rps"`) is invisible to it:
the branch's callees count as reached whatever value reaches it, so the
structure kinds are checked apart, against the specs that the scenarios
and the acceptance criteria build.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "randpoled"

# public code that no scenario reaches, kept on purpose
ALLOWED = {
    # the direct boundary sum of acceptance criterion 1; it leaves with
    # the closed-form/Monte-Carlo reconciliation (ROADMAP item M)
    "phasematch.f_boundary_sum",
    # the asymptotic rate law of acceptance criteria 3 and 5
    "phasematch.avg_f2_rps_asymptotic",
    # the angular spectral density of acceptance criterion 10 and aim 1
    "spatial.angular_spectral_density",
    # the benchmark's tracer reads it to count (tau x omega) elements
    "spectra.SpectralGrid.n_points",
}


def _definitions():
    """name -> [(qualified name, is a function, nodes its use runs)]."""
    defs = {}

    def add(name, qual, is_function, *nodes):
        defs.setdefault(name, []).append((qual, is_function, nodes))

    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                add(node.name, f"{mod}.{node.name}", True, node)
            elif isinstance(node, ast.ClassDef):
                methods = [n for n in node.body if isinstance(n, ast.FunctionDef)]
                add(node.name, f"{mod}.{node.name}", False, *node.decorator_list,
                    *node.bases, *[n for n in node.body if n not in methods],
                    *[m for m in methods if m.name.startswith("_")])
                for m in methods:
                    add(m.name, f"{mod}.{node.name}.{m.name}", True, m)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            add(name.id, f"{mod}.{name.id}", False, node)
    return defs


def _reached(defs, roots):
    seen = set()
    queue = [d for entries in defs.values() for d in entries if d[0] in roots]
    while queue:
        qual, _, nodes = queue.pop()
        if qual in seen:
            continue
        seen.add(qual)
        for sub in (sub for node in nodes for sub in ast.walk(node)):
            if isinstance(sub, ast.Name):
                queue += defs.get(sub.id, [])
            elif isinstance(sub, ast.Attribute):
                queue += defs.get(sub.attr, [])
    return seen


def test_every_public_function_is_reached():
    defs = _definitions()
    reached = _reached(defs, {"cli.main", "scenarios.SCENARIOS"})
    assert {"cli.main", "scenarios.run_spatial_study"} <= reached
    public = {qual for entries in defs.values() for qual, is_function, _ in entries
              if is_function and not any(part.startswith("_")
                                         for part in qual.split(".")[1:])}
    unreached = public - reached
    assert sorted(unreached - ALLOWED) == []
    # an allowance outlives its reason once the function is reached or gone
    assert sorted(ALLOWED - unreached) == []


def _spec_kinds_accepted():
    """The kinds that StructureSpec.__post_init__ lets through."""
    tree = ast.parse((SRC / "structures.py").read_text())
    spec = next(n for n in tree.body
                if isinstance(n, ast.ClassDef) and n.name == "StructureSpec")
    post_init = next(n for n in spec.body
                     if isinstance(n, ast.FunctionDef) and n.name == "__post_init__")
    test = next(n for n in ast.walk(post_init) if isinstance(n, ast.Compare)
                and isinstance(n.ops[0], ast.NotIn)
                and ast.unparse(n.left) == "self.kind")
    return set(ast.literal_eval(test.comparators[0]))


def _spec_kinds_built(*paths):
    """The literal first arguments of the StructureSpec(...) calls in paths."""
    kinds = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "StructureSpec" and node.args
                    and isinstance(node.args[0], ast.Constant)):
                kinds.add(node.args[0].value)
    return kinds


def test_every_structure_kind_is_built():
    accepted = _spec_kinds_accepted()
    assert {"ideal", "rps", "chirped"} <= accepted
    built = _spec_kinds_built(SRC / "scenarios.py",
                              ROOT / "tests" / "test_acceptance.py")
    assert sorted(accepted - built) == []


def test_imports_only_numpy_and_the_standard_library():
    # the program's one dependency is numpy (pyproject.toml); scipy and the
    # rest of the test extra serve the tests alone
    imported = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                # a module named by a string would escape the parse
                assert not (isinstance(node, ast.Name) and node.id == "__import__"
                            or isinstance(node, ast.Attribute)
                            and node.attr == "import_module"), path.name
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], set()).add(path.name)
    assert "numpy" in imported
    foreign = {top: sorted(files) for top, files in imported.items()
               if top not in sys.stdlib_module_names | {"numpy", "randpoled"}}
    assert foreign == {}
