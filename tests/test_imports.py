"""Importing one `ellpar` module loads only what that module imports, and
reaches a sibling module only through the names it exports; every exported
name has a caller outside the tests; the third-party packages that `ellpar`
imports are exactly the dependencies that `pyproject.toml` declares.

The package `__init__` imports nothing, so a caller that needs the Xi_r
geometry does not pay for the solver, the harness or scipy.

`dgtsv` comes from scipy's compiled `_flapack` module, which `ellpar.solver`
loads by file under scipy's own name: no `ellpar` module imports the
`scipy.linalg` package, whose `__init__` loads about 290 more modules.
Tests may still import `scipy.linalg` as a reference.
"""

import ast
import glob
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest

import ellpar
from ellpar import solver

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ellpar.__file__)))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# exported names that no program code calls yet, each with the ROADMAP item
# that gives it its first caller
WAITING = {
    "harness.validate_class_P": "item 5: the stability check of perturbed data",
    "barriers.make_eps_eta_barrier": "item 11: runs checked against barriers",
}


def loaded_after(module, then=""):
    """The sorted ellpar and scipy modules that a fresh interpreter holds
    after `import <module>` and the statements `then`."""
    code = (f"import sys; sys.path.insert(0, {SRC!r})\n"
            f"import {module}\n{then}\n"
            "print(' '.join(sorted(m for m in sys.modules\n"
            "                      if m.split('.')[0] in ('ellpar', 'scipy'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1].split()


def test_geometry_loads_no_other_module():
    assert loaded_after("ellpar.geometry") == ["ellpar", "ellpar.geometry"]


def test_operators_loads_only_nonlinearity():
    assert loaded_after("ellpar.operators") == ["ellpar", "ellpar.nonlinearity",
                                                "ellpar.operators"]


def test_solve_and_criterion_11_load_no_scipy_subpackage(tmp_path):
    # one `ellpar solve` and one acceptance criterion reach no scipy.linalg
    # module but the compiled LAPACK one, and neither integrate nor optimize
    cfg = tmp_path / "jump.cfg"
    cfg.write_text("op.kind = trace\nb.n = 16\nu0.kind = jump\ngrid.n = 101\n"
                   "time.T = 0.1\ntime.dt = 0.0025\n")
    argv = ["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]
    loaded = loaded_after("ellpar.cli, ellpar.harness",
                          then=f"assert ellpar.cli.main({argv!r}) == 0\n"
                               "assert ellpar.harness.ALL_CRITERIA[11]().passed")
    assert (tmp_path / "out" / "field.csv").exists()
    heavy = ("scipy.linalg", "scipy.integrate", "scipy.optimize")
    assert [m for m in loaded if m.startswith(heavy)] == ["scipy.linalg._flapack"]


@pytest.mark.parametrize("first, second", [("ellpar.solver", "scipy.linalg"),
                                           ("scipy.linalg", "ellpar.solver")])
def test_either_import_order_gives_scipys_gtsv(first, second):
    # the routine loaded by file is the one scipy.linalg.lapack re-exports,
    # whichever of the two a process imports first
    check = ("import numpy as np\n"
             "from ellpar import solver\n"
             "rng = np.random.default_rng(401)\n"
             "lower, upper, rhs = rng.standard_normal((3, 401))\n"
             "diag = 4.0 + rng.random(401)\n"
             "x, info = solver.solve_banded(lower, diag, upper, rhs)\n"
             "ab = np.zeros((3, 401))\n"
             "ab[0, 1:], ab[1], ab[2, :-1] = upper[:-1], diag, lower[1:]\n"
             "ref = scipy.linalg.solve_banded((1, 1), ab, rhs)\n"
             "assert info == 0 and x.tobytes() == ref.tobytes()\n"
             "assert scipy.linalg.lapack.dgtsv is solver.dgtsv")
    loaded_after(f"{first}, {second}", then=check)


def test_missing_lapack_module_names_its_directory(monkeypatch, tmp_path):
    # no fallback: without the compiled module the solver does not import
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(solver, "scipy", SimpleNamespace(__path__=[str(tmp_path)]))
    with pytest.raises(ImportError, match=re.escape(f"no compiled _flapack module in {tmp_path}")):
        solver._load_flapack()


def sibling_names(tree):
    """(sibling module, name) for each name the parsed module takes from a
    sibling, at any depth: `from .mod import name`, and `mod.name` after
    `from . import mod`."""
    modules, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names.append((node.module, alias.name))
    names += [(modules[node.value.id], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules]
    return names


def test_sibling_imports_are_exported():
    pkg = os.path.dirname(os.path.abspath(ellpar.__file__))
    unlisted = []
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py") or fname == "__init__.py":
            continue
        with open(os.path.join(pkg, fname)) as fh:
            tree = ast.parse(fh.read())
        for module, name in sibling_names(tree):
            if name not in importlib.import_module(f"ellpar.{module}").__all__:
                unlisted.append(f"{fname[:-3]}: {module}.{name}")
    assert unlisted == []


def test_sibling_names_reads_every_form():
    tree = ast.parse("from .solver import run, _private\n"
                     "def f():\n"
                     "    from . import barriers as b\n"
                     "    from .harness import jump_initial\n"
                     "    return b.solve_radial_barrier, b._power_profile\n")
    assert sorted(sibling_names(tree)) == [
        ("barriers", "_power_profile"), ("barriers", "solve_radial_barrier"),
        ("harness", "jump_initial"), ("solver", "_private"), ("solver", "run")]


def references(tree):
    """The names a parsed file reads: loaded names, attributes and string
    constants (perfbench hooks name their targets as strings).  A module's
    own __all__ list and its definitions (def, class, assignment) are not
    references."""
    exported = {id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)
                for node in ast.walk(stmt)}
    found = set()
    for node in ast.walk(tree):
        if id(node) in exported:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_references_skip_definitions_and_all():
    tree = ast.parse('__all__ = ["f", "g", "h", "K"]\n'
                     "K = 1\n"
                     "def f():\n"
                     "    return mod.g\n"
                     "HOOKS = [('mod', 'h')]\n")
    assert not {"f", "K"} & references(tree)
    assert {"g", "h"} <= references(tree)


def test_every_exported_name_has_a_caller_outside_tests():
    paths = (glob.glob(os.path.join(SRC, "ellpar", "*.py"))
             + glob.glob(os.path.join(ROOT, "demos", "*.py"))
             + glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
    used = set()
    for path in paths:
        with open(path) as fh:
            used |= references(ast.parse(fh.read()))
    exported = {f"{m.name}.{name}" for m in pkgutil.iter_modules(ellpar.__path__)
                for name in importlib.import_module(f"ellpar.{m.name}").__all__}
    uncalled = {q for q in exported if q.split(".")[1] not in used}
    missing = sorted(uncalled - WAITING.keys())
    assert not missing, f"no caller outside tests: {missing}"
    # a waiting name leaves WAITING once it has its caller, or is deleted
    stale = sorted(WAITING.keys() - uncalled)
    assert not stale, f"no longer waiting: {stale}"


def top_level_imports(tree):
    """The top-level package of each absolute import in a parsed module, at
    any depth: `import a.b` and `from a.b import c` both give "a"."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_top_level_imports_reads_every_form():
    tree = ast.parse("import os.path, numpy as np\n"
                     "from scipy.linalg import lapack\n"
                     "from . import solver\n"
                     "from .config import ConfigError\n"
                     "def f():\n"
                     "    import yaml\n")
    assert top_level_imports(tree) == {"os", "numpy", "scipy", "yaml"}


def test_third_party_imports_are_the_declared_dependencies():
    # an undeclared import fails, and so does a declared package that
    # nothing imports
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[\w.-]+", d).group() for d in dependencies}
    imported = set()
    for path in glob.glob(os.path.join(SRC, "ellpar", "*.py")):
        with open(path) as fh:
            imported |= top_level_imports(ast.parse(fh.read()))
    assert imported - set(sys.stdlib_module_names) - {"ellpar"} == declared
