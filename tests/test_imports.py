"""Importing one `ellpar` module loads only what that module imports, and
reaches a sibling module only through the names it exports; every exported
name has a caller outside the tests.

The package `__init__` imports nothing, so a caller that needs the Xi_r
geometry does not pay for the solver, the harness or scipy.
"""

import ast
import glob
import importlib
import os
import pkgutil
import subprocess
import sys

import ellpar

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ellpar.__file__)))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# exported names that no program code calls yet, each with the ROADMAP item
# that gives it its first caller
WAITING = {
    "harness.validate_class_P": "item 5: the stability check of perturbed data",
    "barriers.make_eps_eta_barrier": "item 11: runs checked against barriers",
}


def loaded_after(module):
    """The sorted ellpar and scipy modules that a fresh interpreter holds
    after `import <module>`."""
    code = (f"import sys; sys.path.insert(0, {SRC!r})\n"
            f"import {module}\n"
            "print(' '.join(sorted(m for m in sys.modules\n"
            "                      if m.split('.')[0] in ('ellpar', 'scipy'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    return out.stdout.split()


def test_geometry_loads_no_other_module():
    assert loaded_after("ellpar.geometry") == ["ellpar", "ellpar.geometry"]


def test_operators_loads_only_nonlinearity():
    assert loaded_after("ellpar.operators") == ["ellpar", "ellpar.nonlinearity",
                                                "ellpar.operators"]


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
