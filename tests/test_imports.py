"""Importing one `ellpar` module loads only what that module imports, and
reaches a sibling module only through the names it exports.

The package `__init__` imports nothing, so a caller that needs the Xi_r
geometry does not pay for the solver, the harness or scipy.
"""

import ast
import importlib
import os
import subprocess
import sys

import ellpar

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ellpar.__file__)))


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
