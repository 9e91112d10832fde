"""Importing one `ellpar` module loads only what that module imports.

The package `__init__` imports nothing, so a caller that needs the Xi_r
geometry does not pay for the solver, the harness or scipy.
"""

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
