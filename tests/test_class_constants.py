"""No public entry point takes the structural class as loose constants.

The class (lambda, Lambda, delta1, delta0, n) of an operator, and the Psi of
a divergence operator, travel as one `OperatorSpec`.  These tests read the
signature of every callable that an `ellpar` module exports in `__all__`
(the fields of a dataclass included) and fail on a parameter named after one
of those constants, so that no entry point takes them loose again.
"""

import importlib
import inspect
import pkgutil
import types

import pytest

import ellpar

LOOSE = {"lam", "Lam", "delta1", "delta0", "n_dim", "psi", "psi_spec"}
MODULES = sorted(m.name for m in pkgutil.iter_modules(ellpar.__path__))


def loose_constants(mod):
    """{exported name: sorted loose parameters} over mod.__all__; the
    OperatorSpec that carries the class, and exception types, are skipped."""
    found = {}
    for name in mod.__all__:
        obj = getattr(mod, name)
        if name == "OperatorSpec" or not callable(obj) or (
                isinstance(obj, type) and issubclass(obj, BaseException)):
            continue
        hit = sorted(LOOSE & set(inspect.signature(obj).parameters))
        if hit:
            found[name] = hit
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_loose_class_constants(module):
    assert loose_constants(importlib.import_module(f"ellpar.{module}")) == {}


def test_scan_flags_loose_constants():
    def pucci_plus(eigs, lam, Lam):
        pass

    class Barrier:
        def __init__(self, k, n_dim=2, psi_spec=None):
            pass

    def pucci_minus(op, eigs):
        pass

    mod = types.ModuleType("fake")
    mod.pucci_plus, mod.Barrier, mod.pucci_minus = pucci_plus, Barrier, pucci_minus
    mod.__all__ = ["pucci_plus", "Barrier", "pucci_minus"]
    assert loose_constants(mod) == {"pucci_plus": ["Lam", "lam"],
                                    "Barrier": ["n_dim", "psi_spec"]}
