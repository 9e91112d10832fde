"""The benchmark's tracer hooks resolve in the real package.

`perfbench/spans.py` wraps `ellpar` functions by module and attribute name,
and its `Instrumentation` skips a hook whose target is missing.  A rename in
`src/` would then silently drop the per-layer metrics that need the hook
(for example `solver.linear_solve.*`).  These tests read the hook table,
without changing it, and fail on such a rename instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


spans = _load_spans()

# post hook -> the parameter of the hooked function it reads by name
BOUND = {"_post_convolve": "r", "_post_verify": "samples"}


def _target(mod, attr):
    return getattr(importlib.import_module(f"ellpar.{mod}"), attr, None)


@pytest.mark.parametrize("mod, attr", [hook[:2] for hook in spans.HOOKS],
                         ids=[f"{m}.{a}" for m, a, *_ in spans.HOOKS])
def test_hook_target_resolves(mod, attr):
    assert callable(_target(mod, attr)), f"ellpar.{mod}.{attr} is gone"


def test_hooks_bind_existing_parameters():
    checked = set()
    for mod, attr, _, post, _ in spans.HOOKS:
        if post is None:
            continue
        params = list(inspect.signature(_target(mod, attr)).parameters)
        if post.__name__ == "_post_csv":
            # the hook takes the file size of the first argument
            assert params[0] == "path", (attr, params)
        elif post.__name__ in BOUND:
            assert BOUND[post.__name__] in params, (attr, params)
        else:
            continue
        checked.add(attr)
    assert checked == {"sup_convolve", "inf_convolve", "verify_subsolution_margin",
                       "write_field_csv", "_write_front_csv"}


def test_the_layer_counts_every_linear_solve():
    # installed around one short run, the tracer finds every hooked target,
    # sees each Newton iteration's linear solve and the one operator matrix
    # of the run's linear kind
    from ellpar import solver
    from ellpar.harness import make_jump_scenario

    for mod in {hook[0] for hook in spans.HOOKS}:
        importlib.import_module(f"ellpar.{mod}")
    spec = make_jump_scenario(grid=201, n=32, T=0.1).spec
    tracer = spans.Tracer()
    instr = spans.Instrumentation(tracer).install()
    try:
        out = solver.run(spec)
    finally:
        instr.remove()
    assert instr.missing == [] and spec.op.linear
    layers = spans.self_times(tracer.spans())
    assert layers["solver.linear_solve"][0] == out.newton_iterations > 0
    assert layers["operators.jacobian"][0] == 1
    assert not hasattr(solver.solve_banded, "__wrapped__")
