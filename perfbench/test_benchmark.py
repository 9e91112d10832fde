"""Self-tests of the benchmark's own arithmetic and tracer.

    python3 -m pytest -q perfbench

They need neither numpy nor ellpar: the tracer is exercised on a stand-in
package built here.
"""

from __future__ import annotations

import statistics
import sys
import types

import pytest

import run
import spans
import summary


# ---------------------------------------------------------------------------
# tail percentile rule and order statistics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (1000, (99, True)),
    (999, (90, True)),
    (100, (90, True)),
    (99, (75, True)),
    (60, (75, True)),   # ensemble: 30 pairs, 2 runs each
    (67, (75, True)),   # solve: 52 command-line, 6 criteria, 9 convolutions
    (40, (75, True)),
    (39, (75, False)),
    (6, (75, False)),
])
def test_tail_percentile_leaves_ten_items_beyond(n, expected):
    assert summary.tail_percentile(n) == expected
    p, met = expected
    assert (n * (100 - p) // 100 >= 10) == met


def test_percentile_matches_linear_interpolation():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert summary.percentile(xs, 50) == 3.0
    assert summary.percentile(xs, 0) == 1.0
    assert summary.percentile(xs, 100) == 5.0
    assert summary.percentile(xs, 75) == 4.0
    assert summary.percentile([1.0, 2.0], 75) == pytest.approx(1.75)
    data = [float(v) for v in range(1, 12)]
    assert summary.percentile(data, 25) == statistics.quantiles(data, n=4, method="inclusive")[0]


def test_error_rate_is_never_zero_and_moves_with_one_failure():
    clean = summary.error_rate(0, 60)
    assert clean == pytest.approx(0.5 / 61)
    assert summary.error_rate(1, 60) == pytest.approx(3 * clean)
    with pytest.raises(ValueError):
        summary.error_rate(0, 0)


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # A [0, 10] -> B [1, 4] -> C [2, 3];  A -> D [5, 9]
    recorded = [("A", 0.0, 10.0, -1), ("B", 1.0, 4.0, 0), ("C", 2.0, 3.0, 1),
                ("D", 5.0, 9.0, 0)]
    agg = spans.self_times(recorded)
    assert agg["A"] == (1, 3.0, 10.0)
    assert agg["B"] == (1, 2.0, 3.0)
    assert agg["C"] == (1, 1.0, 1.0)
    assert agg["D"] == (1, 4.0, 4.0)
    total_self = sum(v[1] for v in agg.values())
    assert total_self == pytest.approx(10.0)  # self times tile the root


def test_self_time_of_recursive_spans_is_not_double_counted():
    # X [0, 8] -> X [1, 5] -> Y [2, 3]
    agg = spans.self_times([("X", 0.0, 8.0, -1), ("X", 1.0, 5.0, 0), ("Y", 2.0, 3.0, 1)])
    calls, self_s, incl = agg["X"]
    assert calls == 2
    assert self_s == pytest.approx(8.0 - 1.0)
    assert agg["Y"][1] == 1.0


# ---------------------------------------------------------------------------
# instrumentation on a stand-in package
# ---------------------------------------------------------------------------

@pytest.fixture
def fakepkg():
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def inner(v):
        return v + 1

    def outer(v):
        return core.inner(v) * 2

    def boom():
        raise RuntimeError("no")

    core.inner, core.outer, core.boom = inner, outer, boom
    user.inner = inner  # a name imported from core
    names = ("fakepkg", "fakepkg.core", "fakepkg.user")
    for name, mod in zip(names, (pkg, core, user)):
        sys.modules[name] = mod
    yield core, user
    for name in names:
        sys.modules.pop(name, None)


def test_instrumentation_wraps_every_binding_and_restores(fakepkg):
    core, user = fakepkg
    original = core.inner
    seen = []
    hooks = [
        ("core", "inner", "layer.inner",
         lambda tr, idx, fn, a, k, res: seen.append((tr.parent_name(idx), res)), None),
        ("core", "outer", "layer.outer", None, None),
        ("core", "renamed_away", "layer.gone", None, None),
    ]
    tr = spans.Tracer()
    instr = spans.Instrumentation(tr, package="fakepkg", hooks=hooks).install()
    try:
        assert user.inner is not original and user.inner is core.inner
        assert core.outer(1) == 4
        assert user.inner(5) == 6
    finally:
        instr.remove()
    assert core.inner is original and user.inner is original
    assert instr.missing == ["core.renamed_away"]
    assert seen == [("layer.outer", 2), (None, 6)]
    agg = spans.self_times(tr.spans())
    assert agg["layer.inner"][0] == 2 and agg["layer.outer"][0] == 1
    assert all(s[2] >= s[1] for s in tr.spans())


def test_raising_call_closes_its_span_and_runs_the_error_hook(fakepkg):
    core, _ = fakepkg
    errors = []
    hooks = [("core", "boom", "layer.boom", None,
              lambda tr, idx, fn, a, k, exc: errors.append(type(exc).__name__))]
    tr = spans.Tracer()
    instr = spans.Instrumentation(tr, package="fakepkg", hooks=hooks).install()
    try:
        with pytest.raises(RuntimeError):
            core.boom()
    finally:
        instr.remove()
    assert errors == ["RuntimeError"]
    assert tr.stack == [] and len(tr.spans()) == 1


def test_missing_private_hook_leaves_its_metrics_absent(fakepkg):
    instr = spans.Instrumentation(spans.Tracer(), package="fakepkg",
                                  hooks=[("solver", "_advance", "solver.advance", None, None)])
    instr.install()
    instr.remove()
    absent = instr.absent_metrics()
    assert set(absent) == set(spans.NEEDS["solver._advance"])
    assert "fakepkg.solver._advance" in absent["solver.steps"]


def test_layer_metrics_ratios_and_cross_check():
    tr = spans.Tracer()
    # one Newton solve: 3 residuals (initial, full step, one line-search
    # trial) over 2 Jacobians
    step = tr.open(tr.name_id("solver.step"))
    for name in ("operators.apply", "operators.jacobian", "operators.apply",
                 "operators.jacobian", "operators.apply"):
        tr.close(tr.open(tr.name_id(name)))
    tr.close(step)
    tr.counters.update({"solver.newton_iters": 2, "solver.steps": 1,
                        "solver.macro_steps": 1, "program.newton_iters": 2,
                        "program.steps": 1})
    m = spans.layer_metrics(tr)
    assert m["solver.residuals_per_iter"] == pytest.approx((3 - 1) / 2)
    assert m["solver.newton_iters_per_step"] == 2
    assert m["solver.substeps"] == 0
    assert spans.cross_check(tr) == []
    tr.counters["program.steps"] = 2
    assert len(spans.cross_check(tr)) == 1


# ---------------------------------------------------------------------------
# pass scheduling and error accounting of the runner
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pass_s, passes", [
    (20.0, 2),   # ends at 40 s; a third would end at 60 s, past 45 + 10
    (15.0, 3),   # ends at 45 s
    (28.0, 2),   # ends at 56 s, within half a pass of 45 s
    (50.0, 1),   # one pass longer than the budget still runs
    (6.0, 8),    # ends at 48 s; a ninth would end at 54 s, past 45 + 3
])
def test_another_pass_keeps_runs_near_the_budget(pass_s, passes):
    done = 1
    while run.another_pass(done * pass_s, done, 45.0):
        done += 1
    assert done == passes


def test_another_pass_runs_the_minimum_number_of_passes():
    assert run.another_pass(50.0, 1, 45.0, min_passes=3)
    assert run.another_pass(100.0, 2, 45.0, min_passes=3)
    assert not run.another_pass(150.0, 3, 45.0, min_passes=3)


def test_slowest_per_item_takes_each_items_worst_pass():
    passes = [[0.1, 0.5, 0.2], [0.3, 0.4, 0.2], [0.2, 0.6, 0.1]]
    assert summary.slowest_per_item(passes) == [0.3, 0.6, 0.2]
    with pytest.raises(ValueError):
        summary.slowest_per_item([[0.1, 0.2], [0.1]])


def test_end_to_end_sums_the_slowest_latencies():
    passes = []
    for lat in ([0.1, 0.5, 0.2, 0.4], [0.3, 0.4, 0.2, 0.1]):
        p = run.Pass()
        for k, x in enumerate(lat):
            p(f"i{k}", lambda x=x: x, lambda r: True)
        p.latencies[:] = lat  # replace the measured times by known ones
        passes.append((sum(lat), p))
    metrics, notes = run.end_to_end([1.0, 3.0, 2.0], passes)
    assert metrics["setup_s"] == 2.0
    assert metrics["wall_s"] == pytest.approx(0.3 + 0.5 + 0.2 + 0.4)
    # slowest latencies 0.2, 0.3, 0.4, 0.5: p50 interpolates to 0.35
    assert metrics["item_ms.p50"] == pytest.approx(350.0)
    assert metrics["error_rate"] == pytest.approx(0.5 / 5)
    assert notes["item_latency"] == "slowest of 2 runs per item"


def test_failed_items_are_counted_once_and_not_retried():
    calls = []

    def raising():
        calls.append("raise")
        raise ValueError("bad input")

    def wrong():
        calls.append("wrong")
        return 1

    p = run.Pass()
    assert p("ok", lambda: 7, lambda r: r == 7) == 7
    assert p("raises", raising, lambda r: True) is None
    assert p("fails-check", wrong, lambda r: r == 2) is None
    assert p("check-raises", lambda: 0, lambda r: 1 / r) is None
    assert calls == ["raise", "wrong"]
    assert p.attempted == 4 and len(p.latencies) == 4
    assert [f.split(":")[0] for f in p.failures] == ["raises", "fails-check", "check-raises"]
