"""The benchmark's workloads run against the real package.

Beyond the names its tracer hooks (`tests/test_perfbench_hooks.py`),
`perfbench/workloads.py` calls `SpaceTimeField.to_grid_field()`,
`SolverPolicy()`, `run(spec, policy)`, `make_comparison_pair(base, gap)`,
`perturb_initial_data(u0, x, eps, "down")`, `GridField(x, times, values)`,
the `t_slice` of a convolution and `ALL_CRITERIA[k]`.  A change in `src/`
that broke one of them would show only when the benchmark runs.  These tests
load the workloads without changing them and run a short pass of each
through the workloads' own output checks.  The workloads also keep their own
copy of the solver's order tolerance, which must not drift from it.
"""

import importlib.util
from pathlib import Path

from ellpar import solver

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


workloads = _load_workloads()


def _item(label, fn, check):
    """The runner's item callback, strict: a raise or a failed check fails
    the test."""
    res = fn()
    assert check(res), f"{label}: output check failed"
    return res


def test_ensemble_warmup_and_one_pair(tmp_path):
    wl = workloads.Ensemble(1, str(tmp_path))
    wl.warmup(_item)
    wl.draws = wl.draws[:1]
    wl.run_pass(_item)


def test_solve_warmup_one_job_of_each_command_and_every_check(tmp_path):
    # the pass also runs every Certify (criteria) and Regularize (Xi_r) item
    wl = workloads.Solve(1, str(tmp_path))
    wl.warmup(_item)
    wl.jobs = [next(job for job in wl.jobs if job[0].startswith(command))
               for command in ("solve.", "sweep-n.")]
    wl.run_pass(_item)


def test_the_order_tolerance_is_the_solvers():
    # the ensemble's ordered-pair check gates on this copy
    assert workloads.ORDER_TOL == solver.ORDER_TOL
