"""In-process span tracer for the ellpar benchmark.

The tracer replaces module attributes of the ``ellpar`` package with timing
wrappers, so the program itself is not edited.  Each call becomes a span
(name, start, end, parent) kept in compact arrays for one pass.  A
layer's self time is its span's duration minus the time its child spans
cover.  Counts that the spans alone cannot give (iterations, samples, bytes)
are taken at the same boundaries by small hooks that read the call's
arguments or result.

A hook whose target attribute no longer exists (for example a private helper
renamed by a later change) is skipped; the metrics that need it are left out
of the report and a note names the missing attribute.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from array import array
from collections import defaultdict


class Tracer:
    """Span store plus per-pass counters."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.stack = []
        self.counters = defaultdict(int)
        self.state = {}
        self.reset()

    def reset(self):
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("l")
        self.stack.clear()
        self.counters.clear()
        self.state.clear()

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        idx = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(nid)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def parent_name(self, idx):
        p = self.parent[idx]
        return self.names[self.name[p]] if p >= 0 else None

    def duration(self, idx):
        return self.end[idx] - self.start[idx]

    def spans(self):
        """(name, start, end, parent) tuples, in the order spans opened."""
        return [(self.names[n], s, e, p) for n, s, e, p in
                zip(self.name, self.start, self.end, self.parent)]


def self_times(spans):
    """Per-name (calls, self seconds, inclusive seconds) from
    (name, start, end, parent) spans.

    Spans come from one thread, so the children of a span never overlap and
    the time they cover is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        calls, self_s, incl = out.get(name, (0, 0.0, 0.0))
        dur = end - start
        out[name] = (calls + 1, self_s + dur - child[i], incl + dur)
    return out


# ---------------------------------------------------------------------------
# hooks: (module, attribute, span name, post hook, error hook)
# ---------------------------------------------------------------------------

def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _post_run(tr, idx, fn, args, kwargs, res):
    c = tr.counters
    c["solver.runs"] += 1
    c["program.newton_iters"] += res.newton_iterations
    c["program.steps"] += res.steps
    c["solver.stored_mb"] += res.values.size * 8 / 1e6


def _post_advance(tr, idx, fn, args, kwargs, res):
    # _advance recurses when it substeps; count only the macro step
    if tr.parent_name(idx) == "solver.advance":
        return
    _, iters, steps = res
    c = tr.counters
    c["solver.newton_iters"] += iters
    c["solver.steps"] += steps
    c["solver.macro_steps"] += 1


def _err_step(tr, idx, fn, args, kwargs, exc):
    if type(exc).__name__ == "NewtonFailure":
        tr.counters["solver.newton_failures"] += 1


def _post_stencil(tr, idx, fn, args, kwargs, res):
    tr.state["stencil_points"] = len(res)


def _post_convolve(tr, idx, fn, args, kwargs, res):
    c = tr.counters
    dur = tr.duration(idx)
    c["regularize.convolve.incl_s"] += dur
    if _bound(fn, args, kwargs)["r"] <= 0.04 + 1e-12:
        c["regularize.convolve.narrow_s"] += dur
    else:
        c["regularize.convolve.wide_s"] += dur
    points = tr.state.pop("stencil_points", None)
    if points is not None:
        c["regularize.convolve.samples"] += res.values.size * points


def _post_ball(tr, idx, fn, args, kwargs, res):
    tr.counters["regularize.ball_check.checked"] += res.checked


def _post_verify(tr, idx, fn, args, kwargs, res):
    tr.counters["barriers.verify.samples"] += _bound(fn, args, kwargs)["samples"]


def _post_csv(tr, idx, fn, args, kwargs, res):
    path = next(iter(_bound(fn, args, kwargs).values()))
    tr.counters["cli.write_csv.mb"] += os.path.getsize(path) / 1e6


HOOKS = [
    ("nonlinearity", "b_eval", "nonlinearity.b", None, None),
    ("nonlinearity", "b_derivative", "nonlinearity.b_prime", None, None),
    ("nonlinearity", "bn_eval", "nonlinearity.bn", None, None),
    ("nonlinearity", "bn_derivative", "nonlinearity.bn_prime", None, None),
    ("nonlinearity", "psi_eval", "nonlinearity.psi", None, None),
    ("nonlinearity", "psi_derivative", "nonlinearity.psi_prime", None, None),
    ("operators", "apply_operator_1d", "operators.apply", None, None),
    ("operators", "operator_jacobian_1d", "operators.jacobian", None, None),
    ("operators", "operator_full_eval", "operators.full_eval", None, None),
    ("solver", "run", "solver.run", _post_run, None),
    ("solver", "_advance", "solver.advance", _post_advance, None),
    ("solver", "step_parabolic", "solver.step", None, _err_step),
    ("solver", "solve_elliptic", "solver.elliptic", None, None),
    ("solver", "_front_locations", "solver.front", None, None),
    ("solver", "solve_banded", "solver.linear_solve", None, None),
    ("solver", "perturb_initial_data", "harness.scenario.perturb", None, None),
    ("harness", "make_jump_scenario", "harness.scenario.jump", None, None),
    ("harness", "make_comparison_pair", "harness.scenario.pair", None, None),
    ("regularize", "sup_convolve", "regularize.convolve", _post_convolve, None),
    ("regularize", "inf_convolve", "regularize.convolve", _post_convolve, None),
    ("regularize", "_xi_stencil", "regularize.stencil", _post_stencil, None),
    ("regularize", "crossing_time", "regularize.crossing", None, None),
    ("regularize", "interior_ball_check", "regularize.ball_check", _post_ball, None),
    ("regularize", "essential_envelopes", "regularize.envelopes", None, None),
    ("geometry", "xi_contains", "geometry.xi_contains", None, None),
    ("geometry", "harnack_chain", "geometry.harnack_chain", None, None),
    ("geometry", "harnack_chain_k_bound", "geometry.harnack_k_bound", None, None),
    ("barriers", "critical_radius", "barriers.solve", None, None),
    ("barriers", "solve_radial_barrier", "barriers.solve", None, None),
    ("barriers", "solve_logdiv_barrier", "barriers.solve", None, None),
    ("barriers", "verify_subsolution_margin", "barriers.verify", _post_verify, None),
    ("config", "parse_config", "config.parse", None, None),
    ("config", "load_config", "config.parse", None, None),
    ("config", "problem_from_config", "config.parse", None, None),
    ("cli", "write_field_csv", "cli.write_csv", _post_csv, None),
    ("cli", "_write_front_csv", "cli.write_csv", _post_csv, None),
]

# metrics that cannot be computed without a given hook
NEEDS = {
    "solver._advance": ["solver.steps", "solver.substeps", "solver.newton_iters",
                        "solver.newton_iters_per_step"],
    "solver.run": ["solver.runs", "solver.stored_mb"],
    "regularize._xi_stencil": ["regularize.convolve.samples",
                               "regularize.convolve.ns_per_sample"],
}


def _wrap(tracer, fn, span, post, on_error):
    nid = tracer.name_id(span)

    def wrapper(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            res = fn(*args, **kwargs)
        except Exception as exc:
            tracer.close(idx)
            if on_error is not None:
                on_error(tracer, idx, fn, args, kwargs, exc)
            raise
        tracer.close(idx)
        if post is not None:
            post(tracer, idx, fn, args, kwargs, res)
        return res

    wrapper.__wrapped__ = fn
    return wrapper


class Instrumentation:
    """Installs the hooks into every ``<package>.*`` module that binds a
    hooked function, and restores the originals on ``remove``."""

    def __init__(self, tracer, package="ellpar", hooks=HOOKS):
        self.tracer = tracer
        self.package = package
        self.hooks = hooks
        self.missing = []
        self._saved = []

    def _modules(self):
        pre = self.package + "."
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(pre))]

    def install(self):
        modules = self._modules()
        for mod_name, attr, span, post, on_error in self.hooks:
            home = sys.modules.get(f"{self.package}.{mod_name}")
            fn = getattr(home, attr, None) if home is not None else None
            if fn is None or not callable(fn):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = _wrap(self.tracer, fn, span, post, on_error)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._saved.append((m, key, val))
                        setattr(m, key, wrapper)
        return self

    def remove(self):
        for m, key, val in reversed(self._saved):
            setattr(m, key, val)
        self._saved.clear()

    def absent_metrics(self):
        out = {}
        for hook in self.missing:
            for metric in NEEDS.get(hook, []):
                out[metric] = f"hook {self.package}.{hook} not found"
        return out


def layer_metrics(tracer, item_prefix="item."):
    """Per-layer metrics of one pass from the tracer's spans and counters."""
    agg = self_times(tracer.spans())
    c = tracer.counters

    def calls(*names, prefix=None):
        return sum(v[0] for k, v in agg.items()
                   if k in names or (prefix and k.startswith(prefix)))

    def self_s(*names, prefix=None):
        return sum(v[1] for k, v in agg.items()
                   if k in names or (prefix and k.startswith(prefix)))

    def ratio(a, b):
        return a / b if b else 0.0

    steps = c["solver.steps"]
    newton_calls = calls("solver.step", "solver.elliptic")
    samples = c["regularize.convolve.samples"]
    m = {
        "nonlinearity.calls": calls(prefix="nonlinearity."),
        "nonlinearity.self_s": self_s(prefix="nonlinearity."),
        "operators.apply.calls": calls("operators.apply"),
        "operators.apply.self_s": self_s("operators.apply"),
        "operators.jacobian.calls": calls("operators.jacobian"),
        "operators.jacobian.self_s": self_s("operators.jacobian"),
        "operators.full_eval.calls": calls("operators.full_eval"),
        "operators.full_eval.self_s": self_s("operators.full_eval"),
        "solver.runs": c["solver.runs"],
        "solver.steps": steps,
        "solver.substeps": steps - c["solver.macro_steps"],
        "solver.newton_iters": c["solver.newton_iters"],
        "solver.newton_failures": c["solver.newton_failures"],
        "solver.newton_iters_per_step": ratio(c["solver.newton_iters"], steps),
        # one residual per Newton solve to start, then one per iteration
        # plus every line-search trial
        "solver.residuals_per_iter": ratio(
            calls("operators.apply") - newton_calls, calls("operators.jacobian")),
        "solver.run.self_s": self_s("solver.run"),
        "solver.step.self_s": self_s("solver.step"),
        "solver.front.self_s": self_s("solver.front"),
        "solver.stored_mb": c["solver.stored_mb"],
        "solver.linear_solve.calls": calls("solver.linear_solve"),
        "solver.linear_solve.self_s": self_s("solver.linear_solve"),
        "regularize.convolve.calls": calls("regularize.convolve"),
        "regularize.convolve.samples": samples,
        "regularize.convolve.ns_per_sample": ratio(
            c["regularize.convolve.incl_s"] * 1e9, samples),
        "regularize.convolve.narrow_s": c["regularize.convolve.narrow_s"],
        "regularize.convolve.wide_s": c["regularize.convolve.wide_s"],
        "regularize.ball_check.self_s": self_s("regularize.ball_check"),
        "regularize.ball_check.checked": c["regularize.ball_check.checked"],
        "regularize.envelopes.self_s": self_s("regularize.envelopes"),
        "regularize.crossing.self_s": self_s("regularize.crossing"),
        "geometry.xi_contains.calls": calls("geometry.xi_contains"),
        "geometry.self_s": self_s(prefix="geometry."),
        "barriers.solve.self_s": self_s("barriers.solve"),
        "barriers.verify.self_s": self_s("barriers.verify"),
        "barriers.verify.samples": c["barriers.verify.samples"],
        "harness.scenario.self_s": self_s(prefix="harness.scenario."),
        "config.parse.self_s": self_s("config.parse"),
        "cli.write_csv.self_s": self_s("cli.write_csv"),
        "cli.write_csv.mb": c["cli.write_csv.mb"],
    }
    for k in (1, 2, 3, 4, 5, 11):
        rec = agg.get(f"{item_prefix}criterion_{k}")
        m[f"harness.criterion_{k}_s"] = rec[2] if rec else 0.0
    return m


# counts that must repeat exactly from pass to pass and run to run
EXACT = [
    "nonlinearity.calls", "operators.apply.calls", "operators.jacobian.calls",
    "operators.full_eval.calls", "solver.runs", "solver.steps", "solver.substeps",
    "solver.newton_iters", "solver.newton_failures", "solver.linear_solve.calls",
    "regularize.convolve.calls", "regularize.convolve.samples",
    "regularize.ball_check.checked", "geometry.xi_contains.calls",
    "barriers.verify.samples", "solver.stored_mb", "cli.write_csv.mb",
]


def cross_check(tracer):
    """Compare the tracer's step-level sums with the totals the program keeps
    on each SpaceTimeField.  Returns a list of mismatch messages."""
    c = tracer.counters
    bad = []
    for ours, theirs in (("solver.newton_iters", "program.newton_iters"),
                         ("solver.steps", "program.steps")):
        if c[ours] != c[theirs]:
            bad.append(f"{ours} = {c[ours]:g} but SpaceTimeField totals give "
                       f"{c[theirs]:g}")
    return bad
