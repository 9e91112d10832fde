"""The two benchmark workloads.

Each workload builds its inputs once (set-up) and then runs a fixed item list
per pass.  ``run_pass(item)`` hands every item to the runner's ``item``
callback as ``item(label, fn, check)``: the runner times ``fn()``, then calls
``check(result)`` outside the timed region, and counts a raise or a False
check as a failed item.  ``warmup(item)`` runs the items that fill lazy
imports the same way before timing starts.

The program is always called through module attributes (``solver.run``, not a
name imported from it), so the tracer's wrappers see every call.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
from dataclasses import replace

import numpy as np

from ellpar import cli, harness, regularize, solver

ORDER_TOL = 1e-9


# ---------------------------------------------------------------------------
# ensemble: the comparison traffic of acceptance criterion 6
# ---------------------------------------------------------------------------

class Ensemble:
    """Ordered pairs on the jump scenario; each item is one ``solver.run``."""

    name = "ensemble"
    seeded = True
    PAIRS = 30

    def __init__(self, seed, out_dir):
        self.base = harness.make_jump_scenario(grid=401, n=32, T=1.0, dt=2.5e-3)
        self.policy = solver.SolverPolicy()
        rng = np.random.default_rng(seed)
        # (gap, eps_dn) per pair, the same draws as criterion 6 makes
        self.draws = [(float(rng.uniform(0.02, 0.08)), float(rng.uniform(0.02, 0.08)))
                      for _ in range(self.PAIRS)]

    def _pair_specs(self, gap, eps_dn):
        spec = self.base.spec
        x = spec.nodes()
        u0 = spec.initial_values()
        lower = replace(spec, u0=solver.perturb_initial_data(u0, x, eps_dn, "down"))
        _, upper = harness.make_comparison_pair(self.base, gap)
        return lower, upper.spec

    def warmup(self, item):
        lower, _ = self._pair_specs(*self.draws[0])
        item("warmup", lambda: solver.run(lower, self.policy),
             lambda r: r.extinction_time is not None)

    def run_pass(self, item):
        for k, (gap, eps_dn) in enumerate(self.draws):
            specs = []

            def run_lower():
                # building the pair is part of the lower item, so that all
                # of a pass's time is item time
                specs[:] = self._pair_specs(gap, eps_dn)
                return solver.run(specs[0], self.policy)

            rl = item(f"pair{k}.lower", run_lower,
                      lambda r: r.extinction_time is not None)
            item(f"pair{k}.upper", lambda: solver.run(specs[1], self.policy),
                 lambda ru: rl is not None
                 and float(np.min(ru.values - rl.values)) >= -ORDER_TOL)


# ---------------------------------------------------------------------------
# solve: the user path -- command-line solves, then the verification toolkit
# ---------------------------------------------------------------------------

OPERATORS = {
    "trace": [],
    "pucci-plus": [],
    "pucci-minus": [],
    "divergence": ["psi.kind = polynomial", "psi.coeffs = 1.0, 2.0"],
}
# name: (geometry.kind, lo, hi, g.lo, g.hi, n_dim)
GEOMETRIES = {
    "interval": ("interval", -1.0, 1.0, -1.0, -1.0, 1),
    # g.lo = 0.5 on the inner circle keeps a positive phase forever
    "annulus": ("radial-annulus", 0.2, 1.0, 0.5, -1.0, 3),
    "ball": ("radial-ball-punctured", 0.05, 1.0, -1.0, -1.0, 3),
}
B_CHOICES = {"s+": [], "b64": ["b.n = 64"]}
GRIDS = (801, 1601)
SOLVE_T = 0.06
SWEEP_N = "4,8,16,32,64"


def _config_text(op, geom, b, grid):
    kind, lo, hi, glo, ghi, n_dim = GEOMETRIES[geom]
    lines = [
        f"op.kind = {op}", "op.lambda = 1.0", "op.Lambda = 2.0", f"op.n_dim = {n_dim}",
        f"geometry.kind = {kind}", f"grid.lo = {lo}", f"grid.hi = {hi}",
        f"grid.n = {grid}", f"g.lo = {glo}", f"g.hi = {ghi}",
        f"time.T = {SOLVE_T}", "time.dt = 2.5e-3", "b.kind = positive-part",
        "u0.kind = jump",
    ] + OPERATORS[op] + B_CHOICES[b]
    return "\n".join(lines) + "\n"


def sha256_of(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Solve:
    """``ellpar solve`` and ``ellpar sweep-n`` on generated config files,
    then the checks a user runs on the results: acceptance criteria 1-5 and
    11 (``Certify``) and the Xi_r regularization pipeline (``Regularize``).
    The two toolkits share one workload with the solves so that each run
    can measure longer; see README.md."""

    name = "solve"
    seeded = False

    def __init__(self, seed, out_dir):
        cfg_dir = os.path.join(out_dir, "configs")
        os.makedirs(cfg_dir, exist_ok=True)
        self.jobs = []  # (label, argv, output directory)
        for op, geom, b, grid in itertools.product(OPERATORS, GEOMETRIES, B_CHOICES, GRIDS):
            label = f"solve.{op}.{geom}.{b}.{grid}"
            path = os.path.join(cfg_dir, label + ".cfg")
            with open(path, "w") as fh:
                fh.write(_config_text(op, geom, b, grid))
            dest = os.path.join(out_dir, "runs", label)
            self.jobs.append((label, ["solve", "--config", path, "--out", dest], dest))
        for op in OPERATORS:
            label = f"sweep-n.{op}.interval"
            path = os.path.join(cfg_dir, f"solve.{op}.interval.s+.801.cfg")
            dest = os.path.join(out_dir, "runs", label)
            self.jobs.append((label, ["sweep-n", "--config", path, "--n", SWEEP_N,
                                      "--out", dest], dest))
        self.hashes = {}  # label -> {file: sha256}, from the first pass
        self.certify = Certify()
        self.regularize = Regularize()

    def _check(self, label, code, dest):
        if code != 0:
            return False
        files = sorted(os.listdir(dest))
        if label.startswith("solve."):
            with open(os.path.join(dest, "summary.json")) as fh:
                mp = json.load(fh)["max_principle"]
            if min(mp["lower_margin"], mp["upper_margin"]) < -ORDER_TOL:
                return False
        elif "convergence.json" not in files:
            return False
        digest = {f: sha256_of(os.path.join(dest, f)) for f in files}
        # the same input must give byte-identical files in every pass
        return self.hashes.setdefault(label, digest) == digest

    def warmup(self, item):
        label, argv, dest = self.jobs[0]
        item("warmup", lambda: _quiet_main(argv), lambda code: code == 0)
        # criterion 11 loads the scipy integrators and root finders
        item("warmup.criterion_11", harness.ALL_CRITERIA[11], lambda res: res.passed)

    def run_pass(self, item):
        for label, argv, dest in self.jobs:
            item(label, lambda: _quiet_main(argv),
                 lambda code: self._check(label, code, dest))
        self.certify.run_pass(item)
        self.regularize.run_pass(item)


# ---------------------------------------------------------------------------
# items of solve: the Xi_r convolutions, no timed solver work
# ---------------------------------------------------------------------------

PAIR_RADII = (0.01, 0.02)
ENVELOPE_RADII = (0.01, 0.02, 0.04)
BALL_RADII = (0.05, 0.1, 0.2, 0.3)


def _dominates(conv, fld, sense):
    base = fld.values[conv.t_slice, conv.x_slice]
    ok = np.all(conv.values >= base) if sense == "sup" else np.all(conv.values <= base)
    return bool(ok and np.array_equal(fld.values.ravel()[conv.dual_index], conv.values))


class Regularize:
    """Comparison-proof pipeline (criterion 10) on a solver pair, the
    indicator-ball field at wide radii, and essential envelopes."""

    def __init__(self):
        base = harness.make_jump_scenario(grid=801, n=32, T=0.3)
        lo, up = harness.make_comparison_pair(base, 0.5)
        self.lower = solver.run(lo.spec, solver.SolverPolicy()).to_grid_field()
        self.upper = solver.run(up.spec, solver.SolverPolicy()).to_grid_field()
        x = np.linspace(-1.0, 1.0, 161)
        ts = np.linspace(0.0, 1.0, 161)
        X, T = np.meshgrid(x, ts)
        ball = np.where((np.abs(X) <= 0.3) & (np.abs(T - 0.5) <= 0.2), 1.0, -1.0)
        self.ball = regularize.GridField(x, ts, ball)
        self.neg_ball = regularize.GridField(x, ts, -ball)
        self.envelope_sets = [(self.ball, (0.05, 0.1)), (self.ball, (0.1, 0.2, 0.3)),
                              (self.lower, ENVELOPE_RADII)]

    def _pair(self, r):
        Z = regularize.sup_convolve(self.lower, r)
        W = regularize.inf_convolve(self.upper, r)
        cross = regularize.crossing_time(Z, W)
        regularize.interior_ball_check(Z, "Z>=0")
        return Z, W, cross

    def _check_pair(self, r, res):
        Z, W, cross = res
        ok = _dominates(Z, self.lower, "sup") and _dominates(W, self.upper, "inf")
        # the pair is separated enough for no crossing only at the narrowest r
        return ok and (cross.t0 is None if r == PAIR_RADII[0] else True)

    def _indicator(self, r):
        Z = regularize.sup_convolve(self.ball, r)
        W = regularize.inf_convolve(self.ball, r)
        D = regularize.sup_convolve(self.neg_ball, r)
        return Z, W, D, regularize.interior_ball_check(Z, "Z>=0")

    def _check_indicator(self, res):
        Z, W, D, rep = res
        return (_dominates(Z, self.ball, "sup") and _dominates(W, self.ball, "inf")
                and np.array_equal(W.values, -D.values) and rep.violations == 0)

    @staticmethod
    def _check_envelopes(fld, res):
        up, lo, cand = res
        return bool(np.all(up.values >= fld.values) and np.all(lo.values <= fld.values)
                    and np.array_equal(cand.values, fld.values))

    def run_pass(self, item):
        for r in PAIR_RADII:
            item(f"pair.r{r}", lambda: self._pair(r),
                 lambda res: self._check_pair(r, res))
        for r in BALL_RADII:
            item(f"ball.r{r}", lambda: self._indicator(r), self._check_indicator)
        for k, (fld, radii) in enumerate(self.envelope_sets):
            item(f"envelopes.{k}", lambda: regularize.essential_envelopes(fld, radii),
                 lambda res: self._check_envelopes(fld, res))


# ---------------------------------------------------------------------------
# items of solve: the verification toolkit, no time stepping
# ---------------------------------------------------------------------------

class Certify:
    """Acceptance criteria 1, 2, 3, 4, 5 and 11, one item each."""

    CRITERIA = (1, 2, 3, 4, 5, 11)

    def __init__(self):
        self.criteria = [(k, harness.ALL_CRITERIA[k]) for k in self.CRITERIA]

    def run_pass(self, item):
        for k, fn in self.criteria:
            item(f"criterion_{k}", fn, lambda res: res.passed)


WORKLOADS = {w.name: w for w in (Ensemble, Solve)}
