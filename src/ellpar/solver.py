"""Implicit-Euler time integration of the regularized parabolic problems
b_n(u)_t = F(D^2 u, Du, u) on 1D intervals and radial annuli, the stationary
elliptic solver, and the singular-limit / bracketing studies.

Explicit stepping is hopeless here: the stability bound involves min b_n',
which decays like e^{-n} in the negative phase.  Every step therefore solves
the nonlinear system b_n(u) - b_n(u_prev) - dt F(u) = 0 by Newton on a
tridiagonal Jacobian (semismooth for the active coefficient selection of the
trace, Pucci and Bellman-Isaacs kinds, exact for the divergence kind), with
the full step in every iteration.  The stationary problem F(D^2 u, Du, u) = 0
is the b = 0 case of the same system (the elliptic phase is where b
vanishes), so both go through one implicit solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from .geometry import edge_zeros, window_max
from .nonlinearity import BnFamily, BSpec, b_derivative, b_eval, bn_derivative, bn_eval
from .operators import OperatorSpec, apply_operator_1d, operator_jacobian_1d
from .regularize import GridField

__all__ = [
    "Geometry",
    "ProblemSpec",
    "SolverPolicy",
    "SpaceTimeField",
    "NewtonFailure",
    "SpecError",
    "solve_elliptic",
    "step_parabolic",
    "run",
    "max_principle_bounds",
    "singular_limit_study",
    "bracket_maximal_minimal",
    "perturb_initial_data",
    "NEWTON_TOL",
    "ORDER_TOL",
]


class NewtonFailure(RuntimeError):
    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history or []


class SpecError(ValueError):
    """A Geometry or ProblemSpec that breaks one of its rules; `fields` maps
    each field the rule reads to its value, so that a reader of the spec's
    source (`config`) can name its own keys instead."""

    def __init__(self, fields: dict, rule: str):
        super().__init__(", ".join(f"{k} = {v}" for k, v in fields.items()) + f": {rule}")
        self.fields, self.rule = fields, rule


@dataclass(frozen=True)
class Geometry:
    """1D computational domain: a Cartesian interval, a radial annulus, or a
    punctured radial ball with a reflecting inner boundary."""

    kind: str = "interval"
    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self):
        if self.kind not in ("interval", "radial-annulus", "radial-ball-punctured"):
            raise SpecError({"kind": self.kind}, "unknown geometry kind")
        if not self.lo < self.hi:
            raise SpecError({"lo": self.lo, "hi": self.hi}, "need lo < hi")
        if not np.isfinite([self.lo, self.hi]).all():
            raise SpecError({"lo": self.lo, "hi": self.hi}, "need finite lo and hi")
        if self.kind.startswith("radial") and self.lo <= 0:
            raise SpecError({"kind": self.kind, "lo": self.lo}, "radial grids exclude rho = 0")

    @property
    def radial(self) -> bool:
        return self.kind.startswith("radial")

    @property
    def reflect_inner(self) -> bool:
        return self.kind == "radial-ball-punctured"


@dataclass(frozen=True)
class ProblemSpec:
    """One instance of the phase-transition problem on a 1D/radial grid."""

    geometry: Geometry
    op: OperatorSpec
    b: BSpec = field(default_factory=BSpec)
    bn: Optional[BnFamily] = None
    g_lo: Union[float, Callable[[float], float]] = -1.0
    g_hi: Union[float, Callable[[float], float]] = -1.0
    u0: Union[np.ndarray, Callable[[np.ndarray], np.ndarray], None] = None
    T: float = 1.0
    grid: int = 201
    dt: float = 2.5e-3

    def __post_init__(self):
        if self.grid < 3:
            raise SpecError({"grid": self.grid}, "need at least 3 grid nodes")
        if not (self.dt > 0 and 0 <= self.T < np.inf
                and abs(self.steps * self.dt - self.T) <= 1e-9 * max(self.T, 1.0)):
            raise SpecError({"T": self.T, "dt": self.dt},
                            "need dt > 0 and T a whole number of steps")
        if self.bn is not None and self.b.kind != "positive-part":
            # Psi(b(u)) would read the table while the time term reads b_n
            raise SpecError({"bn.n": self.bn.n, "b.kind": self.b.kind},
                            "b_n smooths the positive part only")

    @property
    def steps(self) -> int:
        return int(round(self.T / self.dt))

    def nodes(self) -> np.ndarray:
        return np.linspace(self.geometry.lo, self.geometry.hi, self.grid)

    @cached_property
    def solve_setup(self):
        """Read-only (x, bands) of every implicit solve: the grid, with a ghost
        node before node 0 on the ball, and a linear kind's L without dt
        (`_operator_bands`), else None.  The spec is frozen: it cannot go stale."""
        x = self.nodes()
        if self.geometry.reflect_inner:
            # a ghost node mirroring u[1] lets interior stencils cover node 0
            x = np.concatenate([[x[0] - (x[1] - x[0])], x])
        # L does not depend on u for a linear kind: any finite u gives its bits
        bands = _operator_bands(self, np.zeros_like(x), x) if self.op.linear else None
        for a in (x, *(bands or ())):
            a.setflags(write=False)
        return x, bands

    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt

    def boundary(self, t: float):
        glo = self.g_lo(t) if callable(self.g_lo) else self.g_lo
        ghi = self.g_hi(t) if callable(self.g_hi) else self.g_hi
        return float(glo), float(ghi)

    def dirichlet(self, t: float) -> dict:
        """The Dirichlet nodes and their data at time t, as {node index:
        value}: the outer end always, the inner end unless it reflects."""
        glo, ghi = self.boundary(t)
        return {-1: ghi} if self.geometry.reflect_inner else {0: glo, -1: ghi}

    def check_front_inside(self, u: np.ndarray) -> None:
        """Raise ValueError if u is positive next to a Dirichlet node: a
        front shifted that far has left the domain.  A reflecting inner end
        carries no data, so a positive phase may reach it."""
        if any(u[1 if i == 0 else -2] > 0 for i in self.dirichlet(0.0)):
            raise ValueError("front shift exits the domain")

    def initial_datum(self) -> np.ndarray:
        """The initial datum on the grid, as given."""
        x = self.nodes()
        if self.u0 is None:
            u = np.full_like(x, -1.0)
        else:
            # a copy: initial_values writes into it
            u = np.array(self.u0(x) if callable(self.u0) else self.u0, dtype=float)
        if u.shape != x.shape:
            raise ValueError("initial data shape does not match the grid")
        if not np.isfinite(u).all():
            raise ValueError("initial data must be finite")
        return u

    def initial_values(self) -> np.ndarray:
        """The initial datum with the Dirichlet data at t = 0 written over
        the Dirichlet nodes."""
        u = self.initial_datum()
        for i, g in self.dirichlet(0.0).items():
            u[i] = g
        return u

    def b_pair(self):
        """(value, derivative) callables of the time nonlinearity in use."""
        if self.bn is not None:
            fam = self.bn
            return (lambda s: bn_eval(fam, s)), (lambda s: bn_derivative(fam, s))
        bspec = self.b
        return (lambda s: b_eval(bspec, s)), (lambda s: b_derivative(bspec, s))


NEWTON_TOL = 1e-10  # Newton residual tolerance (max norm)
# slack of the discrete maximum and comparison principles: how far a step may
# leave its max-principle bounds, an ordered pair its order, and a bracket's
# runs their nesting
ORDER_TOL = 1e-9


@dataclass
class SolverPolicy:
    max_iters: int = 40  # Newton iterations per implicit solve
    max_substep_depth: int = 20


@dataclass
class SpaceTimeField(GridField):
    """A run: the sampled field u(t_k, x_i) with its fronts and counts."""

    fronts: list  # per time level, list of zero-crossing locations
    extinction_time: Optional[float]
    newton_iterations: int = 0  # over the solved steps
    steps: int = 0  # solved steps, substeps included
    repeated_steps: int = 0  # macro steps filled from a fixed point

    def to_grid_field(self):
        """The run itself, which is a GridField.  Kept only because the
        benchmark's workloads (perfbench/workloads.py) call it."""
        return self


def solve_banded(lower, diag, upper, rhs):
    """Solve the tridiagonal system with bands lower[1:], diag and upper[:-1]
    by LAPACK gtsv, the routine scipy's solve_banded((1, 1), ...) runs, so
    the solution is bit-equal to scipy's and no argument is written to.  A
    non-finite entry that the matrix reads, or one in rhs, is a ValueError,
    and a zero pivot a LinAlgError, each with scipy's message.

    It keeps scipy's name because the benchmark's solver.linear_solve hook
    (perfbench/spans.py) wraps this module attribute by that name, until
    the benchmark moves the hook; _implicit_solve calls it through the
    module global, so the hook sees every call."""
    dl, du = lower[1:], upper[:-1]
    if not all(np.isfinite(a).all() for a in (dl, diag, du, rhs)):
        raise ValueError("array must not contain infs or NaNs")
    # f2py rejects empty off-diagonals; gtsv reads none when n = 1
    _, _, _, x, info = dgtsv(dl if dl.size else lower, diag, du if du.size else upper, rhs)
    if info > 0:
        raise LinAlgError("singular matrix")
    return x


def _operator_bands(spec: ProblemSpec, ext, x):
    """Bands (lower, diag, upper) of the operator matrix L at ext on the
    grid x; on the ball, ghost = u[1] folds into the first superdiagonal."""
    lower, diag, upper = operator_jacobian_1d(spec.op, ext, x, spec.b, spec.geometry.radial)
    if spec.geometry.reflect_inner:
        upper[0] += lower[0]
        lower[0] = 0.0
    return lower, diag, upper


def _implicit_solve(spec: ProblemSpec, u_prev, t, dt, bval, bder,
                    policy: SolverPolicy):
    """Solve b(u) - b(u_prev) - dt F(u) = 0 at the free nodes by Newton from
    u_prev, with the Dirichlet data at t; returns (u, newton_iterations).
    Every iteration takes the full step u + J^{-1}(-r).  A linear kind's
    part -dt L of J is scaled once per solve from the spec's L, other
    kinds' assembled at each iterate.  A non-finite residual raises
    NewtonFailure before the next linear solve, as does a residual max-norm
    above NEWTON_TOL after policy.max_iters iterations; either carries the
    residual history, and `_advance` then splits the time step in two.

    Where b is convex, F linear or concave (the trace and Pucci-minus kinds,
    and the divergence kind with constant Psi) and the scheme monotone, the
    residual is a convex M-function, on which the full step converges
    monotonically from any start (Ortega and Rheinboldt 1970, 13.3; Howard's
    algorithm in Bokanowski, Maroso and Zidani 2009).  For Pucci-plus, the
    Bellman-Isaacs kind and non-constant Psi the rule rests on measurement,
    with the iteration budget and `_advance`'s substeps as its net.
    """
    x, linear_bands = spec.solve_setup
    reflect = spec.geometry.reflect_inner
    radial = spec.geometry.radial
    bc = spec.dirichlet(t)
    free = slice(1 if 0 in bc else 0, -1)
    u = u_prev.copy()
    for i, g in bc.items():
        u[i] = g

    ext = np.concatenate([u[1:2], u]) if reflect else u
    frozen = [band * -dt for band in linear_bands] if linear_bands else None
    # Newton starts at u_prev's free nodes, where b(u) is b_prev (b is elementwise)
    b_prev = bu = np.asarray(bval(u_prev))[free]
    hist = []
    for it in range(policy.max_iters + 1):
        r = apply_operator_1d(spec.op, ext, x, spec.b, radial=radial)
        r *= dt
        np.subtract(bu - b_prev, r, out=r)
        norm = float(np.abs(r).max())
        hist.append(norm)
        if norm <= NEWTON_TOL:
            return u, it
        if not np.isfinite(norm):
            raise NewtonFailure("non-finite residual", hist)
        if it == policy.max_iters:
            break
        lower, diag, upper = frozen or [band * -dt for band in _operator_bands(spec, ext, x)]
        u[free] += solve_banded(lower, np.asarray(bder(u[free])) + diag, upper, -r)
        ext = np.concatenate([u[1:2], u]) if reflect else u
        bu = np.asarray(bval(u[free]))
    raise NewtonFailure("no convergence within the iteration budget", hist)


def solve_elliptic(spec: ProblemSpec) -> np.ndarray:
    """Stationary solve F(D^2 u, Du, u) = 0 with the Dirichlet data at t = 0:
    the implicit system with b = 0 and dt = 1, by Newton from the affine
    interpolant of the data to residual 1e-10."""
    x = spec.nodes()
    glo, ghi = spec.boundary(0.0)
    start = glo + (ghi - glo) * (x - x[0]) / (x[-1] - x[0])
    u, _ = _implicit_solve(spec, start, 0.0, 1.0, np.zeros_like, np.zeros_like,
                           SolverPolicy())
    return u


def step_parabolic(spec: ProblemSpec, u_prev: np.ndarray, t_next: float,
                   dt: float, policy: Optional[SolverPolicy] = None):
    """One implicit Euler step: solve b(u) - b(u_prev) = dt F(u) nodewise with
    the Dirichlet data at t_next.  Returns (u, newton_iterations)."""
    if not 0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    bval, bder = spec.b_pair()
    return _implicit_solve(spec, u_prev, t_next, dt, bval, bder,
                           policy or SolverPolicy())


def _front_locations(x, values):
    """Zero crossings of each row of values (n_times, n_x), one list of
    floats per time level: the zero of the linear interpolant on every edge
    with u[i] == 0 or u[i] u[i+1] < 0, then x[-1] if the last node is zero."""
    # a zero column past the end: its edge is hit only at a zero last node
    u = np.pad(values, ((0, 0), (0, 1)))
    a, b = u[:, :-1], u[:, 1:]
    rows, i = np.nonzero((a == 0.0) | (a * b < 0))
    flat = edge_zeros(np.append(x, x[-1]), i, a[rows, i], b[rows, i]).tolist()
    bounds = np.searchsorted(rows, np.arange(len(values) + 1)).tolist()
    return [flat[s:e] for s, e in zip(bounds, bounds[1:])]


def max_principle_bounds(spec: ProblemSpec, u, t):
    """Bounds (lo, hi) that the maximum principle puts on a step from u to
    time t: the range of u and of the Dirichlet data at t (a reflecting
    inner boundary has none), widened to include 0 from above."""
    g = spec.dirichlet(t).values()
    return (min(float(u.min()), min(g)),
            max(float(u.max()), max(g), 0.0))


def _advance(spec, u, t, dt, policy, depth=0):
    """Advance one macro step of size dt, recursively substepping on Newton
    failure or a max-principle violation.  The underflow error names the last
    rejection: a Newton failure, with its history, or the bounds and excess."""
    failure = None
    try:
        u_new, iters = step_parabolic(spec, u, t + dt, dt, policy)
        lo, hi = max_principle_bounds(spec, u, t + dt)
        if u_new.min() >= lo - ORDER_TOL and u_new.max() <= hi + ORDER_TOL:
            return u_new, iters, 1
        cause = (f"the step leaves its max-principle bounds ({lo}, {hi}) by "
                 f"{max(lo - u_new.min(), u_new.max() - hi)}")
    except NewtonFailure as exc:
        failure, cause = exc, str(exc)
    if depth >= policy.max_substep_depth:
        raise NewtonFailure(f"time step underflow at t = {t}: {cause}",
                            failure.history if failure else None) from failure
    u_half, it1, s1 = _advance(spec, u, t, dt / 2, policy, depth + 1)
    u_new, it2, s2 = _advance(spec, u_half, t + dt / 2, dt / 2, policy, depth + 1)
    return u_new, it1 + it2, s1 + s2


def run(spec: ProblemSpec, policy: Optional[SolverPolicy] = None) -> SpaceTimeField:
    """Integrate to the horizon on the macro time grid t_k = k dt, recording
    every step's field, the free-boundary locations and the extinction time
    (the first time with max u < 0).

    With constant boundary data a macro step depends on u alone, so one that
    returns u unchanged with no Newton iteration and no substep is a fixed
    point: every later step would repeat it bit for bit.  The remaining rows
    are filled with it instead of being solved.  `steps` and
    `newton_iterations` count the solved steps, `repeated_steps` the filled
    ones."""
    policy = policy or SolverPolicy()
    x = spec.nodes()
    n_steps = spec.steps
    times = spec.times()
    values = np.empty((n_steps + 1, x.size))
    values[0] = u = spec.initial_values()
    constant_data = not (callable(spec.g_lo) or callable(spec.g_hi))
    total_iters = 0
    total_steps = 0
    solved = n_steps
    for k in range(n_steps):
        u_next, iters, steps = _advance(spec, u, k * spec.dt, spec.dt, policy)
        values[k + 1] = u_next
        total_iters += iters
        total_steps += steps
        if constant_data and iters == 0 and steps == 1 and np.array_equal(u_next, u):
            solved = k + 1
            values[solved + 1:] = u_next
            break
        u = u_next
    fronts = _front_locations(x, values[:solved + 1])
    fronts += [list(fronts[-1]) for _ in range(n_steps - solved)]
    extinct = values[:solved + 1].max(axis=1) < 0.0
    extinction = float(times[np.argmax(extinct)]) if extinct.any() else None
    return SpaceTimeField(x=x, times=times, values=values, fronts=fronts,
                          extinction_time=extinction,
                          newton_iterations=total_iters, steps=total_steps,
                          repeated_steps=n_steps - solved)


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

def _probe_rows(spec: ProblemSpec, probe_times):
    """The probe times of a study (T/4, T/2 and 3T/4 unless given) and the
    index of the stored time level nearest to each.  A probe time more than
    half a step outside [0, T] is a ValueError."""
    if probe_times is None:
        probe_times = [0.25 * spec.T, 0.5 * spec.T, 0.75 * spec.T]
    probe_times = list(probe_times)
    for pt in probe_times:
        if not -0.5 * spec.dt <= pt <= spec.T + 0.5 * spec.dt:
            raise ValueError(f"probe time {pt} is outside [0, T] = [0, {spec.T}]")
    times = spec.times()
    return probe_times, [int(np.argmin(np.abs(times - pt))) for pt in probe_times]


@dataclass
class SingularLimitReport:
    n_list: list
    probe_times: list
    pairwise_sup: list  # sup distance between successive n at probe times
    extinction_times: list
    extinction_gaps: list


def singular_limit_study(spec: ProblemSpec, n_list: Sequence[int],
                         probe_times: Optional[Sequence[float]] = None) -> SingularLimitReport:
    """Run the problem for each smoothing index on a fixed grid and report
    successive sup-norm distances at probe times plus extinction diagnostics."""
    n_list = list(n_list)
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("need at least 3 strictly increasing smoothing indices")
    probe_times, probe_idx = _probe_rows(spec, probe_times)
    runs = [run(replace(spec, bn=BnFamily(n))) for n in n_list]
    pairwise = []
    for a, b in zip(runs, runs[1:]):
        d = [float(np.max(np.abs(a.values[j] - b.values[j]))) for j in probe_idx]
        pairwise.append(max(d))
    ext = [r.extinction_time for r in runs]
    gaps = [abs(b - a) if a is not None and b is not None else None
            for a, b in zip(ext, ext[1:])]
    return SingularLimitReport(n_list=n_list, probe_times=probe_times,
                               pairwise_sup=pairwise, extinction_times=ext,
                               extinction_gaps=gaps)


def perturb_initial_data(u0: np.ndarray, x: np.ndarray, eps: float,
                         direction: str, lift_factor: float = 0.1) -> np.ndarray:
    """Outward front shift by eps via a running window extremum, plus a value
    lift of lift_factor * eps.

    direction "up" builds data strictly above u0; "down" strictly below;
    any other direction is a ValueError.
    The Dirichlet nodes keep no special value here: a run takes them from
    the boundary data (`ProblemSpec.initial_values`).
    """
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite: eps = {eps}")
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down', not {direction!r}")
    h = x[1] - x[0]
    w = int(round(eps / h))
    lift = lift_factor * eps
    padded = np.pad(u0, w, mode="edge")
    if direction == "up":
        return window_max(padded, 2 * w + 1) + lift
    return -window_max(-padded, 2 * w + 1) - lift


@dataclass
class BracketReport:
    eps_list: list
    probe_times: list
    gaps: list  # per eps, max over probe times of sup |u^{+eps} - u^{-eps}|
    ordered: bool
    extinction_upper: list
    extinction_lower: list


def bracket_maximal_minimal(spec: ProblemSpec, eps_list: Sequence[float],
                            probe_times: Optional[Sequence[float]] = None) -> BracketReport:
    """Sandwich the solution between runs from raised/outward-shifted and
    lowered/inward-shifted initial data and report the shrinking gap."""
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])) or any(e <= 0 for e in eps_list):
        raise ValueError("eps_list must be positive and strictly decreasing")
    probe_times, probe_idx = _probe_rows(spec, probe_times)
    x = spec.nodes()
    u0 = spec.initial_values()
    runs_up, runs_dn = [], []
    for eps in eps_list:
        up = perturb_initial_data(u0, x, eps, "up")
        spec.check_front_inside(up)
        runs_up.append(run(replace(spec, u0=up)))
        runs_dn.append(run(replace(spec, u0=perturb_initial_data(u0, x, eps, "down"))))
    gaps = []
    ordered = True
    for ru, rd in zip(runs_up, runs_dn):
        d = [float(np.max(ru.values[j] - rd.values[j])) for j in probe_idx]
        gaps.append(max(d))
        if np.any(ru.values - rd.values < -ORDER_TOL):
            ordered = False
    # nesting across eps levels
    for i in range(len(eps_list) - 1):
        if np.any(runs_up[i + 1].values - runs_up[i].values > ORDER_TOL):
            ordered = False
        if np.any(runs_dn[i].values - runs_dn[i + 1].values > ORDER_TOL):
            ordered = False
    return BracketReport(eps_list=eps_list, probe_times=probe_times,
                         gaps=gaps, ordered=ordered,
                         extinction_upper=[r.extinction_time for r in runs_up],
                         extinction_lower=[r.extinction_time for r in runs_dn])
