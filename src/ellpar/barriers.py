"""Closed-form barrier families with automatic parameter solving and numeric
verification of strict sub/supersolution margins and the front flux condition.

All radial barriers are two-phase: a positive phase inside the moving front
rho_0 + omega*t and a negative phase outside, glued with prescribed one-sided
slopes a_hat (inside) and b_hat (outside).  Verification is done against the
extremal structural envelope of the class (lambda, Lambda, delta_1, delta_0,
n) that the barrier carries as `op`, so a passing margin certifies the
barrier for every operator in the class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import edge_zeros
from .nonlinearity import (
    BSpec,
    PsiSpec,
    b_derivative,
    b_eval,
    psi_derivative,
    psi_eval,
)
from .operators import OperatorSpec, divergence_expanded, structural_envelope

__all__ = [
    "BarrierInfeasible",
    "OutOfWindowError",
    "RadialPowerBarrier",
    "HeatKernelBarrier",
    "LogDivBarrier",
    "ParabolaBarrier",
    "MarginReport",
    "solve_radial_barrier",
    "eval_radial_barrier",
    "solve_heatkernel_barrier",
    "solve_logdiv_barrier",
    "eval_logdiv_barrier",
    "make_parabola_barrier",
    "make_eps_eta_barrier",
    "verify_subsolution_margin",
    "front_offset_sets",
    "FrontOffsetMask",
]


class BarrierInfeasible(ValueError):
    """Raised when the requested barrier parameters violate a smallness
    constraint (e.g. rho_0 beyond the critical radius)."""


class OutOfWindowError(ValueError):
    """Raised when a barrier is evaluated outside its validity window."""


def critical_radius(op: OperatorSpec) -> float:
    """Largest admissible front radius (lambda + (n-1) Lambda) / (2 delta_1)
    of the class of op; +infinity when delta_1 = 0."""
    if op.delta1 == 0.0:
        return math.inf
    return (op.lam + (op.n_dim - 1) * op.Lam) / (2.0 * op.delta1)


# ---------------------------------------------------------------------------
# radial power barrier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialPowerBarrier:
    """Two-phase radial barrier built from the profile
    psi(rho) = alpha (rho^-gamma - rho_0^-gamma) + beta (rho^2 - rho_0^2),
    decreasing near rho_0, with a quadratic-plus-power negative continuation
    (alpha_neg for alpha); op is the class the margins were solved for.
    """

    rho0: float
    alpha: float
    beta: float
    c: float
    gamma: float
    a_hat: float
    b_hat: float
    omega_hat: float
    eps: float
    sign: str
    alpha_neg: float
    op: OperatorSpec

    @property
    def eps_t(self) -> float:
        return self.eps / (2.0 * max(1.0, self.omega_hat))

    def front_radius(self, t: float) -> float:
        return self.rho0 + self.omega_hat * t


def _power_profile(alpha, beta, gamma, rho0, rho):
    """psi, psi', psi'' of alpha (rho^-g - rho0^-g) + beta (rho^2 - rho0^2)."""
    val = alpha * (rho ** -gamma - rho0 ** -gamma) + beta * (rho**2 - rho0**2)
    d1 = -alpha * gamma * rho ** (-gamma - 1) + 2 * beta * rho
    d2 = alpha * gamma * (gamma + 1) * rho ** (-gamma - 2) + 2 * beta
    return val, d1, d2


def solve_radial_barrier(op: OperatorSpec, rho0: float, a_hat: float,
                         b_hat: float, omega_hat: float,
                         sign: str = "sub") -> RadialPowerBarrier:
    """Solve barrier parameters for front radius rho0, inside slope a_hat,
    outside slope b_hat and front speed omega_hat.

    Recipe: gamma is the smallest integer making tau_1 positive, then doubled
    for margin; c = omega_hat * a_hat; beta is twice the larger of the two
    lower bounds c/tau_2 and a_hat/(2 rho0); alpha then solves the slope
    equation a_hat = alpha gamma rho0^(-gamma-1) - 2 beta rho0.
    """
    if sign not in ("sub", "super"):
        raise ValueError("sign must be 'sub' or 'super'")
    lam, Lam, d1, n = op.lam, op.Lam, op.delta1, op.n_dim
    rho_c = critical_radius(op)
    if not rho0 > 0:
        raise ValueError("rho0 must be positive")
    if rho0 > rho_c:
        raise BarrierInfeasible(
            f"rho0 = {rho0} exceeds the critical radius {rho_c}"
        )
    if not (a_hat > 0 > b_hat and a_hat + b_hat > 0):
        raise ValueError("need a_hat > 0 > b_hat with a_hat + b_hat > 0")
    if omega_hat < 0:
        raise ValueError("front speed must be nonnegative")

    # smallest integer gamma with lam (gamma+1) > (n-1) Lam + d1 rho0, doubled
    gamma_min = int(math.floor(((n - 1) * Lam + d1 * rho0) / lam)) + 1
    gamma = 2.0 * max(gamma_min, 1)

    tau2 = 2.0 * (lam + (n - 1) * Lam - d1 * rho0)
    tau1 = (lam * (gamma + 1) - (n - 1) * Lam - d1 * rho0) * gamma * rho0 ** (-gamma - 2)
    assert tau1 > 0 and tau2 > 0

    c = omega_hat * a_hat
    beta = 2.0 * max(c / tau2, a_hat / (2.0 * rho0))
    # slope equation for the decreasing profile: |slope| at rho0 equals
    # alpha gamma rho0^(-gamma-1) - 2 beta rho0
    alpha = (a_hat + 2.0 * beta * rho0) * rho0 ** (gamma + 1) / gamma
    alpha_neg = (-b_hat + 2.0 * beta * rho0) * rho0 ** (gamma + 1) / gamma

    front_margin = c - alpha * tau1 - beta * tau2
    assert front_margin < 0

    # shrink the validity half-width until sampled residuals keep a definite
    # sign with at least half the front margin
    eps = rho0 / 4.0
    for _ in range(60):
        bar = RadialPowerBarrier(
            rho0=rho0, alpha=alpha, beta=beta, c=c, gamma=gamma,
            a_hat=a_hat, b_hat=b_hat, omega_hat=omega_hat, eps=eps,
            sign=sign, alpha_neg=alpha_neg, op=op,
        )
        rep = verify_subsolution_margin(bar, samples=256, seed=7)
        if rep.worst_margin > 0.5 * abs(front_margin):
            return bar
        eps *= 0.5
    raise BarrierInfeasible("could not certify a validity window")


def eval_radial_barrier(bar: RadialPowerBarrier, x_norm, t):
    """Value and analytic derivatives (d/dt, d/drho, d2/drho2) at (|x|, t),
    elementwise over broadcast arrays.

    Raises OutOfWindowError if any point lies outside
    K = (rho0-eps, rho0+eps) x (-eps_t, eps_t).
    """
    rho0, eps = bar.rho0, bar.eps
    x_norm, t = np.asarray(x_norm, dtype=float), np.asarray(t, dtype=float)
    inside = (rho0 - eps < x_norm) & (x_norm < rho0 + eps) & (np.abs(t) < bar.eps_t)
    if not np.all(inside):
        raise OutOfWindowError("evaluation outside the validity window")
    rho_f = bar.front_radius(t)
    # the two phases differ only in the power coefficient
    alpha = np.where(x_norm <= rho_f, bar.alpha, bar.alpha_neg)
    v, d1, d2 = _power_profile(alpha, bar.beta, bar.gamma, rho0, x_norm)
    vf, d1f, _ = _power_profile(alpha, bar.beta, bar.gamma, rho0, rho_f)
    val = v - vf
    dt = -d1f * bar.omega_hat
    if bar.sign == "super":
        return -val, -dt, -d1, -d2
    return val, dt, d1, d2


# ---------------------------------------------------------------------------
# heat-kernel barrier (arbitrary front speed)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeatKernelBarrier:
    """One-dimensional fundamental-solution barrier
    psi(x1, t) = t^(-1/2) exp(-x1^2 / (4 k t)), shifted and truncated."""

    k: float
    eps: float
    eta: float
    alpha_scale: float
    d: float
    delta: float
    op: OperatorSpec

    def psi(self, x1, t):
        t = np.asarray(t, dtype=float)
        return t ** -0.5 * np.exp(-np.asarray(x1) ** 2 / (4 * self.k * t))

    def eval(self, x1, t):
        """phi = alpha (phi0_+ - phi0_-/2) with phi0 = psi(x1, t+eta) - eps."""
        phi0 = self.psi(x1, np.asarray(t) + self.eta) - self.eps
        return self.alpha_scale * (np.maximum(phi0, 0) - 0.5 * np.maximum(-phi0, 0))


def _heatkernel_bracket(bar: HeatKernelBarrier, x1, t):
    k, op = bar.k, bar.op
    return ((x1**2 - 2 * k * t) * (k - op.lam) / (4 * k**2 * t**2)
            + op.delta1 * np.abs(x1) / (2 * k * t) + op.delta0)


def solve_heatkernel_barrier(op: OperatorSpec, d: float, delta: float,
                             c: float = 1.0) -> HeatKernelBarrier:
    """Pick k << min(d^2/(4 delta), lambda) so the parabolic residual bracket
    is negative on [d, 2d] x (0, 2 delta], then solve the eta/eps squeeze."""
    if d <= 0 or delta <= 0:
        raise ValueError("need positive diameter and horizon")
    k = min(d * d / (4 * delta), op.lam)
    x1 = np.linspace(d, 2 * d, 101)
    ts = np.linspace(1e-9, 2 * delta, 401)
    X, T = np.meshgrid(x1, ts)
    for _ in range(200):
        probe = HeatKernelBarrier(k=k, eps=0.0, eta=0.0, alpha_scale=1.0,
                                  d=d, delta=delta, op=op)
        if np.max(_heatkernel_bracket(probe, X, T)) < 0:
            break
        k *= 0.5
    else:
        raise BarrierInfeasible("no admissible diffusion constant found")

    eta = delta / 2.0
    for _ in range(200):
        lhs = eta ** -0.5 * math.exp(-d * d / (4 * k * eta))
        rhs = (delta + eta) ** -0.5 * math.exp(-d * d / (k * (delta + eta)))
        if lhs < rhs:
            break
        eta *= 0.5
    else:
        raise BarrierInfeasible("eta squeeze failed")
    eps = math.sqrt(lhs * rhs)

    probe = HeatKernelBarrier(k=k, eps=eps, eta=eta, alpha_scale=1.0,
                              d=d, delta=delta, op=op)
    sup = float(np.max(np.abs(probe.eval(X, T - 1e-9))))
    alpha_scale = c / (2.0 * max(sup, 1e-300))
    return HeatKernelBarrier(k=k, eps=eps, eta=eta, alpha_scale=alpha_scale,
                             d=d, delta=delta, op=op)


# ---------------------------------------------------------------------------
# divergence-form logarithmic barrier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogDivBarrier:
    """Supersolution phi(x,t) = psi(|x| - omega t - rho0) of the divergence
    problem, with psi(s) = log(a k s + 1) / k on [0, eta]."""

    k1: float
    k2: float
    k: float
    a: float
    eta: float
    omega: float
    rho0: float
    M: float
    n_dim: int = 2
    psi_spec: PsiSpec = field(default_factory=PsiSpec)
    bspec: BSpec = field(default_factory=BSpec)

    def profile(self, s):
        s = np.asarray(s, dtype=float)
        val = np.log(self.a * self.k * s + 1.0) / self.k
        d1 = self.a / (self.a * self.k * s + 1.0)
        d2 = -self.a**2 * self.k / (self.a * self.k * s + 1.0) ** 2
        return val, d1, d2


def _sampled_max(fun, lo, hi):
    """Max of fun on [lo, hi]: a 1000-interval grid, then 1000 intervals
    across the four grid cells around its argmax."""
    s = np.linspace(lo, hi, 1001)
    v = fun(s)
    i = int(np.argmax(v))
    s2 = np.linspace(s[max(i - 2, 0)], s[min(i + 2, 1000)], 1001)
    return float(max(np.max(v), np.max(fun(s2))))


def solve_logdiv_barrier(psi: PsiSpec, bspec: BSpec, omega: float, rho0: float,
                         M: float, n_dim: int = 2) -> LogDivBarrier:
    """Compute k1, k2 by sampled maximization over [0, 3M], then the smallest
    doubling k and the amplitude a placing psi(eta) strictly in (2M, 3M)."""
    if omega < 0 or rho0 <= 0 or M <= 0:
        raise ValueError("need omega >= 0, rho0 > 0, M > 0")

    def g1(s):
        return omega * b_derivative(bspec, s) / psi_eval(psi, b_eval(bspec, s))

    def g2(s):
        y = b_eval(bspec, s)
        return (np.abs(psi_derivative(psi, y)) * b_derivative(bspec, s)
                / psi_eval(psi, y))

    k1 = _sampled_max(g1, 0.0, 3 * M) + 2.0 * (n_dim - 1) / rho0
    k2 = _sampled_max(g2, 0.0, 3 * M)
    if k1 <= 0:
        raise BarrierInfeasible("k1 must be positive")
    eta0 = 1.0 / k1
    eta = eta0 / 2.0

    k = k2 + 1.0
    for _ in range(200):
        ok1 = (k - k2) / (k * k1) - 1.0 / k > eta
        ok2 = (k - k2) > k1 and math.log((k - k2) / k1) / k < 2 * M
        if ok1 and ok2:
            break
        k *= 2.0
    else:
        raise BarrierInfeasible("no admissible k found")

    # a from 2M < log(a k eta + 1)/k < 3M by bisection on the monotone map
    target = 2.5 * M
    lo, hi = 1.0, 2.0
    while math.log(hi * k * eta + 1.0) / k < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.log(mid * k * eta + 1.0) / k < target:
            lo = mid
        else:
            hi = mid
    a = 0.5 * (lo + hi)
    psi_eta = math.log(a * k * eta + 1.0) / k
    if not (a > 1.0 and 2 * M < psi_eta < 3 * M):
        raise BarrierInfeasible("amplitude selection failed re-verification")
    return LogDivBarrier(k1=k1, k2=k2, k=k, a=a, eta=eta, omega=omega,
                         rho0=rho0, M=M, n_dim=n_dim, psi_spec=psi, bspec=bspec)


def eval_logdiv_barrier(bar: LogDivBarrier, x_norm: float, t: float):
    """Value and (d/dt, d/drho, d2/drho2) at (|x|, t); the argument must be in
    the moving collar 0 <= |x| - omega t - rho0 <= eta."""
    s = x_norm - bar.omega * t - bar.rho0
    if not (0.0 <= s <= bar.eta):
        raise OutOfWindowError("point outside the moving collar")
    val, d1, d2 = bar.profile(s)
    return float(val), float(-bar.omega * d1), float(d1), float(d2)


# ---------------------------------------------------------------------------
# parabola barriers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParabolaBarrier:
    """variant "decr-parabola": phi = (-t/(2 gamma) - 4 |x|^2 + 1)_+ with
    gamma = min(1/(16 n Lam + 8 d1 + 4 d0), 1); a parabolic-problem
    subsolution.  On the verified window |x| <= 1/2, -2 gamma <= t <= 0,
    phi <= 2 and M^-(D^2 phi) = M^-(-8 I) = -8 n Lam, so phi_t = -1/(2 gamma)
    stays below the lower envelope when 1/(2 gamma) >= 8 n Lam + 4 d1 + 2 d0.

    variant "eps-eta": psi = (4 M / eps)(4 n Lam t + |x|^2 + eta); a
    parabolic-problem supersolution on its positivity set.
    """

    variant: str
    op: OperatorSpec
    gamma: float = 0.0
    M: float = 1.0
    eps: float = 0.1
    eta: float = 0.01


def make_parabola_barrier(op: OperatorSpec) -> ParabolaBarrier:
    gamma = min(1.0 / (16 * op.n_dim * op.Lam + 8 * op.delta1 + 4 * op.delta0), 1.0)
    return ParabolaBarrier(variant="decr-parabola", op=op, gamma=gamma)


def make_eps_eta_barrier(op: OperatorSpec, M: float, eps: float, eta: float,
                         r: Optional[float] = None) -> ParabolaBarrier:
    """Constructor enforces the smallness conditions on eps; raises
    BarrierInfeasible when violated."""
    if not (0 < eta < eps):
        raise ValueError("need 0 < eta < eps")
    nL = op.n_dim * op.Lam
    if op.delta0 + op.delta1 > 0 and not math.sqrt(eps) < 2 * nL / (3 * (op.delta0 + op.delta1)):
        raise BarrierInfeasible("eps too large for the drift/zeroth constants")
    if r is not None and not (r * eps / (8 * nL)) ** (1 / 3) > math.sqrt(eps):
        raise BarrierInfeasible("eps too large for the body radius")
    return ParabolaBarrier(variant="eps-eta", op=op, M=M, eps=eps, eta=eta)


# ---------------------------------------------------------------------------
# margin verification
# ---------------------------------------------------------------------------

@dataclass
class MarginReport:
    family: str
    sense: str
    samples: int
    worst_margin: float
    flux_gap: Optional[float]
    passed: bool


def verify_subsolution_margin(bar, samples: int = 1000, seed: int = 0) -> MarginReport:
    """Sample the validity window and report the worst-case strictness margin
    of the classical sub/supersolution inequalities, plus the flux gap
    |D phi^+| - |D phi^-| on the zero level set for two-phase barriers, for
    the operator class the barrier was built for.

    Margins are oriented so positive = certificate holds strictly.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    if isinstance(bar, RadialPowerBarrier):
        return _verify_radial(bar, samples, rng)
    if isinstance(bar, LogDivBarrier):
        return _verify_logdiv(bar, samples, rng)
    if isinstance(bar, HeatKernelBarrier):
        return _verify_heatkernel(bar, samples)
    if isinstance(bar, ParabolaBarrier):
        return _verify_parabola(bar, samples, rng)
    raise TypeError(f"unknown barrier type {type(bar).__name__}")


def _verify_radial(bar: RadialPowerBarrier, samples, rng):
    op = bar.op
    draws = rng.random((samples, 2))
    rho = bar.rho0 + bar.eps * (2 * draws[:, 0] - 1)
    t = bar.eps_t * (2 * draws[:, 1] - 1)
    keep = ((np.abs(rho - bar.front_radius(t)) >= 1e-9 * bar.rho0)
            & (bar.rho0 - bar.eps < rho) & (rho < bar.rho0 + bar.eps)
            & (np.abs(t) < bar.eps_t))
    rho, t = rho[keep], t[keep]
    val, dt, drho, drho2 = eval_radial_barrier(bar, rho, t)
    # residual b(phi)_t - F of the extremal operator; b(phi)_t = 0 in the
    # negative phase
    eigs = np.repeat((drho / rho)[:, None], op.n_dim, axis=1)
    eigs[:, -1] = drho2
    F_env = structural_envelope(eigs, np.abs(drho), val, op.lam, op.Lam,
                                op.delta1, op.delta0, bar.sign)
    res = np.where(val > 0, dt, 0.0) - F_env
    worst = float(np.min(-res if bar.sign == "sub" else res, initial=math.inf))
    gap = bar.a_hat + bar.b_hat  # |D phi^+| - |D phi^-| of the subsolution
    return MarginReport(family="radial", sense=bar.sign, samples=samples,
                        worst_margin=worst,
                        flux_gap=float(gap if bar.sign == "sub" else -gap),
                        passed=worst > 0)


def _verify_logdiv(bar: LogDivBarrier, samples, rng):
    psi, bspec = bar.psi_spec, bar.bspec
    n = bar.n_dim
    tau = bar.rho0 / (2 * bar.omega) if bar.omega > 0 else 1.0
    draws = rng.random((samples, 2))
    s = bar.eta * draws[:, 0]
    keep = s != 0.0
    s = s[keep]
    t = tau * (2 * draws[keep, 1] - 1) * 0.5
    rho = bar.rho0 + bar.omega * t + s
    val, d1v, d2v = bar.profile(s)
    F = divergence_expanded(psi, bspec, val, (n - 1) * d1v / rho + d2v, d1v * d1v)
    residual = -bar.omega * b_derivative(bspec, val) * d1v - F
    worst = float(np.min(residual, initial=math.inf))
    return MarginReport(family="logdiv", sense="super", samples=samples,
                        worst_margin=worst, flux_gap=None,
                        passed=worst > 0)


def _verify_heatkernel(bar: HeatKernelBarrier, samples):
    m = max(int(math.isqrt(samples)), 8)
    x1 = np.linspace(bar.d, 2 * bar.d, m)
    ts = np.linspace(1e-9, 2 * bar.delta, m)
    X, T = np.meshgrid(x1, ts)
    worst = -float(np.max(_heatkernel_bracket(bar, X, T)))
    return MarginReport(family="heatkernel", sense="sub", samples=m * m,
                        worst_margin=worst, flux_gap=None, passed=worst > 0)


def _verify_parabola(bar: ParabolaBarrier, samples, rng):
    op = bar.op
    n, lam, Lam, d1, d0 = op.n_dim, op.lam, op.Lam, op.delta1, op.delta0
    draws = rng.random((samples, 2))
    if bar.variant == "decr-parabola":
        # support: 4|x|^2 <= 1 - t/(2 gamma) truncated to |x| <= 1/2, t <= 0
        x = 0.5 * draws[:, 0]
        t = -2 * bar.gamma * draws[:, 1]
        val = -t / (2 * bar.gamma) - 4 * x * x + 1
        keep = val > 0
        F_env = structural_envelope([-8.0] * n, 8 * x[keep], val[keep],
                                    lam, Lam, d1, d0, "sub")
        res = -1.0 / (2 * bar.gamma) - F_env
        worst = float(np.min(-res, initial=math.inf))
        # gamma makes the inequality tight at x = 0 when delta1 = delta0 = 0,
        # so rounding alone can leave the margin a few ulps below zero
        return MarginReport(family="parabola", sense="sub", samples=samples,
                            worst_margin=worst, flux_gap=None,
                            passed=worst >= -1e-10)
    # eps-eta supersolution
    A = 4 * bar.M / bar.eps
    x = math.sqrt(bar.eps) * draws[:, 0]
    t = -bar.eps / (8 * n * Lam) * draws[:, 1]
    val = A * (4 * n * Lam * t + x * x + bar.eta)
    keep = val > 0
    dt = A * 4 * n * Lam
    F_env = structural_envelope([2 * A] * n, 2 * A * x[keep], val[keep],
                                lam, Lam, d1, d0, "super")
    worst = float(np.min(dt - F_env, initial=math.inf))
    return MarginReport(family="parabola", sense="super", samples=samples,
                        worst_margin=worst, flux_gap=None,
                        passed=worst > 0)


# ---------------------------------------------------------------------------
# front offset sets
# ---------------------------------------------------------------------------

@dataclass
class FrontOffsetMask:
    mask: np.ndarray
    intervals: list
    offset: float


def _positive_intervals(x, u):
    """Open intervals of {u > 0}: each maximal run of positive nodes, ended
    by the zero of the linear interpolant on its bounding edge, or by the
    end of the grid."""
    n = len(u)
    step = np.diff(np.concatenate(([0], (u > 0).astype(np.int8), [0])))
    first = np.flatnonzero(step == 1)
    last = np.flatnonzero(step == -1) - 1
    i = np.maximum(first - 1, 0)
    starts = np.where(first == 0, x[0], edge_zeros(x, i, u[i], u[i + 1]))
    i = np.minimum(last, n - 2)
    ends = np.where(last == n - 1, x[-1], edge_zeros(x, i, u[i], u[i + 1]))
    return list(zip(starts, ends))


def _dist_to_intervals(x, intervals):
    d = np.full_like(np.asarray(x, dtype=float), np.inf)
    for a, b in intervals:
        inside = (x >= a) & (x <= b)
        d = np.minimum(d, np.where(inside, 0.0, np.minimum(np.abs(x - a), np.abs(x - b))))
    return d


def front_offset_sets(u0: np.ndarray, x: np.ndarray, t: float,
                      sign: str = "super") -> FrontOffsetMask:
    """Offset positivity sets with front shift t^(1/4).

    "super": nodes within distance t^(1/4) of {u0 > 0}.
    "sub": nodes at distance more than t^(1/4) from {u0 < 0}.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    if sign not in ("super", "sub"):
        raise ValueError("sign must be 'super' or 'sub'")
    x = np.asarray(x, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    offset = t ** 0.25
    if sign == "super":
        intervals = _positive_intervals(x, u0)
        d = _dist_to_intervals(x, intervals)
        mask = (u0 > 0) | (d < offset)
    else:
        intervals = _positive_intervals(x, -u0)
        d = _dist_to_intervals(x, intervals)
        mask = d > offset
    return FrontOffsetMask(mask=mask, intervals=intervals, offset=offset)
