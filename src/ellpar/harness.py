"""Scenario library (jump datum, ordered comparison pairs) and the acceptance
suite: eleven property-based criteria with machine-readable margins.

Each criterion is a zero-argument function that builds its own runs and
returns (passed, margin, details); the `_criterion(index, name)` decorator
registers it in ALL_CRITERIA, times it and wraps the result in a
CriterionResult.  run_acceptance executes a selection and assembles the JSON
report.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from functools import wraps
from typing import Optional

import numpy as np

from .barriers import (
    BarrierInfeasible,
    critical_radius,
    solve_logdiv_barrier,
    solve_radial_barrier,
    verify_subsolution_margin,
)
from .geometry import edge_zeros, harnack_chain, harnack_chain_k_bound
from .nonlinearity import BnFamily, BSpec, PsiSpec, bn_derivative, bn_eval
from .operators import (
    OperatorSpec,
    pucci_minus,
    pucci_plus,
    structural_envelope_check,
)
from .regularize import (
    GridField,
    crossing_time,
    inf_convolve,
    interior_ball_check,
    sup_convolve,
)
from .solver import (
    ORDER_TOL,
    Geometry,
    ProblemSpec,
    bracket_maximal_minimal,
    perturb_initial_data,
    run,
    singular_limit_study,
    solve_elliptic,
)

__all__ = [
    "Scenario",
    "make_jump_scenario",
    "make_comparison_pair",
    "jump_initial",
    "validate_class_P",
    "CriterionResult",
    "run_acceptance",
    "ALL_CRITERIA",
]


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    name: str
    spec: ProblemSpec


def jump_initial(x):
    """Tent datum of the jump scenario: peak 0.5 at the origin, zeros at
    +-0.3, affine down to -1 at the lateral boundary (affine = harmonic in
    1D, so the negative phase is admissible)."""
    ax = np.abs(np.asarray(x, dtype=float))
    return np.where(ax <= 0.3, 0.5 * (1.0 - ax / 0.3), -(ax - 0.3) / 0.7)


def make_jump_scenario(grid: int = 401, n: int = 32, T: float = 1.0,
                       dt: float = 2.5e-3) -> Scenario:
    if grid < 101:
        raise ValueError("jump scenario needs at least 101 nodes")
    spec = ProblemSpec(
        geometry=Geometry("interval", -1.0, 1.0),
        op=OperatorSpec(kind="trace", lam=1.0, Lam=1.0, n_dim=1),
        b=BSpec("positive-part"),
        bn=BnFamily(n),
        g_lo=-1.0, g_hi=-1.0,
        u0=jump_initial, T=T, grid=grid, dt=dt,
    )
    return Scenario(name=f"jump-g{grid}-n{n}", spec=spec)


def validate_class_P(scn: Scenario) -> bool:
    """Advisory initial-data check: the datum as given matches the boundary
    data at the Dirichlet nodes to 1e-9, and has zero second difference on
    the strictly negative phase (below -1e-9).  Warns instead of raising."""
    tol = 1e-9
    spec = scn.spec
    u0 = spec.initial_datum()
    d2 = u0[2:] - 2 * u0[1:-1] + u0[:-2]
    neg = (u0[1:-1] < -tol) & (u0[2:] < -tol) & (u0[:-2] < -tol)
    ok = (all(abs(u0[i] - g) <= tol for i, g in spec.dirichlet(0.0).items())
          and not np.any(np.abs(d2[neg]) > 1e-6))
    if not ok:
        warnings.warn(f"scenario {scn.name}: initial datum outside class P "
                      "(advisory)", stacklevel=2)
    return ok


def make_comparison_pair(base: Scenario, gap: float):
    """Strictly separated ordered pair: the upper problem's front is shifted
    outward by gap, values lifted by gap/2, and the lateral boundary data
    raised by gap/2 so separation is strict on the whole parabolic boundary.
    Raises ValueError if the shifted datum is positive next to a Dirichlet
    node (`ProblemSpec.check_front_inside`)."""
    if not 0 < gap < np.inf:
        raise ValueError("gap must be positive and finite")
    spec = base.spec
    x = spec.nodes()
    u0 = spec.initial_values()
    up = perturb_initial_data(u0, x, gap, "up", lift_factor=0.5)
    spec.check_front_inside(up)
    g_up = spec.boundary(0.0)
    upper_spec = replace(spec, u0=up,
                         g_lo=g_up[0] + gap / 2, g_hi=g_up[1] + gap / 2)
    lower = Scenario(name=base.name + "-lower", spec=spec)
    upper = Scenario(name=base.name + f"-upper-gap{gap}", spec=upper_spec)
    return lower, upper


# ---------------------------------------------------------------------------
# acceptance criteria
# ---------------------------------------------------------------------------

@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    margin: float
    runtime: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"[{self.index:2d}] {tag} {self.name} "
                f"(margin={self.margin:.3e}, {self.runtime:.1f}s)")


ALL_CRITERIA: dict = {}


def _criterion(index: int, name: str):
    """Register a zero-argument function returning (passed, margin, details)
    as ALL_CRITERIA[index], timed and wrapped in a CriterionResult; the
    registered function carries the criterion's name as `.name`."""
    if index in ALL_CRITERIA:
        raise ValueError(f"criterion {index} is already registered")

    def register(body):
        @wraps(body)
        def criterion() -> CriterionResult:
            t0 = time.perf_counter()
            passed, margin, details = body()
            return CriterionResult(index, name, passed, margin,
                                   time.perf_counter() - t0, details)

        criterion.name = name
        ALL_CRITERIA[index] = criterion
        return criterion

    return register


@_criterion(1, "bn-family")
def criterion_1_bn_family():
    """Smoothing family: derivative bounds, b_n' against a central difference
    of b_n, monotone approximation error, stable extreme evaluation against an
    extended-precision oracle."""
    import mpmath

    s = np.linspace(-10.0, 10.0, 1000)
    h = 1e-6
    sup_err = []
    der_err = 0.0
    for n in range(1, 65):
        fam = BnFamily(n)
        d = bn_derivative(fam, s)
        if not (np.all(d > 0) and np.all(d < 1)):
            return False, -1.0, {"failed_at_n": n}
        central = (bn_eval(fam, s + h) - bn_eval(fam, s - h)) / (2 * h)
        der_err = max(der_err, float(np.max(np.abs(d - central))))
        sup_err.append(float(np.max(np.abs(bn_eval(fam, s) - np.maximum(s, 0)))))
    decreasing = all(b < a for a, b in zip(sup_err, sup_err[1:]))

    mpmath.mp.dps = 60
    fam = BnFamily(64)
    oracle_err = 0.0
    for sv in (-1000.0, 1000.0, -10.0, 0.0, 0.015625, 10.0):
        n = mpmath.mpf(64)
        ref = (mpmath.log(mpmath.exp(n) + mpmath.exp(n * n * sv))
               - mpmath.log(mpmath.exp(n) + 1)) / (n * n)
        got = bn_eval(fam, sv)
        if not math.isfinite(got):
            return False, -1.0, {"nonfinite_at": sv}
        oracle_err = max(oracle_err, abs(got - float(ref)))
    ok = decreasing and der_err <= 1e-6 and oracle_err <= 1e-9
    margin = min(1e-6 - der_err, 1e-9 - oracle_err)
    return ok, margin, {"derivative_err": der_err, "oracle_err": oracle_err,
                        "sup_err_first_last": [sup_err[0], sup_err[-1]],
                        "decreasing": decreasing}


@_criterion(2, "pucci-correctness")
def criterion_2_pucci():
    """Eigenvalue formula vs brute-force extremization over sampled matrices
    in [lam I, Lam I]; duality; degenerate reduction to lam * trace."""
    op = OperatorSpec("pucci-plus", lam=1.0, Lam=2.5, n_dim=2)
    lam, Lam = op.lam, op.Lam
    rng = np.random.default_rng(11)
    n_A = 10_000
    theta = rng.uniform(0.0, math.pi, n_A)
    # eigenvalues biased to the corners lam/Lam where the extremum lives
    pick = rng.integers(0, 3, (n_A, 2))
    mu = np.where(pick == 0, lam, np.where(pick == 1, Lam,
                  rng.uniform(lam, Lam, (n_A, 2))))
    c, s_ = np.cos(theta), np.sin(theta)
    Q = np.stack([np.stack([c, -s_], -1), np.stack([s_, c], -1)], -2)
    A = np.einsum("kij,kj,klj->kil", Q, mu, Q)

    worst_gap = -math.inf
    worst_onesided = -math.inf
    worst_dual = 0.0
    worst_degen = 0.0
    for _ in range(100):
        M = rng.standard_normal((2, 2))
        M = 0.5 * (M + M.T)
        eigs = np.linalg.eigvalsh(M)
        plus = pucci_plus(op, eigs)
        minus = pucci_minus(op, eigs)
        tr_samples = np.einsum("kij,ji->k", A, M)
        sup_s, inf_s = float(tr_samples.max()), float(tr_samples.min())
        # sampled extrema must sit inside [minus, plus], within 1e-3 of them
        worst_onesided = max(worst_onesided, sup_s - plus, minus - inf_s)
        worst_gap = max(worst_gap, plus - sup_s, inf_s - minus)
        worst_dual = max(worst_dual,
                         abs(minus - (-pucci_plus(op, -eigs))))
        worst_degen = max(worst_degen, abs(pucci_plus(replace(op, Lam=op.lam), eigs)
                                           - lam * float(eigs.sum())))
    ok = (worst_gap <= 1e-3 and worst_onesided <= 1e-10
          and worst_dual == 0.0 and worst_degen <= 1e-12)
    return ok, 1e-3 - worst_gap, {
        "worst_bruteforce_gap": worst_gap,
        "worst_onesided_violation": worst_onesided,
        "worst_duality_error": worst_dual,
        "worst_degenerate_error": worst_degen,
    }


def _bi_operator() -> OperatorSpec:
    g1 = (
        (((1.5, 0.3), (0.3, 1.2)), (0.3, -0.2), -0.2),
        (((1.8, -0.2), (-0.2, 1.1)), (-0.1, 0.3), -0.1),
    )
    g2 = (
        (((1.2, 0.1), (0.1, 1.7)), (0.2, 0.2), 0.0),
        (((1.4, 0.0), (0.0, 1.4)), (0.0, -0.3), -0.3),
    )
    return OperatorSpec(kind="bellman-isaacs", lam=1.0, Lam=2.0,
                        delta1=0.5, delta0=0.3, n_dim=2, bi_entries=(g1, g2))


@_criterion(3, "structural-envelope")
def criterion_3_structural():
    ops = [
        OperatorSpec(kind="trace", lam=1.3, Lam=1.3, n_dim=2),
        OperatorSpec(kind="pucci-plus", lam=1.0, Lam=2.5, n_dim=3),
        OperatorSpec(kind="pucci-minus", lam=1.0, Lam=2.5, n_dim=3),
        _bi_operator(),
    ]
    worst = math.inf
    det = {}
    for op in ops:
        rep = structural_envelope_check(op, trials=10_000, seed=3)
        det[op.kind] = rep.worst_margin
        worst = min(worst, rep.worst_margin)
    return worst >= -1e-10, worst + 1e-10, det


@_criterion(4, "barrier-certificates")
def criterion_4_barriers():
    op = OperatorSpec(kind="pucci-minus", lam=1.0, Lam=1.2,
                      delta1=0.5, delta0=0.2, n_dim=3)
    rho_c = critical_radius(op)
    bar = solve_radial_barrier(op, rho0=1.0, a_hat=1.0, b_hat=-0.5,
                               omega_hat=0.3)
    rep = verify_subsolution_margin(bar, samples=1000, seed=5)
    scale = max(1.0, bar.a_hat)
    ok_margin = rep.passed and rep.worst_margin >= 1e-6 * scale

    # the measured flux gap against the prescribed slopes
    flux_err = abs(rep.flux_gap - (bar.a_hat + bar.b_hat))
    ok_flux = flux_err <= 1e-10

    # infeasibility exactly past the critical radius
    try:
        solve_radial_barrier(op, rho0=rho_c * 1.01, a_hat=1.0,
                             b_hat=-0.5, omega_hat=0.3)
        ok_crit = False
    except BarrierInfeasible:
        ok_crit = True
    try:
        solve_radial_barrier(op, rho0=rho_c * 0.97, a_hat=1.0,
                             b_hat=-0.5, omega_hat=0.3)
    except BarrierInfeasible:
        ok_crit = False

    div = OperatorSpec("divergence", n_dim=3, psi=PsiSpec("polynomial", (1.0, 0.5)))
    logbar = solve_logdiv_barrier(div, BSpec("positive-part"), omega=0.5, rho0=1.0, M=1.0)
    logrep = verify_subsolution_margin(logbar, samples=1000, seed=5)
    ok_log = logrep.passed and logrep.worst_margin >= 1e-6 * logbar.M

    ok = ok_margin and ok_flux and ok_crit and ok_log
    margin = min(rep.worst_margin - 1e-6 * scale,
                 1e-10 - flux_err,
                 logrep.worst_margin - 1e-6 * logbar.M)
    return ok, margin, {
        "radial_worst_margin": rep.worst_margin,
        "flux_gap_error": flux_err,
        "critical_radius": rho_c,
        "infeasibility_behaviour": ok_crit,
        "logdiv_worst_margin": logrep.worst_margin,
    }


@_criterion(5, "harnack-chain")
def criterion_5_harnack():
    rng = np.random.default_rng(7)
    worst = math.inf
    for _ in range(50):
        r = float(rng.uniform(0.2, 2.0))
        s = float(rng.uniform(1e-6, r / 16 * 0.999))
        chain = harnack_chain(r, s)
        kb = harnack_chain_k_bound(r, s)
        if chain.k > kb:
            return False, -1.0, {"r": r, "s": s, "k": chain.k, "kBound": kb}
        for j, aj in enumerate(chain.a):
            bound = r * (s / r) ** ((2.0 / 3.0) ** j)
            if aj < bound - 1e-12:
                return False, aj - bound, {"r": r, "s": s, "j": j}
            if j >= 1:  # a_0 = s is the bound itself
                worst = min(worst, aj - bound)
    return True, worst, {"pairs": 50, "worst_slack": worst}


@_criterion(6, "discrete-comparison")
def criterion_6_comparison():
    """Worst order gap over 100 ordered pairs on the jump scenario."""
    base = make_jump_scenario(grid=401, n=32, T=1.0)
    rng = np.random.default_rng(0)
    x = base.spec.nodes()
    u0 = base.spec.initial_values()
    worst = math.inf
    for _ in range(100):
        gap = float(rng.uniform(0.02, 0.08))
        eps_dn = float(rng.uniform(0.02, 0.08))
        _, upper_scn = make_comparison_pair(base, gap)
        lower_spec = replace(base.spec,
                             u0=perturb_initial_data(u0, x, eps_dn, "down"))
        rl = run(lower_spec)
        ru = run(upper_scn.spec)
        worst = min(worst, float(np.min(ru.values - rl.values)))
    return worst >= -ORDER_TOL, worst + ORDER_TOL, {"worst_order_gap": worst, "pairs": 100}


@_criterion(7, "jump-extinction")
def criterion_7_extinction():
    spec = make_jump_scenario(grid=401, n=32).spec
    r401 = run(spec)
    r801 = run(make_jump_scenario(grid=801, n=32).spec)
    if r401.extinction_time is None or r801.extinction_time is None:
        return False, -1.0, {"extinction_401": r401.extinction_time,
                             "extinction_801": r801.extinction_time}
    # the refinement bound is in the coarse run's dt and grid spacing
    dt = spec.dt
    h = (spec.geometry.hi - spec.geometry.lo) / (spec.grid - 1)
    drift = abs(r401.extinction_time - r801.extinction_time)
    ok_stable = drift <= 2 * (dt + h)
    t_check = r401.extinction_time + 0.2
    late = r401.times >= t_check - 1e-12
    if not np.any(late):
        return False, -1.0, {"reason": "no recorded level past extinction + 0.2"}
    dev = float(np.max(np.abs(r401.values[late] + 1.0)))
    ok = ok_stable and dev <= 0.05
    return ok, min(2 * (dt + h) - drift, 0.05 - dev), {
        "extinction_401": r401.extinction_time,
        "extinction_801": r801.extinction_time,
        "refinement_drift": drift,
        "post_extinction_deviation": dev,
    }


@_criterion(8, "singular-limit-cauchy")
def criterion_8_singular_limit():
    spec = make_jump_scenario(grid=401, n=4).spec
    # probe inside the active phase; past extinction every run sits at the
    # stationary -1 and distances degenerate to rounding noise
    rep = singular_limit_study(spec, [4, 8, 16, 32],
                               probe_times=[0.005, 0.01, 0.02])
    d = rep.pairwise_sup
    decreasing = all(b < a for a, b in zip(d, d[1:]))
    exts = rep.extinction_times
    if any(e is None for e in exts):
        return False, -1.0, {"extinction_times": exts}
    gaps = rep.extinction_gaps
    cauchy = all(g2 <= g1 + spec.dt for g1, g2 in zip(gaps, gaps[1:]))
    ok = decreasing and cauchy
    margin = min(a - b for a, b in zip(d, d[1:])) if decreasing else -1.0
    return ok, margin, {"pairwise_sup": d, "extinction_times": exts,
                        "extinction_gaps": gaps}


@_criterion(9, "maximal-minimal-bracketing")
def criterion_9_bracketing():
    spec = make_jump_scenario(grid=401, n=32).spec
    rep = bracket_maximal_minimal(spec, [0.1, 0.05, 0.025],
                                  probe_times=[0.01, 0.02, 0.04])
    shrinking = all(g2 <= g1 + 1e-3 for g1, g2 in zip(rep.gaps, rep.gaps[1:]))
    ok = rep.ordered and shrinking
    margin = min(g1 - g2 for g1, g2 in zip(rep.gaps, rep.gaps[1:])) + 1e-3
    return ok, margin, {"gaps": rep.gaps, "ordered": rep.ordered,
                        "extinction_upper": rep.extinction_upper,
                        "extinction_lower": rep.extinction_lower}


@_criterion(10, "regularization-pipeline")
def criterion_10_regularization():
    det = {}
    # indicator-ball corpus
    x = np.linspace(-1.0, 1.0, 161)
    ts = np.linspace(0.0, 1.0, 161)
    X, T = np.meshgrid(x, ts)
    ball = np.where((np.abs(X) <= 0.3) & (np.abs(T - 0.5) <= 0.2), 1.0, -1.0)
    fld = GridField(x, ts, ball)
    r = 0.1
    Z = sup_convolve(fld, r)
    W = inf_convolve(fld, r)
    base_zw = fld.values[Z.t_slice, Z.x_slice]
    ok_dom = bool(np.all(Z.values >= base_zw) and np.all(W.values <= base_zw))
    ok_dual = bool(np.array_equal(W.values, -sup_convolve(
        GridField(x, ts, -ball), r).values))
    ok_attain = bool(np.array_equal(fld.values.ravel()[Z.dual_index], Z.values)
                     and np.array_equal(fld.values.ravel()[W.dual_index], W.values))
    ball_rep = interior_ball_check(Z, "Z>=0")
    det.update(domination=ok_dom, duality=ok_dual, dual_attains=ok_attain,
               interior_ball_violations=ball_rep.violations)

    # crossing on ordered solver outputs.  The convolution inflates each
    # field by about Lip * (r + r^(2/3)), so the pair's separation must
    # dominate that: a wide gap on a fine grid with small r.
    base = make_jump_scenario(grid=801, n=32, T=0.3)
    lo_scn, up_scn = make_comparison_pair(base, 0.5)
    rl, ru = run(lo_scn.spec), run(up_scn.spec)
    rr = 0.01
    Zs = sup_convolve(rl, rr)
    Wi = inf_convolve(ru, rr)
    cross = crossing_time(Zs, Wi)
    ok_cross = cross.t0 is None
    det["crossing_t0"] = cross.t0
    ok = ok_dom and ok_dual and ok_attain and ball_rep.passed and ok_cross
    margin = float(np.min(Wi.values - Zs.values)) if ok_cross else -1.0
    return ok, margin, det


def _pucci_radial_exact(op: OperatorSpec, lo, hi, g_lo, g_hi, x):
    """The radial solution of the Pucci equation F = 0 on the annulus
    lo <= rho <= hi with psi(lo) = g_lo and psi(hi) = g_hi, at the radii x;
    a ValueError for an operator that is not Pucci."""
    cpos, cneg = op.pucci_weights
    if g_hi == g_lo:
        return np.full(np.shape(x), float(g_lo))
    gamma = (op.n_dim - 1) * (cneg / cpos if g_hi < g_lo else cpos / cneg)
    phi = np.log if gamma == 1 else (lambda rho: np.power(rho, 1.0 - gamma))
    return g_lo + (g_hi - g_lo) * (phi(x) - phi(lo)) / (phi(hi) - phi(lo))


@_criterion(11, "elliptic-hopf")
def criterion_11_elliptic():
    """The elliptic phase against the exact radial Pucci solution, and a Hopf
    lower bound on the slope at its zero crossing.

    A radial solution psi(rho) has Hessian eigenvalues psi'' and psi'/rho
    (n - 1 times).  psi' keeps one sign: if it vanished at one radius, ODE
    uniqueness would make it vanish everywhere.  So the Pucci coefficient
    selection is fixed along the solution and psi'' = -gamma psi'/rho, with
    gamma = (n-1) c-/c+ for decreasing data (g_hi < g_lo) and
    gamma = (n-1) c+/c- for increasing data, where (c+, c-) = (Lam, lam) for
    Pucci-plus and (lam, Lam) for Pucci-minus.  Hence
    psi = g_lo + (g_hi - g_lo) (phi(rho) - phi(lo)) / (phi(hi) - phi(lo)) with
    phi = rho^(1-gamma), or log rho when gamma = 1.
    """
    # Lam/lam = 1.7 keeps the discrete scheme inexact (at the ratio 2 in
    # two dimensions it reproduces psi' ~ rho^-2 to machine precision,
    # which would make the oracle comparison vacuous)
    op = OperatorSpec(kind="pucci-minus", lam=1.0, Lam=1.7, n_dim=2)
    lo, hi, g_lo, g_hi = 0.5, 1.5, 1.0, -1.0
    spec = ProblemSpec(geometry=Geometry("radial-annulus", lo, hi), op=op,
                       g_lo=g_lo, g_hi=g_hi, grid=201)
    # Hopf-style check: one-sided difference quotient at the zero crossing;
    # the 201-node solution is also compared with the exact one
    quotients = []
    for g in (101, 201, 401):
        sp = replace(spec, grid=g)
        ug = solve_elliptic(sp)
        xg = sp.nodes()
        if g == spec.grid:
            exact = _pucci_radial_exact(op, lo, hi, g_lo, g_hi, xg)
            err = float(np.max(np.abs(ug - exact)))
        i = int(np.argmax(ug <= 0)) - 1  # last positive node
        front = edge_zeros(xg, i, ug[i], ug[i + 1])
        quotients.append(float(ug[i] / (front - xg[i])))
    ok_match = err <= 1e-4
    hopf_floor = 0.5
    ok_hopf = min(quotients) >= hopf_floor
    ok = ok_match and ok_hopf
    return ok, min(1e-4 - err, min(quotients) - hopf_floor), {
        "oracle_error": err,
        "hopf_quotients": quotients,
        "hopf_floor": hopf_floor,
    }


def run_acceptance(criteria=None, out_path: Optional[str] = None):
    """Run the acceptance suite, printing one line per criterion; returns
    (exit_code, report dict).

    exit code 0 on pass, 1 on any criterion failure.
    """
    indices = sorted(criteria) if criteria else sorted(ALL_CRITERIA)
    bad = [i for i in indices if i not in ALL_CRITERIA]
    if bad:
        raise ValueError(f"unknown criteria {bad}")
    results = []
    t0 = time.perf_counter()
    for i in indices:
        res = ALL_CRITERIA[i]()
        results.append(res)
        print(res.line(), flush=True)
    report = {
        "passed": all(r.passed for r in results),
        "total_runtime": time.perf_counter() - t0,
        "criteria": [asdict(r) for r in results],
    }
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2, default=str)
    return (0 if report["passed"] else 1), report
