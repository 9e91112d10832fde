"""Elliptic operators: linear trace, Pucci extremal pair, finite
inf-sup (Bellman-Isaacs) families, and the divergence-form operator, together
with their radial reduction and 1D finite-difference assembly.

The only multi-dimensional content is the radial reduction: a radially
symmetric profile has Hessian eigenvalues psi'/rho (multiplicity n-1) and
psi'', so every operator evaluation reduces to a 1D computation on an annulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .nonlinearity import (
    BSpec,
    PsiSpec,
    b_derivative,
    b_eval,
    psi_derivative,
    psi_eval,
)

__all__ = [
    "OperatorSpec",
    "pucci_plus",
    "pucci_minus",
    "operator_full_eval",
    "apply_operator_1d",
    "divergence_expanded",
    "structural_envelope",
    "structural_envelope_check",
    "StructuralReport",
]

_KINDS = ("trace", "pucci-plus", "pucci-minus", "bellman-isaacs", "divergence")


@dataclass(frozen=True)
class OperatorSpec:
    """Tagged operator description with ellipticity constants.

    bi_entries is a finite inf-sup family: a list of groups, each group a list
    of (A, drift, zeroth) triples; F = min over groups of max over triples of
    tr(A M) + drift . p + zeroth * z.  Zeroth coefficients must be <= 0 so the
    operator is proper, and every entry must lie in the class: A symmetric
    n_dim x n_dim with eigenvalues in [lam, Lam], |drift| <= delta1 and
    |zeroth| <= delta0.
    """

    kind: str = "trace"
    lam: float = 1.0
    Lam: float = 1.0
    delta1: float = 0.0
    delta0: float = 0.0
    n_dim: int = 1
    bi_entries: tuple = ()
    psi: Optional[PsiSpec] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if not (0 < self.lam <= self.Lam):
            raise ValueError("need 0 < lambda <= Lambda")
        if self.delta1 < 0 or self.delta0 < 0:
            raise ValueError("delta constants must be nonnegative")
        if self.n_dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind == "bellman-isaacs":
            if not self.bi_entries:
                raise ValueError("bellman-isaacs needs at least one entry group")
            n, tol = self.n_dim, 1e-12  # relative, for rounding in eigvalsh and norm
            for group in self.bi_entries:
                for A, drift, zeroth in group:
                    if zeroth > 0:
                        raise ValueError("positive zeroth-order coefficient breaks properness")
                    A, drift = np.asarray(A, dtype=float), np.asarray(drift, dtype=float)
                    if A.shape != (n, n) or not np.array_equal(A, A.T):
                        raise ValueError(f"entry matrix must be symmetric {n}x{n}")
                    eigs = np.linalg.eigvalsh(A)
                    if eigs[0] < self.lam * (1 - tol) or eigs[-1] > self.Lam * (1 + tol):
                        raise ValueError("entry matrix eigenvalues must lie in [lambda, Lambda]")
                    if drift.shape != (n,) or np.linalg.norm(drift) > self.delta1 * (1 + tol):
                        raise ValueError(f"entry drift must have length {n} and norm <= delta1")
                    if abs(zeroth) > self.delta0:
                        raise ValueError("entry zeroth coefficient must have |c| <= delta0")
        if self.kind == "divergence" and self.psi is None:
            object.__setattr__(self, "psi", PsiSpec("constant", (1.0,)))


def _pucci(eigs, lam, Lam, cpos, cneg):
    """cpos * (sum of positive eigenvalues) + cneg * (sum of negative ones)
    over the last axis of eigs (..., n); a float for one eigenvalue vector."""
    if lam > Lam:
        raise ValueError("need lambda <= Lambda")
    e = np.asarray(eigs, dtype=float)
    out = cpos * np.where(e > 0, e, 0.0).sum(-1) + cneg * np.where(e < 0, e, 0.0).sum(-1)
    return out if out.ndim else float(out)


def pucci_plus(eigs, lam: float, Lam: float):
    """Maximal Pucci operator: Lam * sum of positive eigenvalues plus
    lam * sum of negative ones, over the last axis of eigs (..., n)."""
    return _pucci(eigs, lam, Lam, Lam, lam)


def pucci_minus(eigs, lam: float, Lam: float):
    """Minimal Pucci operator; satisfies pucci_minus(e) = -pucci_plus(-e)."""
    return _pucci(eigs, lam, Lam, lam, Lam)


def _inf_sup(groups, entry):
    """Min over groups of max over entries of entry(A, drift, zeroth), which
    returns (value, *payload); the payload of the active entry is selected
    along with its value, the first entry winning ties."""

    def pick(take, new, old):
        return tuple(np.where(take, a, b) for a, b in zip(new, old))

    outer = None
    for group in groups:
        inner = None
        for A, drift, zeroth in group:
            cand = entry(np.asarray(A, dtype=float), np.asarray(drift, dtype=float), zeroth)
            inner = cand if inner is None else pick(cand[0] > inner[0], cand, inner)
        outer = inner if outer is None else pick(inner[0] < outer[0], inner, outer)
    return outer


def divergence_expanded(psi: PsiSpec, bspec: BSpec, z, laplacian, grad_sq):
    """Expanded conservative form Psi(b(z)) lap u + Psi'(b(z)) b'(z) |Du|^2 of
    div(Psi(b(u)) Du); elementwise over broadcast arguments."""
    y = b_eval(bspec, z)
    return (psi_eval(psi, y) * laplacian
            + psi_derivative(psi, y) * b_derivative(bspec, z) * grad_sq)


def operator_full_eval(op: OperatorSpec, M, p, z, bspec: BSpec = BSpec()):
    """Evaluate F(M, p, z) on symmetric matrices M (..., n, n), gradients
    p (..., n) and values z (...), broadcast over the leading axes: a float
    for one argument, an array of the leading shape for a stack."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if op.kind in ("pucci-plus", "pucci-minus"):
        f = pucci_plus if op.kind == "pucci-plus" else pucci_minus
        out = f(np.linalg.eigvalsh(M), op.lam, op.Lam)
    elif op.kind == "bellman-isaacs":
        def entry(A, drift, zeroth):
            return (np.trace(A @ M, axis1=-2, axis2=-1) + np.vecdot(drift, p) + zeroth * z,)

        out = _inf_sup(op.bi_entries, entry)[0]
    elif op.kind == "trace":
        out = op.lam * np.trace(M, axis1=-2, axis2=-1)
    else:
        out = divergence_expanded(op.psi, bspec, z, np.trace(M, axis1=-2, axis2=-1),
                                  np.vecdot(p, p))
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# finite-difference assembly on 1D grids (Cartesian interval or radial annulus)
# ---------------------------------------------------------------------------

def _active_coefficients(op: OperatorSpec, d2, d1, u, rho, radial):
    """Coefficients (a2, a1, a0) of the operator frozen at its active
    selection for the current (d2, d1, u) = (u'', u', u), such that
    F = a2*d2 + a1*d1 + a0*u.  On a radial grid rho is the radius and the
    tangential eigenvalue d1/rho enters through a1.  The divergence kind is
    assembled in flux form instead."""
    n = op.n_dim
    zeros = np.zeros_like(d2)
    if op.kind == "trace":
        a1 = op.lam * (n - 1) / rho if radial else zeros
        return np.full_like(d2, op.lam), a1, zeros
    if op.kind in ("pucci-plus", "pucci-minus"):
        cpos, cneg = (op.Lam, op.lam) if op.kind == "pucci-plus" else (op.lam, op.Lam)

        def coef(e):
            return np.where(e > 0, cpos, np.where(e < 0, cneg, op.lam))

        a1 = coef(d1 / rho) * (n - 1) / rho if radial else zeros
        return coef(d2), a1, zeros
    if op.kind == "bellman-isaacs":
        def entry(A, drift, zeroth):
            # the radial direction is the first axis: A[0, 0] acts on u'' and
            # the rest of the trace on the tangential eigenvalue u'/rho
            a2 = np.full_like(d2, A[0, 0])
            if radial:
                a1 = (np.trace(A) - A[0, 0]) / rho + drift[0]
            else:
                a1 = np.full_like(d2, drift[0])
            a0 = np.full_like(d2, zeroth)
            return a2 * d2 + a1 * d1 + a0 * u, a2, a1, a0

        return _inf_sup(op.bi_entries, entry)[1:]
    raise ValueError("divergence kind is assembled in flux form")


def _differences(u, h):
    """Central second and first differences at the interior nodes."""
    return (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2, (u[2:] - u[:-2]) / (2 * h)


def _divergence_fluxes(op: OperatorSpec, u, x, bspec, radial):
    """Face coefficients c_{i+1/2} and node weights for the conservative form
    F_i = (c_{i+1/2}(u_{i+1}-u_i) - c_{i-1/2}(u_i-u_{i-1})) / (h^2 w_i)."""
    n = op.n_dim
    psi_nodes = psi_eval(op.psi, b_eval(bspec, u))
    faces = 0.5 * (psi_nodes[1:] + psi_nodes[:-1])
    if radial:
        rho_face = 0.5 * (x[1:] + x[:-1])
        faces = faces * rho_face ** (n - 1)
        w = x ** (n - 1)
    else:
        w = np.ones_like(x)
    return faces, w


def apply_operator_1d(op: OperatorSpec, u, x, bspec: BSpec = BSpec(),
                      radial: bool = False) -> np.ndarray:
    """Nodewise F(D^2 u, Du, u) at interior nodes of a uniform 1D grid.

    u includes the Dirichlet boundary values at both ends; the returned array
    has length len(u) - 2.  With radial=True the grid x is interpreted as
    radii on an annulus in op.n_dim dimensions.
    """
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    if u.shape != x.shape:
        raise ValueError("field and grid shapes differ")
    if u.size < 3:
        raise ValueError("need at least 3 nodes")
    h = x[1] - x[0]
    if op.kind == "divergence":
        faces, w = _divergence_fluxes(op, u, x, bspec, radial)
        du = np.diff(u)
        return (faces[1:] * du[1:] - faces[:-1] * du[:-1]) / (h**2 * w[1:-1])
    d2, d1 = _differences(u, h)
    a2, a1, a0 = _active_coefficients(op, d2, d1, u[1:-1], x[1:-1], radial)
    return a2 * d2 + a1 * d1 + a0 * u[1:-1]


def operator_jacobian_1d(op: OperatorSpec, u, x, bspec: BSpec = BSpec(),
                         radial: bool = False):
    """Tridiagonal (lower, diag, upper) of the frozen-coefficient linearization
    of apply_operator_1d at the interior nodes."""
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    h = x[1] - x[0]
    if op.kind == "divergence":
        faces, w = _divergence_fluxes(op, u, x, bspec, radial)
        wi = w[1:-1]
        lower = faces[:-1] / (h**2 * wi)
        upper = faces[1:] / (h**2 * wi)
        diag = -(faces[1:] + faces[:-1]) / (h**2 * wi)
        return lower, diag, upper
    d2, d1 = _differences(u, h)
    a2, a1, a0 = _active_coefficients(op, d2, d1, u[1:-1], x[1:-1], radial)
    lower = a2 / h**2 - a1 / (2 * h)
    upper = a2 / h**2 + a1 / (2 * h)
    diag = -2 * a2 / h**2 + a0
    return lower, diag, upper


# ---------------------------------------------------------------------------
# structural envelope verification
# ---------------------------------------------------------------------------

@dataclass
class StructuralReport:
    kind: str
    trials: int
    passed: bool
    worst_margin: float
    violations: int = 0


def structural_envelope(eigs, grad_norm, z, lam, Lam, delta1, delta0, sense):
    """Extremal operator of the structural class (lam, Lam, delta1, delta0)
    at Hessian eigenvalues eigs (..., n), gradient norms |p| (...) and values
    z (...): the lower envelope M^-(eigs) - (delta1 |p| + delta0 |z|) for
    sense "sub", the upper envelope M^+(eigs) + (delta1 |p| + delta0 |z|) for
    sense "super"; broadcast over the leading axes."""
    slack = delta1 * grad_norm + delta0 * abs(z)
    if sense == "sub":
        return pucci_minus(eigs, lam, Lam) - slack
    return pucci_plus(eigs, lam, Lam) + slack


def structural_envelope_check(op: OperatorSpec, trials: int = 10_000,
                              seed: int = 0) -> StructuralReport:
    """Sample random argument pairs and verify the two-sided Pucci envelope

        M^-(M-N) - d1|p-q| - d0|z-w| <= F(M,p,z) - F(N,q,w)
                                     <= M^+(M-N) + d1|p-q| + d0|z-w|.

    Row k of one standard-normal block holds trial k's M, N (symmetrized),
    p, q, z and w, in that order.  Violations are reported, not raised.  The
    worst margin is the most negative slack over both inequalities
    (nonnegative slack = pass).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    n = op.n_dim
    lam, Lam = (op.lam, op.lam) if op.kind == "trace" else (op.lam, op.Lam)
    draws = rng.standard_normal((trials, 2 * n * n + 2 * n + 2))
    M, N = draws[:, :2 * n * n].reshape(trials, 2, n, n).swapaxes(0, 1)
    M, N = 0.5 * (M + M.swapaxes(-1, -2)), 0.5 * (N + N.swapaxes(-1, -2))
    p, q = draws[:, 2 * n * n:-2].reshape(trials, 2, n).swapaxes(0, 1)
    z, w = draws[:, -2], draws[:, -1]
    dF = operator_full_eval(op, M, p, z) - operator_full_eval(op, N, q, w)
    # np.vecdot keeps the per-row rounding of np.linalg.norm
    gap = (np.linalg.eigvalsh(M - N), np.sqrt(np.vecdot(p - q, p - q)), z - w,
           lam, Lam, op.delta1, op.delta0)
    margin = np.minimum(dF - structural_envelope(*gap, "sub"),
                        structural_envelope(*gap, "super") - dF)
    violations = int(np.count_nonzero(margin < -1e-10))
    return StructuralReport(
        kind=op.kind,
        trials=trials,
        passed=violations == 0,
        worst_margin=float(margin.min()),
        violations=violations,
    )
