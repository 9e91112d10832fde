"""Elliptic operators: linear trace, Pucci extremal pair, finite
inf-sup (Bellman-Isaacs) families, and the divergence-form operator, together
with their radial reduction and 1D finite-difference assembly.

The only multi-dimensional content is the radial reduction: a radially
symmetric profile has Hessian eigenvalues psi'/rho (multiplicity n-1) and
psi'', so every operator evaluation reduces to a 1D computation on an annulus.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    "operator_jacobian_1d",
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
    |zeroth| <= delta0.  psi is the Psi of the divergence kind (constant 1 if
    not given).  A field that the kind does not read, psi or a non-empty
    bi_entries, is a ValueError.
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
        if self.psi is not None and self.kind != "divergence":
            raise ValueError(f"psi is read by divergence only, not by {self.kind}")
        if self.bi_entries and self.kind != "bellman-isaacs":
            raise ValueError(f"bi_entries are read by bellman-isaacs only, not by {self.kind}")
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

    @property
    def linear(self) -> bool:
        """Whether F is linear in u, so that `operator_jacobian_1d` does not
        depend on u: the trace kind, and the divergence kind with a degree-0 Psi."""
        return self.kind == "trace" or (self.kind == "divergence" and len(self.psi.coeffs) == 1)

    @property
    def pucci_weights(self):
        """Eigenvalue weights (c+, c-): (Lam, lam) for M+, (lam, Lam) for M-."""
        if self.kind not in ("pucci-plus", "pucci-minus"):
            raise ValueError(f"{self.kind} is not a Pucci operator")
        return (self.Lam, self.lam) if self.kind == "pucci-plus" else (self.lam, self.Lam)


def _pucci(eigs, cpos, cneg):
    """cpos * (sum of positive eigenvalues) + cneg * (sum of negative ones)
    over the last axis of eigs (..., n); a float for one eigenvalue vector."""
    e = np.asarray(eigs, dtype=float)
    out = cpos * np.where(e > 0, e, 0.0).sum(-1) + cneg * np.where(e < 0, e, 0.0).sum(-1)
    return out if out.ndim else float(out)


def pucci_plus(op: OperatorSpec, eigs):
    """Maximal Pucci operator of op's class: Lam * sum of positive eigenvalues
    plus lam * sum of negative ones, over the last axis of eigs (..., n)."""
    return _pucci(eigs, op.Lam, op.lam)


def pucci_minus(op: OperatorSpec, eigs):
    """Minimal Pucci operator of op's class: pucci_minus(op, e) = -pucci_plus(op, -e)."""
    return _pucci(eigs, op.lam, op.Lam)


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


def divergence_expanded(op: OperatorSpec, bspec: BSpec, z, laplacian, grad_sq):
    """Expanded conservative form Psi(b(z)) lap u + Psi'(b(z)) b'(z) |Du|^2 of
    div(Psi(b(u)) Du) with Psi = op.psi; elementwise over broadcast arguments."""
    y = b_eval(bspec, z)
    return (psi_eval(op.psi, y) * laplacian
            + psi_derivative(op.psi, y) * b_derivative(bspec, z) * grad_sq)


def operator_full_eval(op: OperatorSpec, M, p, z, bspec: BSpec = BSpec()):
    """Evaluate F(M, p, z) on symmetric matrices M (..., n, n), gradients
    p (..., n) and values z (...), broadcast over the leading axes: a float
    for one argument, an array of the leading shape for a stack."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if op.kind in ("pucci-plus", "pucci-minus"):
        out = _pucci(np.linalg.eigvalsh(M), *op.pucci_weights)
    elif op.kind == "bellman-isaacs":
        def entry(A, drift, zeroth):
            return (np.trace(A @ M, axis1=-2, axis2=-1) + np.vecdot(drift, p) + zeroth * z,)

        out = _inf_sup(op.bi_entries, entry)[0]
    elif op.kind == "trace":
        out = op.lam * np.trace(M, axis1=-2, axis2=-1)
    else:
        out = divergence_expanded(op, bspec, z, np.trace(M, axis1=-2, axis2=-1),
                                  np.vecdot(p, p))
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# finite-difference assembly on 1D grids (Cartesian interval or radial annulus)
# ---------------------------------------------------------------------------

def _active_coefficients(op: OperatorSpec, d2, d1, u, rho, radial):
    """Coefficients (a2, a1, a0) of the operator frozen at its active
    selection for the current (d2, d1, u) = (u'', u', u), such that
    F = a2*d2 + a1*d1 + a0*u; a constant coefficient is a float and a
    missing term None.  On a radial grid rho is the radius and the
    tangential eigenvalue d1/rho enters through a1.  The divergence kind is
    assembled in flux form instead."""
    n = op.n_dim
    if op.kind == "trace":
        return op.lam, (op.lam * (n - 1) / rho if radial else None), None
    if op.kind in ("pucci-plus", "pucci-minus"):
        cpos, cneg = op.pucci_weights

        def coef(e):
            return np.where(e > 0, cpos, np.where(e < 0, cneg, op.lam))

        return coef(d2), (coef(d1 / rho) * (n - 1) / rho if radial else None), None
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


def _differences(op: OperatorSpec, u, h, radial):
    """Central second differences at the interior nodes, and the first
    differences where `_active_coefficients` reads them (on a radial grid
    and for the Bellman-Isaacs drift), None elsewhere."""
    d1 = (u[2:] - u[:-2]) / (2 * h) if radial or op.kind == "bellman-isaacs" else None
    return (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2, d1


def _divergence_fluxes(op: OperatorSpec, u, x, bspec, radial):
    """Face coefficients c_{i+1/2} = (Psi(b(u_i)) + Psi(b(u_{i+1}))) / 2 *
    r_{i+1/2}, face weights r_{i+1/2} and node weights w_i of the
    conservative form F_i = (c_{i+1/2}(u_{i+1}-u_i) - c_{i-1/2}(u_i-u_{i-1}))
    / (h^2 w_i): r = rho^(n-1) at the faces and w = rho^(n-1) at the nodes on
    a radial grid, ones on the interval."""
    n = op.n_dim
    psi_nodes = psi_eval(op.psi, b_eval(bspec, u))
    faces = 0.5 * (psi_nodes[1:] + psi_nodes[:-1])
    if radial:
        face_w = (0.5 * (x[1:] + x[:-1])) ** (n - 1)
        return faces * face_w, face_w, x ** (n - 1)
    return faces, np.ones_like(faces), np.ones_like(x)


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
        faces, _, w = _divergence_fluxes(op, u, x, bspec, radial)
        du = np.diff(u)
        return (faces[1:] * du[1:] - faces[:-1] * du[:-1]) / (h**2 * w[1:-1])
    d2, d1 = _differences(op, u, h, radial)
    a2, a1, a0 = _active_coefficients(op, d2, d1, u[1:-1], x[1:-1], radial)
    F = a2 * d2
    if a1 is not None:
        F += a1 * d1
    # a missing a0 adds +0.0, as a0 = 0 would: F is -0 only where d2 = -0,
    # which needs u = +0 at the node, so 0*u is +0 there too
    F += 0.0 if a0 is None else a0 * u[1:-1]
    return F


def operator_jacobian_1d(op: OperatorSpec, u, x, bspec: BSpec = BSpec(),
                         radial: bool = False):
    """Tridiagonal (lower, diag, upper) of the linearization of
    apply_operator_1d at the interior nodes.

    Trace, Pucci and Bellman-Isaacs kinds freeze the active coefficient
    selection: the semismooth (generalized) Jacobian, exact away from the
    switching set.  The divergence kind is exact, face term included:
    dc_{i+1/2}/du_j = Psi'(b(u_j)) b'(u_j) r_{i+1/2} / 2 for j = i, i+1,
    with b' taken from the left at a kink.
    """
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    h = x[1] - x[0]
    if op.kind == "divergence":
        faces, face_w, w = _divergence_fluxes(op, u, x, bspec, radial)
        # right and left: d/du_{k+1} and -d/du_k of the face flux
        # c_k (u_{k+1} - u_k), where c_k moves with both of its nodes
        q = 0.5 * face_w * np.diff(u)
        dpsi = psi_derivative(op.psi, b_eval(bspec, u)) * b_derivative(bspec, u)
        right, left = faces + q * dpsi[1:], faces - q * dpsi[:-1]
        scale = h**2 * w[1:-1]
        return left[:-1] / scale, -(left[1:] + right[:-1]) / scale, right[1:] / scale
    d2, d1 = _differences(op, u, h, radial)
    a2, a1, a0 = _active_coefficients(op, d2, d1, u[1:-1], x[1:-1], radial)
    a2 = np.broadcast_to(a2, d2.shape)
    c1 = 0.0 if a1 is None else a1 / (2 * h)
    lower = a2 / h**2 - c1
    upper = a2 / h**2 + c1
    diag = -2 * a2 / h**2 + (0.0 if a0 is None else a0)
    return lower, diag, upper


# ---------------------------------------------------------------------------
# structural envelope verification
# ---------------------------------------------------------------------------

@dataclass
class StructuralReport:
    passed: bool
    worst_margin: float
    violations: int = 0


def structural_envelope(op: OperatorSpec, eigs, grad_norm, z, sense):
    """Extremal operator of the structural class (lam, Lam, delta1, delta0)
    of op at Hessian eigenvalues eigs (..., n), gradient norms |p| (...) and
    values z (...): the lower envelope M^-(eigs) - (delta1 |p| + delta0 |z|)
    for sense "sub", the upper envelope M^+(eigs) + (delta1 |p| + delta0 |z|)
    for sense "super"; broadcast over the leading axes."""
    slack = op.delta1 * grad_norm + op.delta0 * abs(z)
    if sense == "sub":
        return pucci_minus(op, eigs) - slack
    return pucci_plus(op, eigs) + slack


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
    env = replace(op, Lam=op.lam) if op.kind == "trace" else op  # lam tr(M): class [lam, lam]
    draws = rng.standard_normal((trials, 2 * n * n + 2 * n + 2))
    M, N = draws[:, :2 * n * n].reshape(trials, 2, n, n).swapaxes(0, 1)
    M, N = 0.5 * (M + M.swapaxes(-1, -2)), 0.5 * (N + N.swapaxes(-1, -2))
    p, q = draws[:, 2 * n * n:-2].reshape(trials, 2, n).swapaxes(0, 1)
    z, w = draws[:, -2], draws[:, -1]
    dF = operator_full_eval(op, M, p, z) - operator_full_eval(op, N, q, w)
    # np.vecdot keeps the per-row rounding of np.linalg.norm
    gap = (env, np.linalg.eigvalsh(M - N), np.sqrt(np.vecdot(p - q, p - q)), z - w)
    margin = np.minimum(dF - structural_envelope(*gap, "sub"),
                        structural_envelope(*gap, "super") - dF)
    violations = int(np.count_nonzero(margin < -1e-10))
    return StructuralReport(passed=violations == 0, worst_margin=float(margin.min()),
                            violations=violations)
