"""Time-derivative nonlinearity b, its smooth approximating family, and the
divergence-form coefficient Psi."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as P

__all__ = [
    "BSpec",
    "BnFamily",
    "PsiSpec",
    "b_eval",
    "b_derivative",
    "bn_eval",
    "bn_derivative",
    "psi_eval",
    "psi_derivative",
]


@dataclass(frozen=True)
class BSpec:
    """Increasing Lipschitz nonlinearity with b = 0 on the nonpositive axis.

    kind "positive-part" is b(s) = max(s, 0).  kind "lipschitz-table" is a
    piecewise-linear increasing function given by breakpoints 0 = s_0 < s_1 <
    ... and a slope on each segment (the last slope extends to +infinity);
    every slope must be >= some c > 0.
    """

    kind: str = "positive-part"
    breakpoints: tuple = ()
    slopes: tuple = ()

    def __post_init__(self):
        if self.kind not in ("positive-part", "lipschitz-table"):
            raise ValueError(f"unknown b kind {self.kind!r}")
        if self.kind == "lipschitz-table":
            bp = np.asarray(self.breakpoints, dtype=float)
            sl = np.asarray(self.slopes, dtype=float)
            if bp.size == 0 or sl.size != bp.size:
                raise ValueError("need one slope per breakpoint segment")
            if bp[0] != 0.0 or np.any(np.diff(bp) <= 0):
                raise ValueError("breakpoints must start at 0 and increase")
            if np.any(sl <= 0):
                raise ValueError("slopes must be positive")


def b_eval(spec: BSpec, s):
    """Evaluate b(s); vectorized over s."""
    s = np.asarray(s, dtype=float)
    if spec.kind == "positive-part":
        out = np.maximum(s, 0.0)
    else:
        bp = np.asarray(spec.breakpoints, dtype=float)
        sl = np.asarray(spec.slopes, dtype=float)
        # values of b at the breakpoints, b(0) = 0
        vals = np.concatenate([[0.0], np.cumsum(sl[:-1] * np.diff(bp))])
        idx = np.clip(np.searchsorted(bp, s, side="right") - 1, 0, bp.size - 1)
        out = np.where(s <= 0.0, 0.0, vals[idx] + sl[idx] * (s - bp[idx]))
    return out if out.ndim else float(out)


def b_derivative(spec: BSpec, s):
    """Slope of b at s.  Zero on the nonpositive axis (value at the kink s=0
    is taken from the left)."""
    s = np.asarray(s, dtype=float)
    if spec.kind == "positive-part":
        out = np.where(s > 0.0, 1.0, 0.0)
    else:
        bp = np.asarray(spec.breakpoints, dtype=float)
        sl = np.asarray(spec.slopes, dtype=float)
        idx = np.clip(np.searchsorted(bp, s, side="right") - 1, 0, bp.size - 1)
        out = np.where(s > 0.0, sl[idx], 0.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class BnFamily:
    """Canonical smooth approximation of s_+ with index n:
    b_n(s) = n^-2 * log((e^n + e^(n^2 s)) / (e^n + 1))."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("smoothing index must be >= 1")

    @cached_property
    def log_norm(self):  # logaddexp(n, 0), the constant term of bn_eval
        return np.logaddexp(float(self.n), 0.0)


def bn_eval(fam: BnFamily, s):
    """Evaluate b_n(s) via the overflow-safe rearrangement
    n^-2 * (logaddexp(n, n^2 s) - logaddexp(n, 0))."""
    n = float(fam.n)
    s = np.asarray(s, dtype=float)
    out = (np.logaddexp(n, n * n * s) - fam.log_norm) / (n * n)
    return out if out.ndim else float(out)


# the representable values nearest 0 and 1 inside (0, 1)
_OPEN_LO, _OPEN_HI = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)


def bn_derivative(fam: BnFamily, s):
    """b_n'(s) = sigmoid(n^2 s - n), strictly in (0, 1).

    The logistic saturates to the closed endpoints in double precision (e.g.
    sigmoid(38) rounds to 1.0); the result is clamped to the nearest interior
    representable values so the strict bounds survive evaluation.  The clamp
    under/over-shoots the true value by less than one ulp.
    """
    n = float(fam.n)
    s = np.asarray(s, dtype=float)
    z = n * n * s - n
    # stable logistic
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e) / (1.0 + e)
    out = np.minimum(np.maximum(out, _OPEN_LO), _OPEN_HI)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class PsiSpec:
    """Positive C^1 coefficient Psi on [0, infinity): a polynomial with
    coefficients in increasing-degree order.  kind "constant" is the
    degree-0 polynomial, coeffs = (value,).  A polynomial that is not
    positive on [0, infinity) is rejected here, at construction.
    """

    kind: str = "constant"
    coeffs: Sequence[float] = (1.0,)

    def __post_init__(self):
        if self.kind not in ("constant", "polynomial"):
            raise ValueError(f"unknown psi kind {self.kind!r}")
        if len(self.coeffs) == 0:
            raise ValueError("need at least one coefficient")
        if self.kind == "constant" and len(self.coeffs) != 1:
            raise ValueError("constant Psi takes a single coefficient")
        # positive on [0, inf): positive constant and leading coefficients and
        # no real root >= 0, where a root within 1e-6 (relative) of the real
        # axis counts as real, so that a double root, which the eigenvalue
        # solver may return as a close conjugate pair, is one
        roots = P.polyroots(self.coeffs)
        real = roots.real[np.abs(roots.imag) <= 1e-6 * (1.0 + np.abs(roots))]
        if not (self.coeffs[0] > 0 and self.coeffs[-1] > 0 and not np.any(real >= 0)):
            raise ValueError("Psi must be positive on [0, inf)")


def psi_eval(spec: PsiSpec, y):
    """Evaluate Psi(y) for y >= 0."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("Psi is only defined for nonnegative arguments")
    # a constant c evaluates to c + y*0 = c, bit for bit, at every finite y
    out = np.asarray(P.polyval(y, np.asarray(spec.coeffs, dtype=float)), dtype=float)
    return out if out.ndim else float(out)


def psi_derivative(spec: PsiSpec, y):
    """Psi'(y) for y >= 0."""
    y = np.asarray(y, dtype=float)
    dc = P.polyder(np.asarray(spec.coeffs, dtype=float))
    out = np.asarray(P.polyval(y, dc), dtype=float)
    return out if out.ndim else float(out)
