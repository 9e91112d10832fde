"""Space-time geometry of the regularization body, the iteration chain used
for interior lower bounds, the zero set of sampled profiles, and the windowed
maximum that every body extremum is built on.

The body Xi_r is the Minkowski sum of a space disk of radius r (at time 0) and
the flattened set {|x|^3 + |t|^2 < r^2}.  Membership in its closure reduces to
a radial test, which is what we implement; the brute-force Minkowski search
only appears in the tests as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "XiShape",
    "HarnackChain",
    "xi_contains",
    "xi_slice_radius",
    "harnack_chain",
    "harnack_chain_k_bound",
    "edge_zeros",
    "WindowMaxTable",
    "window_max",
]


@dataclass(frozen=True)
class XiShape:
    """The regularization body Xi_r centered at the origin."""

    r: float

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("radius must be positive")


def _space_norm(dx) -> float:
    dx = np.asarray(dx, dtype=float)
    if dx.ndim == 0:
        return abs(float(dx))
    return float(np.linalg.norm(dx))


def xi_contains(shape: XiShape, dx, dt: float) -> bool:
    """Test whether the space-time offset (dx, dt) lies in the closed body
    Xi_r, the closure of the Minkowski sum, by the radial reduction
    max(|dx| - r, 0)^3 + dt^2 <= r^2."""
    r = shape.r
    excess = max(_space_norm(dx) - r, 0.0)
    return excess**3 + dt * dt <= r * r


def xi_slice_radius(shape: XiShape, t: float) -> float:
    """Radius r + (r^2 - t^2)^(1/3) of the slice of the closed body Xi_r at
    time t, which is r at |t| = r; a ValueError for |t| > r (t^2 > r^2, the
    closed membership test of (0, t)), where the slice is empty."""
    r = shape.r
    gap = r * r - t * t
    if gap < 0.0:
        raise ValueError(f"the slice of Xi_{r} at t = {t} is empty")
    return r + gap ** (1.0 / 3.0)


@dataclass(frozen=True)
class HarnackChain:
    """The radii a_j and time offsets h_j, j = 0..k, of harnack_chain(r, s)."""

    a: np.ndarray = field(repr=False)
    h: np.ndarray = field(repr=False)
    k: int


def harnack_chain(r: float, s: float) -> HarnackChain:
    """Iterate a_{j+1} = cbrt(r a_j^2 + (a_j - s)^3) + s with a_0 = min(s, r/16)
    and h_{j+1} = h_j - a_j^2 until a_k >= r/2 + s (RuntimeError past 10,000).

    For s >= r/16 the chain terminates immediately with k = 0.
    """
    if not r > 0:
        raise ValueError("radius must be positive")
    if not (0 < s <= r):
        raise ValueError("s must lie in (0, r]")

    a0 = min(s, r / 16.0)
    if s >= r / 16.0:
        return HarnackChain(a=np.array([a0]), h=np.array([0.0]), k=0)

    a = [a0]
    h = [0.0]
    k = 0
    while a[k] < r / 2.0 + s:
        h.append(h[k] - a[k] ** 2)
        a.append((r * a[k] ** 2 + (a[k] - s) ** 3) ** (1.0 / 3.0) + s)
        k += 1
        if k > 10_000:
            raise RuntimeError("harnack chain failed to terminate")
    return HarnackChain(a=np.asarray(a), h=np.asarray(h), k=k)


def harnack_chain_k_bound(r: float, s: float) -> float:
    """Closed-form upper bound on the chain length for s < r/16."""
    return math.log(math.log(s / r) / math.log(0.5)) / math.log(1.5) + 1.0


def edge_zeros(x, i, a, b):
    """Zeros of the linear interpolants through (x[i], a) and (x[i+1], b),
    vectorized over the edge indices i; exact at zero nodes: x[i] where
    a == 0, else x[i+1] where b == 0.  The one locator of the free boundary
    between grid nodes, for solver fronts and the Hopf front of acceptance
    criterion 11."""
    x0, x1 = x[i], x[i + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        z = x0 + (x1 - x0) * (0 - a) / (b - a)
    return np.where(a == 0, x0, np.where(b == 0, x1, z))


def _level(n: int) -> int:
    """2^floor(log2 n), the table level that answers length-n windows."""
    return 1 << (int(n).bit_length() - 1)


def _max2(m, idx, left, right):
    """Maximum of m[left] and m[right] and, with idx, its leftmost argmax:
    right is taken only where strictly greater.  Without idx the values are
    np.maximum's, signed zeros included."""
    lo, hi = m[left], m[right]
    if idx is None:
        return np.maximum(lo, hi), None
    take = hi > lo
    return np.where(take, hi, lo), np.where(take, idx[right], idx[left])


class WindowMaxTable:
    """Sparse table of window maxima along the last axis of a (Bender &
    Farach-Colton 2000), for the window lengths in sizes.

    Level p holds max(a[..., k:k+p]) for every k and, with arg, its leftmost
    argmax as an index into the last axis of a.  The levels are built by
    doubling, once; only the levels p = 2^floor(log2 n) of the requested
    lengths n are kept.  A length-n window is the maximum of the two length-p
    windows at its ends, which overlap unless n = p; the right one wins only
    where it is strictly greater, so the argmax stays leftmost.
    """

    def __init__(self, a, sizes, arg: bool = False):
        m = np.asarray(a)
        sizes = [int(n) for n in sizes]
        if not sizes or min(sizes) < 1 or max(sizes) > m.shape[-1]:
            raise ValueError("window lengths must lie in [1, a.shape[-1]]")
        keep = {_level(n) for n in sizes}
        idx = np.broadcast_to(np.arange(m.shape[-1]), m.shape) if arg else None
        self.levels = {}  # p -> (max, argmax or None) of the length-p windows
        p = 1
        while True:
            if p in keep:
                self.levels[p] = (m, idx)
            if 2 * p > max(keep):
                break
            m, idx = _max2(m, idx, (..., slice(None, -p)), (..., slice(p, None)))
            p *= 2

    def query(self, n: int, lead=(), start: int = 0, count: Optional[int] = None):
        """Maxima (and leftmost argmaxes, if the table has them) of the
        length-n windows of a[lead] that start at start, ..., start+count-1
        along the last axis; count defaults to every window from start."""
        p = _level(n)
        if p not in self.levels:
            raise ValueError(f"window length {n} was not requested")
        m, idx = self.levels[p]
        if count is None:
            count = m.shape[-1] - (n - p) - start
        k = start + n - p
        out = _max2(m, idx, (*lead, ..., slice(start, start + count)),
                    (*lead, ..., slice(k, k + count)))
        return out if idx is not None else out[0]


def window_max(a, n: int):
    """Maximum of every length-n window along the last axis: out[..., k] =
    max(a[..., k:k+n]).  One query on a WindowMaxTable, which is the one
    windowed extremum behind the Xi_r convolutions, the essential envelopes
    and the front shift (WindowMaxTable(a, (n,), arg=True).query(n) adds the
    leftmost argmaxes); minima are -window_max(-a)."""
    return WindowMaxTable(a, (n,)).query(n)
