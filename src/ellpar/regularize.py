"""Discrete sup/inf-convolutions of sampled space-time fields over the body
Xi_r, dual-point extraction, crossing-time detection, and discrete essential
envelopes.

Fields are node-major matrices of finite samples: values[j, i] is at time
times[j] and space node x[i], on uniform grids.  Xi_r and the envelopes' disc
are unions of centred rows |di| <= w at time offsets dj, so each body extremum
is a maximum over rows of window maxima, exactly the brute-force maximum over
in-body samples.  One geometry.WindowMaxTable per field answers every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import WindowMaxTable, XiShape, xi_contains, xi_slice_radius

__all__ = [
    "GridField",
    "ConvolvedField",
    "sup_convolve",
    "inf_convolve",
    "crossing_time",
    "CrossingReport",
    "essential_envelopes",
    "interior_ball_check",
    "InteriorBallReport",
]


@dataclass
class GridField:
    """A sampled space-time field on a uniform tensor grid, runs and convolutions included."""

    x: np.ndarray
    times: np.ndarray
    values: np.ndarray  # shape (len(times), len(x))

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.times.size, self.x.size):
            raise ValueError("field shape must be (n_times, n_x)")
        if not all(np.isfinite(a).all() for a in (self.x, self.times, self.values)):
            raise ValueError("field samples and nodes must be finite")

    def require_uniform(self):
        """The steps (hx, ht); a ValueError for an axis with fewer than two
        nodes, with uneven steps or with nodes that do not increase."""
        steps = []
        for axis, nodes in (("space", self.x), ("time", self.times)):
            h = np.diff(nodes)
            if not h.size:
                raise ValueError(f"{axis} grid needs at least two nodes")
            if not np.allclose(h, h[0], rtol=1e-9, atol=1e-12):
                raise ValueError(f"{axis} grid must be uniform")
            if not h[0] > 0:
                raise ValueError(f"{axis} grid nodes must increase")
            steps.append(float(h[0]))
        return tuple(steps)


@dataclass
class ConvolvedField(GridField):
    """A sup- or inf-convolution of base, on its shrunk grid (x_slice, t_slice)."""

    base: GridField
    r: float
    dual_index: np.ndarray  # flat index into base.values, same shape as values
    x_slice: slice
    t_slice: slice


def _xi_stencil(r: float, hx: float, ht: float):
    """Index offsets (dj, di) with (di*hx, dj*ht) in the closed Xi_r, sorted in
    ascending flat-index order (dj, then di).

    Membership depends on |di*hx| and (dj*ht)^2 only and shrinks as either
    grows, so row dj is |di| <= w(|dj|), and it is empty when (0, dj*ht) is
    outside.  w starts from floor(xi_slice_radius(dj*ht) / hx) and is settled
    with xi_contains itself, stepping down while w is outside and up while
    w + 1 is inside: the same offsets as testing every (di, dj) of the
    bounding box.
    """
    shape = XiShape(r)
    reach_x = int(math.floor((r + r ** (2.0 / 3.0)) / hx)) + 1
    reach_t = int(math.floor(r / ht)) + 1
    widths = []
    for dj in range(reach_t + 1):
        t = dj * ht
        if not xi_contains(shape, 0.0, t):
            break
        w = min(int(math.floor(xi_slice_radius(shape, t) / hx)), reach_x)
        while w > 0 and not xi_contains(shape, w * hx, t):
            w -= 1
        while w < reach_x and xi_contains(shape, (w + 1) * hx, t):
            w += 1
        widths.append(w)
    dj = np.arange(1 - len(widths), len(widths))
    w = np.asarray(widths)[np.abs(dj)]
    size = 2 * w + 1
    # di runs from -w to w in each row: the running position minus the row's
    # start, minus w
    di = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size + w, size)
    return np.stack([np.repeat(dj, size), di], axis=1)


def _rows(offs):
    """(dj, w) in ascending dj for a stencil sorted by dj whose row dj is
    |di| <= w."""
    dj, start = np.unique(offs[:, 0], return_index=True)
    return list(zip(dj.tolist(), np.maximum.reduceat(offs[:, 1], start).tolist()))


def _convolve(field: GridField, r: float, kind: str) -> ConvolvedField:
    if not 0 < r < math.inf:
        raise ValueError("radius must be positive and finite")
    hx, ht = field.require_uniform()
    if hx > r / 4.0:
        raise ValueError("grid spacing must be at most r/4")
    x, times, vals = field.x, field.times, field.values
    nx = x.size

    margin = r + r ** (2.0 / 3.0)
    # shrunk grid: nodes whose translated closed body stays inside the sampled box
    ix = np.where((x - x[0] >= margin - 1e-12) & (x[-1] - x >= margin - 1e-12))[0]
    it = np.where((times - times[0] >= r - 1e-12) & (times[-1] - times >= r - 1e-12))[0]
    if ix.size == 0 or it.size == 0:
        raise ValueError("radius too large: shrunk grid is empty")
    x_slice = slice(ix[0], ix[-1] + 1)
    t_slice = slice(it[0], it[-1] + 1)

    work = vals if kind == "sup" else -vals
    rows = _rows(_xi_stencil(r, hx, ht))
    table = WindowMaxTable(work, [2 * w + 1 for _, w in rows], arg=True)
    row_start = (it[0] + np.arange(it.size))[:, None] * nx  # flat index at dj = 0
    best = np.full((it.size, ix.size), -np.inf)
    dual = np.zeros((it.size, ix.size), dtype=np.int64)
    # rows in ascending dj, leftmost argmax within a row, and updates only
    # where strictly greater: the dual is the smallest flat index attaining it
    for dj, w in rows:
        j = it[0] + dj
        m, k = table.query(2 * w + 1, (slice(j, j + it.size),), ix[0] - w, ix.size)
        up = m > best
        np.copyto(best, m, where=up)
        np.copyto(dual, row_start + dj * nx + k, where=up)
    return ConvolvedField(base=field, r=r, x=x[x_slice],
                          times=times[t_slice], values=vals.ravel()[dual],
                          dual_index=dual, x_slice=x_slice, t_slice=t_slice)


def sup_convolve(field: GridField, r: float) -> ConvolvedField:
    """Running maximum of the field over the translated closed body Xi_r.

    Dual indices record the smallest flat index attaining the extremum.
    """
    return _convolve(field, r, "sup")


def inf_convolve(field: GridField, r: float) -> ConvolvedField:
    """Running minimum over the translated closed body; equals
    -sup_convolve(-field) exactly."""
    return _convolve(field, r, "inf")


@dataclass
class CrossingReport:
    t0: Optional[float]
    contact_nodes: np.ndarray


def crossing_time(Z, W) -> CrossingReport:
    """First time level at which min(W - Z) <= 0, with the arg-node contact
    set; t0 is None if W stays strictly above Z through the horizon.

    Z and W are any two GridFields on one grid, typically a sup-convolution
    Z and an inf-convolution W; a ValueError reports fields on different
    grids."""
    if not (np.array_equal(Z.x, W.x) and np.array_equal(Z.times, W.times)):
        raise ValueError("fields live on different grids")
    gap = W.values - Z.values
    level_min = gap.min(axis=1)
    hit = np.where(level_min <= 0.0)[0]
    if hit.size == 0:
        return CrossingReport(t0=None, contact_nodes=np.array([], dtype=int))
    j = int(hit[0])
    contact = np.where(gap[j] <= 0.0)[0]
    return CrossingReport(t0=float(Z.times[j]), contact_nodes=contact)


def essential_envelopes(field: GridField, radii) -> tuple:
    """Discrete essential envelopes (upper, lower, candidate).

    upper(x,t) = min over r in radii of the field's max over the grid disc
    (di*hx)^2 + (dj*ht)^2 <= r^2 around (x,t), cut at the grid; lower swaps
    max and min.  The discs nest exactly in floating point (the left side is
    the same for every radius; r*r and the box floor(r/h) grow with r), so
    only the smallest radius's disc is computed; every radius is checked.
    Each disc holds its centre, so lower <= field <= upper and the candidate
    max(min(field, upper), lower) is the field: `field` itself is returned.
    """
    radii = [float(r) for r in radii]
    if not radii or any(not 0 < r < math.inf for r in radii):
        raise ValueError("radii must be positive and finite")
    r = min(radii)
    hx, ht = field.require_uniform()
    vals = field.values
    nt, nx = vals.shape
    rx = int(math.floor(r / hx))
    rt = int(math.floor(r / ht))
    # the grid disc in its bounding box: row dj is |di| <= w, of count 2w + 1
    dj, di = np.ogrid[-rt:rt + 1, -rx:rx + 1]
    count = ((di * hx) ** 2 + (dj * ht) ** 2 <= r * r).sum(axis=1).tolist()
    rows = [(j, (c - 1) // 2) for j, c in zip(range(-rt, rt + 1), count) if c]
    # max and -min of the field at once; -inf pads cut windows at the edge
    both = np.pad(np.stack([vals, -vals]), ((0, 0), (rt, rt), (rx, rx)),
                  constant_values=-np.inf)
    table = WindowMaxTable(both, [2 * w + 1 for _, w in rows])
    acc = np.full((2, nt, nx), -np.inf)
    for dj, w in rows:
        lead = (slice(None), slice(rt + dj, rt + dj + nt))
        np.maximum(acc, table.query(2 * w + 1, lead, rx - w, nx), out=acc)
    return (GridField(field.x, field.times, acc[0]),
            GridField(field.x, field.times, -acc[1]), field)


@dataclass
class InteriorBallReport:
    checked: int
    violations: int
    passed: bool


def interior_ball_check(conv: ConvolvedField, level: str = "Z>=0") -> InteriorBallReport:
    """For boundary nodes of the level set (at most 200, evenly strided),
    verify the translated body around the dual point stays inside the
    corresponding super/sublevel set.

    level "Z>=0" for sup-convolutions, "W<=0" for inf-convolutions.
    """
    if level not in ("Z>=0", "W<=0"):
        raise ValueError("level must be 'Z>=0' or 'W<=0'")
    hx, ht = conv.base.require_uniform()
    # W <= 0 is -W >= 0, and v > ref + tol is -v < -ref - tol, exactly
    vals = conv.values if level == "Z>=0" else -conv.values
    inset = vals >= 0.0
    # boundary nodes: in the set with a 4-neighbor outside
    out = np.pad(~inset, 1)
    nb = out[:-2, 1:-1] | out[2:, 1:-1] | out[1:-1, :-2] | out[1:-1, 2:]
    boundary = np.argwhere(inset & nb)
    if boundary.shape[0] > 200:
        step = boundary.shape[0] // 200 + 1
        boundary = boundary[::step]

    offs = _xi_stencil(conv.r, hx, ht)
    nt_out, nx_out = vals.shape
    checked = violations = 0
    # one boundary node at a time keeps the index arrays at stencil size
    for j, i in boundary:
        # the body around the dual point, in indices of the shrunk grid
        dj, di = divmod(int(conv.dual_index[j, i]), conv.base.x.size)
        jj = dj - conv.t_slice.start + offs[:, 0]
        ii = di - conv.x_slice.start + offs[:, 1]
        inside = (jj >= 0) & (jj < nt_out) & (ii >= 0) & (ii < nx_out)
        checked += int(np.count_nonzero(inside))
        violations += int(np.count_nonzero(vals[jj[inside], ii[inside]] < vals[j, i] - 1e-12))
    return InteriorBallReport(checked=checked, violations=violations,
                              passed=violations == 0)
