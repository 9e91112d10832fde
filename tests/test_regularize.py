import math
from dataclasses import replace

import numpy as np
import pytest

from ellpar import regularize
from ellpar.geometry import XiShape, xi_contains
from ellpar.harness import make_jump_scenario
from ellpar.regularize import (
    GridField,
    _xi_stencil,
    crossing_time,
    essential_envelopes,
    inf_convolve,
    interior_ball_check,
    sup_convolve,
)
from ellpar.solver import run


def _offset_masks(nt, nx, member):
    """member(di, dj) for every offset between two nodes of an (nt, nx) grid,
    as mask[dj + nt - 1, di + nx - 1]; the body around node (j, i) over the
    whole grid is then the window mask[nt-1-j:2nt-1-j, nx-1-i:2nx-1-i]."""
    return np.array([[member(di, dj) for di in range(1 - nx, nx)]
                     for dj in range(1 - nt, nt)], dtype=bool)


def _body(mask, j, i):
    nt, nx = (mask.shape[0] + 1) // 2, (mask.shape[1] + 1) // 2
    return mask[nt - 1 - j:2 * nt - 1 - j, nx - 1 - i:2 * nx - 1 - i]


def brute_force_convolve(field, r, kind):
    """Per-node extremum over every in-body sample of the whole grid, with
    membership from xi_contains (evaluated once per offset, by translation
    invariance); returns the values and the smallest flat index attaining
    them.  The implementation must be bit-identical to this."""
    hx = field.x[1] - field.x[0]
    ht = field.times[1] - field.times[0]
    shape = XiShape(r)
    margin = r + r ** (2 / 3)
    x, ts, vals = field.x, field.times, field.values
    ix = np.where((x - x[0] >= margin - 1e-12) & (x[-1] - x >= margin - 1e-12))[0]
    it = np.where((ts - ts[0] >= r - 1e-12) & (ts[-1] - ts >= r - 1e-12))[0]
    mask = _offset_masks(ts.size, x.size,
                         lambda di, dj: xi_contains(shape, di * hx, dj * ht))
    work = vals if kind == "sup" else -vals
    dual = np.empty((it.size, ix.size), dtype=np.int64)
    for a, j in enumerate(it):
        for b, i in enumerate(ix):
            dual[a, b] = np.argmax(np.where(_body(mask, j, i), work, -np.inf))
    return vals.ravel()[dual], dual


def brute_force_envelopes(field, radii):
    """Per-node min over radii of the max (and max over radii of the min) over
    grid samples in the disc (di hx)^2 + (dj ht)^2 <= r^2, cut at the grid."""
    hx = field.x[1] - field.x[0]
    ht = field.times[1] - field.times[0]
    vals = field.values
    nt, nx = vals.shape
    upper = np.full_like(vals, np.inf)
    lower = np.full_like(vals, -np.inf)
    for r in radii:
        mask = _offset_masks(nt, nx, lambda di, dj: (di * hx) ** 2 + (dj * ht) ** 2 <= r * r)
        for j in range(nt):
            for i in range(nx):
                disc = vals[_body(mask, j, i)]
                upper[j, i] = min(upper[j, i], disc.max())
                lower[j, i] = max(lower[j, i], disc.min())
    return upper, lower


def reference_ball_check(conv, level):
    """The interior-ball check as a scalar loop over boundary nodes and
    stencil points."""
    hx, ht = conv.base.require_uniform()
    vals = conv.values
    inset = vals >= 0.0 if level == "Z>=0" else vals <= 0.0
    nt, nx = vals.shape
    boundary = [(j, i) for j in range(nt) for i in range(nx) if inset[j, i] and any(
        0 <= j + a < nt and 0 <= i + b < nx and not inset[j + a, i + b]
        for a, b in ((-1, 0), (1, 0), (0, -1), (0, 1)))]
    if len(boundary) > 200:
        boundary = boundary[::len(boundary) // 200 + 1]
    stencil = _xi_stencil(conv.r, hx, ht).tolist()
    checked = violations = 0
    for j, i in boundary:
        dj, di = divmod(int(conv.dual_index[j, i]), conv.base.x.size)
        ref = vals[j, i]
        for doff, soff in stencil:
            jj = dj + doff - conv.t_slice.start
            ii = di + soff - conv.x_slice.start
            if not (0 <= jj < nt and 0 <= ii < nx):
                continue
            checked += 1
            if level == "Z>=0" and vals[jj, ii] < ref - 1e-12:
                violations += 1
            if level == "W<=0" and vals[jj, ii] > ref + 1e-12:
                violations += 1
    return checked, violations


def small_random_field(seed=0, nx=41, nt=29):
    # domain wide enough that the shrink margin r + r^(2/3) leaves a
    # nonempty output grid for radii around 0.2
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 2.0, nx)
    ts = np.linspace(0.0, 1.4, nt)
    return GridField(x, ts, rng.standard_normal((nt, nx)))


def full_scan_stencil(r, hx, ht):
    """Every (dj, di) of the bounding box of Xi_r tested with xi_contains, in
    ascending (dj, di) order; _xi_stencil must equal it."""
    shape = XiShape(r)
    reach_x = int(math.floor((r + r ** (2.0 / 3.0)) / hx)) + 1
    reach_t = int(math.floor(r / ht)) + 1
    return np.asarray([(dj, di) for dj in range(-reach_t, reach_t + 1)
                       for di in range(-reach_x, reach_x + 1)
                       if xi_contains(shape, di * hx, dj * ht)], dtype=int)


class TestStencil:
    def cases(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            r = rng.uniform(0.05, 1.0)
            yield r, r / rng.uniform(4.0, 16.0), r / rng.uniform(0.8, 16.0)
        # grid nodes on the boundary of the body: the top row dj*ht = r
        # (ht = r/m), and di*hx at the lateral boundary of row 1; rounding
        # puts the closed-form width one off, both up (hx = r/11) and down
        for r in (0.1, 0.25, 0.3, 1.0):
            for k in (4, 5, 8, 11):
                for m in (1, 2, 3, 8):
                    ht = r / m
                    yield r, r / k, ht
                    yield r, (r + (r * r - ht * ht) ** (1.0 / 3.0)) / (4 * k), ht

    def test_equals_full_scan(self):
        for r, hx, ht in self.cases():
            got, want = _xi_stencil(r, hx, ht), full_scan_stencil(r, hx, ht)
            assert got.shape == want.shape and np.array_equal(got, want), (r, hx, ht)

    def test_at_most_three_membership_tests_per_row(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return xi_contains(*args, **kwargs)

        monkeypatch.setattr(regularize, "xi_contains", counting)
        for r, hx, ht in self.cases():
            calls.clear()
            rows = np.unique(_xi_stencil(r, hx, ht)[:, 0]).size
            assert len(calls) <= 3 * rows + 1, (r, hx, ht)


class TestConvolution:
    def test_bit_identical_to_brute_force(self):
        fld = small_random_field()
        r = 0.21
        for kind, fn in (("sup", sup_convolve), ("inf", inf_convolve)):
            got = fn(fld, r)
            want, dual = brute_force_convolve(fld, r, kind)
            assert np.array_equal(got.values, want)
            assert np.array_equal(got.dual_index, dual)

    def test_ties_take_smallest_flat_index(self):
        # integer levels: many samples of a body attain the extremum
        rng = np.random.default_rng(11)
        x = np.linspace(0.0, 2.0, 41)
        ts = np.linspace(0.0, 1.4, 29)
        fld = GridField(x, ts, rng.integers(-2, 3, (29, 41)).astype(float))
        for kind, fn in (("sup", sup_convolve), ("inf", inf_convolve)):
            want, dual = brute_force_convolve(fld, 0.21, kind)
            got = fn(fld, 0.21)
            assert np.array_equal(got.values, want)
            assert np.array_equal(got.dual_index, dual)

    def test_rejects_non_finite_samples(self):
        fld = small_random_field()
        conv = sup_convolve(fld, 0.2)
        out = run(make_jump_scenario(grid=101, n=16, T=0.01).spec)
        # a run and a convolution are checked as any GridField is
        for f in (fld, conv, out):
            for bad in (np.nan, np.inf, -np.inf):
                vals = f.values.copy()
                vals[1, 4] = bad
                with pytest.raises(ValueError):
                    replace(f, values=vals)

    def test_constant_field(self):
        x = np.linspace(0, 1, 41)
        ts = np.linspace(0, 1, 41)
        fld = GridField(x, ts, np.full((41, 41), 3.25))
        Z = sup_convolve(fld, 0.15)
        assert np.all(Z.values == 3.25)

    def test_domination_and_duality(self):
        fld = small_random_field(3)
        r = 0.2
        Z = sup_convolve(fld, r)
        W = inf_convolve(fld, r)
        assert isinstance(Z, GridField) and isinstance(W, GridField)
        base = fld.values[Z.t_slice, Z.x_slice]
        assert np.all(Z.values >= base)
        assert np.all(W.values <= base)
        neg = GridField(fld.x, fld.times, -fld.values)
        assert np.array_equal(W.values, -sup_convolve(neg, r).values)

    def test_r_monotonicity(self):
        fld = small_random_field(4, nx=81, nt=57)
        Z1 = sup_convolve(fld, 0.15)
        Z2 = sup_convolve(fld, 0.25)
        # compare on the coarser (larger-r) shrunk grid
        # locate Z2's nodes inside Z1's grid
        i0 = np.searchsorted(Z1.x, Z2.x[0])
        j0 = np.searchsorted(Z1.times, Z2.times[0])
        sub = Z1.values[j0:j0 + Z2.values.shape[0], i0:i0 + Z2.values.shape[1]]
        assert np.all(Z2.values >= sub)

    def test_idempotence_direction(self):
        fld = small_random_field(5, nx=161, nt=113)
        r = 0.06
        Z = sup_convolve(fld, r)
        ZZ = sup_convolve(Z, r)
        inner = Z.values[ZZ.t_slice, ZZ.x_slice]
        assert np.all(ZZ.values >= inner)

    def test_dual_points_attain(self):
        fld = small_random_field(6)
        Z = sup_convolve(fld, 0.2)
        assert np.array_equal(fld.values.ravel()[Z.dual_index], Z.values)

    def test_sampling_adequacy_enforced(self):
        fld = small_random_field()
        with pytest.raises(ValueError):
            sup_convolve(fld, 0.1)  # hx = 0.05 > r/4

    def test_radius_positive_and_finite(self):
        fld = small_random_field()
        for r in (0.0, -0.2, np.nan, np.inf, -np.inf):
            for convolve in (sup_convolve, inf_convolve):
                with pytest.raises(ValueError, match="radius must be positive and finite"):
                    convolve(fld, r)

    def test_empty_shrunk_grid(self):
        x = np.linspace(0, 0.5, 11)
        ts = np.linspace(0, 0.1, 5)
        fld = GridField(x, ts, np.zeros((5, 11)))
        with pytest.raises(ValueError):
            sup_convolve(fld, 0.2)

    def test_distance_profile_against_oracle(self):
        # u = -|x|: Z(x, t) = -dist(x, slice ball), validated via brute force
        x = np.linspace(-2, 2, 81)
        ts = np.linspace(0, 4, 81)
        vals = np.tile(-np.abs(x), (81, 1))
        fld = GridField(x, ts, vals)
        r = 0.5
        Z = sup_convolve(fld, r)
        want, dual = brute_force_convolve(fld, r, "sup")
        assert np.array_equal(Z.values, want)
        assert np.array_equal(Z.dual_index, dual)
        # closed form at interior times: -max(|x| - slice reach, 0)
        reach = r + (r * r) ** (1 / 3)
        mid = Z.values[Z.values.shape[0] // 2]
        expect = -np.maximum(np.abs(Z.x) - reach, 0.0)
        assert np.max(np.abs(mid - expect)) < (x[1] - x[0]) + 1e-12


class TestCrossing:
    def test_never_crossing(self):
        fld = small_random_field(7)
        rep = crossing_time(fld, GridField(fld.x, fld.times, fld.values + 1.0))
        assert rep.t0 is None

    def test_synthetic_single_node(self):
        x = np.linspace(0, 1, 11)
        ts = np.linspace(0, 1, 21)
        gap = np.ones((21, 11))
        gap[:, 5] = 0.5 - ts  # hits zero exactly at t = 0.5
        rep = crossing_time(GridField(x, ts, np.zeros((21, 11))), GridField(x, ts, gap))
        assert rep.t0 == pytest.approx(0.5)
        assert list(rep.contact_nodes) == [5]

    def test_kind_and_grid_validation(self):
        # any two fields on one grid pair up, whatever their kind; fields on
        # different grids do not
        fld = small_random_field(8)
        Z = sup_convolve(fld, 0.2)
        assert crossing_time(Z, GridField(Z.x, Z.times, Z.values + 1.0)).t0 is None
        assert crossing_time(Z, Z).t0 == Z.times[0]
        with pytest.raises(ValueError):
            crossing_time(Z, fld)
        with pytest.raises(ValueError):
            crossing_time(fld, GridField(fld.x, fld.times[:-1], fld.values[:-1]))
        with pytest.raises(ValueError):
            crossing_time(fld, GridField(fld.x + 0.1, fld.times, fld.values))


class TestEnvelopes:
    def test_smooth_field_envelopes_collapse(self):
        x = np.linspace(0, 1, 101)
        ts = np.linspace(0, 1, 101)
        X, T = np.meshgrid(x, ts)
        fld = GridField(x, ts, np.sin(3 * X) * np.cos(2 * T))
        up, lo, v = essential_envelopes(fld, [0.004])
        # window radius below grid spacing: envelopes equal the field
        assert np.array_equal(up.values, fld.values)
        assert np.array_equal(lo.values, fld.values)
        assert np.array_equal(v.values, fld.values)

    def test_spike(self):
        x = np.linspace(0, 1, 5)
        ts = np.linspace(0, 1, 5)
        vals = np.zeros((5, 5))
        vals[2, 2] = 5.0
        fld = GridField(x, ts, vals)
        up, lo, v = essential_envelopes(fld, [0.3])
        assert up.values[2, 2] == 5.0  # upper keeps the spike
        assert lo.values[2, 2] == 0.0  # lower removes it
        assert np.array_equal(v.values, vals)  # v = field on the grid

    def test_sandwich(self):
        fld = small_random_field(9)
        up, lo, v = essential_envelopes(fld, [0.3, 0.15])
        assert np.all(lo.values <= fld.values)
        assert np.all(fld.values <= up.values)
        assert np.all(lo.values <= v.values)
        assert np.all(v.values <= up.values)
        assert np.array_equal(v.values, fld.values)

    def test_larger_radii_change_nothing(self):
        # the grid discs nest, so radii above the smallest leave both
        # envelopes byte-identical, in any order, and the candidate is the
        # input field itself
        rng = np.random.default_rng(14)
        x = np.linspace(0.0, 1.0, 23)
        ts = np.linspace(0.0, 0.6, 17)
        for vals in (rng.standard_normal((17, 23)),
                     rng.integers(-2, 3, (17, 23)).astype(float)):
            fld = GridField(x, ts, vals)
            for r in (0.05, 0.12, 0.3):
                up, lo, v = essential_envelopes(fld, [r])
                assert v is fld
                for radii in ([r, 2 * r], [3 * r, r, 1.5 * r], [r, r]):
                    up2, lo2, v2 = essential_envelopes(fld, radii)
                    assert up2.values.tobytes() == up.values.tobytes(), radii
                    assert lo2.values.tobytes() == lo.values.tobytes(), radii
                    assert v2 is fld

    def test_one_node_axis_rejected(self):
        x = np.linspace(-1.0, 1.0, 21)
        for fld, axis in ((GridField(x, [0.0], np.ones((1, 21))), "time"),
                          (GridField([0.0], x, np.ones((21, 1))), "space")):
            with pytest.raises(ValueError, match=f"{axis} grid needs at least two nodes"):
                essential_envelopes(fld, [0.2])

    def test_decreasing_axis_rejected(self):
        x = np.linspace(-1.0, 1.0, 21)
        for fld, axis in ((GridField(x[::-1], x, np.ones((21, 21))), "space"),
                          (GridField(x, x[::-1], np.ones((21, 21))), "time")):
            with pytest.raises(ValueError, match=f"{axis} grid nodes must increase"):
                essential_envelopes(fld, [0.2])
            with pytest.raises(ValueError, match=f"{axis} grid nodes must increase"):
                sup_convolve(fld, 0.2)

    def test_radii_positive_and_finite(self):
        fld = small_random_field()
        # every radius is checked, not only the smallest
        for radii in ([], [0.0], [-0.2], [np.nan], [np.inf], [0.2, np.nan], [0.2, np.inf],
                      [0.2, -0.1], [np.nan, 0.2]):
            with pytest.raises(ValueError, match="radii must be positive and finite"):
                essential_envelopes(fld, radii)

    def test_matches_disc_oracle(self):
        rng = np.random.default_rng(12)
        x = np.linspace(0.0, 1.0, 23)
        ts = np.linspace(0.0, 0.6, 17)
        for vals in (rng.standard_normal((17, 23)),
                     rng.integers(-2, 3, (17, 23)).astype(float)):
            fld = GridField(x, ts, vals)
            for radii in ([0.05], [0.3, 0.12], [0.2, 0.1, 0.07]):
                up, lo, v = essential_envelopes(fld, radii)
                want_up, want_lo = brute_force_envelopes(fld, radii)
                assert np.array_equal(up.values, want_up)
                assert np.array_equal(lo.values, want_lo)
                assert np.array_equal(v.values, vals)
        # one more input: a unit spike on random grids, whose upper envelope
        # is 1 exactly on the disc around it, against the bounding-box loop
        for _ in range(300):
            r, hx, ht = rng.uniform(0.05, 1.0), rng.uniform(0.02, 0.3), rng.uniform(0.02, 0.3)
            rx, rt = int(math.floor(r / hx)), int(math.floor(r / ht))
            disc = np.zeros((2 * rt + 1, 2 * rx + 1), dtype=bool)
            for dj in range(-rt, rt + 1):
                for di in range(-rx, rx + 1):
                    disc[dj + rt, di + rx] = (di * hx) ** 2 + (dj * ht) ** 2 <= r * r
            disc = np.pad(disc, 1)  # a margin keeps two nodes on each axis
            spike = np.zeros(disc.shape)
            spike[rt + 1, rx + 1] = 1.0
            fld = GridField(hx * np.arange(2 * rx + 3), ht * np.arange(2 * rt + 3), spike)
            up = essential_envelopes(fld, [r])[0]
            assert np.array_equal(up.values == 1.0, disc), (r, hx, ht)


class TestInteriorBall:
    def test_indicator_ball(self):
        x = np.linspace(-1, 1, 81)
        ts = np.linspace(0, 1, 81)
        X, T = np.meshgrid(x, ts)
        vals = np.where((np.abs(X) <= 0.3) & (np.abs(T - 0.5) <= 0.2), 1.0, -1.0)
        Z = sup_convolve(GridField(x, ts, vals), 0.12)
        rep = interior_ball_check(Z, "Z>=0")
        assert rep.passed and rep.checked > 0
        W = inf_convolve(GridField(x, ts, vals), 0.12)
        rep2 = interior_ball_check(W, "W<=0")
        assert rep2.passed

    def test_checkerboard_noise_smoothed(self):
        x = np.linspace(-1, 1, 81)
        ts = np.linspace(0, 1, 81)
        X, T = np.meshgrid(x, ts)
        vals = np.where((np.abs(X) <= 0.4) & (np.abs(T - 0.5) <= 0.3), 1.0, -1.0)
        rng = np.random.default_rng(10)
        vals = vals + 0.01 * rng.choice([-1.0, 1.0], vals.shape)
        Z = sup_convolve(GridField(x, ts, vals), 0.12)
        rep = interior_ball_check(Z, "Z>=0")
        assert rep.passed

    def test_constant_degenerate(self):
        x = np.linspace(0, 1, 41)
        ts = np.linspace(0, 1, 41)
        Z = sup_convolve(GridField(x, ts, np.ones((41, 41))), 0.15)
        rep = interior_ball_check(Z, "Z>=0")
        assert rep.passed  # level set has no boundary nodes

    def test_matches_scalar_reference(self):
        # the indicator ball, then the same dual points with perturbed values,
        # so that the body around a dual point leaves the level set
        x = np.linspace(-1, 1, 81)
        ts = np.linspace(0, 1, 81)
        X, T = np.meshgrid(x, ts)
        vals = np.where((np.abs(X) <= 0.3) & (np.abs(T - 0.5) <= 0.2), 1.0, -1.0)
        rng = np.random.default_rng(13)
        seen_violations = False
        for fn, level in ((sup_convolve, "Z>=0"), (inf_convolve, "W<=0")):
            conv = fn(GridField(x, ts, vals if level == "Z>=0" else -vals), 0.12)
            noisy = replace(conv, values=conv.values
                            + 0.05 * rng.standard_normal(conv.values.shape))
            for c in (conv, noisy):
                rep = interior_ball_check(c, level)
                assert (rep.checked, rep.violations) == reference_ball_check(c, level)
                assert rep.passed == (rep.violations == 0)
                seen_violations |= rep.violations > 0
        assert seen_violations
