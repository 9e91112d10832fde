import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from ellpar.geometry import (
    HarnackChain,
    WindowMaxTable,
    XiShape,
    harnack_chain,
    harnack_chain_k_bound,
    window_max,
    xi_contains,
    xi_slice_radius,
)


def minkowski_oracle(r, dx, dt, n_samples=400):
    """Brute-force membership in the closure of (disk of radius r) +
    {|x|^3 + |t|^2 < r^2}: search over candidate split points of the space
    offset."""
    # dx = a + b with |a| <= r (disk part), (|b|, dt) in the flattened set.
    dxn = abs(dx)
    best = math.inf
    for a in np.linspace(-r, r, n_samples):
        b = dxn - a
        if abs(a) > r:
            continue
        best = min(best, max(abs(b), 0.0) ** 3 + dt * dt)
    return best <= r * r


class TestXiShape:
    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            XiShape(0.0)
        with pytest.raises(ValueError):
            XiShape(-1.0)

    def test_membership_against_minkowski_oracle(self):
        rng = np.random.default_rng(1)
        shape = XiShape(0.7)
        agree = 0
        for _ in range(500):
            dx = rng.uniform(-2.5, 2.5)
            dt = rng.uniform(-1.5, 1.5)
            got = xi_contains(shape, dx, dt)
            want = minkowski_oracle(0.7, dx, dt)
            # skip samples too close to the boundary for the sampled oracle
            excess = max(abs(dx) - 0.7, 0.0)
            if abs(excess**3 + dt * dt - 0.49) < 1e-3:
                continue
            assert got == want, (dx, dt)
            agree += 1
        assert agree > 400

    def test_closed_vs_open_on_boundary(self):
        shape = XiShape(1.0)
        # boundary points belong to the closed body, which xi_contains tests:
        # excess^3 + dt^2 = 1 with excess = 1 -> |dx| = 2, dt = 0; and the top
        # (0, r); the open body would exclude both
        assert xi_contains(shape, 2.0, 0.0) and xi_contains(shape, 0.0, 1.0)
        assert not xi_contains(shape, 2.0 + 1e-9, 0.0)
        assert not xi_contains(shape, 0.0, 1.0 + 1e-9)

    def test_vector_space_offset(self):
        shape = XiShape(0.5)
        assert xi_contains(shape, np.array([0.3, 0.4]), 0.0)  # |dx| = 0.5 = r
        assert not xi_contains(shape, np.array([3.0, 4.0]), 0.0)

    def test_slice_radius(self):
        shape = XiShape(0.5)
        # t = 0: r + (r^2)^(1/3)
        assert xi_slice_radius(shape, 0.0) == pytest.approx(0.5 + 0.25 ** (1 / 3))
        # the closed body: at |t| = r the slice is the disc of radius r,
        # beyond it the slice is empty
        assert xi_slice_radius(shape, 0.5) == xi_slice_radius(shape, -0.5) == 0.5
        assert xi_contains(shape, 0.5, 0.5)
        for t in (0.7, -0.5000001):
            with pytest.raises(ValueError, match="empty"):
                xi_slice_radius(shape, t)
        # consistency: points just inside the slice radius are members
        for t in (0.1, 0.3, -0.25):
            rho = xi_slice_radius(shape, t)
            assert xi_contains(shape, rho - 1e-9, t)
            assert not xi_contains(shape, rho + 1e-9, t)


class TestHarnackChain:
    def test_immediate_termination_for_large_s(self):
        chain = harnack_chain(1.0, 0.5)
        assert chain.k == 0
        assert chain.a[0] == pytest.approx(1.0 / 16.0)

    def test_recurrence_is_respected(self):
        r, s = 1.0, 0.01
        chain = harnack_chain(r, s)
        assert chain.k >= 1
        for j in range(chain.k):
            want = (r * chain.a[j] ** 2 + (chain.a[j] - s) ** 3) ** (1 / 3) + s
            assert chain.a[j + 1] == pytest.approx(want, rel=1e-12)
            assert chain.h[j + 1] == pytest.approx(chain.h[j] - chain.a[j] ** 2)
        assert chain.a[chain.k] >= r / 2 + s
        assert np.all(chain.a[: chain.k] < r / 2 + s)

    def test_lower_bound_and_k_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            r = rng.uniform(0.1, 3.0)
            s = rng.uniform(1e-7, r / 16 * 0.99)
            chain = harnack_chain(r, s)
            assert chain.k <= harnack_chain_k_bound(r, s)
            for j, aj in enumerate(chain.a):
                assert aj >= r * (s / r) ** ((2 / 3) ** j) - 1e-12

    def test_monotone_growth(self):
        chain = harnack_chain(2.0, 0.001)
        assert np.all(np.diff(chain.a) > 0)
        assert np.all(np.diff(chain.h) < 0)


class TestWindowMax:
    def test_matches_sliding_windows(self):
        # small integer levels make ties common; the argmax is the leftmost
        rng = np.random.default_rng(5)
        for _ in range(500):
            length = int(rng.integers(1, 40))
            n = int(rng.integers(1, length + 1))
            a = rng.integers(-2, 3, (3, 2, length)).astype(float)
            windows = sliding_window_view(a, n, axis=-1)
            m, k = WindowMaxTable(a, (n,), arg=True).query(n)
            assert np.array_equal(m, windows.max(axis=-1))
            assert np.array_equal(k, windows.argmax(axis=-1) + np.arange(length - n + 1))
            assert np.array_equal(window_max(a, n), m)
            assert np.array_equal(-window_max(-a, n), windows.min(axis=-1))

    def test_window_of_one_is_identity(self):
        a = np.array([[3.0, -1.0, 3.0], [0.0, 0.0, -2.0]])
        m, k = WindowMaxTable(a, (1,), arg=True).query(1)
        assert np.array_equal(m, a)
        assert np.array_equal(k, [[0, 1, 2], [0, 1, 2]])

    def test_all_ties_take_the_window_start(self):
        m, k = WindowMaxTable(np.zeros(9), (4,), arg=True).query(4)
        assert np.array_equal(m, np.zeros(6))
        assert np.array_equal(k, np.arange(6))


def doubling_window_max(a, n, arg=False):
    """The doubling window maximum that the sparse table replaced: O(log n)
    passes over overlapping windows, ties keeping the left operand."""
    m = np.asarray(a)
    idx = np.broadcast_to(np.arange(m.shape[-1]), m.shape) if arg else None
    c = 1  # m[..., k] = max(a[..., k:k+c])
    while c < n:
        s = min(c, n - c)
        lo, hi = m[..., :-s], m[..., s:]
        if arg:
            take = hi > lo
            m, idx = np.where(take, hi, lo), np.where(take, idx[..., s:], idx[..., :-s])
        else:
            m = np.maximum(lo, hi)
        c += s
    return (m, idx) if arg else m


def _assert_same(got, want):
    """Bit-equal values (signed zeros included) and equal argmaxes."""
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


class TestWindowMaxTable:
    # 1, powers of two, and 2^k + 1, where the two halves overlap the most
    SIZES = (1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 32, 33)

    @pytest.mark.parametrize("shape", [(40,), (3, 41), (2, 3, 37)], ids=["1d", "2d", "3d"])
    def test_queries_match_doubling(self, shape):
        rng = np.random.default_rng(11)
        for levels in ([-1.0, 0.0, 1.0], [-0.0, 0.0, 2.0], [-np.inf, 0.0]):
            a = rng.choice(levels, shape)
            sizes = [n for n in self.SIZES if n <= shape[-1]]
            arg_table = WindowMaxTable(a, sizes, arg=True)
            table = WindowMaxTable(a, sizes)
            for n in sizes:
                _assert_same(arg_table.query(n), doubling_window_max(a, n, arg=True))
                _assert_same(WindowMaxTable(a, (n,), arg=True).query(n),
                             doubling_window_max(a, n, arg=True))
                _assert_same((table.query(n),), (doubling_window_max(a, n),))
                _assert_same((window_max(a, n),), (doubling_window_max(a, n),))

    def test_leading_index_start_and_count(self):
        rng = np.random.default_rng(12)
        a = rng.integers(-2, 3, (2, 9, 30)).astype(float)
        table = WindowMaxTable(a, (3, 5, 9), arg=True)
        for n in (3, 5, 9):
            for start, count in ((0, 1), (4, 10), (30 - n, 1), (2, 30 - n - 1)):
                lead = (slice(None), slice(2, 7))
                window = a[lead][..., start:start + count + n - 1]
                m, k = doubling_window_max(window, n, arg=True)
                _assert_same(table.query(n, lead, start, count), (m, k + start))

    def test_tie_across_the_halves_takes_the_left(self):
        # n = 5 uses the length-4 windows at k and k+1; the maximum 1 sits in
        # their overlap and again in the right half only
        a = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        m, k = WindowMaxTable(a, (5,), arg=True).query(5)
        assert np.array_equal(m, [1.0, 1.0]) and np.array_equal(k, [1, 1])
        a = np.array([1.0, 0.0, 0.0, 0.0, 1.0])
        m, k = WindowMaxTable(a, (5,), arg=True).query(5)
        assert np.array_equal(m, [1.0]) and np.array_equal(k, [0])
        # the right half wins only where it is strictly greater
        a = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        assert WindowMaxTable(a, (5,), arg=True).query(5)[1].tolist() == [4]

    def test_keeps_only_requested_levels(self):
        a = np.arange(40.0)
        assert sorted(WindowMaxTable(a, (3, 5, 7, 9, 33)).levels) == [2, 4, 8, 32]
        assert sorted(WindowMaxTable(a, (1,)).levels) == [1]
        table = WindowMaxTable(a, (17,))
        assert sorted(table.levels) == [16]
        with pytest.raises(ValueError, match="not requested"):
            table.query(9)

    def test_rejects_bad_lengths(self):
        for sizes in ((), (0,), (41,)):
            with pytest.raises(ValueError):
                WindowMaxTable(np.zeros(40), sizes)
