import math
from dataclasses import FrozenInstanceError, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from ellpar.harness import _bi_operator, _pucci_radial_exact, jump_initial, make_jump_scenario
from ellpar.nonlinearity import BnFamily, BSpec, PsiSpec, b_eval, psi_eval
from ellpar.operators import OperatorSpec
from ellpar.regularize import GridField
from ellpar.solver import (
    NEWTON_TOL,
    ORDER_TOL,
    Geometry,
    MaxPrincipleViolation,
    NewtonFailure,
    ProblemSpec,
    SolverPolicy,
    SpecError,
    _advance,
    _front_locations,
    bracket_maximal_minimal,
    max_principle_bounds,
    perturb_initial_data,
    run,
    singular_limit_study,
    solve_banded,
    solve_elliptic,
    step_parabolic,
)


def interval_spec(**kw):
    base = dict(
        geometry=Geometry("interval", -1.0, 1.0),
        op=OperatorSpec(kind="trace", lam=1.0, Lam=1.0, n_dim=1),
        bn=BnFamily(16),
        u0=jump_initial,
        T=0.1, grid=201, dt=2.5e-3,
    )
    base.update(kw)
    return ProblemSpec(**base)


class TestElliptic:
    def test_interval_trace_is_affine(self):
        spec = interval_spec(g_lo=-1.0, g_hi=0.5)
        u = solve_elliptic(spec)
        x = spec.nodes()
        want = -1.0 + 1.5 * (x + 1) / 2
        assert np.max(np.abs(u - want)) < 1e-10

    def test_residual_tolerance(self):
        from ellpar.operators import apply_operator_1d

        spec = ProblemSpec(
            geometry=Geometry("radial-annulus", 0.5, 1.5),
            op=OperatorSpec(kind="pucci-minus", lam=1.0, Lam=1.7, n_dim=2),
            g_lo=1.0, g_hi=-1.0, grid=101,
        )
        u = solve_elliptic(spec)
        F = apply_operator_1d(spec.op, u, spec.nodes(), radial=True)
        assert np.max(np.abs(F)) <= 1e-10

    @pytest.mark.parametrize("kind, Lam, n_dim, g_lo, g_hi", [
        ("pucci-minus", 1.7, 2, 1.0, -1.0),
        ("pucci-plus", 1.4, 3, 1.0, -1.0),
        ("pucci-minus", 1.7, 3, -1.0, 1.0),
    ], ids=["minus-n2-decreasing", "plus-n3-decreasing", "minus-n3-increasing"])
    def test_order_against_closed_form(self, kind, Lam, n_dim, g_lo, g_hi):
        # second order in h against the exact radial Pucci solution
        op = OperatorSpec(kind=kind, lam=1.0, Lam=Lam, n_dim=n_dim)
        errs = [_closed_form_error(op, g_lo, g_hi, grid) for grid in (51, 101, 201, 401)]
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) >= 1.9, (errs, orders)

    def test_scheme_exact_for_inverse_square_slope(self):
        # Pucci-plus, Lam/lam = 2, n = 2, increasing data: gamma = 2, and
        # central differences reproduce psi' ~ rho^-2 to rounding
        op = OperatorSpec(kind="pucci-plus", lam=1.0, Lam=2.0, n_dim=2)
        for grid in (51, 101, 201, 401):
            assert _closed_form_error(op, -1.0, 1.0, grid) <= 1e-13

    @pytest.mark.parametrize("kind", ["pucci-plus", "pucci-minus"])
    @pytest.mark.parametrize("n_dim", [2, 3])
    @pytest.mark.parametrize("g_lo, g_hi", [(1.0, -1.0), (-0.5, 2.0)])
    def test_closed_form_matches_shooting(self, kind, n_dim, g_lo, g_hi):
        op = OperatorSpec(kind=kind, lam=1.0, Lam=1.7, n_dim=n_dim)
        _assert_matches_shooting(op, 0.5, 1.5, g_lo, g_hi)

    def test_closed_form_log_branch(self):
        # gamma = (n-1) lam/Lam = 1: psi is affine in log rho
        op = OperatorSpec(kind="pucci-plus", lam=1.0, Lam=2.0, n_dim=3)
        _assert_matches_shooting(op, 0.5, 1.5, 1.0, -1.0)

    def test_closed_form_constant_data(self):
        op = OperatorSpec(kind="pucci-minus", lam=1.0, Lam=1.7, n_dim=3)
        x = np.linspace(0.5, 1.5, 11)
        assert np.array_equal(_pucci_radial_exact(op, 0.5, 1.5, 0.3, 0.3, x), np.full(11, 0.3))
        np.testing.assert_allclose(_shooting(op, 0.5, 1.5, 0.3, 0.3, x), 0.3, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("op", [
        OperatorSpec(kind="trace", lam=1.0, Lam=1.0, n_dim=3),
        OperatorSpec(kind="pucci-minus", lam=1.0, Lam=1.7, n_dim=3),
    ], ids=["trace", "pucci-minus"])
    def test_reflecting_ball_is_constant(self, op):
        # no flux at the inner radius: the solution is the outer datum,
        # and the inner datum g_lo is never read
        spec = ProblemSpec(geometry=Geometry("radial-ball-punctured", 0.05, 1.0),
                           op=op, g_lo=5.0, g_hi=-1.0, grid=96)
        u = solve_elliptic(spec)
        assert np.max(np.abs(u + 1.0)) < 1e-12


def _pucci_radial_ode(op):
    """psi'' = G(rho, psi') of the radial Pucci equation F = 0, choosing the
    coefficients from the signs of psi'/rho and psi'' at every point."""
    cpos, cneg = (op.Lam, op.lam) if op.kind == "pucci-plus" else (op.lam, op.Lam)

    def rhs(rho, y):
        e1 = y[1] / rho
        c1 = cpos if e1 > 0 else cneg
        s = -(op.n_dim - 1) * c1 * e1
        return [y[1], s / cpos if s > 0 else s / cneg]

    return rhs


def _shooting(op, lo, hi, g_lo, g_hi, x):
    """Independent reference: shoot from (lo, g_lo) on the slope, root-find
    psi(hi) = g_hi, and integrate the ODE to the radii x."""
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq

    rhs = _pucci_radial_ode(op)
    opts = dict(rtol=1e-12, atol=1e-13)

    def end_value(slope):
        return solve_ivp(rhs, (lo, hi), [g_lo, slope], **opts).y[0, -1] - g_hi

    if g_hi == g_lo:
        slope = 0.0
    else:
        naive = (g_hi - g_lo) / (hi - lo)
        slope = brentq(end_value, min(naive * 16, naive / 16),
                       max(naive * 16, naive / 16), xtol=1e-14)
    sol = solve_ivp(rhs, (lo, hi), [g_lo, slope], dense_output=True, **opts)
    return sol.sol(x)[0]


def _assert_matches_shooting(op, lo, hi, g_lo, g_hi):
    x = np.linspace(lo, hi, 41)
    exact = _pucci_radial_exact(op, lo, hi, g_lo, g_hi, x)
    assert exact[0] == g_lo and abs(exact[-1] - g_hi) <= 1e-15
    assert np.max(np.abs(exact - _shooting(op, lo, hi, g_lo, g_hi, x))) <= 1e-9


def _closed_form_error(op, g_lo, g_hi, grid):
    """Sup error of solve_elliptic on the annulus [0.5, 1.5] against the
    closed-form radial Pucci solution."""
    spec = ProblemSpec(geometry=Geometry("radial-annulus", 0.5, 1.5), op=op,
                       g_lo=g_lo, g_hi=g_hi, grid=grid)
    x = spec.nodes()
    exact = _pucci_radial_exact(op, 0.5, 1.5, g_lo, g_hi, x)
    return float(np.max(np.abs(solve_elliptic(spec) - exact)))


class TestStepParabolic:
    def test_stationarity_invariant(self):
        # elliptic solutions are fixed points of the implicit step, any dt
        spec = interval_spec(g_lo=-1.0, g_hi=0.5)
        u_star = solve_elliptic(spec)
        for dt in (1e-3, 0.05, 1.0):
            u_next, _ = step_parabolic(replace(spec, g_lo=-1.0, g_hi=0.5),
                                       u_star, t_next=dt, dt=dt)
            assert np.max(np.abs(u_next - u_star)) < 1e-8

    def test_heat_step_against_exact_mode(self):
        # positive region, b_n' ~ 1: one mode of the heat equation decays as
        # exp(-pi^2 t / 4) on (-1, 1) with zero boundary, shifted up
        spec = ProblemSpec(
            geometry=Geometry("interval", -1.0, 1.0),
            op=OperatorSpec(kind="trace", lam=1.0, Lam=1.0, n_dim=1),
            bn=BnFamily(64),
            g_lo=2.0, g_hi=2.0,
            u0=lambda x: 2.0 + np.cos(np.pi * x / 2),
            T=0.05, grid=401, dt=1e-4,
        )
        out = run(spec, SolverPolicy())
        x = spec.nodes()
        want = 2.0 + math.exp(-np.pi**2 / 4 * 0.05) * np.cos(np.pi * x / 2)
        assert np.max(np.abs(out.values[-1] - want)) < 2e-3

    def test_grid_convergence_order_heat_region(self):
        # Richardson on three grids in the pure heat regime: order >= 1.9.
        # dt scales with h^2 so the first-order time error refines at the
        # same rate and the observed order reflects the combined scheme.
        # T is a whole number of steps on all three grids.
        errs = []
        for m, dt in ((51, 3.2e-4), (101, 8e-5), (201, 2e-5)):
            spec = ProblemSpec(
                geometry=Geometry("interval", -1.0, 1.0),
                op=OperatorSpec(kind="trace", lam=1.0, Lam=1.0, n_dim=1),
                bn=BnFamily(64),
                g_lo=2.0, g_hi=2.0,
                u0=lambda x: 2.0 + np.cos(np.pi * x / 2),
                T=0.0192, grid=m, dt=dt,
            )
            out = run(spec, SolverPolicy())
            x = spec.nodes()
            want = 2.0 + math.exp(-np.pi**2 / 4 * 0.0192) * np.cos(np.pi * x / 2)
            errs.append(float(np.max(np.abs(out.values[-1] - want))))
        p1 = math.log2(errs[0] / errs[1])
        p2 = math.log2(errs[1] / errs[2])
        assert p1 >= 1.9 and p2 >= 1.9, (errs, p1, p2)

    def test_rejects_bad_dt(self):
        spec = interval_spec()
        for dt in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                step_parabolic(spec, spec.initial_values(), 0.1, dt=dt)


def richards_wave_profile(xi, p):
    """Travelling wave u = f(x + t) of b(u)_t = (Psi(b(u)) u_x)_x with b = s_+
    and Psi(y) = 1 + p y: f = -xi for xi >= 0 and, for xi < 0, the root f in
    (0, 1) of xi = p f + (1 + p) log(1 - f), which decreases in f, found by
    bisection.  The flux Psi(f) f' = f - 1 is continuous at the front xi = 0."""
    xi = np.asarray(xi, dtype=float)
    lo, hi = np.zeros_like(xi), np.ones_like(xi)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        left = p * mid + (1 + p) * np.log1p(-mid) > xi  # the root lies above mid
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    return np.where(xi >= 0, -xi, 0.5 * (lo + hi))


class TestRichardsWave:
    # sup errors over all levels at 101 and 201 nodes, measured with the full
    # step of the exact divergence Jacobian
    ERRORS = {0: (2.0024e-3, 9.8147e-4), 2: (1.5982e-3, 7.7529e-4)}

    @staticmethod
    def _run(p, grid):
        psi = PsiSpec("constant", (1.0,)) if p == 0 else PsiSpec("polynomial", (1.0, p))
        spec = ProblemSpec(
            geometry=Geometry("interval", -1.0, 1.0),
            op=OperatorSpec(kind="divergence", psi=psi),
            g_lo=lambda t: float(richards_wave_profile(-1.0 + t, p)),
            g_hi=lambda t: float(richards_wave_profile(1.0 + t, p)),
            u0=lambda x: richards_wave_profile(x, p),
            T=0.4, grid=grid, dt=1.0 / (grid - 1))  # dt = h / 2
        out = run(spec)
        exact = richards_wave_profile(out.x[None, :] + out.times[:, None], p)
        return float(np.max(np.abs(out.values - exact))), out.newton_iterations

    @pytest.mark.parametrize("p", [0, 2])
    def test_error_order_and_newton_count(self, p):
        (e1, _), (e2, iters) = self._run(p, 101), self._run(p, 201)
        assert (e1, e2) == pytest.approx(self.ERRORS[p], rel=0.01)
        assert math.log2(e1 / e2) >= 0.9
        # 119 and 240 iterations over the 80 steps at 201 nodes
        assert iters <= (119 if p == 0 else 300), iters

    def test_profile_solves_the_front_relation(self):
        xi = np.linspace(-3.0, 1.0, 41)
        for p in (0, 2):
            f = richards_wave_profile(xi, p)
            neg = xi < 0
            assert np.all((f[neg] > 0) & (f[neg] < 1))
            assert np.allclose(p * f[neg] + (1 + p) * np.log1p(-f[neg]), xi[neg],
                               rtol=0, atol=1e-14)
            assert np.array_equal(f[~neg], -xi[~neg])


def _reference_fronts(x, u):
    """Scalar loop: zero nodes and interpolated sign changes, left to right."""
    locs = []
    for i in range(len(u) - 1):
        a, b = u[i], u[i + 1]
        if a == 0.0:
            locs.append(float(x[i]))
        elif a * b < 0:
            locs.append(float(x[i] + (x[i + 1] - x[i]) * (0 - a) / (b - a)))
    if u[-1] == 0.0:
        locs.append(float(x[-1]))
    return locs


class TestHorizon:
    def test_horizon_must_be_whole_steps(self):
        with pytest.raises(ValueError):
            interval_spec(T=0.1, dt=0.03)
        with pytest.raises(ValueError):
            interval_spec(dt=0.0)
        # a non-finite horizon is refused before the step count is read, and
        # a non-finite end of the domain before its nodes are
        for T in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"T = {T}, dt = 0.0025: need dt > 0"):
                interval_spec(T=T)
        for lo, hi in ((-1.0, math.inf), (-math.inf, 1.0)):
            with pytest.raises(ValueError, match=f"lo = {lo}, hi = {hi}: need finite lo and hi"):
                interval_spec(geometry=Geometry("interval", lo, hi))
        assert interval_spec(T=0.1, dt=0.025).steps == 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_boundary_data_must_be_finite(self, bad):
        # constant data are checked where the spec is built, not at the
        # first step's residual; callable data are read only when a step
        # needs them
        for name in ("g_lo", "g_hi"):
            with pytest.raises(SpecError, match=f"^{name} = {bad}: need finite boundary data$"):
                interval_spec(**{name: bad})
            assert callable(getattr(interval_spec(**{name: lambda t: bad}), name))

    @pytest.mark.parametrize("grid", [401.0, 401.5, np.nan, 2, 0], ids=str)
    def test_grid_is_an_integer_of_at_least_3(self, grid):
        # np.linspace would refuse a float count only at the first nodes()
        with pytest.raises(SpecError, match=f"^grid = {grid}: need at least 3 grid nodes"):
            replace(interval_spec(), grid=grid)
        assert interval_spec(grid=np.int64(5)).nodes().size == 5

    def test_spec_is_frozen(self):
        # assignment would bypass the whole-steps check; replace() re-runs it
        spec = interval_spec(T=0.1, dt=0.025)
        with pytest.raises(FrozenInstanceError):
            spec.dt = 0.03
        with pytest.raises(ValueError):
            replace(spec, dt=0.03)

    def test_initial_values_leave_the_datum_alone(self):
        # the Dirichlet data go into a copy, whether u0 is an array or a
        # callable that returns one
        datum = np.zeros(101)
        for u0 in (datum, lambda x: datum):
            u = interval_spec(grid=101, g_lo=-1.0, g_hi=0.5, u0=u0).initial_values()
            assert (u[0], u[-1]) == (-1.0, 0.5)
            assert not datum.any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_initial_data_must_be_finite(self, bad):
        # a non-finite datum is refused where it is read, a Dirichlet node
        # included, not left to fail the first Newton solve
        for i in (50, 0):
            datum = np.zeros(101)
            datum[i] = bad
            for u0 in (datum, lambda x: datum):
                spec = interval_spec(grid=101, u0=u0)
                with pytest.raises(ValueError, match="initial data must be finite"):
                    spec.initial_datum()
                with pytest.raises(ValueError, match="initial data must be finite"):
                    run(spec)

    def test_initial_data_must_match_the_grid(self):
        for u0 in (np.zeros(100), lambda x: np.zeros(x.size + 1), np.zeros((101, 1))):
            spec = interval_spec(grid=101, u0=u0)
            with pytest.raises(ValueError, match="initial data shape does not match the grid"):
                spec.initial_datum()

    def test_every_step_recorded_up_to_horizon(self):
        spec = interval_spec(T=0.0125, grid=101)
        out = run(spec, SolverPolicy())
        assert out.times.tolist() == [k * spec.dt for k in range(6)]
        assert out.values.shape == (6, 101)
        assert out.steps == 5
        assert len(out.fronts) == 6


class TestRun:
    def test_fronts_match_scalar_reference(self):
        rng = np.random.default_rng(7)
        for trial in range(300):
            n = int(rng.integers(2, 40))
            x = np.linspace(-1, 1, n) if trial % 2 else np.sort(rng.uniform(-1, 1, n))
            # integer levels give exact zeros, runs of zeros and zero ends
            values = rng.integers(-2, 3, (4, n)) * rng.uniform(0.5, 2.0, (4, n))
            fronts = _front_locations(x, values)
            assert fronts == [_reference_fronts(x, v) for v in values]
            assert all(type(f) is float for row in fronts for f in row)

    def test_extinction_is_first_negative_level(self):
        out = run(interval_spec(T=0.1, grid=101), SolverPolicy())
        k = int(np.searchsorted(out.times, out.extinction_time))
        assert out.times[k] == out.extinction_time
        assert out.values[k].max() < 0
        assert all(v.max() >= 0 for v in out.values[:k])

    def test_a_newton_failure_propagates_with_its_history(self):
        # one iteration is too few for the first step: the solve's own
        # NewtonFailure reaches the caller, and nothing retries the step
        spec = make_jump_scenario(grid=201, n=32, T=0.01).spec
        policy = SolverPolicy(max_iters=1)
        with pytest.raises(NewtonFailure) as info:
            run(spec, policy)
        with pytest.raises(NewtonFailure) as direct:
            step_parabolic(spec, spec.initial_values(), spec.dt, spec.dt, policy)
        assert type(info.value) is NewtonFailure and info.value.__cause__ is None
        assert len(info.value.history) == 2 and info.value.history == direct.value.history
        assert str(info.value) == (f"no convergence in the iteration budget at "
                                   f"t = {spec.dt}, dt = {spec.dt}")
        # the Newton and ordering tolerances are constants, not settings
        assert [f.name for f in fields(SolverPolicy)] == ["max_iters"]

    def test_a_non_monotone_grid_leaves_its_bounds(self):
        # the first step on 11 nodes converges but leaves its max-principle
        # bounds: the error names t, the bounds and the excess
        spec = _non_monotone_pucci_spec(grid=11, dt=1e-3)
        with pytest.raises(MaxPrincipleViolation) as info:
            run(spec)
        err = info.value
        assert (err.t, err.bounds) == (0.0, (-1.0, 1.0))
        assert err.excess == pytest.approx(0.3611, abs=1e-4)
        assert str(err) == (f"the step from t = 0.0 leaves its max-principle bounds "
                            f"(-1.0, 1.0) by {err.excess}")

    def test_a_non_monotone_grid_fails_newton(self):
        # on 41 nodes the first step's Newton solve does not converge
        spec = _non_monotone_pucci_spec(grid=41, dt=1e-2)
        with pytest.raises(NewtonFailure) as info:
            run(spec)
        assert len(info.value.history) == 41 and info.value.history[-1] > NEWTON_TOL
        assert str(info.value) == ("no convergence in the iteration budget at "
                                   "t = 0.01, dt = 0.01")

    @pytest.mark.parametrize("side", ["hi", "lo"])
    @pytest.mark.parametrize("excess, raises", [(ORDER_TOL, False), (2 * ORDER_TOL, True)],
                             ids=["at-tolerance", "past-tolerance"])
    def test_max_principle_excess_raises(self, monkeypatch, side, excess, raises):
        # a step that leaves its max-principle bounds by more than ORDER_TOL
        # raises after its one solve; one that leaves them by exactly
        # ORDER_TOL is accepted
        from ellpar import solver

        spec = interval_spec()
        u = spec.initial_values()
        lo, hi = max_principle_bounds(spec, u, spec.dt)
        calls = []
        moved = hi + excess if side == "hi" else lo - excess

        def stepping(spec, u_prev, t_next, dt, policy=None):
            calls.append(dt)
            u_new = u_prev.copy()
            u_new[u.size // 2] = moved
            return u_new, 0

        monkeypatch.setattr(solver, "step_parabolic", stepping)
        if raises:
            with pytest.raises(MaxPrincipleViolation) as info:
                _advance(spec, u, 0.0, spec.dt, SolverPolicy())
            assert (info.value.t, info.value.bounds) == (0.0, (lo, hi))
            assert info.value.excess == (moved - hi if side == "hi" else lo - moved)
        else:
            u_new, _, steps = _advance(spec, u, 0.0, spec.dt, SolverPolicy())
            assert steps == 1 and u_new[u.size // 2] == moved
        assert calls == [spec.dt]

    def test_jump_extinction_and_fronts(self):
        out = run(interval_spec(T=0.2), SolverPolicy())
        assert isinstance(out, GridField) and out.to_grid_field() is out
        assert out.extinction_time is not None
        assert 0 < out.extinction_time < 0.2
        # two fronts initially, near +-0.3
        f0 = out.fronts[0]
        assert len(f0) == 2
        assert f0[0] == pytest.approx(-0.3, abs=0.01)
        assert f0[1] == pytest.approx(0.3, abs=0.01)
        # no fronts after extinction
        j = int(np.searchsorted(out.times, out.extinction_time))
        assert all(len(f) == 0 for f in out.fronts[j:])

    def test_max_principle_bounds(self):
        out = run(interval_spec(T=0.2), SolverPolicy())
        assert out.values.min() >= -1.0 - 1e-9
        assert out.values.max() <= 0.5 + 1e-9

    def test_comparison_of_ordered_pair(self):
        spec = interval_spec(T=0.1)
        x = spec.nodes()
        u0 = spec.initial_values()
        hi = replace(spec, u0=perturb_initial_data(u0, x, 0.05, "up"),
                     g_lo=-0.99, g_hi=-0.99)
        lo_run = run(spec, SolverPolicy())
        hi_run = run(hi, SolverPolicy())
        assert float(np.min(hi_run.values - lo_run.values)) >= -1e-9

    @pytest.mark.parametrize("grid", [201, 801])
    def test_bellman_isaacs_jump_run(self, grid):
        # the Bellman-Isaacs kind solves every step, and each
        # step stays inside the bounds that the maximum principle puts on it
        spec = replace(make_jump_scenario(grid=grid).spec, op=_bi_operator())
        out = run(spec)
        assert out.steps + out.repeated_steps == spec.steps
        assert out.extinction_time is not None
        for k in range(spec.steps):
            lo, hi = max_principle_bounds(spec, out.values[k], out.times[k + 1])
            assert lo - ORDER_TOL <= out.values[k + 1].min()
            assert out.values[k + 1].max() <= hi + ORDER_TOL

    def test_reflecting_inner_boundary_constant(self):
        # constant data matching the outer boundary is a fixed point on the
        # punctured ball (no-flux inner end)
        h = 1.0 / 100
        spec = ProblemSpec(
            geometry=Geometry("radial-ball-punctured", 2 * h, 1.0),
            op=OperatorSpec(kind="trace", lam=1.0, Lam=1.0, n_dim=2),
            bn=BnFamily(8),
            g_lo=-0.5, g_hi=-0.5,
            u0=lambda x: np.full_like(x, -0.5),
            T=0.05, grid=99, dt=1e-3,
        )
        out = run(spec, SolverPolicy())
        assert np.max(np.abs(out.values + 0.5)) < 1e-9


def _non_monotone_pucci_spec(grid, dt):
    """Pucci-minus (Lam = 4, n = 5) on the annulus [0.02, 1] with data 1 / -1
    and the affine datum: on 11 and 41 nodes the radial scheme is not
    monotone."""
    return ProblemSpec(geometry=Geometry("radial-annulus", 0.02, 1.0),
                       op=OperatorSpec(kind="pucci-minus", lam=1.0, Lam=4.0, n_dim=5),
                       g_lo=1.0, g_hi=-1.0, u0=lambda r: 1.0 - 2.0 * (r - 0.02) / 0.98,
                       T=1e-2, grid=grid, dt=dt)


# the divergence kind reads Psi = 1 + 2y
_SCALING_KINDS = ["trace", "pucci-minus", "pucci-plus", "divergence"]


class TestParabolicScaling:
    @pytest.mark.parametrize("geometry", [Geometry("interval", -1.0, 1.0),
                                          Geometry("radial-annulus", 0.02, 1.0),
                                          Geometry("radial-ball-punctured", 0.02, 1.0)],
                             ids=["interval", "annulus", "ball"])
    @pytest.mark.parametrize("kind, bn", [(kind, bn) for bn in (None, BnFamily(32))
                                          for kind in _SCALING_KINDS],
                             ids=[kind + suffix for suffix in ("", "-b_32")
                                  for kind in _SCALING_KINDS])
    def test_scaling_by_two_is_bit_equal(self, kind, bn, geometry):
        # x -> 2x, t -> 4t: every difference quotient, dt F and the radial
        # (n - 1)/rho term scale by powers of two, so the run is the same
        # bit for bit, its fronts double and its extinction time quadruples
        psi = PsiSpec("polynomial", (1.0, 2.0)) if kind == "divergence" else None
        base = ProblemSpec(geometry=geometry,
                           op=OperatorSpec(kind=kind, lam=1.0, Lam=3.0, n_dim=3, psi=psi),
                           b=BSpec("positive-part"), bn=bn, g_lo=-0.5, g_hi=-0.5,
                           u0=lambda x: 0.6 * np.cos(2 * x - 0.4) - 0.3,
                           T=0.2, grid=201, dt=2.5e-3)
        scaled = replace(base, geometry=replace(geometry, lo=2 * geometry.lo, hi=2 * geometry.hi),
                         T=4 * base.T, dt=4 * base.dt, u0=lambda x: base.u0(x / 2))
        out, out2 = run(base), run(scaled)
        assert out.values.tobytes() == out2.values.tobytes()
        assert out.newton_iterations == out2.newton_iterations > 0
        assert [[2 * v for v in locs] for locs in out.fronts] == out2.fronts
        assert out.extinction_time is not None
        assert out2.extinction_time == 4 * out.extinction_time


def _reference_run(spec, policy):
    """Every one of the spec's steps solved by _advance, fronts located on
    every row: run without the fixed-point shortcut."""
    x = spec.nodes()
    times = np.arange(spec.steps + 1) * spec.dt
    rows = [spec.initial_values()]
    iters = steps = 0
    for k in range(spec.steps):
        u, it, st = _advance(spec, rows[-1], k * spec.dt, spec.dt, policy)
        rows.append(u)
        iters += it
        steps += st
    values = np.array(rows)
    extinct = [t for t, u in zip(times, values) if u.max() < 0.0]
    extinction = float(extinct[0]) if extinct else None
    return values, _front_locations(x, values), extinction, iters, steps


def punctured_ball_bracket_spec():
    """A positive phase at the reflecting inner node of the punctured ball,
    affine in rho down to the outer Dirichlet value -1."""
    return ProblemSpec(
        geometry=Geometry("radial-ball-punctured", 0.05, 1.0),
        op=OperatorSpec(kind="trace", lam=1.0, Lam=1.0, n_dim=3),
        b=BSpec("positive-part"), bn=BnFamily(32), g_lo=-1.0, g_hi=-1.0,
        u0=lambda r: np.where(r < 0.4, 0.5 * (0.4 - r) / 0.35, -(r - 0.4) / 0.6),
        T=0.2, grid=201, dt=2.5e-3)


def _punctured_ball_spec():
    # positive phase at the reflecting inner node, gone within a few steps;
    # g_lo is never read on the ball
    return ProblemSpec(
        geometry=Geometry("radial-ball-punctured", 0.05, 1.0),
        op=OperatorSpec(kind="trace", lam=1.0, Lam=1.0, n_dim=3),
        bn=BnFamily(16), g_lo=5.0, g_hi=-1.0,
        u0=lambda x: np.where(x < 0.3, 0.4 - x, -1.0),
        T=0.1, grid=96, dt=2.5e-3)


def _pucci_annulus_spec():
    return ProblemSpec(
        geometry=Geometry("radial-annulus", 0.2, 1.0),
        op=OperatorSpec(kind="pucci-minus", lam=1.0, Lam=1.7, n_dim=3),
        bn=BnFamily(16), g_lo=-0.5, g_hi=-1.0,
        u0=lambda x: np.where(np.abs(x - 0.6) < 0.15, 0.3, -0.5 - 0.5 * (x - 0.2) / 0.8),
        T=0.2, grid=121, dt=2.5e-3)


def _jump_spec():
    return make_jump_scenario(grid=401, n=32, T=1.0).spec


def _richards_spec(geometry, n_dim, g_lo):
    """The Richards case b(u)_t = div(Psi(b(u)) Du), Psi(y) = 1 + 2y, from the
    jump datum."""
    op = OperatorSpec(kind="divergence", n_dim=n_dim, psi=PsiSpec("polynomial", (1.0, 2.0)))
    return replace(make_jump_scenario(grid=401, n=32, T=0.2).spec, geometry=geometry, op=op,
                   g_lo=g_lo)


def _richards_interval_spec():
    return _richards_spec(Geometry("interval", -1.0, 1.0), 1, -1.0)


def _richards_annulus_spec():
    # the inner circle at u = 0.5 keeps a positive phase and a flux through it
    return _richards_spec(Geometry("radial-annulus", 0.2, 1.0), 3, 0.5)


class TestStationaryTail:
    @pytest.mark.parametrize("make_spec", [
        lambda: make_jump_scenario(grid=401, n=32, T=1.0).spec,
        _punctured_ball_spec,
        _pucci_annulus_spec,
    ], ids=["jump", "punctured-ball", "pucci-minus-annulus"])
    def test_matches_stepping_every_step(self, make_spec):
        spec = make_spec()
        policy = SolverPolicy()
        out = run(spec, policy)
        values, fronts, extinction, iters, steps = _reference_run(spec, policy)
        assert out.repeated_steps > 0
        assert np.array_equal(out.values, values)
        assert out.fronts == fronts
        assert len({id(row) for row in out.fronts}) == len(out.fronts)
        assert out.extinction_time == extinction
        assert out.newton_iterations == iters
        assert out.steps + out.repeated_steps == steps

    def test_time_dependent_data_are_always_solved(self):
        # callables are never taken for constants, even when they return one
        spec = make_jump_scenario(grid=201, n=32, T=0.25).spec
        out = run(spec)
        timed = run(replace(spec, g_lo=lambda t: -1.0, g_hi=lambda t: -1.0))
        assert out.repeated_steps > 0
        assert timed.repeated_steps == 0
        assert timed.steps == spec.steps
        assert np.array_equal(timed.values, out.values)
        assert timed.fronts == out.fronts
        assert timed.newton_iterations == out.newton_iterations

    def test_totals_count_the_solved_macro_steps(self, monkeypatch):
        # the sums over _advance calls, as a tracer wrapping it sees them,
        # equal the field's totals, and no call recurses
        from ellpar import solver

        advance = solver._advance
        depth = [0]
        deepest = [0]
        macro = []

        def counting(*args, **kwargs):
            depth[0] += 1
            deepest[0] = max(deepest[0], depth[0])
            try:
                res = advance(*args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                macro.append(res[1:])
            return res

        def totals(spec, policy):
            macro.clear()
            deepest[0] = 0
            out = run(spec, policy)
            assert sum(it for it, _ in macro) == out.newton_iterations
            assert sum(st for _, st in macro) == out.steps
            assert len(macro) + out.repeated_steps == spec.steps
            return out

        monkeypatch.setattr(solver, "_advance", counting)
        spec = make_jump_scenario(grid=401, n=32, T=1.0).spec
        out = totals(spec, SolverPolicy())
        assert spec.steps == 400 and len(macro) <= 40
        assert deepest[0] == 1 and out.steps == len(macro)
        # four Newton iterations are too few for some step: the run raises
        spec = make_jump_scenario(grid=201, n=32, T=0.1).spec
        with pytest.raises(NewtonFailure):
            run(spec, SolverPolicy(max_iters=4))
        assert deepest[0] == 1

    @pytest.mark.parametrize("make_spec, bn", [
        (_jump_spec, BnFamily(32)), (_jump_spec, None),
        (_richards_interval_spec, BnFamily(32)), (_richards_interval_spec, None),
        (_richards_annulus_spec, BnFamily(32)), (_richards_annulus_spec, None),
    ], ids=["b_32", "b", "richards-interval-b_32", "richards-interval-b",
            "richards-annulus-b_32", "richards-annulus-b"])
    def test_discrete_mass_balance(self, make_spec, bn):
        # F in flux form, (c_{i+1/2} (u_{i+1} - u_i) - c_{i-1/2} (u_i - u_{i-1}))
        # / (h^2 rho_i^(n-1)): summing the implicit step times h rho_i^(n-1)
        # over the interior nodes leaves the boundary fluxes at u^{k+1}.  The
        # trace operator with lam = 1 is the flux form with Psi = 1.
        spec = replace(make_spec(), bn=bn)
        out = run(spec)
        assert out.repeated_steps > 0
        x = spec.nodes()
        h = x[1] - x[0]
        n = spec.op.n_dim if spec.geometry.radial else 1
        b = spec.b_pair()[0](out.values)[:, 1:-1]
        stored = h * np.sum(x[1:-1] ** (n - 1) * (b[1:] - b[:-1]), axis=1)
        u = out.values[1:]
        psi = psi_eval(spec.op.psi or PsiSpec(), b_eval(spec.b, u))
        faces = 0.5 * (psi[:, 1:] + psi[:, :-1]) * (0.5 * (x[1:] + x[:-1])) ** (n - 1)
        flux = spec.dt * (faces[:, -1] * (u[:, -1] - u[:, -2])
                          - faces[:, 0] * (u[:, 1] - u[:, 0])) / h
        assert np.max(np.abs(stored - flux)) <= 1e-9


def _plateau_spec(op, grid):
    """A positive cap on the annulus [0.2, 1] in three dimensions, held at
    0.42 on the inner sphere, with b = s_+.  The first step moves the front
    inward by about 0.028: across more nodes the finer the grid."""
    return ProblemSpec(
        geometry=Geometry("radial-annulus", 0.2, 1.0), op=op,
        b=BSpec("positive-part"), g_lo=0.42, g_hi=-1.0,
        u0=lambda r: np.where(r <= 0.5, 0.5 * (1 - (r / 0.5) ** 2), -2 * (r - 0.5)),
        T=0.04, grid=grid, dt=1e-3)


# the kinds of the plateau runs, with lambda = 1 and Lambda = 2 for Pucci
_TRACE_AND_PUCCI = [
    OperatorSpec(kind="trace", lam=1.0, Lam=1.0, n_dim=3),
    OperatorSpec(kind="pucci-minus", lam=1.0, Lam=2.0, n_dim=3),
    OperatorSpec(kind="pucci-plus", lam=1.0, Lam=2.0, n_dim=3),
]


_WORK_KINDS = [
    *(pytest.param(op, id=op.kind) for op in (*_TRACE_AND_PUCCI, _bi_operator())),
    pytest.param(OperatorSpec(kind="divergence", n_dim=3, psi=PsiSpec("polynomial", (1.0, 2.0))),
                 id="divergence"),
    pytest.param(OperatorSpec(kind="divergence", n_dim=3), id="divergence-psi-1"),
]


def _scipy_solve(lower, diag, upper, rhs):
    """scipy's default-checked solve_banded((1, 1), ...) of the same system."""
    ab = np.zeros((3, diag.size))
    ab[0, 1:], ab[1], ab[2, :-1] = upper[:-1], diag, lower[1:]
    return scipy.linalg.solve_banded((1, 1), ab, rhs)


class TestTridiagonalSolve:
    @pytest.mark.parametrize("n", [3, 399, 1599])
    def test_matches_the_checked_solve_banded(self, n):
        # gtsv called directly: the same solution as scipy's checked
        # solve_banded, info = 0, and the arguments untouched
        rng = np.random.default_rng(n)
        lower, upper, rhs = rng.standard_normal((3, n))
        diag = 4.0 + rng.random(n)
        args = (lower, diag, upper, rhs)
        kept = [a.copy() for a in args]
        got, info = solve_banded(*args)
        assert info == 0 and got.tobytes() == _scipy_solve(*args).tobytes()
        assert all(a.tobytes() == k.tobytes() for a, k in zip(args, kept))

    def test_one_unknown(self):
        # gtsv reads no off-diagonal when n = 1: rhs / diag, as scipy divides
        rng = np.random.default_rng(1)
        scales = 10.0 ** rng.integers(-100, 100, (50, 2, 1))
        for diag, rhs in rng.standard_normal((50, 2, 1)) * scales:
            lower, upper = rng.standard_normal((2, 1))
            got, info = solve_banded(lower, diag, upper, rhs)
            assert info == 0 and got.tobytes() == (rhs / diag).tobytes()
            assert got.tobytes() == _scipy_solve(lower, diag, upper, rhs).tobytes()

    def test_singular_matrix(self, monkeypatch):
        # scipy raises at the zero pivot; the bare solve returns info > 0
        # and leaves its arguments alone
        args = (np.zeros(3), np.array([1.0, 0.0, 1.0]), np.zeros(3), np.ones(3))
        kept = [a.copy() for a in args]
        with pytest.raises(scipy.linalg.LinAlgError, match="^singular matrix$"):
            _scipy_solve(*args)
        assert solve_banded(*args)[1] > 0
        assert all(a.tobytes() == k.tobytes() for a, k in zip(args, kept))
        # a run whose every solve meets a zero pivot fails its first
        # iteration with the one residual it computed
        from ellpar import solver

        solve = solver.solve_banded

        def singular(lower, diag, upper, rhs):
            return solve(*(np.zeros_like(a) for a in (lower, diag, upper)), rhs)

        monkeypatch.setattr(solver, "solve_banded", singular)
        spec = interval_spec()
        with pytest.raises(NewtonFailure,
                           match="^no finite Newton step at t = 0.0025, dt = 0.0025$") as err:
            run(spec)
        assert len(err.value.history) == 1 and np.isfinite(err.value.history[0])

    @pytest.mark.parametrize("op", _TRACE_AND_PUCCI[:2], ids=["trace", "pucci-minus"])
    @pytest.mark.parametrize("which", range(4), ids=["lower", "diag", "upper", "rhs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_a_non_finite_band_is_a_newton_failure(self, monkeypatch, op, which, bad):
        # the solve checks no input: Newton's check of the step, or its
        # residual, turns a non-finite entry that the matrix reads, or one
        # in rhs, into a NewtonFailure that names t and dt, before a NaN
        # reaches b_n (a RuntimeWarning fails the test)
        from ellpar import solver

        solve = solver.solve_banded

        def broken(*args):
            args = [a.copy() for a in args]
            args[which][(-1, 50, 0, 50)[which]] = bad
            return solve(*args)

        monkeypatch.setattr(solver, "solve_banded", broken)
        spec = interval_spec(op=replace(op, n_dim=1))
        with pytest.raises(NewtonFailure, match="at t = 0.0025, dt = 0.0025$") as err:
            run(spec)
        assert err.value.history
        if np.isnan(bad):
            # a NaN always spoils the step: the first iteration fails
            assert str(err.value).startswith("no finite Newton step")
            assert len(err.value.history) == 1

    @pytest.mark.parametrize("op", _WORK_KINDS)
    @pytest.mark.parametrize("geometry", [Geometry("interval", 0.2, 1.0),
                                          Geometry("radial-annulus", 0.2, 1.0),
                                          Geometry("radial-ball-punctured", 0.2, 1.0)],
                             ids=["interval", "annulus", "ball"])
    def test_every_newton_system_matches_scipy(self, monkeypatch, op, geometry):
        from ellpar import solver

        solve, systems = solver.solve_banded, []

        def recording(*args):
            systems.append(tuple(a.copy() for a in args))
            return solve(*args)

        monkeypatch.setattr(solver, "solve_banded", recording)
        out = run(replace(_plateau_spec(op, 201), geometry=geometry))
        assert len(systems) == out.newton_iterations > 0
        for args in systems:
            got, info = solve(*args)
            assert info == 0 and got.tobytes() == _scipy_solve(*args).tobytes()


class TestJacobianWork:
    @staticmethod
    def _count_operator_calls(monkeypatch):
        """Count the solver's calls of apply_operator_1d and operator_jacobian_1d."""
        from ellpar import solver

        calls = {"apply": 0, "jacobian": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(solver, "apply_operator_1d",
                            counting("apply", solver.apply_operator_1d))
        monkeypatch.setattr(solver, "operator_jacobian_1d",
                            counting("jacobian", solver.operator_jacobian_1d))
        return calls

    @pytest.mark.parametrize("op", _WORK_KINDS)
    def test_one_jacobian_and_one_residual_per_iteration(self, monkeypatch, op):
        # every iteration takes the full step: one residual per iteration,
        # plus the first residual of each solved step; one operator matrix
        # per iteration, or one per spec for a linear kind, whose matrix
        # does not depend on u
        calls = self._count_operator_calls(monkeypatch)
        out = run(_plateau_spec(op, 201))
        assert out.newton_iterations > out.steps > 0
        assert calls["jacobian"] == (1 if op.linear else out.newton_iterations)
        assert calls["apply"] == out.newton_iterations + out.steps

    @pytest.mark.parametrize("op", _WORK_KINDS)
    def test_one_linear_solve_per_iteration(self, monkeypatch, op):
        # the benchmark's solver.linear_solve layer wraps solve_banded by
        # name: it sees every Newton step, so it cannot read zero
        from ellpar import solver

        calls = [0]

        def counting(*args, **kwargs):
            calls[0] += 1
            return solve_banded(*args, **kwargs)

        monkeypatch.setattr(solver, "solve_banded", counting)
        out = run(_plateau_spec(op, 201))
        assert out.newton_iterations > 0
        assert calls[0] == out.newton_iterations

    @pytest.mark.parametrize("make_spec", [
        lambda: _plateau_spec(_TRACE_AND_PUCCI[0], 201),
        lambda: _plateau_spec(OperatorSpec(kind="divergence", n_dim=3,
                                           psi=PsiSpec("polynomial", (1.0, 2.0))), 201),
        lambda: make_jump_scenario(grid=201, n=32, T=0.1).spec,
    ], ids=["trace-s+", "divergence-s+", "trace-b_32"])
    def test_one_b_per_iteration_and_one_per_solve(self, monkeypatch, make_spec):
        # b(u_prev) once per solved step; the first residual reuses it, as
        # Newton starts from u_prev; then one b(u) per iteration
        from ellpar import solver

        calls = [0]

        def counting(fn):
            def wrapped(*args, **kwargs):
                calls[0] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(solver, "b_eval", counting(solver.b_eval))
        monkeypatch.setattr(solver, "bn_eval", counting(solver.bn_eval))
        out = run(make_spec())
        assert out.newton_iterations > 0
        assert calls[0] == out.newton_iterations + out.steps

    @pytest.mark.parametrize("op", [p for p in _WORK_KINDS if p.values[0].linear])
    @pytest.mark.parametrize("geometry", [Geometry("interval", 0.2, 1.0),
                                          Geometry("radial-annulus", 0.2, 1.0),
                                          Geometry("radial-ball-punctured", 0.2, 1.0)],
                             ids=["interval", "annulus", "ball"])
    def test_a_linear_kinds_matrix_is_each_iterations(self, monkeypatch, op, geometry):
        # the once-assembled matrix, ghost fold included, is the one the
        # iteration would assemble at its own iterate, bit for bit
        from ellpar import solver
        from ellpar.operators import OperatorSpec as Spec

        def record():
            systems = []

            def recording(lower, diag, upper, rhs):
                systems.append(tuple(a.copy() for a in (lower, diag, upper, rhs)))
                return solve(lower, diag, upper, rhs)

            monkeypatch.setattr(solver, "solve_banded", recording)
            out = run(replace(_plateau_spec(op, 201), geometry=geometry))
            return out, systems

        solve = solver.solve_banded
        once, once_systems = record()
        monkeypatch.setattr(Spec, "linear", property(lambda self: False))
        each, each_systems = record()
        assert once.newton_iterations == len(once_systems) > once.steps
        assert len(once_systems) == len(each_systems)
        for a, b in zip(once_systems, each_systems):
            assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
        assert once.values.tobytes() == each.values.tobytes()

    @pytest.mark.parametrize("finite_at_start", [False, True], ids=["start", "first-step"])
    def test_non_finite_residual_is_a_newton_failure(self, monkeypatch, finite_at_start):
        # the operator reads NaN from its first call, or from its second on:
        # the linear solve never sees it as a right-hand side, and the
        # history ends in it
        from ellpar import solver

        apply, calls, solves = solver.apply_operator_1d, [0], [0]
        finite_calls = 1 if finite_at_start else 0

        def nan_after(*args, **kwargs):
            calls[0] += 1
            out = apply(*args, **kwargs)
            if calls[0] > finite_calls:
                out[:] = np.nan
            return out

        def counting(*args, **kwargs):
            solves[0] += 1
            return solve_banded(*args, **kwargs)

        monkeypatch.setattr(solver, "apply_operator_1d", nan_after)
        monkeypatch.setattr(solver, "solve_banded", counting)
        spec = interval_spec()
        with pytest.raises(NewtonFailure, match="non-finite residual") as err:
            step_parabolic(spec, spec.initial_values(), spec.dt, spec.dt)
        assert solves[0] == calls[0] - 1 == finite_calls
        assert len(err.value.history) == calls[0]
        assert all(np.isfinite(err.value.history[:-1])) and np.isnan(err.value.history[-1])

    @pytest.mark.parametrize("geometry", [Geometry("interval", -1.0, 1.0),
                                          Geometry("radial-annulus", 0.2, 1.0),
                                          Geometry("radial-ball-punctured", 0.2, 1.0)],
                             ids=["interval", "annulus", "ball"])
    def test_inputs_are_left_unchanged(self, geometry):
        # Newton updates its iterate in place: never the caller's array
        op = OperatorSpec(kind="pucci-minus", lam=1.0, Lam=2.0,
                          n_dim=3 if geometry.radial else 1)
        s = np.linspace(0.0, 1.0, 201)
        u0 = 0.5 - 1.5 * s**2
        spec = ProblemSpec(geometry=geometry, op=op, bn=BnFamily(16), g_lo=0.5,
                           g_hi=-1.0, u0=u0, T=0.01, grid=201, dt=2.5e-3)
        kept = u0.tobytes()
        u_prev = spec.initial_values()
        prev = u_prev.tobytes()
        u_next, iters = step_parabolic(spec, u_prev, spec.dt, spec.dt)
        assert iters > 0 and u_next is not u_prev
        assert u_prev.tobytes() == prev and u0.tobytes() == kept
        u_star = solve_elliptic(spec)
        star = u_star.tobytes()
        assert solve_elliptic(spec).tobytes() == star
        assert u_star.tobytes() == star and u0.tobytes() == kept


class TestSolveSetup:
    """A spec's grid and linear operator matrix, built once for all its
    solves (`ProblemSpec.solve_setup`)."""

    @pytest.mark.parametrize("op", [p for p in _WORK_KINDS if p.values[0].linear])
    @pytest.mark.parametrize("geometry", [Geometry("interval", 0.2, 1.0),
                                          Geometry("radial-ball-punctured", 0.2, 1.0)],
                             ids=["interval", "ball"])
    def test_a_reused_spec_gives_a_fresh_specs_bytes(self, monkeypatch, op, geometry):
        # two runs, a step and a stationary solve of one spec build its
        # matrix once, and each gives the bytes of the same call on a new spec
        spec = replace(_plateau_spec(op, 201), geometry=geometry)
        u_prev = spec.initial_values()

        def outputs(spec_of):
            runs = [run(spec_of()) for _ in range(2)]
            step = step_parabolic(spec_of(), u_prev, spec.dt, 0.5 * spec.dt)
            return [r.values.tobytes() for r in runs] + [
                step[0].tobytes(), step[1], solve_elliptic(spec_of()).tobytes()]

        fresh = outputs(lambda: replace(spec))
        calls = TestJacobianWork._count_operator_calls(monkeypatch)
        assert outputs(lambda: spec) == fresh
        assert calls["jacobian"] == 1

    @pytest.mark.parametrize("op", _WORK_KINDS)
    def test_the_arrays_are_read_only(self, op):
        spec = replace(_plateau_spec(op, 21), geometry=Geometry("radial-ball-punctured", 0.2, 1.0))
        x, bands = spec.solve_setup
        assert spec.solve_setup is spec.solve_setup
        assert x.size == spec.grid + 1 and (bands is not None) == op.linear
        for a in (x, *(bands or ())):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                a *= 2.0

    def test_a_new_spec_builds_its_own(self):
        spec = _plateau_spec(_TRACE_AND_PUCCI[0], 201)
        x, bands = setup = spec.solve_setup
        kept = [a.copy() for a in (x, *bands)]
        finer = replace(spec, grid=401)
        ball = replace(spec, geometry=Geometry("radial-ball-punctured", 0.2, 1.0))
        for other, size in ((finer, 401), (ball, 202)):
            x_other, bands_other = other.solve_setup
            assert x_other.size == size and bands_other[1].size == size - 2
        assert ball.solve_setup[0][1:].tobytes() == x.tobytes()
        assert ball.solve_setup[1][0][0] == 0.0 != bands[0][0]  # the ghost fold
        assert spec.solve_setup is setup
        assert all(a.tobytes() == k.tobytes() for a, k in zip((x, *bands), kept))


class TestRichardsNewtonCount:
    @pytest.mark.parametrize("psi", [PsiSpec("constant", (1.0,)),
                                     PsiSpec("polynomial", (1.0, 2.0))],
                             ids=["psi-1", "psi-1+2y"])
    def test_no_substeps_and_a_grid_independent_count(self, psi):
        # the full step takes 77 and 83 iterations at Psi = 1, 122 and 124
        # at Psi = 1 + 2y
        op = OperatorSpec(kind="divergence", n_dim=3, psi=psi)
        coarse, fine = (run(_plateau_spec(op, grid)) for grid in (801, 1601))
        assert (coarse.steps, fine.steps) == (40, 40)
        assert fine.newton_iterations <= 1.1 * coarse.newton_iterations


class TestAnnulusNewtonCount:
    """The plateau run for the nondivergence kinds.  Its first step moves
    the front across more nodes the finer the grid; Newton's full step
    crosses them in a few iterations at every grid, so no step fails."""

    @pytest.mark.parametrize("op", _TRACE_AND_PUCCI, ids=lambda op: op.kind)
    def test_first_step_count_does_not_grow_with_the_grid(self, op):
        # 3-5 iterations from 201 to 3,201 nodes
        for grid in (201, 801, 3201):
            spec = _plateau_spec(op, grid)
            _, iters = step_parabolic(spec, spec.initial_values(), spec.dt, spec.dt)
            assert iters <= 6

    @pytest.mark.parametrize("op", _TRACE_AND_PUCCI, ids=lambda op: op.kind)
    def test_no_substeps(self, op):
        for grid in (801, 1601):
            out = run(_plateau_spec(op, grid))
            assert out.steps + out.repeated_steps == 40


class TestPerturbations:
    def test_window_shift_and_lift(self):
        x = np.linspace(-1, 1, 201)
        u0 = jump_initial(x)
        up = perturb_initial_data(u0, x, 0.1, "up")
        dn = perturb_initial_data(u0, x, 0.1, "down")
        assert np.all(up[1:-1] > u0[1:-1])
        assert np.all(dn[1:-1] < u0[1:-1])
        # front moved outward by about eps
        assert np.max(x[up > 0]) == pytest.approx(0.3 + 0.1, abs=0.02)

    def test_matches_scalar_window_loop(self):
        rng = np.random.default_rng(5)
        x = np.linspace(-1, 1, 101)
        for eps in (0.004, 0.02, 0.1, 0.3):
            w = int(round(eps / (x[1] - x[0])))
            for direction, shift in (("up", -4.0), ("down", 0.0)):
                u0 = rng.standard_normal(101) + shift
                want = np.array([
                    np.max(u0[max(i - w, 0):i + w + 1]) + 0.1 * eps if direction == "up"
                    else np.min(u0[max(i - w, 0):i + w + 1]) - 0.1 * eps
                    for i in range(101)])
                got = perturb_initial_data(u0, x, eps, direction)
                assert np.array_equal(got, want)

    def test_unknown_direction_raises(self):
        # only "up" and "down" name a perturbation; another value is a typo
        x = np.linspace(-1, 1, 21)
        for direction in ("sideways", "Up", ""):
            with pytest.raises(ValueError, match="direction"):
                perturb_initial_data(jump_initial(x), x, 0.1, direction)

    def test_front_check_reads_the_dirichlet_nodes(self):
        interval = interval_spec()
        ball = punctured_ball_bracket_spec()
        u = np.full(interval.grid, -1.0)
        interval.check_front_inside(u)
        ball.check_front_inside(u)
        for i in (1, -2):
            v = u.copy()
            v[i] = 0.5
            with pytest.raises(ValueError, match="exits the domain"):
                interval.check_front_inside(v)
        # the reflecting inner end carries no data: a positive phase may
        # reach it, but not the node next to the outer end
        v = u.copy()
        v[:3] = 0.5
        ball.check_front_inside(v)
        v[-2] = 0.5
        with pytest.raises(ValueError, match="exits the domain"):
            ball.check_front_inside(v)

    def test_exiting_front_raises_in_the_studies(self):
        spec = interval_spec(u0=lambda x: 0.9 - np.abs(x))
        with pytest.raises(ValueError, match="exits the domain"):
            bracket_maximal_minimal(spec, [0.2, 0.1])


class TestStudies:
    def test_singular_limit_validation(self):
        spec = interval_spec()
        with pytest.raises(ValueError):
            singular_limit_study(spec, [4, 8])
        with pytest.raises(ValueError):
            singular_limit_study(spec, [8, 4, 2])

    def test_bracket_validation(self):
        spec = interval_spec()
        for eps_list in ([0.02, 0.04], [0.04, 0.04], [0.04, 0.0], [0.04, -0.02]):
            with pytest.raises(ValueError):
                bracket_maximal_minimal(spec, eps_list)

    @pytest.mark.parametrize("probe", [5.0, -0.01, 0.012, float("nan")])
    def test_probe_times_outside_the_horizon_raise_before_any_run(self, monkeypatch, probe):
        # a probe more than half a step outside [0, T] used to read the
        # nearest stored level
        from ellpar import solver

        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        spec = make_jump_scenario(grid=101, n=8, T=0.01).spec
        monkeypatch.setattr(solver, "run", no_run)
        with pytest.raises(ValueError, match=f"probe time {probe}"):
            singular_limit_study(spec, [4, 8, 16], probe_times=[0.005, probe])
        with pytest.raises(ValueError, match=f"probe time {probe}"):
            bracket_maximal_minimal(spec, [0.08, 0.04], probe_times=[probe])

    def test_an_empty_probe_list_raises_before_any_run(self, monkeypatch):
        # no probe left max() an empty sequence after every run
        from ellpar import solver

        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        spec = make_jump_scenario(grid=101, n=8, T=0.01).spec
        monkeypatch.setattr(solver, "run", no_run)
        with pytest.raises(ValueError, match="need at least one probe time"):
            singular_limit_study(spec, [4, 8, 16], probe_times=[])
        with pytest.raises(ValueError, match="need at least one probe time"):
            bracket_maximal_minimal(spec, [0.1, 0.05], probe_times=[])

    def test_probe_times_within_half_a_step_of_the_horizon(self):
        spec = make_jump_scenario(grid=101, n=8, T=0.01).spec
        half = 0.49 * spec.dt
        rep = singular_limit_study(spec, [4, 8, 16], probe_times=[-half, 0.01 + half])
        assert rep.probe_times == [-half, 0.01 + half]

    @pytest.mark.parametrize("levels, ordered", [
        ((2.0, -2.0, 1.0, -1.0), True),
        ((2.0, -2.0, -0.5, 0.0), False),
        ((1.0, -2.0, 2.0, -1.0), False),
        ((2.0, -1.0, 1.0, -2.0), False),
    ], ids=["ordered", "up-below-down", "up-not-nested", "down-not-nested"])
    def test_bracket_ordering_checks(self, monkeypatch, levels, ordered):
        # constant runs in call order up, down at eps 0.08, then up, down at
        # eps 0.04; each unordered case breaks exactly one of the checks
        from ellpar import solver

        spec = make_jump_scenario(grid=101, n=8, T=0.01).spec
        level = iter(levels)
        monkeypatch.setattr(solver, "run", lambda s: SimpleNamespace(
            values=np.full((spec.steps + 1, spec.grid), next(level)), extinction_time=None))
        assert bracket_maximal_minimal(spec, [0.08, 0.04]).ordered is ordered

    def test_bracket_on_punctured_ball(self):
        # the inner node is free, so the shifted data may stay positive there
        spec = punctured_ball_bracket_spec()
        rep = bracket_maximal_minimal(spec, [0.1, 0.05, 0.025],
                                      probe_times=[0.01, 0.02, 0.04])
        base = run(spec).extinction_time
        assert rep.ordered
        assert None not in rep.extinction_upper + rep.extinction_lower
        assert max(rep.extinction_lower) <= base <= min(rep.extinction_upper)
        assert all(g2 <= g1 for g1, g2 in zip(rep.gaps, rep.gaps[1:]))

    def test_bracket_small(self):
        spec = make_jump_scenario(grid=201, n=16, T=0.2).spec
        rep = bracket_maximal_minimal(spec, [0.08, 0.04])
        assert rep.ordered
        assert rep.probe_times == pytest.approx([0.05, 0.1, 0.15])
        assert len(rep.gaps) == 2
        for up, dn in zip(rep.extinction_upper, rep.extinction_lower):
            assert up >= dn

    def test_singular_limit_small(self):
        spec = interval_spec(T=0.06, grid=101)
        rep = singular_limit_study(spec, [4, 8, 16],
                                   probe_times=[0.01, 0.02])
        assert len(rep.pairwise_sup) == 2
        assert rep.pairwise_sup[1] < rep.pairwise_sup[0]
