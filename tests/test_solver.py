import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from ellpar.harness import _pucci_radial_exact, jump_initial, make_jump_scenario
from ellpar.nonlinearity import BnFamily, BSpec
from ellpar.operators import OperatorSpec
from ellpar.regularize import GridField
from ellpar.solver import (
    Geometry,
    NewtonFailure,
    ProblemSpec,
    SolverPolicy,
    _advance,
    _check_front_inside,
    _front_locations,
    bracket_maximal_minimal,
    perturb_initial_data,
    run,
    singular_limit_study,
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
        with pytest.raises(ValueError):
            step_parabolic(spec, spec.initial_values(), 0.1, dt=0.0)


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
        assert interval_spec(T=0.1, dt=0.025).steps == 4

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

    def test_underflow_carries_newton_history(self):
        spec = make_jump_scenario(grid=201, n=32, T=0.01).spec
        policy = SolverPolicy(max_iters=1, max_substep_depth=0)
        with pytest.raises(NewtonFailure, match="underflow") as info:
            run(spec, policy)
        assert len(info.value.history) > 0
        assert isinstance(info.value.__cause__, NewtonFailure)
        assert info.value.history == info.value.__cause__.history

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
        # the sums over top-level _advance calls, as a tracer wrapping it
        # sees them, equal the field's totals
        from ellpar import solver

        advance = solver._advance
        depth = [0]
        macro = []

        def counting(*args, **kwargs):
            depth[0] += 1
            try:
                res = advance(*args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                macro.append(res[1:])
            return res

        monkeypatch.setattr(solver, "_advance", counting)
        spec = make_jump_scenario(grid=401, n=32, T=1.0).spec
        out = run(spec)
        assert sum(it for it, _ in macro) == out.newton_iterations
        assert sum(st for _, st in macro) == out.steps
        assert len(macro) + out.repeated_steps == spec.steps == 400
        assert len(macro) <= 40

    @pytest.mark.parametrize("bn", [BnFamily(32), None], ids=["b_32", "b"])
    def test_discrete_mass_balance(self, bn):
        # lam = Lam = 1: F is the second difference, so summing the implicit
        # step over the interior nodes leaves the boundary fluxes at u^{k+1}
        spec = replace(make_jump_scenario(grid=401, n=32, T=1.0).spec, bn=bn)
        out = run(spec)
        assert out.repeated_steps > 0
        x = spec.nodes()
        h = x[1] - x[0]
        b = spec.b_pair()[0](out.values)[:, 1:-1]
        stored = h * np.sum(b[1:] - b[:-1], axis=1)
        u = out.values[1:]
        flux = spec.dt * ((u[:, -1] - u[:, -2]) - (u[:, 1] - u[:, 0])) / h
        assert np.max(np.abs(stored - flux)) <= 1e-9


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

    def test_front_check_reads_the_dirichlet_nodes(self):
        interval = interval_spec()
        ball = punctured_ball_bracket_spec()
        u = np.full(interval.grid, -1.0)
        _check_front_inside(interval, u)
        _check_front_inside(ball, u)
        for i in (1, -2):
            v = u.copy()
            v[i] = 0.5
            with pytest.raises(ValueError, match="exits the domain"):
                _check_front_inside(interval, v)
        # the reflecting inner end carries no data: a positive phase may
        # reach it, but not the node next to the outer end
        v = u.copy()
        v[:3] = 0.5
        _check_front_inside(ball, v)
        v[-2] = 0.5
        with pytest.raises(ValueError, match="exits the domain"):
            _check_front_inside(ball, v)

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
