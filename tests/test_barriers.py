import math

import numpy as np
import pytest

from ellpar.barriers import (
    BarrierInfeasible,
    OutOfWindowError,
    ParabolaBarrier,
    critical_radius,
    eval_radial_barrier,
    make_eps_eta_barrier,
    make_parabola_barrier,
    solve_heatkernel_barrier,
    solve_logdiv_barrier,
    solve_radial_barrier,
    verify_subsolution_margin,
)
from ellpar.nonlinearity import BSpec, PsiSpec, b_derivative
from ellpar.operators import OperatorSpec, divergence_expanded, structural_envelope


OP = OperatorSpec(kind="pucci-minus", lam=1.0, Lam=1.2, delta1=0.5,
                  delta0=0.2, n_dim=3)


def div_op(psi=PsiSpec(), n_dim=2):
    return OperatorSpec(kind="divergence", n_dim=n_dim, psi=psi)


class TestCriticalRadius:
    def test_formula(self):
        assert critical_radius(OP) == pytest.approx((1 + 2 * 1.2) / 1.0)

    def test_infinite_without_drift(self):
        op = OperatorSpec(kind="pucci-plus", lam=1.0, Lam=2.0, n_dim=2)
        assert critical_radius(op) == math.inf


class TestRadialBarrier:
    def test_slope_identity_at_front(self):
        bar = solve_radial_barrier(OP, rho0=1.0, a_hat=1.0, b_hat=-0.5,
                                   omega_hat=0.3)
        # inside slope magnitude: alpha gamma rho0^(-gamma-1) - 2 beta rho0
        got = bar.alpha * bar.gamma * bar.rho0 ** (-bar.gamma - 1) - 2 * bar.beta * bar.rho0
        assert got == pytest.approx(bar.a_hat, abs=1e-12)

    def test_margin_certificate(self):
        bar = solve_radial_barrier(OP, rho0=1.0, a_hat=1.0, b_hat=-0.5,
                                   omega_hat=0.3)
        rep = verify_subsolution_margin(bar, samples=500, seed=1)
        assert rep.passed
        assert rep.worst_margin > 0
        assert rep.flux_gap == pytest.approx(bar.a_hat + bar.b_hat)

    def test_flux_gap_is_measured(self):
        # the report measures |phi'_in(rho0)| - |phi'_out(rho0)| from the
        # one-sided slopes, negated for a supersolution; it does not echo
        # a_hat + b_hat, which differs here in the last digit
        bar = solve_radial_barrier(OP, rho0=0.5, a_hat=2.0, b_hat=-0.3,
                                   omega_hat=1.0, sign="super")
        g, r0 = bar.gamma, bar.rho0
        slope_in, slope_out = (-a * g * r0 ** (-g - 1) + 2 * bar.beta * r0
                               for a in (bar.alpha, bar.alpha_neg))
        rep = verify_subsolution_margin(bar, samples=100, seed=2)
        assert rep.flux_gap == -(abs(slope_in) - abs(slope_out))
        assert rep.flux_gap == pytest.approx(-(bar.a_hat + bar.b_hat), rel=1e-12)
        # the slopes the barrier itself takes on either side of its front
        h = 1e-7 * r0
        drho_in = eval_radial_barrier(bar, r0 - h, 0.0)[2]
        drho_out = eval_radial_barrier(bar, r0 + h, 0.0)[2]
        assert rep.flux_gap == pytest.approx(-(abs(drho_in) - abs(drho_out)), rel=1e-5)

    def test_super_sign(self):
        bar = solve_radial_barrier(OP, rho0=1.0, a_hat=1.0, b_hat=-0.5,
                                   omega_hat=0.3, sign="super")
        rep = verify_subsolution_margin(bar, samples=500, seed=1)
        assert rep.passed
        val, dt, drho, drho2 = eval_radial_barrier(bar, bar.rho0 - bar.eps / 2, 0.0)
        assert val < 0  # negated positive phase

    def test_infeasible_beyond_critical_radius(self):
        rho_c = critical_radius(OP)
        with pytest.raises(BarrierInfeasible):
            solve_radial_barrier(OP, rho0=rho_c * 1.001, a_hat=1.0,
                                 b_hat=-0.5, omega_hat=0.1)
        solve_radial_barrier(OP, rho0=rho_c * 0.95, a_hat=1.0, b_hat=-0.5,
                             omega_hat=0.1)  # does not raise

    def test_window_enforced(self):
        bar = solve_radial_barrier(OP, rho0=1.0, a_hat=1.0, b_hat=-0.5,
                                   omega_hat=0.3)
        with pytest.raises(OutOfWindowError):
            eval_radial_barrier(bar, bar.rho0 + 2 * bar.eps, 0.0)
        with pytest.raises(OutOfWindowError):
            eval_radial_barrier(bar, bar.rho0, 10 * bar.eps_t)

    def test_zero_on_moving_front(self):
        bar = solve_radial_barrier(OP, rho0=1.0, a_hat=1.0, b_hat=-0.5,
                                   omega_hat=0.5)
        for t in (-bar.eps_t / 2, 0.0, bar.eps_t / 2):
            rho_f = bar.front_radius(t)
            if not (bar.rho0 - bar.eps < rho_f < bar.rho0 + bar.eps):
                continue
            val, *_ = eval_radial_barrier(bar, rho_f, t)
            assert val == pytest.approx(0.0, abs=1e-14)

    def test_one_sided_slopes_at_front(self):
        # d/drho is -a_hat just inside the front and b_hat just outside
        bar = solve_radial_barrier(OP, rho0=1.0, a_hat=1.0, b_hat=-0.5,
                                   omega_hat=0.3)
        inside, outside = eval_radial_barrier(bar, np.array([1.0, 1.0 + 1e-12]), 0.0)[2]
        assert inside == pytest.approx(-bar.a_hat, rel=1e-9)
        assert outside == pytest.approx(bar.b_hat, rel=1e-9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            solve_radial_barrier(OP, rho0=1.0, a_hat=0.4, b_hat=-0.5,
                                 omega_hat=0.1)  # a+b <= 0
        with pytest.raises(ValueError):
            solve_radial_barrier(OP, rho0=1.0, a_hat=1.0, b_hat=-0.5,
                                 omega_hat=-1.0)


class TestHeatKernelBarrier:
    def test_bracket_negative_and_margin(self):
        op = OperatorSpec(kind="trace", lam=1.0, Lam=1.0, delta1=0.3,
                          delta0=0.1, n_dim=1)
        bar = solve_heatkernel_barrier(op, d=0.5, delta=0.1)
        rep = verify_subsolution_margin(bar, samples=900)
        assert rep.passed
        assert bar.eps > 0 and bar.eta > 0

    def test_squeeze_ordering(self):
        op = OperatorSpec(kind="trace", lam=1.0, Lam=1.0, n_dim=1)
        bar = solve_heatkernel_barrier(op, d=0.4, delta=0.05)
        lhs = bar.eta ** -0.5 * math.exp(-bar.d**2 / (4 * bar.k * bar.eta))
        rhs = ((bar.delta + bar.eta) ** -0.5
               * math.exp(-bar.d**2 / (bar.k * (bar.delta + bar.eta))))
        assert lhs < bar.eps < rhs


class TestLogDivBarrier:
    def test_worked_example_constants(self):
        # Psi = 1, b = positive part, omega = 1, rho0 = 2, M = 1, n = 2:
        # k2 = 0, k1 = 1 + 2/2 = 2, eta = 1/4, smallest doubling k = 8
        bar = solve_logdiv_barrier(div_op(), BSpec(), omega=1.0, rho0=2.0, M=1.0)
        assert bar.k2 == pytest.approx(0.0)
        assert bar.k1 == pytest.approx(2.0)
        assert bar.eta == pytest.approx(0.25)
        assert bar.k == pytest.approx(8.0)
        psi_eta = math.log(bar.a * bar.k * bar.eta + 1) / bar.k
        # a = expm1(2.5 M k) / (k eta) puts psi(eta) at the middle of (2M, 3M)
        assert psi_eta == pytest.approx(2.5, rel=1e-12, abs=0.0)
        # inside the collar the profile is positive, increasing and concave
        val, d1, d2 = bar.profile(bar.eta / 2)
        assert val > 0 and d1 > 0 and d2 < 0

    def test_margin_positive(self):
        psi = PsiSpec("polynomial", (1.0, 0.5))
        bar = solve_logdiv_barrier(div_op(psi, 3), BSpec(), omega=0.5, rho0=1.0, M=1.0)
        rep = verify_subsolution_margin(bar, samples=500, seed=2)
        assert rep.passed and rep.worst_margin > 0

    def test_needs_a_divergence_operator(self):
        # the barrier certifies div(Psi(b(u)) Du) only: another kind is refused
        for op in (OP, OperatorSpec(kind="trace", n_dim=2)):
            with pytest.raises(ValueError, match=f"op.kind = {op.kind}"):
                solve_logdiv_barrier(op, BSpec(), omega=1.0, rho0=2.0, M=1.0)


class TestParabolaBarriers:
    def test_decr_parabola_margin(self):
        op = OperatorSpec(kind="trace", lam=1.0, Lam=1.0, n_dim=2)
        bar = make_parabola_barrier(op)
        assert bar.gamma == 1 / 32
        rep = verify_subsolution_margin(bar, samples=500, seed=3)
        assert rep.passed
        # gamma must follow Lambda and 2 delta_0 |phi| with phi <= 2; with
        # delta = 0 the margin is 0 in exact arithmetic, and on a non-dyadic
        # Lambda it can round below zero (tight does at seed 0)
        tight = OperatorSpec(kind="pucci-minus", lam=1.0, Lam=1.8, n_dim=1)
        for op in (OP,
                   OperatorSpec(kind="pucci-plus", lam=1.0, Lam=2.0, n_dim=2),
                   OperatorSpec(kind="trace", lam=1.0, Lam=1.0, delta0=1.0, n_dim=2),
                   OperatorSpec(kind="pucci-minus", lam=1.0, Lam=1.2, n_dim=3),
                   OperatorSpec(kind="pucci-minus", lam=1.0, Lam=3.45, n_dim=2),
                   tight):
            rep = verify_subsolution_margin(make_parabola_barrier(op),
                                            samples=2000, seed=0)
            assert rep.passed, (op, rep.worst_margin)
        assert -1e-12 < rep.worst_margin < 0

    def test_eps_eta_smallness_enforced(self):
        op = OperatorSpec(kind="trace", lam=1.0, Lam=1.0, delta1=2.0,
                          delta0=2.0, n_dim=1)
        with pytest.raises(BarrierInfeasible):
            make_eps_eta_barrier(op, M=1.0, eps=0.5, eta=0.01)
        ok = make_eps_eta_barrier(op, M=1.0, eps=0.01, eta=0.001)
        rep = verify_subsolution_margin(ok, samples=500, seed=3)
        assert rep.passed
        # its own type, still reported as the parabola family
        assert (rep.family, rep.sense) == ("parabola", "super")


def _reference_parabola_margin(bar, samples, seed):
    """Worst margin of the parabola barriers, one sample at a time."""
    rng = np.random.default_rng(seed)
    op = bar.op
    n, Lam = op.n_dim, op.Lam
    worst = math.inf
    for _ in range(samples):
        if isinstance(bar, ParabolaBarrier):
            x = 0.5 * rng.random()
            t = -2 * bar.gamma * rng.random()
            val = -t / (2 * bar.gamma) - 4 * x * x + 1
            if val <= 0:
                continue
            F_env = structural_envelope(op, [-8.0] * n, 8 * x, val, "sub")
            worst = min(worst, -(-1.0 / (2 * bar.gamma) - F_env))
        else:
            A = 4 * bar.M / bar.eps
            x = math.sqrt(bar.eps) * rng.random()
            t = -bar.eps / (8 * n * Lam) * rng.random()
            val = A * (4 * n * Lam * t + x * x + bar.eta)
            if val <= 0:
                continue
            F_env = structural_envelope(op, [2 * A] * n, 2 * A * x, val, "super")
            worst = min(worst, A * 4 * n * Lam - F_env)
    return worst


def _reference_radial_margin(bar, samples, seed):
    """Worst margin of a radial barrier, one sample at a time, and the number
    of draws rejected next to the front or on the window's edge."""
    rng = np.random.default_rng(seed)
    op = bar.op
    worst, done, rejected = math.inf, 0, 0
    while done < samples:
        rho = bar.rho0 + bar.eps * (2 * rng.random() - 1)
        t = bar.eps_t * (2 * rng.random() - 1)
        if (abs(rho - bar.front_radius(t)) < 1e-9 * bar.rho0
                or not (bar.rho0 - bar.eps < rho < bar.rho0 + bar.eps)):
            rejected += 1
            continue
        val, dt, drho, drho2 = (float(v) for v in eval_radial_barrier(bar, rho, t))
        F_env = structural_envelope(op, [drho / rho] * (op.n_dim - 1) + [drho2], abs(drho),
                                    val, bar.sign)
        res = (dt if val > 0 else 0.0) - F_env
        worst = min(worst, -res if bar.sign == "sub" else res)
        done += 1
    return worst, rejected


def _reference_logdiv_margin(bar, samples, seed):
    """Worst supersolution residual of a log barrier, one sample at a time."""
    rng = np.random.default_rng(seed)
    bspec, n = bar.bspec, bar.op.n_dim
    tau = bar.rho0 / (2 * bar.omega) if bar.omega > 0 else 1.0
    worst = math.inf
    for _ in range(samples):
        s = bar.eta * rng.random()
        t = tau * (2 * rng.random() - 1) * 0.5
        if s == 0.0:
            continue
        rho = bar.rho0 + bar.omega * t + s
        val, d1v, d2v = (float(v) for v in bar.profile(s))
        F = divergence_expanded(bar.op, bspec, val, (n - 1) * d1v / rho + d2v, d1v * d1v)
        worst = min(worst, -bar.omega * float(b_derivative(bspec, val)) * d1v - F)
    return worst


class TestBatchedMargins:
    def test_radial_matches_scalar_reference(self):
        for op in (OP, OperatorSpec(kind="pucci-plus", lam=0.5, Lam=2.0, delta1=0.1,
                                    n_dim=1)):
            for sign in ("sub", "super"):
                for omega in (0.0, 0.3, 1.0):
                    bar = solve_radial_barrier(op, rho0=1.0, a_hat=1.0, b_hat=-0.5,
                                               omega_hat=omega, sign=sign)
                    for seed in (0, 1, 2):
                        rep = verify_subsolution_margin(bar, samples=400, seed=seed)
                        want, rejected = _reference_radial_margin(bar, 400, seed)
                        # no draw rejected: both evaluate the same 400 points
                        assert rejected == 0
                        # numpy's array pow may differ from scalar pow in the
                        # last ulp
                        assert rep.worst_margin == pytest.approx(want, rel=1e-15, abs=0)

    def test_radial_eval_on_arrays(self):
        bar = solve_radial_barrier(OP, rho0=1.0, a_hat=1.0, b_hat=-0.5, omega_hat=1.0)
        rng = np.random.default_rng(4)
        rho = bar.rho0 + bar.eps * (2 * rng.random(300) - 1)
        t = bar.eps_t * (2 * rng.random(300) - 1)
        got = eval_radial_barrier(bar, rho, t)
        want = np.array([eval_radial_barrier(bar, r, s) for r, s in zip(rho, t)]).T
        # val and dt are differences of O(1) powers, so an ulp of a power can
        # be a large relative change of a small result
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-15, atol=1e-13)
        for bad in (bar.rho0 + bar.eps, bar.rho0 - 2 * bar.eps):
            with pytest.raises(OutOfWindowError):
                eval_radial_barrier(bar, np.append(rho, bad), np.append(t, 0.0))
        with pytest.raises(OutOfWindowError):
            eval_radial_barrier(bar, rho, np.where(np.arange(t.size) == 7, bar.eps_t, t))

    def test_empty_check_rejected(self):
        bars = (solve_radial_barrier(OP, rho0=1.0, a_hat=1.0, b_hat=-0.5, omega_hat=0.3),
                solve_heatkernel_barrier(OP, d=0.5, delta=0.1),
                solve_logdiv_barrier(div_op(), BSpec(), omega=1.0, rho0=2.0, M=1.0),
                make_parabola_barrier(OP))
        for bar in bars:
            for samples in (0, -1):
                with pytest.raises(ValueError, match="sample"):
                    verify_subsolution_margin(bar, samples=samples)

    def test_parabola_matches_scalar_reference(self):
        ops = (OP, OperatorSpec(kind="trace", lam=1.0, Lam=1.0, n_dim=2),
               OperatorSpec(kind="pucci-plus", lam=0.5, Lam=2.0, delta1=0.1, n_dim=1))
        for op in ops:
            bars = [make_parabola_barrier(op),
                    make_eps_eta_barrier(op, M=1.0, eps=0.01, eta=0.001)]
            for bar in bars:
                for seed in (0, 1, 2):
                    rep = verify_subsolution_margin(bar, samples=400, seed=seed)
                    assert rep.worst_margin == _reference_parabola_margin(bar, 400, seed)

    def test_logdiv_matches_scalar_reference(self):
        cases = ((PsiSpec("polynomial", (1.0, 0.5)), BSpec(), 0.5),
                 (PsiSpec("constant", (2.0,)), BSpec(), 0.0),
                 (PsiSpec("polynomial", (1.0, 0.3, 0.2)),
                  BSpec("lipschitz-table", (0.0, 0.5), (1.0, 2.0)), 0.5))
        for psi, bspec, omega in cases:
            bar = solve_logdiv_barrier(div_op(psi, 3), bspec, omega=omega, rho0=1.0, M=1.0)
            for seed in (0, 1, 5):
                rep = verify_subsolution_margin(bar, samples=400, seed=seed)
                assert rep.worst_margin == _reference_logdiv_margin(bar, 400, seed)
