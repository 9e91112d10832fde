from dataclasses import replace

import numpy as np
import pytest

from ellpar.harness import _bi_operator
from ellpar.nonlinearity import BSpec, PsiSpec
from ellpar.operators import (
    OperatorSpec,
    apply_operator_1d,
    operator_full_eval,
    operator_jacobian_1d,
    pucci_minus,
    pucci_plus,
    structural_envelope,
    structural_envelope_check,
)


def brute_force_pucci(M, lam, Lam, n_samples=4000, seed=0):
    """sup / inf of tr(A M) over sampled A in [lam I, Lam I]."""
    rng = np.random.default_rng(seed)
    n = M.shape[0]
    Q, _ = np.linalg.qr(rng.standard_normal((n_samples, n, n)))
    # bias eigenvalues toward the extreme points where the optimum sits
    shape = (n_samples, n)
    mu = np.where(rng.random(shape) < 0.45, lam,
                  np.where(rng.random(shape) < 0.8, Lam, rng.uniform(lam, Lam, shape)))
    A = (Q * mu[:, None, :]) @ Q.swapaxes(-1, -2)
    v = np.einsum("kij,ji->k", A, M)
    return float(v.max()), float(v.min())


class TestPucci:
    def test_against_brute_force(self):
        rng = np.random.default_rng(2)
        op = OperatorSpec(kind="pucci-plus", lam=1.0, Lam=2.0, n_dim=2)
        for _ in range(20):
            M = rng.standard_normal((2, 2))
            M = 0.5 * (M + M.T)
            eigs = np.linalg.eigvalsh(M)
            plus = pucci_plus(op, eigs)
            minus = pucci_minus(op, eigs)
            sup, inf = brute_force_pucci(M, op.lam, op.Lam)
            assert sup <= plus + 1e-10
            assert inf >= minus - 1e-10
            assert plus - sup < 5e-3
            assert inf - minus < 5e-3

    def test_duality(self):
        rng = np.random.default_rng(4)
        op = OperatorSpec(kind="pucci-minus", lam=1.0, Lam=2.5, n_dim=3)
        for _ in range(100):
            eigs = rng.standard_normal(3)
            assert pucci_minus(op, eigs) == -pucci_plus(op, -eigs)

    def test_degenerate_reduces_to_trace(self):
        eigs = np.array([1.7, -0.3, 0.1])
        op = OperatorSpec(kind="pucci-plus", lam=2.0, Lam=2.0, n_dim=3)
        assert pucci_plus(op, eigs) == pytest.approx(2.0 * eigs.sum())

    def test_monotone_in_matrix_argument(self):
        # adding a PSD perturbation never decreases either operator
        rng = np.random.default_rng(6)
        op = OperatorSpec(kind="pucci-plus", lam=1.0, Lam=2.0, n_dim=3)
        for _ in range(50):
            M = rng.standard_normal((3, 3))
            M = 0.5 * (M + M.T)
            P = rng.standard_normal((3, 3))
            P = P @ P.T
            e0 = np.linalg.eigvalsh(M)
            e1 = np.linalg.eigvalsh(M + P)
            assert pucci_plus(op, e1) >= pucci_plus(op, e0) - 1e-10
            assert pucci_minus(op, e1) >= pucci_minus(op, e0) - 1e-10

    def test_order_validation(self):
        # the class is checked once, where it is built
        with pytest.raises(ValueError, match="lambda <= Lambda"):
            OperatorSpec(kind="pucci-plus", lam=2.0, Lam=1.0)
        # a NaN or an infinite constant names its field
        for name, value in (("delta1", np.nan), ("delta0", np.nan), ("delta1", np.inf),
                            ("delta0", np.inf), ("Lam", np.inf)):
            with pytest.raises(ValueError, match=f"{name} = {value}: need a finite value"):
                OperatorSpec(kind="pucci-plus", **{name: value})

    @pytest.mark.parametrize("n_dim", [np.nan, np.inf, 2.5, 2.0, 0], ids=str)
    def test_n_dim_is_an_integer(self, n_dim):
        with pytest.raises(ValueError, match="n_dim must be an integer >= 1$"):
            OperatorSpec(kind="pucci-plus", n_dim=n_dim)
        assert OperatorSpec(kind="pucci-plus", n_dim=np.int64(3)).n_dim == 3


class TestOperatorFullEval:
    def test_trace(self):
        op = OperatorSpec(kind="trace", lam=1.5, Lam=1.5, n_dim=2)
        M = np.array([[2.0, 1.0], [1.0, -1.0]])
        assert operator_full_eval(op, M, np.zeros(2), 0.0) == pytest.approx(1.5)

    def test_bellman_isaacs_min_max(self):
        op = OperatorSpec(kind="bellman-isaacs", lam=1.0, Lam=2.0, n_dim=2,
                          bi_entries=(
                              ((((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0), 0.0),
                               (((2.0, 0.0), (0.0, 2.0)), (0.0, 0.0), 0.0)),
                          ))
        M = np.diag([1.0, 1.0])
        # single group, max over {tr M, 2 tr M} = 4
        assert operator_full_eval(op, M, np.zeros(2), 0.0) == pytest.approx(4.0)

    def test_properness_validation(self):
        with pytest.raises(ValueError):
            OperatorSpec(kind="bellman-isaacs", n_dim=2, bi_entries=(
                ((((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0), 0.5),),
            ))

    @pytest.mark.parametrize("A, drift, zeroth, match", [
        (((1.0, 0.5), (0.0, 1.0)), (0.0, 0.0), 0.0, "symmetric"),
        (((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), (0.0, 0.0), 0.0,
         "symmetric"),
        (((0.5, 0.0), (0.0, 1.0)), (0.0, 0.0), 0.0, "eigenvalues"),
        (((1.0, 1.0), (1.0, 1.0)), (0.0, 0.0), 0.0, "eigenvalues"),
        (((1.0, 0.0), (0.0, 1.0)), (0.0,), 0.0, "drift"),
        (((1.0, 0.0), (0.0, 1.0)), (0.4, 0.4), 0.0, "drift"),
        (((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0), -0.3, "zeroth"),
    ])
    def test_bellman_isaacs_entries_checked_against_class(self, A, drift, zeroth, match):
        with pytest.raises(ValueError, match=match):
            OperatorSpec(kind="bellman-isaacs", lam=1.0, Lam=2.0, delta1=0.5,
                         delta0=0.2, n_dim=2, bi_entries=(((A, drift, zeroth),),))

    @pytest.mark.parametrize("A, drift, zeroth, match", [
        (((1.0, 0.0), (0.0, 1.0)), (np.nan, 0.0), 0.0, "drift"),
        (((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0), np.nan, "zeroth"),
        (((1.0, np.nan), (np.nan, 1.0)), (0.0, 0.0), 0.0, "finite and symmetric"),
        (((np.nan, 0.0), (0.0, 1.0)), (0.0, 0.0), 0.0, "finite and symmetric"),
        (((np.inf, 0.0), (0.0, 1.0)), (0.0, 0.0), 0.0, "finite and symmetric"),
    ], ids=["drift-nan", "zeroth-nan", "A-offdiag-nan", "A-diag-nan", "A-inf"])
    def test_a_non_finite_entry_is_rejected(self, A, drift, zeroth, match):
        # every comparison with NaN is false, so each check is written to
        # fail on it: otherwise _inf_sup would drop the entry without a word
        good = (((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0), 0.0)
        with pytest.raises(ValueError, match=match):
            OperatorSpec(kind="bellman-isaacs", lam=1.0, Lam=2.0, delta1=0.5,
                         delta0=0.2, n_dim=2, bi_entries=((good, (A, drift, zeroth)),))

    def test_bellman_isaacs_entry_on_class_edge(self):
        # eigenvalues lambda and Lambda, |zeroth| = delta0, and |drift| = 0.5
        # up to rounding in the norm
        OperatorSpec(kind="bellman-isaacs", lam=1.0, Lam=2.0, delta1=0.5,
                     delta0=0.2, n_dim=2,
                     bi_entries=(((((1.0, 0.0), (0.0, 2.0)), (0.3, 0.4), -0.2),),))

    @pytest.mark.parametrize("kind, field", [
        *[(kind, "psi") for kind in ("trace", "pucci-plus", "pucci-minus", "bellman-isaacs")],
        *[(kind, "bi_entries") for kind in ("trace", "pucci-plus", "pucci-minus", "divergence")]])
    def test_field_the_kind_does_not_read_raises(self, kind, field):
        # ignored silently, the field would make the spec mean less than it says
        unread = {"psi": PsiSpec("polynomial", (1.0, 2.0)),
                  "bi_entries": (((((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0), 0.0),),)}
        own = {"bi_entries": unread["bi_entries"]} if kind == "bellman-isaacs" else {}
        with pytest.raises(ValueError, match=f"{field} .*not by {kind}"):
            OperatorSpec(kind=kind, n_dim=2, **own, **{field: unread[field]})

    def test_divergence_expanded_form(self):
        psi = PsiSpec("polynomial", (1.0, 1.0))  # Psi(y) = 1 + y
        op = OperatorSpec(kind="divergence", psi=psi, n_dim=2)
        bspec = BSpec()
        M = np.diag([0.5, -0.2])
        p = np.array([0.3, 0.4])
        z = 2.0  # positive phase: b(z) = 2, b'(z) = 1
        want = (1 + 2.0) * 0.3 + 1.0 * 1.0 * 0.25
        assert operator_full_eval(op, M, p, z, bspec) == pytest.approx(want)


def every_kind():
    """One operator of each kind: trace, the Pucci pair, the criterion-3
    Bellman-Isaacs family and a divergence operator with Psi = 1 + 2y."""
    return (
        OperatorSpec(kind="trace", lam=1.2, Lam=1.2, n_dim=3),
        OperatorSpec(kind="pucci-plus", lam=1.0, Lam=2.0, n_dim=3),
        OperatorSpec(kind="pucci-minus", lam=1.0, Lam=2.0, n_dim=3),
        _bi_operator(),
        OperatorSpec(kind="divergence", psi=PsiSpec("polynomial", (1.0, 2.0)),
                     n_dim=3),
    )


class TestRadialReduction:
    def test_matches_full_eval_on_radial_hessian(self):
        # apply_operator_1d on a radial grid against F of the full Hessian
        # and gradient of the radial function at x = rho * e1.  Central
        # differences of a quadratic profile are exact, so the middle node of
        # a 3-node grid agrees to rounding for every frozen-coefficient kind;
        # the divergence kind's flux form is second order (below)
        rng = np.random.default_rng(11)
        h = 0.125
        for op in every_kind()[:4]:
            n = op.n_dim
            for _ in range(20):
                rho = rng.uniform(0.2, 2.0)
                psi, du, ddu = rng.standard_normal(3)
                x = np.array([rho - h, rho, rho + h])
                u = psi + du * (x - rho) + 0.5 * ddu * (x - rho) ** 2
                got = apply_operator_1d(op, u, x, radial=True)[0]
                M = np.diag([ddu] + [du / rho] * (n - 1))
                p = np.zeros(n)
                p[0] = du
                want = operator_full_eval(op, M, p, psi)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12), op.kind


class TestFiniteDifferenceAssembly:
    def grid_convergence_order(self, op, func, d2func, radial, n_dim):
        """Observed order of apply_operator_1d against the analytic radial
        operator value, via three nested grids."""
        errs = []
        for m in (65, 129, 257):
            x = np.linspace(0.5, 1.5, m)
            u = func(x)
            F = apply_operator_1d(op, u, x, radial=radial)
            ref = d2func(x[1:-1])
            errs.append(float(np.max(np.abs(F - ref))))
        import math
        return math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])

    def test_trace_radial_second_order_accuracy(self):
        op = OperatorSpec(kind="trace", lam=1.0, Lam=1.0, n_dim=3)

        def func(x):
            return np.sin(2 * x)

        def ref(x):
            return -4 * np.sin(2 * x) + 2 / x * 2 * np.cos(2 * x)

        p1, p2 = self.grid_convergence_order(op, func, ref, True, 3)
        assert p1 > 1.9 and p2 > 1.9

    def test_divergence_flux_form_accuracy(self):
        psi = PsiSpec("polynomial", (1.0, 0.5))
        op = OperatorSpec(kind="divergence", psi=psi, n_dim=1)

        def func(x):
            return 1.0 + 0.5 * np.sin(x)  # positive everywhere

        def ref(x):
            u = func(x)
            up = 0.5 * np.cos(x)
            upp = -0.5 * np.sin(x)
            return (1 + 0.5 * u) * upp + 0.5 * up * up

        p1, p2 = self.grid_convergence_order(op, func, ref, False, 1)
        assert p1 > 1.9 and p2 > 1.9

    def test_divergence_radial_flux_form_accuracy(self):
        # the conservative radial form against F of the full Hessian and
        # gradient at each node, Psi = 1 + 2y on the positive phase
        op = every_kind()[4]

        def func(x):
            return 1.0 + 0.5 * np.sin(x)

        def ref(x):
            up, upp = 0.5 * np.cos(x), -0.5 * np.sin(x)
            M = np.zeros((x.size, 3, 3))
            M[:, 0, 0] = upp
            M[:, 1, 1] = M[:, 2, 2] = up / x
            p = np.zeros((x.size, 3))
            p[:, 0] = up
            return operator_full_eval(op, M, p, func(x))

        p1, p2 = self.grid_convergence_order(op, func, ref, True, 3)
        assert p1 > 1.9 and p2 > 1.9

    def test_jacobian_matches_directional_difference_trace(self):
        # every kind, on the interval and on the annulus; |u| >= 0.5 keeps
        # the step off the kink of b = s_+ in the divergence kind's Psi(b(u))
        x = np.linspace(0.5, 1.5, 21)
        for op in every_kind():
            for radial in (False, True):
                rng = np.random.default_rng(8)
                u = rng.standard_normal(21)
                u += 0.5 * np.sign(u)
                lower, diag, upper = operator_jacobian_1d(op, u, x, radial=radial)
                F0 = apply_operator_1d(op, u, x, radial=radial)
                v = rng.standard_normal(21)
                v[0] = v[-1] = 0.0
                eps = 1e-7
                F1 = apply_operator_1d(op, u + eps * v, x, radial=radial)
                Jv = lower * v[:-2] + diag * v[1:-1] + upper * v[2:]
                err = np.max(np.abs((F1 - F0) / eps - Jv))
                assert err <= 1e-7 * np.max(np.abs(Jv)), (op.kind, radial)

    def test_jacobian_is_m_matrix_compatible(self):
        # off-diagonal coefficients nonnegative for every kind on a mesh with
        # h small enough relative to the drift: guarantees the discrete
        # comparison principle
        x = np.linspace(0.5, 1.5, 101)
        u = np.cos(3 * x)
        for kind in ("trace", "pucci-plus", "pucci-minus"):
            op = OperatorSpec(kind=kind, lam=1.0, Lam=2.0, n_dim=3)
            lower, diag, upper = operator_jacobian_1d(op, u, x, radial=True)
            assert np.all(lower >= 0)
            assert np.all(upper >= 0)
            assert np.all(diag <= 0)


class TestStructuralEnvelope:
    def test_all_kinds_pass(self):
        for op in (
            OperatorSpec(kind="trace", lam=1.0, Lam=1.0, n_dim=2),
            OperatorSpec(kind="pucci-plus", lam=1.0, Lam=3.0, n_dim=3),
            OperatorSpec(kind="pucci-minus", lam=0.5, Lam=1.5, n_dim=2),
        ):
            rep = structural_envelope_check(op, trials=2000, seed=1)
            assert rep.passed, rep

    def test_flipped_sign_fails(self):
        # a "pucci" with swapped constants is not in the [lam, Lam] class
        bad = OperatorSpec(kind="pucci-plus", lam=1.0, Lam=4.0, n_dim=2)
        rep = structural_envelope_check(bad, trials=500, seed=1)
        assert rep.passed  # sanity: the genuine operator passes
        worse = OperatorSpec(kind="pucci-plus", lam=1.0, Lam=1.2, n_dim=2)
        # evaluate the 4.0 operator against the tighter class: must fail
        rng = np.random.default_rng(0)
        violated = False
        for _ in range(200):
            M, N = (0.5 * (A + A.T) for A in (rng.standard_normal((2, 2)),
                                              rng.standard_normal((2, 2))))
            dF = (operator_full_eval(bad, M, np.zeros(2), 0.0)
                  - operator_full_eval(bad, N, np.zeros(2), 0.0))
            eigs = np.linalg.eigvalsh(M - N)
            if dF > pucci_plus(worse, eigs) + 1e-10:
                violated = True
                break
        assert violated

    def test_out_of_class_operator_fails(self):
        # a Bellman-Isaacs entry A = 4I lies outside the class Lambda = 1.2
        A = ((4.0, 0.0), (0.0, 4.0))
        with pytest.raises(ValueError, match="eigenvalues"):
            OperatorSpec(kind="bellman-isaacs", lam=1.0, Lam=1.2, n_dim=2,
                         bi_entries=(((A, (0.0, 0.0), 0.0),),))
        # the check itself still reports it: build in class, then narrow Lambda
        bad = OperatorSpec(kind="bellman-isaacs", lam=1.0, Lam=4.0, n_dim=2,
                           bi_entries=(((A, (0.0, 0.0), 0.0),),))
        object.__setattr__(bad, "Lam", 1.2)
        rep = structural_envelope_check(bad, trials=500, seed=0)
        assert not rep.passed
        assert rep.violations > 0
        assert rep.worst_margin < -1e-10

    def test_matches_scalar_reference(self):
        """The batched check equals a loop over trials drawing M, N, p, q and
        (z, w) one at a time, bit for bit."""

        def reference(op, trials, seed):
            rng = np.random.default_rng(seed)
            n = op.n_dim
            cls = replace(op, Lam=op.lam) if op.kind == "trace" else op
            worst, violations = np.inf, 0
            for _ in range(trials):
                M, N = (0.5 * (A + A.T) for A in (rng.standard_normal((n, n)),
                                                  rng.standard_normal((n, n))))
                p = rng.standard_normal(n)
                q = rng.standard_normal(n)
                z, w = rng.standard_normal(2)
                dF = operator_full_eval(op, M, p, z) - operator_full_eval(op, N, q, w)
                gap = (cls, np.linalg.eigvalsh(M - N), np.linalg.norm(p - q), z - w)
                margin = min(dF - structural_envelope(*gap, "sub"),
                             structural_envelope(*gap, "super") - dF)
                worst = min(worst, margin)
                violations += margin < -1e-10
            return worst, violations

        ops = every_kind() + (
            OperatorSpec(kind="pucci-plus", lam=0.5, Lam=1.5, delta1=0.3,
                         delta0=0.1, n_dim=2),
            OperatorSpec(kind="pucci-plus", lam=1.0, Lam=4.0, n_dim=1),
            # four dimensions: the trials are drawn in the operator's own
            OperatorSpec(kind="pucci-minus", lam=1.0, Lam=2.0, n_dim=4),
            OperatorSpec(kind="bellman-isaacs", lam=1.0, Lam=2.0, n_dim=4,
                         bi_entries=(((tuple(map(tuple, 1.5 * np.eye(4))),
                                       (0.0,) * 4, 0.0),),)),
        )
        for op in ops:
            for seed in (0, 3):
                rep = structural_envelope_check(op, trials=300, seed=seed)
                assert (rep.worst_margin, rep.violations) == reference(op, 300, seed), op


class TestBatched:
    def test_full_eval_stack_matches_per_element(self):
        rng = np.random.default_rng(21)
        for op in every_kind():
            n = op.n_dim
            M = rng.standard_normal((4, 5, n, n))
            M = 0.5 * (M + M.swapaxes(-1, -2))
            p = rng.standard_normal((4, 5, n))
            z = rng.standard_normal((4, 5))
            got = operator_full_eval(op, M, p, z)
            assert got.shape == (4, 5), op.kind
            want = [[operator_full_eval(op, M[i, j], p[i, j], z[i, j])
                     for j in range(5)] for i in range(4)]
            assert all(type(v) is float for row in want for v in row), op.kind
            np.testing.assert_array_equal(got, want, err_msg=op.kind)

    def test_pucci_stack_matches_per_row(self):
        rng = np.random.default_rng(22)
        e = rng.standard_normal((60, 3))
        e[::7, 1] = 0.0
        lam, Lam = 1.0, 2.5
        with pytest.raises(ValueError, match="not a Pucci"):
            OperatorSpec(kind="trace", lam=lam, Lam=Lam).pucci_weights
        for f, kind, cpos, cneg in ((pucci_plus, "pucci-plus", Lam, lam),
                                    (pucci_minus, "pucci-minus", lam, Lam)):
            op = OperatorSpec(kind=kind, lam=lam, Lam=Lam, n_dim=3)
            assert op.pucci_weights == (cpos, cneg)
            got = f(op, e)
            assert got.shape == (60,)
            for k, row in enumerate(e):
                one = f(op, row)
                assert type(one) is float
                assert one == got[k] == cpos * row[row > 0].sum() + cneg * row[row < 0].sum()


# ---------------------------------------------------------------------------
# the assembly against its zero-array formulas, bit for bit
# ---------------------------------------------------------------------------

def _zero_array_coefficients(op, d2, d1, u, rho, radial):
    """(a2, a1, a0) as arrays, with an explicit zero array for a missing term."""
    n = op.n_dim
    zeros = np.zeros_like(d2)
    if op.kind == "trace":
        a1 = op.lam * (n - 1) / rho if radial else zeros
        return np.full_like(d2, op.lam), a1, zeros
    if op.kind in ("pucci-plus", "pucci-minus"):
        cpos, cneg = op.pucci_weights

        def coef(e):
            return np.where(e > 0, cpos, np.where(e < 0, cneg, op.lam))

        a1 = coef(d1 / rho) * (n - 1) / rho if radial else zeros
        return coef(d2), a1, zeros
    a2 = a1 = a0 = value = None
    for group in op.bi_entries:
        inner = None
        for A, drift, zeroth in group:
            A = np.asarray(A, dtype=float)
            e2 = np.full_like(d2, A[0, 0])
            e1 = ((np.trace(A) - A[0, 0]) / rho + drift[0] if radial
                  else np.full_like(d2, drift[0]))
            e0 = np.full_like(d2, zeroth)
            cand = (e2 * d2 + e1 * d1 + e0 * u, e2, e1, e0)
            inner = cand if inner is None else tuple(
                np.where(cand[0] > inner[0], c, i) for c, i in zip(cand, inner))
        if value is None:
            value, a2, a1, a0 = inner
        else:
            take = inner[0] < value
            value, a2, a1, a0 = (np.where(take, c, o)
                                 for c, o in zip(inner, (value, a2, a1, a0)))
    return a2, a1, a0


def _zero_array_assembly(op, u, x, radial):
    """F and the tridiagonal Jacobian from zero-array coefficients."""
    h = x[1] - x[0]
    d2 = (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
    d1 = (u[2:] - u[:-2]) / (2 * h)
    a2, a1, a0 = _zero_array_coefficients(op, d2, d1, u[1:-1], x[1:-1], radial)
    F = a2 * d2 + a1 * d1 + a0 * u[1:-1]
    bands = (a2 / h**2 - a1 / (2 * h), -2 * a2 / h**2 + a0, a2 / h**2 + a1 / (2 * h))
    return F, bands


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _fields(m, seed):
    """Random, constant and signed-zero fields on m nodes: the signed zeros
    take every sign pattern, including -0 at both neighbours of a +0, where
    u'' is -0."""
    rng = np.random.default_rng(seed)
    signed = np.where(rng.random(m) < 0.5, -0.0, 0.0)
    pattern = np.tile([-0.0, 0.0], m)[:m]
    mixed = np.where(rng.random(m) < 0.5, signed, rng.standard_normal(m))
    return [rng.standard_normal(m), np.full(m, 0.3), np.full(m, -1.0),
            np.full(m, -0.0), np.zeros(m), signed, pattern, mixed]


class TestAssemblyBits:
    @pytest.mark.parametrize("op", [
        OperatorSpec(kind="trace", lam=1.2, Lam=1.2, n_dim=3),
        OperatorSpec(kind="pucci-plus", lam=1.0, Lam=2.0, n_dim=3),
        OperatorSpec(kind="pucci-minus", lam=1.0, Lam=2.0, n_dim=3),
        _bi_operator(),
    ], ids=lambda op: op.kind)
    @pytest.mark.parametrize("radial", [False, True], ids=["interval", "radial"])
    def test_matches_the_zero_array_formulas(self, op, radial):
        # a term the kind lacks is skipped, not added as a zero array; the
        # values and the sign of every zero stay the same
        x = np.linspace(0.2, 1.0, 41) if radial else np.linspace(-1.0, 1.0, 41)
        for k, u in enumerate(_fields(41, 3)):
            F, bands = _zero_array_assembly(op, u, x, radial)
            assert _same_bits(apply_operator_1d(op, u, x, radial=radial), F), k
            got = operator_jacobian_1d(op, u, x, radial=radial)
            assert all(_same_bits(g, w) for g, w in zip(got, bands)), k

    def test_the_signed_zero_pattern_reaches_a_negative_zero(self):
        # the pattern of _fields makes u'' = -0 at a +0 node, so the check
        # above does see the sign of a zero F
        x = np.linspace(-1.0, 1.0, 5)
        u = np.array([-0.0, 0.0, -0.0, 0.0, -0.0])
        d2 = (u[2:] - 2 * u[1:-1] + u[:-2]) / (x[1] - x[0]) ** 2
        assert np.signbit(d2[0])
        F = apply_operator_1d(OperatorSpec(kind="pucci-minus", lam=1.0, Lam=2.0), u, x)
        assert np.array_equal(F, np.zeros(3)) and not np.signbit(F).any()

    @pytest.mark.parametrize("op", [
        OperatorSpec(kind="trace", lam=1.2, Lam=1.2, n_dim=3),
        OperatorSpec(kind="divergence", n_dim=3),
        OperatorSpec(kind="divergence", n_dim=3, psi=PsiSpec("polynomial", (2.5,))),
    ], ids=["trace", "divergence-psi-1", "divergence-psi-2.5"])
    @pytest.mark.parametrize("radial", [False, True], ids=["interval", "radial"])
    @pytest.mark.parametrize("b", [BSpec(), BSpec("lipschitz-table", (0.0, 0.5), (1.0, 3.0))],
                             ids=["s+", "table"])
    def test_a_linear_kind_has_one_jacobian(self, op, radial, b):
        # the bands that the solver assembles once per solve are those at
        # any other u
        assert op.linear
        x = np.linspace(0.2, 1.0, 41) if radial else np.linspace(-1.0, 1.0, 41)
        rng = np.random.default_rng(11)
        first, second = (operator_jacobian_1d(op, rng.standard_normal(41), x, b, radial=radial)
                         for _ in range(2))
        assert all(_same_bits(f, s) for f, s in zip(first, second))

    @pytest.mark.parametrize("op", [
        OperatorSpec(kind="pucci-plus", lam=1.0, Lam=2.0, n_dim=3),
        OperatorSpec(kind="pucci-minus", lam=1.0, Lam=2.0, n_dim=3),
        _bi_operator(),
        OperatorSpec(kind="divergence", n_dim=3, psi=PsiSpec("polynomial", (1.0, 2.0))),
    ], ids=lambda op: op.kind)
    def test_other_kinds_are_not_linear(self, op):
        # negative control: their bands move with u
        assert not op.linear
        x = np.linspace(0.2, 1.0, 41)
        rng = np.random.default_rng(11)
        first, second = (operator_jacobian_1d(op, rng.standard_normal(41), x, radial=True)
                         for _ in range(2))
        assert not all(np.array_equal(f, s) for f, s in zip(first, second))
