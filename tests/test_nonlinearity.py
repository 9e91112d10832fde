import math

import mpmath
import numpy as np
import pytest

from ellpar.nonlinearity import (
    BnFamily,
    BSpec,
    PsiSpec,
    b_derivative,
    b_eval,
    bn_derivative,
    bn_eval,
    psi_derivative,
    psi_eval,
)


def bn_oracle(n, s, dps=60):
    """Extended-precision reference for b_n(s)."""
    with mpmath.workdps(dps):
        nn = mpmath.mpf(n)
        return float((mpmath.log(mpmath.exp(nn) + mpmath.exp(nn * nn * s))
                      - mpmath.log(mpmath.exp(nn) + 1)) / (nn * nn))


class TestBSpec:
    def test_positive_part(self):
        spec = BSpec()
        assert b_eval(spec, -3.0) == 0.0
        assert b_eval(spec, 2.5) == 2.5
        assert b_derivative(spec, -1.0) == 0.0
        assert b_derivative(spec, 1.0) == 1.0

    def test_table_matches_manual_integration(self):
        spec = BSpec("lipschitz-table", breakpoints=(0.0, 1.0, 2.0),
                     slopes=(2.0, 0.5, 3.0))
        assert b_eval(spec, 0.5) == pytest.approx(1.0)
        assert b_eval(spec, 1.5) == pytest.approx(2.0 + 0.25)
        assert b_eval(spec, 4.0) == pytest.approx(2.0 + 0.5 + 2.0 * 3.0)
        assert b_eval(spec, -1.0) == 0.0
        assert b_derivative(spec, 1.5) == 0.5
        assert b_derivative(spec, 10.0) == 3.0

    def test_table_is_increasing_and_lipschitz(self):
        spec = BSpec("lipschitz-table", breakpoints=(0.0, 0.5), slopes=(1.0, 4.0))
        s = np.linspace(-2, 3, 501)
        v = b_eval(spec, s)
        dv = np.diff(v)
        assert np.all(dv >= 0)
        assert np.max(dv) <= 4.0 * (s[1] - s[0]) + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            BSpec("lipschitz-table", breakpoints=(1.0,), slopes=(1.0,))
        with pytest.raises(ValueError):
            BSpec("lipschitz-table", breakpoints=(0.0, 1.0), slopes=(1.0, -2.0))
        with pytest.raises(ValueError):
            BSpec("nope")


class TestBnFamily:
    def test_against_mpmath_oracle(self):
        rng = np.random.default_rng(5)
        for n in (1, 4, 16, 64):
            fam = BnFamily(n)
            for s in rng.uniform(-50, 50, 20):
                assert bn_eval(fam, float(s)) == pytest.approx(
                    bn_oracle(n, float(s)), abs=1e-12)

    def test_extreme_arguments_stay_finite_and_accurate(self):
        fam = BnFamily(64)
        for s in (-1e3, 1e3):
            got = bn_eval(fam, s)
            assert math.isfinite(got)
            assert got == pytest.approx(bn_oracle(64, s), abs=1e-9)

    def test_derivative_strictly_inside_unit_interval(self):
        s = np.linspace(-10, 10, 1001)
        for n in (1, 2, 8, 64):
            d = bn_derivative(BnFamily(n), s)
            assert np.all(d > 0.0)
            assert np.all(d < 1.0)

    def test_derivative_matches_finite_differences(self):
        fam = BnFamily(4)
        h = 1e-6
        for s in (-2.0, 0.0, 0.25, 1.3):
            fd = (bn_eval(fam, s + h) - bn_eval(fam, s - h)) / (2 * h)
            assert bn_derivative(fam, s) == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_uniform_convergence_to_positive_part(self):
        s = np.linspace(-5, 5, 401)
        prev = math.inf
        for n in (1, 2, 4, 8, 16, 32):
            err = float(np.max(np.abs(bn_eval(BnFamily(n), s) - np.maximum(s, 0))))
            assert err < prev
            prev = err
        # large-s expansion gives b_n(s) ~ s - 1/n, so the sup error is ~ 1/n
        assert prev < 1.5 / 32

    def test_monotone_increasing_in_s(self):
        # mathematically strictly increasing; in double precision the deep
        # negative tail saturates, so assert non-decreasing globally and
        # strict growth on the active side
        s = np.linspace(-3, 3, 301)
        v = bn_eval(BnFamily(8), s)
        assert np.all(np.diff(v) >= 0)
        assert np.all(np.diff(v[s > -0.3]) > 0)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            BnFamily(0)

    @pytest.mark.parametrize("n", [1, 4, 16, 64, 200])
    def test_eval_keeps_the_bytes_of_the_per_call_constant(self, n):
        # the family's one logaddexp(n, 0) gives the bytes of computing it
        # in every call
        rng = np.random.default_rng(n)
        s = rng.standard_normal(100_000) * 10.0 ** rng.uniform(-3.0, 3.0, 100_000)
        m = float(n)

        def per_call(s):
            return (np.logaddexp(m, m * m * s) - np.logaddexp(m, 0.0)) / (m * m)

        fam = BnFamily(n)
        assert bn_eval(fam, s).tobytes() == per_call(s).tobytes()
        assert np.float64(bn_eval(fam, 0.5)).tobytes() == per_call(np.float64(0.5)).tobytes()
        assert fam.log_norm is fam.log_norm and fam == BnFamily(n)

    @pytest.mark.parametrize("n", [1, 4, 16, 64, 200])
    def test_derivative_keeps_the_two_branch_bytes(self, n):
        # one division of where(z >= 0, 1, e) by 1 + e gives the bytes of the
        # two-branch logistic, clamp included
        lo, hi = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)

        def two_branch(s):
            s = np.asarray(s, dtype=float)
            z = float(n) * float(n) * s - float(n)
            e = np.exp(-np.abs(z))
            out = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
            out = np.minimum(np.maximum(out, lo), hi)
            return out if out.ndim else float(out)

        rng = np.random.default_rng(n)
        s = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0 / n],
            1.0 / n + rng.standard_normal(50_000) * (8.0 / n**2),
            rng.uniform(-3.0, 3.0, 49_994),
        ])
        got, want = bn_derivative(BnFamily(n), s), two_branch(s)
        assert got.tobytes() == want.tobytes()
        for v in s[:6]:
            one = bn_derivative(BnFamily(n), float(v))
            assert type(one) is float
            assert np.float64(one).tobytes() == np.float64(two_branch(float(v))).tobytes()


class TestPsi:
    def test_constant(self):
        spec = PsiSpec()
        assert psi_eval(spec, 3.0) == 1.0
        assert psi_derivative(spec, 3.0) == 0.0
        # a constant is the degree-0 polynomial, bit for bit, also at the
        # signed zero and the extreme magnitudes; a scalar stays a float
        y = np.array([0.0, -0.0, 1e-300, 1e300, 3.0])
        const, poly = PsiSpec("constant", (2.5,)), PsiSpec("polynomial", (2.5,))
        for fn, want in ((psi_eval, 2.5), (psi_derivative, 0.0)):
            got = fn(const, y)
            assert got.tobytes() == fn(poly, y).tobytes()
            assert got.tobytes() == np.full(y.shape, want).tobytes()
            for s in y:
                assert type(fn(const, float(s))) is float

    def test_polynomial(self):
        spec = PsiSpec("polynomial", (1.0, 2.0, 0.5))  # 1 + 2y + y^2/2
        y = 1.5
        assert psi_eval(spec, y) == pytest.approx(1 + 3.0 + 0.5 * 2.25)
        assert psi_derivative(spec, y) == pytest.approx(2.0 + 1.5)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            psi_eval(PsiSpec(), -0.1)

    def test_nonpositive_value_rejected(self):
        # a Psi with a zero or negative value on [0, inf) is not built: a
        # sign change, a double root, a nonpositive constant or leading term
        for coeffs in ((1.0, -2.0), (1.0, -2.0, 1.0), (0.0,), (-1.0,),
                       (1.0, 1.0, -0.1), (1.0, 0.0)):
            with pytest.raises(ValueError, match="positive on"):
                PsiSpec("polynomial", coeffs)
        with pytest.raises(ValueError, match="positive on"):
            PsiSpec("constant", (0.0,))
        # complex roots only, and roots on the negative axis, are accepted
        for coeffs in ((1.0, -2.0, 2.0), (1.0, 0.0, 1.0), (2.0, 3.0, 1.0)):
            assert psi_eval(PsiSpec("polynomial", coeffs), np.linspace(0, 5, 11)).min() > 0
