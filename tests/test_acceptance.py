"""The eleven acceptance criteria, one test each, at their stated tolerances,
and the registry that holds them.

Each test prints a single PASS/FAIL line with the measured margin (run pytest
with -s or look at captured output on failure).  Every criterion builds its
own runs, so the tests share no state.
"""

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import ellpar
from ellpar import harness, operators
from ellpar.harness import ALL_CRITERIA, CriterionResult
from ellpar.regularize import InteriorBallReport


def _check(index):
    result = ALL_CRITERIA[index]()
    print(result.line())
    assert result.passed, result.details
    return result


def test_registry():
    assert sorted(ALL_CRITERIA) == list(range(1, 12))
    names = [fn.name for fn in ALL_CRITERIA.values()]
    assert len(set(names)) == len(names) == 11


def test_registering_an_existing_index_raises():
    saved = dict(ALL_CRITERIA)
    try:
        @harness._criterion(99, "probe")
        def probe():
            return 0.5, {"k": 1}

        assert ALL_CRITERIA[99] is probe
        res = probe()
        assert isinstance(res, CriterionResult)
        assert (res.index, res.name, res.passed, res.margin, res.details) == (
            99, "probe", True, 0.5, {"k": 1})
        assert res.runtime >= 0
        # the one pass rule: a criterion passes when its margin, the least of
        # its terms, is >= 0, so a negative or NaN margin or term fails
        for index, margin, passed in ((98, 0.0, True), (97, -1e-300, False),
                                      (96, math.nan, False), (95, [0.5, 0.0], True),
                                      (94, [0.5, math.nan, 0.5], False)):
            res = harness._criterion(index, "probe")(lambda: (margin, {}))()
            assert res.passed is passed, margin
        for index in (99, 6):
            with pytest.raises(ValueError, match=f"criterion {index} "):
                harness._criterion(index, "again")
    finally:
        ALL_CRITERIA.clear()
        ALL_CRITERIA.update(saved)
    assert sorted(ALL_CRITERIA) == list(range(1, 12))


def test_only_none_selects_every_criterion(monkeypatch):
    # an empty, unknown or repeated selection raises before any criterion runs
    def must_not_run():
        raise AssertionError("a criterion ran")

    for index in list(ALL_CRITERIA):
        monkeypatch.setitem(ALL_CRITERIA, index, must_not_run)
    for criteria, message in (([], "no criteria selected"),
                              ([3, 12], r"unknown criteria \[12\]"),
                              ([4, 4], r"repeated criteria \[4\]")):
        with pytest.raises(ValueError, match=message):
            harness.run_acceptance(criteria=criteria)


def test_criterion_01_bn_family():
    # 0 < b_n' < 1 and within 1e-6 of a central difference of b_n for n in
    # 1..64; sup error decreasing; oracle match 1e-9
    r = _check(1)
    assert r.details["derivative_err"] <= 1e-6
    assert r.margin == min(1e-6 - r.details["derivative_err"],
                           1e-9 - r.details["oracle_err"]) > 0
    assert r.runtime < 10


def test_criterion_01_fails_on_a_shifted_derivative(monkeypatch):
    # sigmoid(n^2 s + n) in place of sigmoid(n^2 s - n): still strictly in
    # (0, 1), but not the derivative of b_n
    def shifted(fam, s):
        z = fam.n * fam.n * np.asarray(s, dtype=float) + fam.n
        return np.clip(0.5 * (1.0 + np.tanh(0.5 * z)),
                       np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))

    monkeypatch.setattr(harness, "bn_derivative", shifted)
    r = ALL_CRITERIA[1]()
    assert not r.passed
    assert r.details["derivative_err"] > 0.4
    assert r.margin < 0


def test_criterion_02_fails_on_broken_duality(monkeypatch):
    # pucci_minus one ulp above -pucci_plus(-e): the brute-force gap still
    # holds, so only the duality check can fail the criterion
    pucci_minus = harness.pucci_minus
    monkeypatch.setattr(harness, "pucci_minus",
                        lambda op, eigs: np.nextafter(pucci_minus(op, eigs), np.inf))
    r = ALL_CRITERIA[2]()
    assert not r.passed
    assert r.margin < 0
    assert r.details["worst_duality_error"] > 0


def test_criterion_02_pucci_correctness():
    # brute-force gap <= 1e-3, duality exact, degenerate trace reduction
    r = _check(2)
    assert r.details["worst_bruteforce_gap"] <= 1e-3
    assert r.details["worst_duality_error"] == 0.0


def test_criterion_03_structural_envelope():
    # all four operator kinds, 1e4 trials, worst margin >= -1e-10
    r = _check(3)
    assert min(r.details.values()) >= -1e-10


def test_criterion_03_fails_without_the_zeroth_order_slack(monkeypatch):
    # the envelope without delta0 |z|: a Bellman-Isaacs entry with a
    # nonzero zeroth coefficient leaves it
    envelope = operators.structural_envelope
    monkeypatch.setattr(operators, "structural_envelope",
                        lambda op, eigs, grad_norm, z, sense: envelope(
                            op, eigs, grad_norm, 0.0, sense))
    r = ALL_CRITERIA[3]()
    assert not r.passed
    assert r.margin < 0
    assert r.details["bellman-isaacs"] < -0.1


def test_criterion_04_barrier_certificates():
    # margins bounded away from zero, flux gap to 1e-10, critical radius
    r = _check(4)
    assert r.details["flux_gap_error"] <= 1e-10
    assert r.details["infeasibility_behaviour"]


def test_criterion_04_fails_on_a_wrong_critical_radius(monkeypatch):
    # twice the true radius: the barrier at 0.97 of it is infeasible
    critical_radius = harness.critical_radius
    monkeypatch.setattr(harness, "critical_radius", lambda op: 2 * critical_radius(op))
    r = ALL_CRITERIA[4]()
    assert not r.passed
    assert r.margin < 0
    assert r.details["infeasibility_behaviour"] is False


def _nan_term(name, spoil):
    """A mutant of the harness name `name`: its results pass through `spoil`,
    which sets one margin term to NaN."""
    real = getattr(harness, name)
    return name, lambda *args, **kw: spoil(real(*args, **kw), *args)


@pytest.mark.parametrize("index, name, spoil", [
    # a NaN in any term of a margin, not only the first, fails the criterion
    (2, "pucci_minus", lambda v, *_: v + math.nan),
    (3, "structural_envelope_check", lambda rep, op, *_: replace(
        rep, worst_margin=math.nan) if op.kind == "pucci-minus" else rep),
    (4, "verify_subsolution_margin", lambda rep, *_: replace(
        rep, flux_gap=math.nan) if rep.flux_gap is not None else rep),
    (4, "verify_subsolution_margin", lambda rep, *_: replace(
        rep, worst_margin=math.nan) if rep.flux_gap is None else rep),
    (5, "harnack_chain", lambda ch, *_: replace(ch, a=np.append(ch.a[:-1], math.nan))),
    (7, "run", lambda res, spec: replace(res, extinction_time=math.nan)
        if spec.grid == 801 else res),
    (9, "bracket_maximal_minimal", lambda rep, *_: replace(
        rep, gaps=rep.gaps[:-1] + [math.nan])),
    (11, "edge_zeros", lambda z, x, *_: z + math.nan if len(x) == 401 else z),
])
def test_a_nan_margin_term_fails(monkeypatch, index, name, spoil):
    monkeypatch.setattr(harness, *_nan_term(name, spoil))
    r = ALL_CRITERIA[index]()
    assert not r.passed
    assert not r.margin >= 0


def test_criterion_05_harnack_chain():
    # 50 pairs respect the doubly exponential lower bound and kBound; the
    # slack is taken from the links j >= 1, where it is not 0 by construction
    r = _check(5)
    assert r.margin == r.details["worst_slack"] > 0


def test_criterion_06_discrete_comparison():
    # 100 ordered pairs, nodewise order preserved, violations <= 1e-9
    r = _check(6)
    assert r.details["worst_order_gap"] >= -1e-9
    assert r.runtime < 180


def test_criterion_07_jump_extinction():
    # finite extinction, refinement-stable, post-extinction proximity 0.05
    r = _check(7)
    assert r.details["refinement_drift"] <= 2 * (2.5e-3 + 2.0 / 400)
    assert r.details["post_extinction_deviation"] <= 0.05


def test_criterion_08_singular_limit():
    # successive sup distances strictly decreasing; extinction times Cauchy
    r = _check(8)
    d = r.details["pairwise_sup"]
    assert all(b < a for a, b in zip(d, d[1:]))


def test_criterion_09_bracketing():
    # nested sandwiches, gaps shrinking within solver tolerance 1e-3
    r = _check(9)
    assert r.details["ordered"]


def test_criterion_10_regularization():
    # Z >= u, W <= v exactly; duality; dual attainment; interior balls;
    # no crossing on an ordered pair
    r = _check(10)
    assert r.details["crossing_t0"] is None
    assert r.details["interior_ball_violations"] == 0


def test_criterion_10_fails_on_an_interior_ball_violation(monkeypatch):
    monkeypatch.setattr(harness, "interior_ball_check", lambda conv, level: (
        InteriorBallReport(checked=1, violations=1, passed=False)))
    r = ALL_CRITERIA[10]()
    assert not r.passed
    assert r.margin < 0
    assert r.details["interior_ball_violations"] == 1


def test_criterion_11_elliptic_hopf():
    # closed-form radial Pucci match to 1e-4; positive Hopf quotient across grids
    r = _check(11)
    assert r.details["oracle_error"] <= 1e-4
    assert min(r.details["hopf_quotients"]) >= r.details["hopf_floor"]


def test_criterion_11_fails_on_a_wrong_tangential_coefficient(monkeypatch):
    # the radial Pucci weight of u'/rho chosen by the sign of u'' instead of
    # u'/rho: the discrete solution leaves the closed form
    coefficients = operators._active_coefficients

    def mutant(op, d2, d1, u, rho, radial):
        a2, a1, a0 = coefficients(op, d2, d1, u, rho, radial)
        if radial and op.kind in ("pucci-plus", "pucci-minus"):
            a1 = a2 * (op.n_dim - 1) / rho
        return a2, a1, a0

    monkeypatch.setattr(operators, "_active_coefficients", mutant)
    r = ALL_CRITERIA[11]()
    assert not r.passed
    assert r.margin < 0
    assert r.details["oracle_error"] > 1e-4


def test_criterion_11_loads_no_integrator():
    # the closed form replaced the shooting oracle, so a fresh interpreter
    # that runs criterion 11 never imports scipy's integrators or root finders
    src = os.path.dirname(os.path.dirname(os.path.abspath(ellpar.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "from ellpar import harness\n"
            "assert harness.ALL_CRITERIA[11]().passed\n"
            "print(sorted({'scipy.integrate', 'scipy.optimize'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
