import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ellpar.barriers import (
    make_parabola_barrier,
    solve_heatkernel_barrier,
    solve_logdiv_barrier,
    solve_radial_barrier,
    verify_subsolution_margin,
)
from ellpar.cli import _format_rows, main, read_field_csv, write_field_csv
from ellpar.config import (
    ConfigError,
    load_config,
    operator_from_config,
    parse_config,
    problem_from_config,
)
from ellpar.harness import (
    jump_initial,
    make_comparison_pair,
    make_jump_scenario,
    validate_class_P,
)
from ellpar.nonlinearity import BSpec, PsiSpec
from ellpar.operators import OperatorSpec
from ellpar.regularize import GridField
from ellpar.solver import Geometry, max_principle_bounds, run

JUMP_CFG = """
# jump scenario
op.kind = trace
op.lambda = 1.0
b.kind = positive-part
b.n = 16
u0.kind = jump
grid.n = 201
time.T = 0.1
time.dt = 0.0025
g.lo = -1.0
g.hi = -1.0
"""

NON_MONOTONE_CFG = """
geometry.kind = radial-annulus
grid.lo = 0.02
grid.hi = 1.0
grid.n = 11
op.kind = pucci-minus
op.lambda = 1.0
op.Lambda = 4.0
op.n_dim = 5
g.lo = 1.0
g.hi = -1.0
time.T = 0.01
time.dt = 0.01
"""

OP_CFG = """
op.kind = pucci-minus
op.lambda = 1.0
op.Lambda = 1.2
op.delta1 = 0.5
op.delta0 = 0.2
op.n_dim = 3
"""

# each rule of OperatorSpec and BSpec broken from a config file, and the
# key and value that its message names
OP_B_RULES = (("op.lambda = 0", "op.lambda = 0.0"), ("op.kind = heat", "op.kind = heat"),
              ("op.delta1 = -1", "op.delta1 = -1.0"), ("op.n_dim = 0", "op.n_dim = 0"),
              ("b.kind = relu", "b.kind = relu"),
              ("b.kind = lipschitz-table\nb.breakpoints = 0\nb.slopes = -1",
               "b.slopes = -1.0"))

# the keys each verify-barrier family reads beyond the operator's; the log
# barrier is built for a divergence operator only
FAMILY_CFG = {
    "radial": "barrier.rho0 = 1.0\nbarrier.a_hat = 1.0\nbarrier.b_hat = -0.5\n"
              "barrier.omega_hat = 0.3\n",
    "heatkernel": "",
    "logdiv": "op.kind = divergence\n",
    "parabola": "",
}
BARRIER_CFG = OP_CFG + FAMILY_CFG["radial"]


class TestConfig:
    def test_parse_types(self):
        # no key reads a boolean, so true/yes/on stay strings
        cfg = parse_config("a.x = 1\na.y = 2.5\nflag = true\nname = jump\n"
                           "list = 1,2,3\n")
        assert cfg.get("a.x") == 1
        assert cfg.get("a.y") == 2.5
        assert cfg.get("flag") == "true"
        assert cfg.get("name") == "jump"
        assert cfg.get("list") == (1, 2, 3)
        assert type(cfg) is dict and len(cfg) == 5

    def test_malformed_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("this is not a key value line\n")
        with pytest.raises(ConfigError):
            parse_config("= 3\n")
        for text in ("a = 1\ng.lo = nan\n", "a = 1\ng.lo = -inf\n", "a = 1\ng.lo = 1, inf\n"):
            with pytest.raises(ConfigError, match="line 2: g.lo = .*finite"):
                parse_config(text)

    def test_problem_roundtrip(self):
        spec = problem_from_config(parse_config(JUMP_CFG))
        assert spec.grid == 201
        assert spec.bn.n == 16
        assert spec.op.kind == "trace"
        u0 = spec.initial_values()
        assert u0[0] == -1.0 and u0[-1] == -1.0
        const = JUMP_CFG.replace("u0.kind = jump", "u0.kind = constant\nu0.value = -0.25")
        spec = problem_from_config(parse_config(const))
        assert np.array_equal(spec.initial_datum(), np.full(201, -0.25))

    def test_bad_operator_is_config_error(self):
        with pytest.raises(ConfigError):
            problem_from_config(parse_config("op.kind = nonsense\n"))

    def test_unknown_keys_rejected_on_load(self, tmp_path, capsys):
        # load_config keeps every key; the command rejects those its readers
        # leave, and names each one
        p = tmp_path / "typo.cfg"
        p.write_text(JUMP_CFG + "time.DT = 0.01\ngrid.N = 101\n")
        assert {"time.DT", "grid.N"} <= load_config(p).keys()
        out = tmp_path / "o"
        assert main(["solve", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "time.DT" in err and "grid.N" in err and not out.exists()

    def test_every_read_key_loads(self, tmp_path):
        # every key the solve readers take, on the divergence annulus with a
        # lipschitz-table b (which takes no b.n) and a constant datum, and on
        # the punctured ball, which takes g.lo without using it
        keys = ("op.kind = divergence\nop.lambda = 1.0\nop.Lambda = 2.0\n"
                "op.delta1 = 0.0\nop.delta0 = 0.0\nop.n_dim = 3\n"
                "psi.kind = polynomial\npsi.coeffs = 1.0, 2.0\n"
                "b.kind = lipschitz-table\nb.breakpoints = 0.0, 0.5\nb.slopes = 1.0, 2.0\n"
                "grid.lo = 0.2\ngrid.hi = 1.0\ngrid.n = 41\ng.lo = -1.0\ng.hi = -1.0\n"
                "u0.kind = constant\nu0.value = -0.5\ntime.T = 0.01\ntime.dt = 2.5e-3\n")
        p = tmp_path / "all.cfg"
        for geometry in ("radial-annulus", "radial-ball-punctured"):
            p.write_text(keys + f"geometry.kind = {geometry}\n")
            assert main(["solve", "--config", str(p), "--out", str(tmp_path / geometry)]) == 0
        # each verify-barrier family with its full barrier.* set
        family_keys = {
            "radial": FAMILY_CFG["radial"] + "barrier.sign = sub\n",
            "heatkernel": "barrier.d = 0.5\nbarrier.delta = 0.1\n",
            "logdiv": FAMILY_CFG["logdiv"] + "psi.kind = polynomial\npsi.coeffs = 1.0, 0.5\n"
                      "b.kind = positive-part\nbarrier.omega = 0.5\nbarrier.rho0 = 1.0\n"
                      "barrier.M = 1.0\n",
            "parabola": "",
        }
        for family, extra in family_keys.items():
            p.write_text(OP_CFG + extra + "barrier.samples = 10\n")
            assert main(["verify-barrier", "--family", family, "--config", str(p)]) == 0, family

    def test_scalar_or_list_floats(self):
        # a reader takes its keys, so each one gets its own dict
        one = ("op.kind = divergence\npsi.coeffs = 2\n"
               "b.kind = lipschitz-table\nb.breakpoints = 0\nb.slopes = 3\n")
        two = ("op.kind = divergence\npsi.kind = polynomial\n"
               "psi.coeffs = 1, 2.5\nb.kind = lipschitz-table\n"
               "b.breakpoints = 0, 1\nb.slopes = 1, 2\n")
        assert operator_from_config(parse_config(one)).psi.coeffs == (2.0,)
        assert operator_from_config(parse_config(two)).psi.coeffs == (1.0, 2.5)
        assert problem_from_config(parse_config(one)).b.slopes == (3.0,)
        b = problem_from_config(parse_config(two)).b
        assert (b.breakpoints, b.slopes) == ((0.0, 1.0), (1.0, 2.0))

    def test_horizon_not_whole_steps_is_config_error(self):
        with pytest.raises(ConfigError, match="^time.T = 0.1, time.dt = 0.03: need dt > 0"):
            problem_from_config(parse_config("time.T = 0.1\ntime.dt = 0.03\n"))


class TestScenarios:
    def test_jump_datum_values(self):
        x = np.array([-1.0, -0.3, 0.0, 0.3, 1.0])
        u = jump_initial(x)
        assert u.tolist() == [-1.0, 0.0, 0.5, 0.0, -1.0]

    def test_class_P_validation_passes(self):
        scn = make_jump_scenario(grid=201, n=8)
        assert validate_class_P(scn)

    def test_class_P_warns_on_bad_datum(self):
        scn = make_jump_scenario(grid=201, n=8)
        scn.spec = replace(scn.spec, u0=lambda x: np.cos(x) - 0.9,
                           g_lo=np.cos(1.0) - 0.9, g_hi=np.cos(1.0) - 0.9)
        with pytest.warns(UserWarning):
            assert not validate_class_P(scn)

    def test_class_P_checks_the_datum_as_given(self):
        # initial_values overwrites the end nodes with g, so the check must
        # read the datum before that; the reflecting inner end is not checked
        scn = make_jump_scenario(grid=201, n=8)
        scn.spec = replace(scn.spec, u0=lambda x: np.full_like(x, 0.4))
        with pytest.warns(UserWarning):
            assert not validate_class_P(scn)
        scn.spec = replace(scn.spec, geometry=Geometry("radial-ball-punctured", 0.05, 1.0),
                           g_lo=5.0, g_hi=0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate_class_P(scn)

    def test_comparison_pair_strict_separation(self):
        base = make_jump_scenario(grid=201, n=16, T=0.1)
        lower, upper = make_comparison_pair(base, 0.05)
        u_lo = lower.spec.initial_values()
        u_hi = upper.spec.initial_values()
        assert np.all(u_hi - u_lo >= 0.05 / 2 - 1e-12)
        glo_l, _ = lower.spec.boundary(0.0)
        glo_u, _ = upper.spec.boundary(0.0)
        assert glo_u - glo_l == pytest.approx(0.025)
        # a constant datum stays the float g + gap/2
        assert type(upper.spec.g_lo) is float and upper.spec.g_lo == -1.0 + 0.05 / 2

    @pytest.mark.parametrize("kind, Lam", [("trace", 1.0), ("pucci-minus", 2.0)])
    def test_comparison_pair_on_punctured_ball(self, kind, Lam):
        # the shifted positive phase reaches the free inner node
        base = make_jump_scenario(grid=201, n=32, T=0.2)
        base.spec = replace(
            base.spec, geometry=Geometry("radial-ball-punctured", 0.05, 1.0),
            op=OperatorSpec(kind=kind, lam=1.0, Lam=Lam, n_dim=3),
            u0=lambda r: np.where(r < 0.4, 0.5 * (0.4 - r) / 0.35, -(r - 0.4) / 0.6))
        lower, upper = make_comparison_pair(base, 0.05)
        rl, ru = run(lower.spec), run(upper.spec)
        assert float(np.min(ru.values - rl.values)) >= -1e-9

    def test_comparison_pair_raises_time_dependent_data_at_every_t(self):
        # the upper problem's boundary data used to be frozen at t = 0, and
        # this pair's worst gap then read -0.725
        base = make_jump_scenario(grid=201, T=0.5)
        base.spec = replace(base.spec, g_lo=lambda t: -1 + 1.5 * t,
                            g_hi=lambda t: -1 + 1.5 * t)
        lower, upper = make_comparison_pair(base, 0.05)
        for t in (0.0, 0.25, 0.5):
            lift = np.subtract(upper.spec.boundary(t), lower.spec.boundary(t))
            assert lift == pytest.approx([0.025, 0.025]), t
        rl, ru = run(lower.spec), run(upper.spec)
        assert float(np.min(ru.values - rl.values)) == pytest.approx(0.025, abs=1e-9)

    def test_comparison_pair_infeasible(self):
        base = make_jump_scenario(grid=201, n=16)
        with pytest.raises(ValueError):
            make_comparison_pair(base, 0.8)


class TestFieldCSV:
    def test_roundtrip(self, tmp_path):
        x = np.linspace(-1, 1, 11)
        ts = np.linspace(0, 0.5, 6)
        rng = np.random.default_rng(0)
        fld = GridField(x, ts, rng.standard_normal((6, 11)))
        p = tmp_path / "f.csv"
        write_field_csv(p, fld)
        back = read_field_csv(p)
        assert np.array_equal(back.x, fld.x)
        assert np.array_equal(back.times, fld.times)
        assert np.array_equal(back.values, fld.values)

    def test_bytes_match_per_value_reference(self, tmp_path):
        # a filled tail (B, B, B), a non-adjacent repeat (A, B, A), 0.0 next
        # to -0.0, the extreme magnitudes and values that need 17 digits;
        # C repeats with every value in the array formatter's range
        x = np.linspace(-1, 1, 5)
        a = np.array([0.1, 1 / 3, 2 / 3, 5e-324, 1e308])
        b = np.array([np.nextafter(1.0, 2.0), -0.1, 1e-300, -1e308, np.pi])
        c = np.array([1e-10, -2 / 3, 1e-5, 123.456, 1e12 + 0.5])
        zero = np.zeros(5)
        rows = [a, b, a, zero, -zero, zero, c, b, b, b, c, c]
        # a run, with its filled stationary tail, is written as a field is
        for fld in (GridField(x, 0.1 * np.arange(len(rows)), np.array(rows)),
                    run(make_jump_scenario(grid=101, n=16, T=0.1).spec)):
            p = tmp_path / "f.csv"
            write_field_csv(p, fld)
            ref = "t," + ",".join(f"{v:.17g}" for v in fld.x) + "\n" + "".join(
                f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n"
                for t, row in zip(fld.times, fld.values))
            assert p.read_bytes() == ref.encode()
            back = read_field_csv(p)
            for got, want in ((back.x, fld.x), (back.times, fld.times),
                              (back.values, fld.values)):
                assert got.tobytes() == want.tobytes()

    def test_array_formatter_matches_per_value_reference(self):
        def reference(field):
            return [(",".join("%.17g" % v for v in row) + "\n").encode()
                    for row in field.tolist()]

        # the range the integer-digit path takes, 1e-10 <= |v| < 1e13:
        # every decade of both signs, powers of ten and their neighbours,
        # and odd m / 2**j, whose 17-digit ties round half to even
        rng = np.random.default_rng(5)
        decades = np.arange(-10, 13)[:, None]
        powers = np.array([float(f"1e{k}") for k in range(-10, 14)])
        j = np.arange(14, 26)[:, None]
        odd = 2 * rng.integers(0, 2**20, (j.size, 64)) + 1
        fast = np.concatenate([
            (10.0 ** (decades + rng.random((decades.size, 200)))
             * rng.choice([-1.0, 1.0], (decades.size, 200))).ravel(),
            powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
            [0.0, -0.0], (odd / 2.0**j).ravel(), (1 + odd % 2**j / 2.0**j).ravel()])
        # random finite bit patterns: subnormals, 1e308 and the like
        wild = rng.integers(0, 2**64, 4000, dtype=np.uint64).view(float)
        wild = wild[np.isfinite(wild)]
        for width in (1, 2, 1601):
            rows = fast[:fast.size // width * width].reshape(-1, width)
            mixed = rows.copy()
            mixed[::2, -1] = wild[:len(mixed[::2])]
            for field in (rows, mixed, wild[:wild.size // width * width].reshape(-1, width)):
                assert _format_rows(field) == reference(field)
        assert _format_rows(np.array([[1 + 2**-17]])) == [b"1.0000076293945312\n"]
        # values outside that range take CPython's text in their own words:
        # at the first, a middle and the last position of each 1,601-wide
        # row, on both sides of the edge between the first two 4,096-value
        # blocks, and a row of nothing else, whose block has the fewest
        # words (7); the longest finite text is -2.2250738585072014e-308
        outside = [0.0, -0.0, 7.93e-17, 5e-324, 1e13, 1.7976931348623157e308,
                   -2.2250738585072014e-308]
        assert rows.shape == (3, 1601)
        for c in outside:
            field = rows.copy()
            field[:, [0, 800, -1]] = c
            field.ravel()[[4095, 4096]] = c
            assert _format_rows(field) == reference(field)
        only = np.resize(outside, (1, 1601))
        assert _format_rows(only) == reference(only)
        assert _format_rows(np.array([outside[-1:]])) == [b"-2.2250738585072014e-308\n"]
        # a row of no values is an empty line
        assert _format_rows(np.zeros((2, 0))) == [b"\n", b"\n"]

    def test_malformed_is_config_error(self, tmp_path):
        p = tmp_path / "f.csv"
        for body in ("t,0,1\n0,1,nan\n", "t,0,1\n0,1,inf\n", "t,0,nan\n0,1,2\n",
                     "t,0,1\n0,1,2\n1,2\n", "t,0,1\n0,1,x\n", "t,0,1\n0,1,2,3\n",
                     "t,0,1\n"):
            p.write_text(body)
            with pytest.raises(ConfigError):
                read_field_csv(p)


class TestCLI:
    def _write_cfg(self, tmp_path):
        p = tmp_path / "jump.cfg"
        p.write_text(JUMP_CFG)
        return str(p)

    def test_solve_outputs(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        for name in ("field.csv", "front.csv", "summary.json"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["extinction_time"] is not None
        assert summary["max_principle"]["lower_margin"] >= -1e-9
        assert summary["max_principle"]["upper_margin"] >= -1e-9
        fld = read_field_csv(os.path.join(out, "field.csv"))
        assert fld.x.size == 201

    def test_solve_deterministic(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["solve", "--config", cfg, "--out", out1])
        main(["solve", "--config", cfg, "--out", out2])
        for name in ("field.csv", "front.csv", "summary.json"):
            with open(os.path.join(out1, name), "rb") as f1, \
                 open(os.path.join(out2, name), "rb") as f2:
                assert f1.read() == f2.read()

    def test_a_solver_failure_exits_1_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # Pucci-minus on a non-monotone 11-node annulus: the first step's
        # Newton solve fails, and no --out directory is made
        p = tmp_path / "nm.cfg"
        p.write_text(NON_MONOTONE_CFG)
        out = tmp_path / "nm_out"
        assert main(["solve", "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("solver error: no convergence in the iteration "
                                           "budget at t = 0.01, dt = 0.01\n")
        assert not out.exists()
        # so is a zero pivot in the first linear solve
        from ellpar import solver

        solve = solver.solve_banded

        def singular(lower, diag, upper, rhs):
            return solve(*(np.zeros_like(a) for a in (lower, diag, upper)), rhs)

        monkeypatch.setattr(solver, "solve_banded", singular)
        assert main(["solve", "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("solver error: no finite Newton step "
                                           "at t = 0.01, dt = 0.01\n")
        assert not out.exists()
        # a step that leaves its max-principle bounds is reported the same way
        def leaving(spec, policy=None):
            raise solver.MaxPrincipleViolation(0.0, (-1.0, 1.0), 0.5)

        monkeypatch.setattr(solver, "run", leaving)
        assert main(["solve", "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("solver error: the step from t = 0.0 leaves its "
                                           "max-principle bounds (-1.0, 1.0) by 0.5\n")
        assert not out.exists()

    def test_bad_config_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("op.kind = nonsense\n")
        assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == 2
        p.write_text(JUMP_CFG.replace("u0.kind = jump", "u0.kind = sine"))
        assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "u0.kind" in capsys.readouterr().err
        assert main(["solve", "--config", str(tmp_path / "missing.cfg"),
                     "--out", str(tmp_path)]) == 2
        # booleans and words are not numbers, a number must be finite, and an
        # integer key is not truncated; the message names the key and value
        capsys.readouterr()
        for line in ("op.lambda = yes", "grid.lo = x", "b.n = true", "grid.n = on",
                     "g.lo = nan", "op.lambda = inf", "time.T = inf", "b.n = 1.5",
                     "grid.n = 101.5", "op.n_dim = 2.5"):
            p.write_text(JUMP_CFG + line + "\n")
            out = tmp_path / "o"
            assert main(["solve", "--config", str(p), "--out", str(out)]) == 2, line
            assert not out.exists()
            err = capsys.readouterr().err
            assert err.startswith("config error:") and line in err, line
        # fewer than 3 grid nodes, a Psi that is not positive on [0, inf),
        # and each rule of Geometry, ProblemSpec and b_n: the message names
        # the config keys, not the fields they fill
        for line, needle in (("grid.n = 2", "grid.n = 2: need at least 3 grid nodes"),
                             ("grid.n = 0", "grid.n = 0: need at least 3 grid nodes"),
                             ("op.kind = divergence\npsi.kind = polynomial\n"
                              "psi.coeffs = 1.0, -2.0", "psi.coeffs = 1.0, -2.0"),
                             ("time.dt = 0.03", "time.T = 0.1, time.dt = 0.03: need dt > 0"),
                             ("grid.lo = 2", "grid.lo = 2.0, grid.hi = 1.0: need lo < hi"),
                             ("geometry.kind = radial-annulus\ngrid.lo = 0",
                              "geometry.kind = radial-annulus, grid.lo = 0.0: radial"),
                             ("geometry.kind = disc", "geometry.kind = disc: unknown"),
                             ("b.n = 0", "b.n = 0: smoothing index must be >= 1"),
                             *OP_B_RULES):
            p.write_text(JUMP_CFG + line + "\n")
            out = tmp_path / "o"
            assert main(["solve", "--config", str(p), "--out", str(out)]) == 2, line
            assert needle in capsys.readouterr().err and not out.exists(), line
        p.write_text(OP_CFG + "op.n_dim = 2.5\n")
        assert main(["verify-barrier", "--family", "parabola", "--config", str(p)]) == 2
        assert "op.n_dim = 2.5" in capsys.readouterr().err
        # the log barrier reads b.* as well as op.*
        for line, needle in OP_B_RULES:
            p.write_text(OP_CFG + line + "\n")
            assert main(["verify-barrier", "--family", "logdiv", "--config", str(p)]) == 2
            assert needle in capsys.readouterr().err, line
        # compare reads grid.n and b.n the same way, and its scenario's own
        # bounds are config errors too
        for line, needle in (("b.n = 32.7", "b.n = 32.7"), ("grid.n = on", "grid.n = on"),
                             ("grid.n = 50", "grid.n = 50"), ("b.n = 0", "b.n = 0")):
            p.write_text(line + "\n")
            assert main(["compare", "--config", str(p)]) == 2, line
            captured = capsys.readouterr()
            assert needle in captured.err and captured.out == "", line

    def test_unknown_key_exit_2(self, tmp_path):
        p = tmp_path / "typo.cfg"
        p.write_text(JUMP_CFG + "grid.N = 101\n")
        for argv in (["solve", "--config", str(p), "--out", str(tmp_path / "o")],
                     ["sweep-n", "--config", str(p), "--n", "4,8,16"],
                     ["compare", "--config", str(p)]):
            assert main(argv) == 2
        assert not os.path.exists(tmp_path / "o")

    def test_horizon_not_whole_steps_exit_2(self, tmp_path):
        p = tmp_path / "horizon.cfg"
        p.write_text(JUMP_CFG.replace("time.dt = 0.0025", "time.dt = 0.03"))
        out = tmp_path / "o"
        assert main(["solve", "--config", str(p), "--out", str(out)]) == 2
        assert not out.exists()

    def test_bn_needs_positive_part_exit_2(self, tmp_path, capsys):
        # b_n smooths s_+ only: with a table b, Psi(b(u)) and the time term
        # would read two different b
        table = ("b.kind = lipschitz-table\nb.breakpoints = 0, 0.5\n"
                 "b.slopes = 1, 4\n")
        p = tmp_path / "table.cfg"
        p.write_text(JUMP_CFG.replace("b.kind = positive-part\n", table))
        out = tmp_path / "o"
        assert main(["solve", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "b.n = 16, b.kind = lipschitz-table: b_n smooths" in err and not out.exists()
        p.write_text(JUMP_CFG.replace("b.kind = positive-part\nb.n = 16\n", table))
        assert problem_from_config(load_config(p)).bn is None
        assert main(["sweep-n", "--config", str(p), "--n", "4,8,16",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "b.kind" in err and "--n" not in err and not out.exists()
        with pytest.raises(ValueError, match="b.kind"):
            replace(make_jump_scenario(grid=101).spec, b=BSpec("lipschitz-table", (0.0,), (2.0,)))

    def test_front_csv_one_row_per_step(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "front.csv")) as fh:
            rows = fh.read().splitlines()
        # header, then t_k = k dt for k = 0..40
        assert len(rows) == 42
        assert float(rows[-1].split(",")[0]) == pytest.approx(0.1)

    def test_sweep_n(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out = str(tmp_path / "sweep")
        assert main(["sweep-n", "--config", cfg, "--n", "4,8,16", "--out", out]) == 0
        with open(os.path.join(out, "convergence.json")) as fh:
            conv = json.load(fh)
        assert conv["n_list"] == [4, 8, 16]
        assert len(conv["pairwise_sup"]) == 2

    def test_envelope_and_crossing(self, tmp_path):
        x = np.linspace(-1, 1, 81)
        ts = np.linspace(0, 1, 81)
        X, T = np.meshgrid(x, ts)
        fld = GridField(x, ts, np.sin(X) + 0.1 * T)
        fin = str(tmp_path / "in.csv")
        write_field_csv(fin, fld)
        zout = str(tmp_path / "z.csv")
        wout = str(tmp_path / "w.csv")
        assert main(["envelope", "--in", fin, "--r", "0.12", "--kind", "sup",
                     "--out", zout]) == 0
        assert main(["envelope", "--in", fin, "--r", "0.12", "--kind", "inf",
                     "--out", wout]) == 0
        z = read_field_csv(zout)
        w = read_field_csv(wout)
        assert np.all(z.values >= w.values)
        assert main(["crossing", "--z", wout, "--w", zout]) == 0

    def test_malformed_field_exit_2(self, tmp_path, capsys):
        x = np.linspace(-1, 1, 41)
        ts = np.linspace(0, 1, 41)
        good = str(tmp_path / "good.csv")
        write_field_csv(good, GridField(x, ts, np.ones((41, 41))))
        lines = open(good).read().splitlines()
        nan = tmp_path / "nan.csv"
        # a NaN at one node must not hide the crossing at another
        nan.write_text("\n".join([lines[0], lines[1].replace(",1,", ",nan,", 1)]
                                 + lines[2:]) + "\n")
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("\n".join(lines[:5] + [lines[5].rsplit(",", 1)[0]]) + "\n")
        header = tmp_path / "header.csv"
        header.write_text("\n".join(["time" + lines[0][1:]] + lines[1:]) + "\n")
        for bad in (str(nan), str(ragged), str(header)):
            assert main(["envelope", "--in", bad, "--r", "0.2",
                         "--out", str(tmp_path / "o.csv")]) == 2
            assert main(["crossing", "--z", bad, "--w", good]) == 2
            assert main(["crossing", "--z", good, "--w", bad]) == 2
        assert f"{header}: expected 't' as first header column" in capsys.readouterr().err
        # one time row: the field parses, but it has no time step
        one = tmp_path / "one.csv"
        one.write_text("\n".join(lines[:2]) + "\n")
        assert main(["envelope", "--in", str(one), "--r", "0.2",
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert str(one) in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_envelope_uneven_grid_exit_2(self, tmp_path, capsys):
        x = np.linspace(-1, 1, 41)
        fin = str(tmp_path / "in.csv")
        write_field_csv(fin, GridField(x ** 3, x, np.ones((41, 41))))
        assert main(["envelope", "--in", fin, "--r", "0.2",
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert "space grid must be uniform" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_envelope_radius_out_of_range_exit_2(self, tmp_path, capsys):
        x = np.linspace(-1, 1, 41)
        fin = str(tmp_path / "in.csv")
        write_field_csv(fin, GridField(x, x, np.ones((41, 41))))
        # r = 0.05 is finer than 4 grid spacings; r = 5 leaves no shrunk grid
        for r, needle in (("0.05", "at most r/4"), ("5", "shrunk grid is empty"),
                          *((r, "positive and finite") for r in ("nan", "inf", "0", "-0.2"))):
            assert main(["envelope", "--in", fin, "--r", r,
                         "--out", str(tmp_path / "o.csv")]) == 2
            err = capsys.readouterr().err
            assert f"--r {float(r)}" in err and needle in err, r
        assert not (tmp_path / "o.csv").exists()

    def test_envelope_decreasing_axis_exit_2(self, tmp_path, capsys):
        x = np.linspace(-1, 1, 41)
        fin = str(tmp_path / "in.csv")
        write_field_csv(fin, GridField(x[::-1], x, np.ones((41, 41))))
        assert main(["envelope", "--in", fin, "--r", "0.2",
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert "space grid nodes must increase" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_crossing_grid_mismatch_exit_2(self, tmp_path):
        x = np.linspace(-1, 1, 41)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_field_csv(a, GridField(x, x, np.ones((41, 41))))
        write_field_csv(b, GridField(x, x[:-1], np.ones((40, 41))))
        assert main(["crossing", "--z", a, "--w", b]) == 2
        assert main(["crossing", "--z", a, "--w", a]) == 0

    def test_solve_bounds_match_solver_on_reflecting_ball(self, tmp_path):
        # the punctured ball reflects at its inner radius, so g.lo is never
        # read and must not widen the reported bounds
        p = tmp_path / "ball.cfg"
        p.write_text("geometry.kind = radial-ball-punctured\ngrid.lo = 0.05\n"
                     "grid.hi = 1.0\ngrid.n = 41\nop.n_dim = 3\ng.lo = 5.0\n"
                     "g.hi = -1.0\ntime.T = 0.01\ntime.dt = 2.5e-3\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(p), "--out", str(out)]) == 0
        with open(out / "summary.json") as fh:
            bounds = json.load(fh)["max_principle"]
        spec = problem_from_config(load_config(p))
        u0 = spec.initial_values()
        assert (bounds["lower_bound"], bounds["upper_bound"]) == \
            max_principle_bounds(spec, u0, 0.0) == (-1.0, float(u0.max()))
        assert bounds["upper_bound"] < 5.0

    def test_compare_ordered_pair(self, capsys):
        assert main(["compare", "--gap", "0.05"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["gap"] == 0.05 and printed["ordered"] is True
        assert printed["worst_order_gap"] >= -1e-9

    def test_compare_rejects_keys_it_does_not_read(self, tmp_path, capsys):
        # compare reads only grid.n and b.n; time.T would be silently ignored
        p = tmp_path / "compare.cfg"
        p.write_text("grid.n = 101\nb.n = 16\ntime.T = 0.1\n")
        assert main(["compare", "--config", str(p)]) == 2
        assert "time.T" in capsys.readouterr().err

    @pytest.mark.parametrize("command, line", [
        # solve reads psi.* for a divergence operator only, u0.value for a
        # constant datum only, b.breakpoints for a table b only, and no
        # barrier.* key
        ("solve", "psi.kind = polynomial"),
        ("solve", "psi.coeffs = 1.0, 2.0"),
        ("solve", "barrier.M = 1.0"),
        ("solve", "u0.value = -0.5"),
        ("solve", "b.breakpoints = 0.0"),
        # a barrier family reads the operator and its own barrier.* keys
        ("radial", "time.T = 0.1"),
        ("radial", "grid.n = 101"),
        ("radial", "g.lo = -1.0"),
        ("radial", "barrier.d = 0.5"),
        ("radial", "barrier.M = 1.0"),
    ])
    def test_unread_key_exit_2(self, tmp_path, capsys, command, line):
        p = tmp_path / "unread.cfg"
        if command == "solve":
            p.write_text(JUMP_CFG + line + "\n")
            argv = ["solve", "--config", str(p), "--out", str(tmp_path / "o")]
        else:
            p.write_text(BARRIER_CFG + line + "\n")
            argv = ["verify-barrier", "--family", command, "--config", str(p)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert line.split(" = ")[0] in captured.err and captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_verify_barrier(self, tmp_path, capsys):
        # each family's config holds the operator's keys and its own only
        paths = {}
        for family, extra in FAMILY_CFG.items():
            paths[family] = tmp_path / f"{family}.cfg"
            paths[family].write_text(OP_CFG + extra)
        op = operator_from_config(load_config(paths["radial"]))
        div_op = operator_from_config(load_config(paths["logdiv"]))
        assert div_op.psi == PsiSpec("constant", (1.0,)) and div_op.n_dim == 3
        # the barriers the command builds from these configs and their defaults
        bars = {
            "radial": solve_radial_barrier(op, rho0=1.0, a_hat=1.0, b_hat=-0.5,
                                           omega_hat=0.3),
            "heatkernel": solve_heatkernel_barrier(op, d=0.5, delta=0.1),
            "logdiv": solve_logdiv_barrier(div_op, BSpec("positive-part"),
                                           omega=0.0, rho0=1.0, M=1.0),
            "parabola": make_parabola_barrier(op),
        }
        for family, bar in bars.items():
            assert main(["verify-barrier", "--family", family,
                         "--config", str(paths[family])]) == 0
            printed = json.loads(capsys.readouterr().out)
            assert printed["family"] == family
            assert printed["worst_margin"] == verify_subsolution_margin(bar).worst_margin

    @pytest.mark.parametrize("family, line, needle", [
        ("radial", "barrier.sign = up", "radial barrier"),
        ("radial", "barrier.b_hat = -1.0", "radial barrier"),
        ("heatkernel", "barrier.d = -1", "heatkernel barrier"),
        ("logdiv", "barrier.omega = -0.5", "logdiv barrier"),
        ("logdiv", "barrier.M = 0", "logdiv barrier"),
        ("radial", "barrier.samples = 0", "barrier.samples"),
        ("parabola", "barrier.samples = -1", "barrier.samples"),
        ("logdiv", "barrier.samples = 0", "barrier.samples"),
        # a value that is not a number names its key
        ("radial", "barrier.rho0 = abc", "barrier.rho0 = abc"),
        ("logdiv", "psi.coeffs = 1, x", "psi.coeffs = 1, x"),
        # the log barrier is built for the config's own operator only
        ("logdiv", "op.kind = pucci-minus", "op.kind = pucci-minus"),
    ])
    def test_verify_barrier_bad_input_exit_2(self, tmp_path, capsys, family, line,
                                             needle):
        p = tmp_path / "bar.cfg"
        # the family's own keys (for logdiv, a divergence operator, so that a
        # case fails on its own key and not on op.kind; a case may still set
        # op.kind after it)
        p.write_text(OP_CFG + FAMILY_CFG[family] + line + "\n")
        assert main(["verify-barrier", "--family", family, "--config", str(p)]) == 2
        captured = capsys.readouterr()
        assert needle in captured.err
        if family == "logdiv":
            # the message names the key's value, e.g. "omega = -0.5"
            assert line.removeprefix("barrier.") in captured.err
        assert captured.out == ""

    def test_verify_barrier_infeasible_exit_1(self, tmp_path, capsys):
        # rho0 beyond the critical radius 3.4 of the class
        p = tmp_path / "bar.cfg"
        p.write_text(BARRIER_CFG + "barrier.rho0 = 10.0\n")
        assert main(["verify-barrier", "--family", "radial", "--config", str(p)]) == 1
        printed = json.loads(capsys.readouterr().out)
        assert printed["family"] == "radial"
        assert "critical radius" in printed["infeasible"]

    @pytest.mark.parametrize("command", [
        "sweep-n --n 4,8", "sweep-n --n 4,x,16", "accept --criteria 99",
        "accept --criteria 1,x", "accept --criteria 4,4", "compare --gap 0",
        "compare --gap 0.8", "compare --gap inf", "compare --gap nan",
        # an empty value is not an absent one
        ["accept", "--criteria", ""], ["accept", "--out", ""]])
    def test_bad_argument_exit_2(self, tmp_path, capsys, command):
        argv = command.split() if isinstance(command, str) else list(command)
        flag = argv[1]
        if argv[0] == "sweep-n":
            argv += ["--config", self._write_cfg(tmp_path),
                     "--out", str(tmp_path / "sweep")]
        assert main(argv) == 2
        assert flag in capsys.readouterr().err

    def test_accept_out_is_checked_before_the_suite(self, tmp_path, capsys, monkeypatch):
        # an output path that cannot be written fails at once with exit 2,
        # not after the work, and creates nothing
        from ellpar import cli, harness, solver

        def no_work(*args, **kwargs):
            pytest.fail("the command did its work")

        monkeypatch.setitem(harness.ALL_CRITERIA, 1, no_work)
        monkeypatch.setattr(cli, "read_field_csv", no_work)
        monkeypatch.setattr(solver, "run", no_work)
        monkeypatch.setattr(solver, "singular_limit_study", no_work)
        cfg = self._write_cfg(tmp_path)
        field = tmp_path / "f.csv"
        field.touch()
        before = sorted(tmp_path.iterdir())
        no_file_name = [str(tmp_path / "missing" / "r.json"), str(tmp_path),
                        str(tmp_path) + os.sep]
        not_a_directory = [str(field), str(field / "sub"), ""]
        for out in no_file_name:
            assert main(["accept", "--criteria", "1", "--out", out]) == 2
            assert "config error: --out" in capsys.readouterr().err
            assert main(["envelope", "--in", str(field), "--r", "0.1", "--out", out]) == 2
            assert "config error: --out" in capsys.readouterr().err
        for out in not_a_directory:
            assert main(["solve", "--config", cfg, "--out", out]) == 2
            assert "config error: --out" in capsys.readouterr().err
            assert main(["sweep-n", "--config", cfg, "--n", "4,8,16", "--out", out]) == 2
            assert "config error: --out" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_accept_subset(self, tmp_path):
        rep = str(tmp_path / "report.json")
        assert main(["accept", "--criteria", "1,5", "--out", rep]) == 0
        with open(rep) as fh:
            report = json.load(fh)
        assert report["passed"]
        assert [c["index"] for c in report["criteria"]] == [1, 5]
        for row in report["criteria"]:
            assert list(row) == ["index", "name", "passed", "margin",
                                 "runtime", "details"]

    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "ellpar.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for sub in ("solve", "sweep-n", "verify-barrier", "envelope",
                    "crossing", "compare", "accept"):
            assert sub in proc.stdout
