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
from ellpar.cli import main, read_field_csv, write_field_csv
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

BARRIER_CFG = """
op.kind = pucci-minus
op.lambda = 1.0
op.Lambda = 1.2
op.delta1 = 0.5
op.delta0 = 0.2
op.n_dim = 3
barrier.rho0 = 1.0
barrier.a_hat = 1.0
barrier.b_hat = -0.5
barrier.omega_hat = 0.3
"""


class TestConfig:
    def test_parse_types(self):
        cfg = parse_config("a.x = 1\na.y = 2.5\nflag = true\nname = jump\n"
                           "list = 1,2,3\n")
        assert cfg.get("a.x") == 1
        assert cfg.get("a.y") == 2.5
        assert cfg.get("flag") is True
        assert cfg.get("name") == "jump"
        assert cfg.get("list") == (1, 2, 3)
        assert type(cfg) is dict and len(cfg) == 5

    def test_malformed_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("this is not a key value line\n")
        with pytest.raises(ConfigError):
            parse_config("= 3\n")

    def test_problem_roundtrip(self):
        spec = problem_from_config(parse_config(JUMP_CFG))
        assert spec.grid == 201
        assert spec.bn.n == 16
        assert spec.op.kind == "trace"
        u0 = spec.initial_values()
        assert u0[0] == -1.0 and u0[-1] == -1.0

    def test_bad_operator_is_config_error(self):
        with pytest.raises(ConfigError):
            problem_from_config(parse_config("op.kind = nonsense\n"))

    def test_unknown_keys_rejected_on_load(self, tmp_path):
        for typo in ("time.DT = 0.01", "grid.N = 101"):
            p = tmp_path / "typo.cfg"
            p.write_text(JUMP_CFG + typo + "\n")
            with pytest.raises(ConfigError, match=typo.split()[0]):
                load_config(p)

    def test_every_read_key_loads(self, tmp_path):
        # the keys of a divergence solve, a lipschitz-table b and a barrier
        p = tmp_path / "all.cfg"
        p.write_text(JUMP_CFG + "op.kind = divergence\nop.Lambda = 2.0\n"
                     "op.delta1 = 0.0\nop.delta0 = 0.0\nop.n_dim = 3\n"
                     "psi.kind = polynomial\npsi.coeffs = 1.0, 2.0\n"
                     "b.breakpoints = 0.0\nb.slopes = 1.0\n"
                     "geometry.kind = radial-annulus\ngrid.lo = 0.2\n"
                     "grid.hi = 1.0\nu0.value = -1.0\nbarrier.samples = 10\n")
        spec = problem_from_config(load_config(p))
        assert spec.op.kind == "divergence" and spec.bn.n == 16

    def test_scalar_or_list_floats(self):
        one = parse_config("op.kind = divergence\npsi.coeffs = 2\n"
                           "b.kind = lipschitz-table\nb.breakpoints = 0\nb.slopes = 3\n")
        two = parse_config("op.kind = divergence\npsi.kind = polynomial\n"
                           "psi.coeffs = 1, 2.5\nb.kind = lipschitz-table\n"
                           "b.breakpoints = 0, 1\nb.slopes = 1, 2\n")
        assert operator_from_config(one).psi.coeffs == (2.0,)
        assert operator_from_config(two).psi.coeffs == (1.0, 2.5)
        assert problem_from_config(one).b.slopes == (3.0,)
        b = problem_from_config(two).b
        assert (b.breakpoints, b.slopes) == ((0.0, 1.0), (1.0, 2.0))

    def test_horizon_not_whole_steps_is_config_error(self):
        with pytest.raises(ConfigError):
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
        # to -0.0, the extreme magnitudes and values that need 17 digits
        x = np.linspace(-1, 1, 5)
        a = np.array([0.1, 1 / 3, 2 / 3, 5e-324, 1e308])
        b = np.array([np.nextafter(1.0, 2.0), -0.1, 1e-300, -1e308, np.pi])
        zero = np.zeros(5)
        rows = [a, b, a, zero, -zero, zero, b, b, b]
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

    def test_malformed_is_config_error(self, tmp_path):
        p = tmp_path / "f.csv"
        for body in ("t,0,1\n0,1,nan\n", "t,0,1\n0,1,inf\n", "t,0,nan\n0,1,2\n",
                     "t,0,1\n0,1,2\n1,2\n", "t,0,1\n0,1,x\n", "t,0,1\n0,1,2,3\n"):
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

    def test_bad_config_exit_2(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("op.kind = nonsense\n")
        assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert main(["solve", "--config", str(tmp_path / "missing.cfg"),
                     "--out", str(tmp_path)]) == 2

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
        assert "b.kind" in capsys.readouterr().err and not out.exists()
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

    def test_malformed_field_exit_2(self, tmp_path):
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
        for bad in (str(nan), str(ragged)):
            assert main(["envelope", "--in", bad, "--r", "0.2",
                         "--out", str(tmp_path / "o.csv")]) == 2
            assert main(["crossing", "--z", bad, "--w", good]) == 2
            assert main(["crossing", "--z", good, "--w", bad]) == 2
        assert not (tmp_path / "o.csv").exists()

    def test_envelope_radius_out_of_range_exit_2(self, tmp_path, capsys):
        x = np.linspace(-1, 1, 41)
        fin = str(tmp_path / "in.csv")
        write_field_csv(fin, GridField(x, x, np.ones((41, 41))))
        # r = 0.05 is finer than 4 grid spacings; r = 5 leaves no shrunk grid
        for r in ("0.05", "5"):
            assert main(["envelope", "--in", fin, "--r", r,
                         "--out", str(tmp_path / "o.csv")]) == 2
            assert "--r" in capsys.readouterr().err
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

    def test_compare_rejects_keys_it_does_not_read(self, tmp_path, capsys):
        # compare reads only grid.n and b.n; time.T would be silently ignored
        p = tmp_path / "compare.cfg"
        p.write_text("grid.n = 101\nb.n = 16\ntime.T = 0.1\n")
        assert main(["compare", "--config", str(p)]) == 2
        assert "time.T" in capsys.readouterr().err

    def test_verify_barrier(self, tmp_path, capsys):
        p = tmp_path / "bar.cfg"
        p.write_text(BARRIER_CFG)
        op = operator_from_config(load_config(p))
        # the barriers the command builds from this config and its defaults
        bars = {
            "radial": solve_radial_barrier(op, rho0=1.0, a_hat=1.0, b_hat=-0.5,
                                           omega_hat=0.3),
            "heatkernel": solve_heatkernel_barrier(op, d=0.5, delta=0.1),
            "logdiv": solve_logdiv_barrier(PsiSpec("constant", (1.0,)),
                                           BSpec("positive-part"), omega=0.0,
                                           rho0=1.0, M=1.0, n_dim=3),
            "parabola": make_parabola_barrier(op),
        }
        for family, bar in bars.items():
            assert main(["verify-barrier", "--family", family,
                         "--config", str(p)]) == 0
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
    ])
    def test_verify_barrier_bad_input_exit_2(self, tmp_path, capsys, family, line,
                                             needle):
        p = tmp_path / "bar.cfg"
        p.write_text(BARRIER_CFG + line + "\n")
        assert main(["verify-barrier", "--family", family, "--config", str(p)]) == 2
        captured = capsys.readouterr()
        assert needle in captured.err
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
        "accept --criteria 1,x", "compare --gap 0", "compare --gap 0.8"])
    def test_bad_argument_exit_2(self, tmp_path, capsys, command):
        argv = command.split()
        if argv[0] == "sweep-n":
            argv += ["--config", self._write_cfg(tmp_path),
                     "--out", str(tmp_path / "sweep")]
        assert main(argv) == 2
        assert command.split()[1] in capsys.readouterr().err

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
