"""`ellpar` command line: solve, sweep-n, verify-barrier, envelope, crossing,
compare, accept.

Exit codes: 0 success / criteria pass, 1 criterion or verification failure,
2 configuration or command-line argument error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .config import ConfigError, load_config, operator_from_config, problem_from_config
from .regularize import GridField, crossing_time, inf_convolve, sup_convolve

__all__ = ["main", "write_field_csv", "read_field_csv"]


def write_field_csv(path, fld: GridField):
    """Header row `t,<x_0>,...,<x_{N-1}>` with node coordinates, then one row
    `t,<u_0>,...,<u_{N-1}>` per time level.

    Every number is written as `%.17g`, which round-trips a double.  Rows
    are keyed by their bytes, so a row bit-equal to an earlier one (the
    filled stationary tail of a run) is formatted once and its text reused;
    -0.0 and 0.0 differ in bytes and keep their own text.
    """
    line = ",".join(["%.17g"] * fld.x.size) + "\n"
    text = {}
    with open(path, "w") as fh:
        fh.write("t," + line % tuple(fld.x.tolist()))
        for t, row in zip(fld.times.tolist(), fld.values):
            key = row.tobytes()
            if key not in text:
                text[key] = line % tuple(row.tolist())
            fh.write("%.17g," % t + text[key])


def read_field_csv(path) -> GridField:
    """Read a field written by write_field_csv; ragged rows, non-numbers,
    non-finite samples and a shape mismatch are a ConfigError."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[0] != "t":
            raise ConfigError(f"{path}: expected 't' as first header column")
        try:
            x = np.array([float(v) for v in header[1:]])
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
            return GridField(x, rows[:, 0], rows[:, 1:])
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc


def _write_front_csv(path, field):
    with open(path, "w") as fh:
        fh.write("t,fronts\n")
        for t, locs in zip(field.times, field.fronts):
            fh.write(f"{t:.17g}" + "".join(f",{v:.17g}" for v in locs) + "\n")


def _int_list(flag, raw):
    """Comma-separated integers of a command-line flag; anything else is a
    ConfigError that names the flag."""
    try:
        return [int(v) for v in raw.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag} {raw}: {exc}") from exc


def _cmd_solve(args):
    from .solver import max_principle_bounds, run

    spec = problem_from_config(load_config(args.config))
    out = args.out
    os.makedirs(out, exist_ok=True)
    field = run(spec)
    write_field_csv(os.path.join(out, "field.csv"), field)
    _write_front_csv(os.path.join(out, "front.csv"), field)
    lower, upper = max_principle_bounds(spec, field.values[0], 0.0)
    summary = {
        "extinction_time": field.extinction_time,
        "max_principle": {
            "lower_bound": lower,
            "upper_bound": upper,
            "lower_margin": float(field.values.min()) - lower,
            "upper_margin": upper - float(field.values.max()),
        },
        # grid steps: solved plus filled from a fixed point
        "newton": {"iterations": field.newton_iterations,
                   "steps": field.steps + field.repeated_steps},
    }
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    return 0


def _cmd_sweep_n(args):
    from .solver import singular_limit_study

    spec = problem_from_config(load_config(args.config))
    if spec.b.kind != "positive-part":
        raise ConfigError(f"b.kind = {spec.b.kind}: sweep-n runs b_n, which "
                          f"smooths the positive part only")
    n_list = _int_list("--n", args.n)
    try:
        # the study checks its indices before it runs anything
        rep = singular_limit_study(spec, n_list)
    except ValueError as exc:
        raise ConfigError(f"--n {args.n}: {exc}") from exc
    path = os.path.join(args.out, "convergence.json")
    os.makedirs(args.out, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(asdict(rep), fh, indent=2)
    print(path)
    return 0


def _cmd_verify_barrier(args):
    from .barriers import (
        BarrierInfeasible,
        make_parabola_barrier,
        solve_heatkernel_barrier,
        solve_logdiv_barrier,
        solve_radial_barrier,
        verify_subsolution_margin,
    )
    from .config import _bspec_from_config, _psi_from_config

    cfg = load_config(args.config)
    op = operator_from_config(cfg)
    fam = args.family
    samples = cfg.get("barrier.samples", 1000)
    if type(samples) is not int or samples < 1:
        raise ConfigError(f"barrier.samples = {samples}: need an integer >= 1")
    try:
        if fam == "radial":
            bar = solve_radial_barrier(
                op,
                rho0=float(cfg.get("barrier.rho0", 1.0)),
                a_hat=float(cfg.get("barrier.a_hat", 1.0)),
                b_hat=float(cfg.get("barrier.b_hat", -0.5)),
                omega_hat=float(cfg.get("barrier.omega_hat", 0.0)),
                sign=cfg.get("barrier.sign", "sub"),
            )
        elif fam == "heatkernel":
            bar = solve_heatkernel_barrier(
                op,
                d=float(cfg.get("barrier.d", 0.5)),
                delta=float(cfg.get("barrier.delta", 0.1)),
            )
        elif fam == "logdiv":
            bar = solve_logdiv_barrier(
                _psi_from_config(cfg), _bspec_from_config(cfg),
                omega=float(cfg.get("barrier.omega", 0.0)),
                rho0=float(cfg.get("barrier.rho0", 1.0)),
                M=float(cfg.get("barrier.M", 1.0)),
                n_dim=op.n_dim,
            )
        else:
            bar = make_parabola_barrier(op)
    except BarrierInfeasible as exc:
        print(json.dumps({"family": fam, "infeasible": str(exc)}))
        return 1
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{fam} barrier: {exc}") from exc
    rep = verify_subsolution_margin(bar, samples=samples)
    print(json.dumps(asdict(rep), indent=2))
    return 0 if rep.passed else 1


def _cmd_envelope(args):
    fld = read_field_csv(getattr(args, "in"))
    convolve = sup_convolve if args.kind == "sup" else inf_convolve
    try:
        conv = convolve(fld, args.r)
    except ValueError as exc:
        raise ConfigError(f"--r {args.r}: {exc}") from exc
    write_field_csv(args.out, conv)
    return 0


def _cmd_crossing(args):
    zf, wf = read_field_csv(args.z), read_field_csv(args.w)
    try:
        rep = crossing_time(zf, wf)
    except ValueError as exc:
        raise ConfigError(f"crossing inputs: {exc}") from exc
    print(json.dumps({"t0": rep.t0,
                      "contact_nodes": rep.contact_nodes.tolist()}))
    return 0


def _cmd_compare(args):
    from .harness import make_comparison_pair, make_jump_scenario
    from .solver import run

    cfg = load_config(args.config, keys={"grid.n", "b.n"}) if args.config else None
    grid = int(cfg.get("grid.n", 401)) if cfg else 401
    n = int(cfg.get("b.n", 32)) if cfg else 32
    base = make_jump_scenario(grid=grid, n=n)
    try:
        lower, upper = make_comparison_pair(base, args.gap)
    except ValueError as exc:
        raise ConfigError(f"--gap {args.gap}: {exc}") from exc
    rl = run(lower.spec)
    ru = run(upper.spec)
    worst = float(np.min(ru.values - rl.values))
    ordered = worst >= -1e-9
    print(json.dumps({"gap": args.gap, "worst_order_gap": worst,
                      "ordered": ordered}))
    return 0 if ordered else 1


def _cmd_accept(args):
    from .harness import ALL_CRITERIA, run_acceptance

    criteria = None
    if args.criteria:
        criteria = _int_list("--criteria", args.criteria)
        if not set(criteria) <= ALL_CRITERIA.keys():
            raise ConfigError(f"--criteria {args.criteria}: "
                              f"criteria are {sorted(ALL_CRITERIA)}")
    code, _ = run_acceptance(criteria=criteria, out_path=args.out)
    return code


def _build_parser():
    p = argparse.ArgumentParser(prog="ellpar",
                                description="phase-transition problems as "
                                "singular limits of regularized parabolic ones")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="run one problem and write field/front/summary")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=_cmd_solve)

    s = sub.add_parser("sweep-n", help="singular-limit sweep over smoothing indices")
    s.add_argument("--config", required=True)
    s.add_argument("--n", required=True, help="comma-separated indices, e.g. 4,8,16,32")
    s.add_argument("--out", default=".")
    s.set_defaults(fn=_cmd_sweep_n)

    s = sub.add_parser("verify-barrier", help="solve and verify a barrier family")
    s.add_argument("--family", required=True,
                   choices=["radial", "heatkernel", "logdiv", "parabola"])
    s.add_argument("--config", required=True)
    s.set_defaults(fn=_cmd_verify_barrier)

    s = sub.add_parser("envelope", help="sup/inf-convolution of a sampled field")
    s.add_argument("--in", required=True)
    s.add_argument("--r", type=float, required=True)
    s.add_argument("--kind", choices=["sup", "inf"], default="sup")
    s.add_argument("--out", required=True)
    s.set_defaults(fn=_cmd_envelope)

    s = sub.add_parser("crossing", help="first crossing time of a (Z, W) pair")
    s.add_argument("--z", required=True)
    s.add_argument("--w", required=True)
    s.set_defaults(fn=_cmd_crossing)

    s = sub.add_parser("compare", help="ordered-pair comparison run on the jump scenario")
    s.add_argument("--config", default=None)
    s.add_argument("--gap", type=float, default=0.05)
    s.set_defaults(fn=_cmd_compare)

    s = sub.add_parser("accept", help="run the acceptance suite")
    s.add_argument("--criteria", default=None, help="comma-separated subset, e.g. 1,2,5")
    s.add_argument("--out", default=None, help="write the JSON report here")
    s.set_defaults(fn=_cmd_accept)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
