"""`ellpar` command line: solve, sweep-n, verify-barrier, envelope, crossing,
compare, accept.

Exit codes: 0 success / criteria pass, 1 criterion or verification failure,
2 configuration or command-line argument error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import config
from .config import ConfigError
from .regularize import GridField, crossing_time, inf_convolve, sup_convolve

__all__ = ["main", "write_field_csv", "read_field_csv"]


# Exact `%.17g` text for whole arrays.  CPython formats one double at a time
# through a correctly rounded dtoa.  For 1e-10 <= |v| < 1e13 the 17
# significant digits come exactly from integer arithmetic on whole arrays,
# as in Ryu printf (Adams 2019): with |v| = m / 2**q (53-bit m) and
# p = 16 - floor(log10 |v|), D = m * 5**p / 2**(q - p) rounded half to even
# lies in [1e16, 1e17), and |v| reads D * 10**-p.  `%.17g` then writes, for
# the decimal exponent x = 16 - p, x + 1 digits before the point when
# x >= 0, "0." and -x - 1 zeros before all 17 when -4 <= x < 0, and one
# digit and an exponent when x < -4.  Each value's text is a row of 4-byte
# words from _WORDS, NUL where a character is absent, and bytes.translate
# deletes the NULs.  Every other value (+-0, nonzero below 1e-10, at least
# 1e13) takes CPython's text, one value at a time, NUL-padded into its own
# words inside the same block.  In text order the words are:
#   lead      separator, sign and, for an integer part 0, its "0"
#   integer   4-digit groups, leading zeros cut; as many as the block needs
#   point     "." and the fraction's leading zeros, or nothing when no
#             fraction digit follows
#   fraction  16 digits in four groups, trailing zeros cut
#   tail      a 17th fraction digit or the exponent "e-05" to "e-10"; left
#             out when no value of the block has one

_U64 = np.uint64
_P5_HI, _P5_LO = np.divmod(5 ** np.arange(28, dtype=_U64), _U64(2**32))
_BLOCK = 4096                    # values per _format_block call: small temporaries


def _word_table():
    """_WORDS, the offset of each kind of word in it after the integer
    groups (which start at 0), and by x + 10 the powers 10**(17 - s) and
    10**s for the s digits before the point."""
    digit = np.arange(10000)[:, None] // 10 ** np.arange(3, -1, -1) % 10
    pos = np.arange(4)
    ascii_ = ord("0") + digit
    first = np.where(digit != 0, pos, 4).min(1, keepdims=True)
    last = np.where(digit != 0, pos, -1).max(1, keepdims=True)
    x = np.arange(-10, 13)
    expo = x < -4
    zeros = np.where(expo, 0, np.clip(-x - 1, 0, 3))
    point = np.where(pos <= zeros[:, None], ord("0"), 0)
    point[:, 0] = ord(".")
    d = np.arange(10)
    tail = np.zeros((x.size, 10, 4), int)
    tail[:, :, 0] = np.where(d > 0, ord("0") + d, 0)
    e = -x[expo]
    tail[expo, 0] = np.stack([np.full(e.size, ord("e")), np.full(e.size, ord("-")),
                              ord("0") + e // 10, ord("0") + e % 10], 1)
    lead = np.zeros((4, 4), int)
    lead[:, 0] = ord(",")
    lead[2:, 1] = ord("-")
    lead[::2, 3] = ord("0")
    parts = [
        # [g]: group g with leading zeros cut; [10000 + g]: all four digits
        np.where(pos >= first, ascii_, 0), ascii_,
        # [g]: group g with trailing zeros cut; [10000 + g]: all four digits
        np.where(pos <= last, ascii_, 0), ascii_,
        # [23 * (a fraction digit follows) + x + 10]
        np.zeros((x.size, 4), int), point,
        # [10 * (x + 10) + f]: the 17th digit f (NUL for 0) or the exponent
        tail.reshape(-1, 4),
        # [2 * (v < 0) + (integer part > 0)]
        lead,
    ]
    at = np.cumsum([len(w) for w in parts])
    words = np.ascontiguousarray(np.concatenate(parts), np.uint8).view("<u4").ravel()
    s = np.where(x >= 0, x + 1, expo)
    return words, at[1], at[3], at[5], at[6], 10 ** (17 - s), 10 ** s


(_WORDS, _FRAC_AT, _POINT_AT, _TAIL_AT, _LEAD_AT, _INT_SCALE,
 _FRAC_SCALE) = _word_table()


def _scaled(m0, m1, r, p):
    """floor(m * 5**p / 2**r) of m = m1 * 2**32 + m0 < 2**53 and
    0 < r < 64, exact in uint64: the product (< 2**116) is built from
    32-bit limbs; and whether rounding half to even adds one."""
    c0, c1 = _P5_LO.take(p), _P5_HI.take(p)
    lo = m0 * c0
    mid = m1 * c0 + m0 * c1
    low = lo + (mid << _U64(32))
    high = m1 * c1 + (mid >> _U64(32)) + (low < lo)
    left = _U64(64) - r
    d = (high << left) | (low >> r)
    # the bits shifted out, left-aligned, are below 2**64 - 1: adding d's
    # last bit cannot wrap, and the sum passes half exactly when rounding
    # half to even goes up
    return d, (low << left) + (d & _U64(1)) > _U64(2**63)


def _format_block(v, newline):
    """The `%.17g` text of each value of v, each after a "," or, at the
    positions that the slice newline picks, a "\n"."""
    a = np.abs(v)
    other = np.flatnonzero(~((a >= 1e-10) & (a < 1e13)))    # CPython's text
    a[other] = 1.0                     # a value in range; replaced below
    bits = a.view(_U64)
    m0 = bits & _U64(2**32 - 1)
    m1 = (bits >> _U64(32)) & _U64(2**20 - 1) | _U64(2**20)
    q = 1075 - (bits >> _U64(52)).view(np.int64)       # a = m / 2**q
    p = 16 - np.floor(np.log10(a)).astype(np.int64)
    d, up = _scaled(m0, m1, (q - p).view(_U64), p)
    # log10 may be off by one next to a power of ten; the exact floor of
    # |v| * 10**p says which way.  (No double in range is close enough
    # below a power of ten to round up to it at 17 digits.)
    bad = np.flatnonzero((d < _U64(10**16)) | (d >= _U64(10**17)))
    if bad.size:
        p[bad] += np.where(d[bad] < _U64(10**16), 1, -1)
        d[bad], up[bad] = _scaled(m0[bad], m1[bad],
                                  (q[bad] - p[bad]).view(_U64), p[bad])
    d = (d + up).view(np.int64)
    x10 = 26 - p
    scale = _INT_SCALE.take(x10)
    i = d // scale
    frac = (d - i * scale) * _FRAC_SCALE.take(x10)
    index = [np.signbit(v) * 2 + np.minimum(i, 1) + _LEAD_AT]
    # integer groups, last first: group g, whose digits with those before
    # it read P, takes [min(P, 10000 + g)], leading zeros cut while P < 10000
    groups = []
    while True:
        high = i // 10**4
        groups.append(np.minimum(i, i - high * 10**4 + 10000))
        if not high.any():
            break
        i = high
    index += groups[::-1]
    rest = frac // 10
    f16 = frac - rest * 10
    more = f16 != 0                    # a nonzero digit after this group
    groups = []
    for _ in range(4):
        high = rest // 10**4
        g = rest - high * 10**4
        groups.append(g + more * 10000 + _FRAC_AT)
        more |= g != 0
        rest = high
    index.append(x10 + more * 23 + _POINT_AT)
    index += groups[::-1]
    if f16.any() or (x10 < 6).any():            # x < -4: exponent form
        index.append(x10 * 10 + f16 + _TAIL_AT)
    words = _WORDS.take(np.array(index))
    # the other values' text, NUL-padded into their own words: 7 words or
    # more hold the longest, ",-2.2250738585072014e-308"
    size = 4 * len(words)
    text = b"".join([(b",%.17g" % c).ljust(size, b"\0") for c in v[other].tolist()])
    words[:, other] = np.frombuffer(text, "<u4").reshape(-1, len(words)).T
    words[0, newline] ^= ord(",") ^ ord("\n")
    return words.T.tobytes().translate(None, b"\0")


def _format_rows(rows):
    """The `%.17g` text of each row of a 2-D float array as bytes, values
    joined by "," and the row ended by "\n"."""
    width = rows.shape[1]
    if not width:                      # no value to carry the row's "\n"
        return [b"\n"] * len(rows)
    flat = rows.ravel()
    # a "\n" before each row's first value ends the row before it
    blocks = [_format_block(flat[k:k + _BLOCK], slice(-k % width, None, width))
              for k in range(0, flat.size, _BLOCK)]
    return b"".join(blocks + [b"\n"]).splitlines(keepends=True)[1:]


def write_field_csv(path, fld: GridField):
    """Header row `t,<x_0>,...,<x_{N-1}>` with node coordinates, then one row
    `t,<u_0>,...,<u_{N-1}>` per time level.

    Every number is written as `%.17g`, which round-trips a double.  Rows
    are keyed by their bytes, so a row bit-equal to an earlier one (the
    filled stationary tail of a run) is formatted once and its text reused;
    -0.0 and 0.0 differ in bytes and keep their own text.
    """
    keys = [row.tobytes() for row in fld.values]
    first = {}
    for k, key in enumerate(keys):
        first.setdefault(key, k)
    header, *rows = _format_rows(np.vstack([fld.x, fld.values[list(first.values())]]))
    text = dict(zip(first, rows))
    with open(path, "wb") as fh:
        fh.write(b"t," + header)
        fh.writelines(b"%.17g," % t + text[key]
                      for t, key in zip(fld.times.tolist(), keys))


def read_field_csv(path) -> GridField:
    """Read a field written by write_field_csv; a header with no time rows,
    ragged rows, non-numbers, non-finite samples and a shape mismatch are a
    ConfigError."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[0] != "t":
            raise ConfigError(f"{path}: expected 't' as first header column")
        body = fh.read()
    if not body.strip():
        raise ConfigError(f"{path}: no time rows after the header")
    try:
        x = np.array([float(v) for v in header[1:]])
        rows = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
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

    spec = config.read_config(args.config, config.problem_from_config)
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

    spec = config.read_config(args.config, config.problem_from_config)
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
    from .barriers import BarrierInfeasible, verify_subsolution_margin

    fam = args.family
    build, samples = config.read_config(args.config, config.barrier_from_config, fam)
    try:
        bar = build()
    except BarrierInfeasible as exc:
        print(json.dumps({"family": fam, "infeasible": str(exc)}))
        return 1
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{fam} barrier: {exc}") from exc
    rep = verify_subsolution_margin(bar, samples=samples)
    print(json.dumps(asdict(rep), indent=2))
    return 0 if rep.passed else 1


def _cmd_envelope(args):
    path = getattr(args, "in")
    fld = read_field_csv(path)
    convolve = sup_convolve if args.kind == "sup" else inf_convolve
    try:
        conv = convolve(fld, args.r)
    except ValueError as exc:
        raise ConfigError(f"{path} with --r {args.r}: {exc}") from exc
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
    from .harness import make_comparison_pair
    from .solver import ORDER_TOL, run

    base = config.read_config(args.config, config.jump_scenario_from_config)
    try:
        lower, upper = make_comparison_pair(base, args.gap)
    except ValueError as exc:
        raise ConfigError(f"--gap {args.gap}: {exc}") from exc
    rl = run(lower.spec)
    ru = run(upper.spec)
    worst = float(np.min(ru.values - rl.values))
    ordered = worst >= -ORDER_TOL
    print(json.dumps({"gap": args.gap, "worst_order_gap": worst,
                      "ordered": ordered}))
    return 0 if ordered else 1


def _cmd_accept(args):
    from .harness import ALL_CRITERIA, run_acceptance

    # the report is written after the whole suite: check its path first
    out = args.out
    if out is not None and (not os.path.basename(out) or os.path.isdir(out)
                            or not os.path.isdir(os.path.dirname(out) or ".")):
        raise ConfigError(f"--out {out!r}: need a file name in an existing directory")
    criteria = None
    if args.criteria is not None:
        criteria = _int_list("--criteria", args.criteria)
        if not set(criteria) <= ALL_CRITERIA.keys() or len(set(criteria)) < len(criteria):
            raise ConfigError(f"--criteria {args.criteria}: criteria are "
                              f"{sorted(ALL_CRITERIA)}, each named once")
    code, _ = run_acceptance(criteria=criteria, out_path=args.out)
    return code


@functools.cache
def _parser():
    """The command-line parser, built on the first call and shared by every
    later one: parse_args leaves it as it was."""
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
                   choices=list(config.BARRIER_FAMILIES))
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
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
