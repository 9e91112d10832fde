"""Flat `key = value` configuration files with dotted section keys.

Example::

    # jump scenario, trace operator
    op.kind = trace
    op.lambda = 1.0
    b.kind = positive-part
    b.n = 32
    grid.n = 401
    time.T = 1.0

Values are parsed leniently: ints, floats, comma-separated lists, and bare
strings; a number must be finite, and an integer key takes an int only.
Each key is named once, by the reader that pops it from the dict, and
`read_config` rejects every key its reader leaves, so a misspelt key, or one
the command does not read, is an error rather than a silent default.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P

from .nonlinearity import BnFamily, BSpec, PsiSpec
from .operators import OperatorSpec
from .solver import Geometry, ProblemSpec

__all__ = ["ConfigError", "parse_config", "load_config", "read_config",
           "problem_from_config", "operator_from_config", "barrier_from_config",
           "jump_scenario_from_config"]


class ConfigError(ValueError):
    """Malformed configuration; the CLI maps this to exit code 2."""


def _coerce(raw: str):
    raw = raw.strip()
    if "," in raw:
        return tuple(_coerce(part) for part in raw.split(","))
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    return raw


def parse_config(text: str) -> dict:
    """The {key: value} pairs of a config text, values coerced; a
    non-finite number is a ConfigError naming its key and line."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        value = _coerce(raw)
        if any(isinstance(v, float) and not np.isfinite(v)
               for v in (value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"line {lineno}: {key} = {raw.strip()}: need a finite number")
        values[key] = value
    return values


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def read_config(path, reader, *args):
    """reader(cfg, *args) for the config at path (an empty one for None); a
    ConfigError names each key it leaves, as one the command does not read."""
    cfg = load_config(path) if path is not None else {}
    value = reader(cfg, *args)
    if cfg:
        raise ConfigError(f"{path}: keys the command does not read: {', '.join(sorted(cfg))}")
    return value


def _int(cfg: dict, key: str, default: int) -> int:
    """Take the integer value of key; anything else is a ConfigError naming
    the key and the value, so that 1.5 is not truncated to 1."""
    v = cfg.pop(key, default)
    if type(v) is not int:
        raise ConfigError(f"{key} = {v}: need an integer")
    return v


def _floats(cfg: dict, key: str, default: tuple) -> tuple:
    """Take a scalar or comma-separated value as a tuple of floats."""
    v = cfg.pop(key, default)
    return tuple(float(c) for c in (v if isinstance(v, tuple) else (v,)))


def _positive_on_half_line(coeffs) -> bool:
    """Whether the polynomial with these increasing-degree coefficients is
    positive on [0, inf): its constant and leading coefficients are positive
    and it has no real root >= 0.  A root within 1e-6 (relative) of the real
    axis counts as real, so a double root, which the eigenvalue solver may
    return as a close conjugate pair, is one."""
    roots = P.polyroots(coeffs)
    real = roots.real[np.abs(roots.imag) <= 1e-6 * (1.0 + np.abs(roots))]
    return coeffs[0] > 0 and coeffs[-1] > 0 and not np.any(real >= 0)


def operator_from_config(cfg: dict) -> OperatorSpec:
    """Take the operator keys (op.*, and psi.* for a divergence operator)."""
    kind = cfg.pop("op.kind", "trace")
    if kind == "bellman-isaacs":
        raise ConfigError("op.bi.entries: inf-sup families are not expressible "
                          "in flat config files; construct OperatorSpec in code")
    try:
        psi = (PsiSpec(cfg.pop("psi.kind", "constant"), _floats(cfg, "psi.coeffs", (1.0,)))
               if kind == "divergence" else None)
        if psi is not None and not _positive_on_half_line(psi.coeffs):
            raise ConfigError(f"psi.coeffs = {', '.join(map(str, psi.coeffs))}: "
                              f"Psi must be positive on [0, inf)")
        lam = cfg.pop("op.lambda", 1.0)
        return OperatorSpec(
            kind=kind,
            lam=float(lam),
            Lam=float(cfg.pop("op.Lambda", lam)),
            delta1=float(cfg.pop("op.delta1", 0.0)),
            delta0=float(cfg.pop("op.delta0", 0.0)),
            n_dim=_int(cfg, "op.n_dim", 1),
            psi=psi,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _bspec_from_config(cfg: dict) -> BSpec:
    """Take b.kind, and b.breakpoints and b.slopes for a lipschitz-table b."""
    kind = cfg.pop("b.kind", "positive-part")
    if kind == "lipschitz-table":
        return BSpec(kind, _floats(cfg, "b.breakpoints", (0.0,)),
                     _floats(cfg, "b.slopes", (1.0,)))
    return BSpec(kind)


def problem_from_config(cfg: dict) -> ProblemSpec:
    """Take the keys of one problem; u0.value only for u0.kind = constant."""
    try:
        geom = Geometry(
            kind=cfg.pop("geometry.kind", "interval"),
            lo=float(cfg.pop("grid.lo", -1.0)),
            hi=float(cfg.pop("grid.hi", 1.0)),
        )
        op = operator_from_config(cfg)
        bspec = _bspec_from_config(cfg)
        bn = BnFamily(_int(cfg, "b.n", 1)) if "b.n" in cfg else None

        u0_kind = cfg.pop("u0.kind", "jump")
        if u0_kind == "jump":
            from .harness import jump_initial
            u0 = jump_initial
        elif u0_kind == "constant":
            c = float(cfg.pop("u0.value", -1.0))
            u0 = (lambda x: np.full_like(np.asarray(x, dtype=float), c))
        else:
            raise ConfigError(f"unknown u0.kind {u0_kind!r}")

        return ProblemSpec(
            geometry=geom, op=op, b=bspec, bn=bn,
            g_lo=float(cfg.pop("g.lo", -1.0)),
            g_hi=float(cfg.pop("g.hi", -1.0)),
            u0=u0,
            T=float(cfg.pop("time.T", 1.0)),
            grid=_int(cfg, "grid.n", 401),
            dt=float(cfg.pop("time.dt", 2.5e-3)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def barrier_from_config(cfg: dict, family: str):
    """Take the operator keys, barrier.samples and one family's barrier.*
    keys (and b.* for logdiv): the family's bound builder, and the samples."""
    from . import barriers

    # family: builder, and its barrier.* keys with their defaults, whose
    # types the values are cast to
    build, defaults = {
        "radial": (barriers.solve_radial_barrier, {"rho0": 1.0, "a_hat": 1.0, "b_hat": -0.5,
                                                   "omega_hat": 0.0, "sign": "sub"}),
        "heatkernel": (barriers.solve_heatkernel_barrier, {"d": 0.5, "delta": 0.1}),
        "logdiv": (barriers.solve_logdiv_barrier, {"omega": 0.0, "rho0": 1.0, "M": 1.0}),
        "parabola": (barriers.make_parabola_barrier, {}),
    }[family]
    op = operator_from_config(cfg)
    samples = _int(cfg, "barrier.samples", 1000)
    if samples < 1:
        raise ConfigError(f"barrier.samples = {samples}: need an integer >= 1")
    try:
        kwargs = {k: type(d)(cfg.pop(f"barrier.{k}", d)) for k, d in defaults.items()}
        args = (op, _bspec_from_config(cfg)) if family == "logdiv" else (op,)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{family} barrier: {exc}") from exc
    return lambda: build(*args, **kwargs), samples


def jump_scenario_from_config(cfg: dict):
    """Take grid.n and b.n, the keys of the jump scenario `ellpar compare` runs."""
    from .harness import make_jump_scenario

    grid, n = _int(cfg, "grid.n", 401), _int(cfg, "b.n", 32)
    try:
        return make_jump_scenario(grid=grid, n=n)
    except ValueError as exc:
        raise ConfigError(f"grid.n = {grid}, b.n = {n}: {exc}") from exc
