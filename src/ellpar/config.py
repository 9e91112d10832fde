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

from .nonlinearity import BnFamily, BSpec, PsiSpec
from .operators import OperatorSpec
from .solver import Geometry, ProblemSpec, SpecError

__all__ = ["ConfigError", "parse_config", "load_config", "read_config",
           "problem_from_config", "operator_from_config", "barrier_from_config",
           "jump_scenario_from_config", "BARRIER_FAMILIES"]


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


def _float(cfg: dict, key: str, default: float) -> float:
    """Take the number value of key as a float; anything else is a
    ConfigError naming the key and the value."""
    v = cfg.pop(key, default)
    if type(v) not in (int, float):
        raise ConfigError(f"{key} = {v}: need a number")
    return float(v)


def _named(keys: dict) -> str:
    """`key = value` for each config key, a list's values joined by ", "."""
    return ", ".join(f"{k} = {', '.join(map(str, v)) if isinstance(v, tuple) else v}"
                     for k, v in keys.items())


def _floats(cfg: dict, key: str, default: tuple) -> tuple:
    """Take a scalar or comma-separated list of numbers as a tuple of
    floats; anything else is a ConfigError naming the key and the value."""
    v = cfg.pop(key, default)
    v = v if isinstance(v, tuple) else (v,)
    if any(type(c) not in (int, float) for c in v):
        raise ConfigError(f"{_named({key: v})}: need numbers")
    return tuple(float(c) for c in v)


def operator_from_config(cfg: dict) -> OperatorSpec:
    """Take the operator keys (op.*, and psi.* for a divergence operator)."""
    kind = cfg.pop("op.kind", "trace")
    if kind == "bellman-isaacs":
        raise ConfigError("op.bi.entries: inf-sup families are not expressible "
                          "in flat config files; construct OperatorSpec in code")
    psi = None
    if kind == "divergence":
        psi_kind, coeffs = cfg.pop("psi.kind", "constant"), _floats(cfg, "psi.coeffs", (1.0,))
        try:
            psi = PsiSpec(psi_kind, coeffs)
        except ValueError as exc:
            raise ConfigError(f"{_named({'psi.kind': psi_kind, 'psi.coeffs': coeffs})}: "
                              f"{exc}") from exc
    lam = _float(cfg, "op.lambda", 1.0)
    # in the order of OperatorSpec's fields
    keys = {"op.kind": kind, "op.lambda": lam, "op.Lambda": _float(cfg, "op.Lambda", lam),
            "op.delta1": _float(cfg, "op.delta1", 0.0),
            "op.delta0": _float(cfg, "op.delta0", 0.0), "op.n_dim": _int(cfg, "op.n_dim", 1)}
    try:
        return OperatorSpec(*keys.values(), psi=psi)
    except ValueError as exc:
        raise ConfigError(f"{_named(keys)}: {exc}") from exc


def _bspec_from_config(cfg: dict) -> BSpec:
    """Take b.kind, and b.breakpoints and b.slopes for a lipschitz-table b."""
    keys = {"b.kind": cfg.pop("b.kind", "positive-part")}
    if keys["b.kind"] == "lipschitz-table":
        keys["b.breakpoints"] = _floats(cfg, "b.breakpoints", (0.0,))
        keys["b.slopes"] = _floats(cfg, "b.slopes", (1.0,))
    try:
        return BSpec(*keys.values())
    except ValueError as exc:
        raise ConfigError(f"{_named(keys)}: {exc}") from exc


# the config key of each Geometry and ProblemSpec field a SpecError names
_SPEC_KEYS = {"kind": "geometry.kind", "lo": "grid.lo", "hi": "grid.hi", "grid": "grid.n",
              "T": "time.T", "dt": "time.dt", "bn.n": "b.n", "b.kind": "b.kind"}


def problem_from_config(cfg: dict) -> ProblemSpec:
    """Take the keys of one problem; u0.value only for u0.kind = constant.
    A spec that breaks a rule is a ConfigError naming the keys it read."""
    try:
        geom = Geometry(
            kind=cfg.pop("geometry.kind", "interval"),
            lo=_float(cfg, "grid.lo", -1.0),
            hi=_float(cfg, "grid.hi", 1.0),
        )
        op = operator_from_config(cfg)
        bspec = _bspec_from_config(cfg)
        bn = None
        if "b.n" in cfg:
            n = _int(cfg, "b.n", 1)
            try:
                bn = BnFamily(n)
            except ValueError as exc:
                raise ConfigError(f"b.n = {n}: {exc}") from exc

        u0_kind = cfg.pop("u0.kind", "jump")
        if u0_kind == "jump":
            from .harness import jump_initial
            u0 = jump_initial
        elif u0_kind == "constant":
            c = _float(cfg, "u0.value", -1.0)
            u0 = (lambda x: np.full_like(np.asarray(x, dtype=float), c))
        else:
            raise ConfigError(f"unknown u0.kind {u0_kind!r}")

        return ProblemSpec(
            geometry=geom, op=op, b=bspec, bn=bn,
            g_lo=_float(cfg, "g.lo", -1.0),
            g_hi=_float(cfg, "g.hi", -1.0),
            u0=u0,
            T=_float(cfg, "time.T", 1.0),
            grid=_int(cfg, "grid.n", 401),
            dt=_float(cfg, "time.dt", 2.5e-3),
        )
    except SpecError as exc:
        keys = ", ".join(f"{_SPEC_KEYS[k]} = {v}" for k, v in exc.fields.items())
        raise ConfigError(f"{keys}: {exc.rule}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


# verify-barrier family: the name of its builder in `barriers`, and its
# barrier.* keys with their defaults; a float default takes a number, and
# the radial sign a string
BARRIER_FAMILIES = {
    "radial": ("solve_radial_barrier", {"rho0": 1.0, "a_hat": 1.0, "b_hat": -0.5,
                                        "omega_hat": 0.0, "sign": "sub"}),
    "heatkernel": ("solve_heatkernel_barrier", {"d": 0.5, "delta": 0.1}),
    "logdiv": ("solve_logdiv_barrier", {"omega": 0.0, "rho0": 1.0, "M": 1.0}),
    "parabola": ("make_parabola_barrier", {}),
}


def barrier_from_config(cfg: dict, family: str):
    """Take the operator keys, barrier.samples and one family's barrier.*
    keys (and b.* for logdiv): the family's bound builder, and the samples.
    The builder is looked up in `barriers` at call time, so a wrapper set
    on the module sees the call."""
    from . import barriers

    name, defaults = BARRIER_FAMILIES[family]
    build = getattr(barriers, name)
    op = operator_from_config(cfg)
    samples = _int(cfg, "barrier.samples", 1000)
    if samples < 1:
        raise ConfigError(f"barrier.samples = {samples}: need an integer >= 1")
    try:
        kwargs = {k: _float(cfg, f"barrier.{k}", d) if type(d) is float
                  else str(cfg.pop(f"barrier.{k}", d)) for k, d in defaults.items()}
        args = (op, _bspec_from_config(cfg)) if family == "logdiv" else (op,)
    except ValueError as exc:
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
