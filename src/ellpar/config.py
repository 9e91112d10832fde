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
`load_config` rejects a key that its caller does not read (by default, that
no subcommand reads), so a misspelt key is an error rather than a silent
default.
"""

from __future__ import annotations

import numpy as np

from .nonlinearity import BnFamily, BSpec, PsiSpec
from .operators import OperatorSpec
from .solver import Geometry, ProblemSpec

__all__ = ["ConfigError", "parse_config", "load_config",
           "problem_from_config", "operator_from_config"]


class ConfigError(ValueError):
    """Malformed configuration; the CLI maps this to exit code 2."""


# every key that some subcommand reads
KNOWN_KEYS = frozenset("""
    op.kind op.lambda op.Lambda op.delta1 op.delta0 op.n_dim psi.kind psi.coeffs
    b.kind b.n b.breakpoints b.slopes geometry.kind grid.lo grid.hi grid.n g.lo g.hi
    u0.kind u0.value time.T time.dt barrier.rho0 barrier.a_hat barrier.b_hat
    barrier.omega_hat barrier.sign barrier.d barrier.delta barrier.omega barrier.M
    barrier.samples""".split())


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


def load_config(path, keys=KNOWN_KEYS) -> dict:
    try:
        with open(path) as fh:
            cfg = parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    unknown = sorted(set(cfg) - keys)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {', '.join(unknown)}")
    return cfg


def _int(cfg: dict, key: str, default: int) -> int:
    """The integer value of key; anything else is a ConfigError naming the
    key and the value, so that 1.5 is not truncated to 1."""
    v = cfg.get(key, default)
    if type(v) is not int:
        raise ConfigError(f"{key} = {v}: need an integer")
    return v


def _floats(cfg: dict, key: str, default: tuple) -> tuple:
    """A scalar or comma-separated value as a tuple of floats."""
    v = cfg.get(key, default)
    return tuple(float(c) for c in (v if isinstance(v, tuple) else (v,)))


def operator_from_config(cfg: dict) -> OperatorSpec:
    """The operator of a config, and the one reader of the psi.* keys."""
    kind = cfg.get("op.kind", "trace")
    if kind == "bellman-isaacs":
        raise ConfigError("op.bi.entries: inf-sup families are not expressible "
                          "in flat config files; construct OperatorSpec in code")
    try:
        psi = (PsiSpec(cfg.get("psi.kind", "constant"), _floats(cfg, "psi.coeffs", (1.0,)))
               if kind == "divergence" else None)
        return OperatorSpec(
            kind=kind,
            lam=float(cfg.get("op.lambda", 1.0)),
            Lam=float(cfg.get("op.Lambda", cfg.get("op.lambda", 1.0))),
            delta1=float(cfg.get("op.delta1", 0.0)),
            delta0=float(cfg.get("op.delta0", 0.0)),
            n_dim=_int(cfg, "op.n_dim", 1),
            psi=psi,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _bspec_from_config(cfg: dict) -> BSpec:
    kind = cfg.get("b.kind", "positive-part")
    if kind == "lipschitz-table":
        return BSpec(kind, _floats(cfg, "b.breakpoints", (0.0,)),
                     _floats(cfg, "b.slopes", (1.0,)))
    return BSpec(kind)


def problem_from_config(cfg: dict) -> ProblemSpec:
    try:
        geom = Geometry(
            kind=cfg.get("geometry.kind", "interval"),
            lo=float(cfg.get("grid.lo", -1.0)),
            hi=float(cfg.get("grid.hi", 1.0)),
        )
        op = operator_from_config(cfg)
        bspec = _bspec_from_config(cfg)
        bn = BnFamily(_int(cfg, "b.n", 1)) if "b.n" in cfg else None

        u0_kind = cfg.get("u0.kind", "jump")
        if u0_kind == "jump":
            from .harness import jump_initial
            u0 = jump_initial
        elif u0_kind == "constant":
            c = float(cfg.get("u0.value", -1.0))
            u0 = (lambda x: np.full_like(np.asarray(x, dtype=float), c))
        else:
            raise ConfigError(f"unknown u0.kind {u0_kind!r}")

        return ProblemSpec(
            geometry=geom, op=op, b=bspec, bn=bn,
            g_lo=float(cfg.get("g.lo", -1.0)),
            g_hi=float(cfg.get("g.hi", -1.0)),
            u0=u0,
            T=float(cfg.get("time.T", 1.0)),
            grid=_int(cfg, "grid.n", 401),
            dt=float(cfg.get("time.dt", 2.5e-3)),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
