"""Key-value experiment configs: sections in brackets, one pair per line.

Strings are quoted, numbers bare, booleans true/false; `#` starts a
comment outside quotes.  Floats must be finite, and the values in RANGES
must lie in their ranges, so a bad value fails here, before any work.
Every key has a typed default, so a minimal config is just the values that
differ.
parse -> echo -> parse is exact because floats are echoed through repr.
"""

from __future__ import annotations

import math

from .dynamics import RHS_FORMS
from .errors import ConfigError
from .lpaley import AUDIT_IDS

KINDS = (
    "simulate",
    "peakon-verify",
    "blowup-study",
    "picard",
    "besov-audit",
    "transport-test",
)

# schema: section -> key -> (type tag, default)
SCHEMAS: dict[str, dict[str, dict[str, tuple[str, object]]]] = {
    "simulate": {
        "grid": {"L": ("float", 40.0), "n": ("int", 4096)},
        "run": {
            "T": ("float", 1.0),
            "rhs_form": ("str", "spectral_form"),
            "cfl_sigma": ("float", 0.3),
            "dt": ("float", 0.0),
            "monitor_every": ("int", 10),
            "tail_threshold": ("float", 1e-3),
        },
        "data": {
            "kind": ("str", "gaussian"),
            "amplitude": ("float", 1.0),
            "width": ("float", 1.0),
            "center": ("float", 0.0),
            "speed": ("float", 1.0),
            "decay": ("float", 2.0),
            "seed": ("int", 0),
        },
        "output": {"plot": ("bool", True), "timestamp": ("bool", False)},
    },
    "peakon-verify": {
        "grid": {"L": ("float", 40.0), "n": ("int", 4096)},
        "wave": {"speed": ("float", 1.0)},
        "run": {
            "T": ("float", 1.0),
            "cfl_sigma": ("float", 0.3),
            "monitor_every": ("int", 10),
            "rel_tol": ("float", 1e-2),
        },
        "residual": {
            "x0": ("float", 0.5),
            "sigma": ("float", 1.5),
            "nx0": ("int", 32),
            "nt0": ("int", 32),
            "levels": ("int", 4),
            "crest_split": ("bool", True),
            "p0": ("float", 1.0),
            "p1": ("float", 0.5),
            "p2": ("float", -0.25),
            "p3": ("float", 0.0),
            "tol": ("float", 1e-4),
            "order_min": ("float", 1.5),
        },
        "output": {"plot": ("bool", True), "timestamp": ("bool", False)},
    },
    "blowup-study": {
        "grid": {"L": ("float", 5.0), "n": ("int", 4096)},
        "run": {
            "T": ("float", 0.05),
            # small sigma buys dense monitoring near the singular time; the
            # tight tail cut stops the run before curvature ringing can leak
            # into the a-priori-bound checks
            "cfl_sigma": ("float", 0.05),
            "monitor_every": ("int", 1),
            "tail_threshold": ("float", 1e-4),
        },
        "data": {
            "amplitude": ("float", 0.5),
            "width": ("float", 0.025),
            "center": ("float", 0.0),
        },
        "estimate": {
            "window": ("int", 20),
            "ceiling_factor": ("float", 2.0),
        },
        "sweep": {"amplitudes": ("str", "")},
        "output": {"plot": ("bool", True), "timestamp": ("bool", False)},
    },
    "picard": {
        "grid": {"L": ("float", 20.0), "n": ("int", 1024)},
        "run": {
            "T": ("float", 0.25),
            "n_iter": ("int", 6),
            "s": ("float", 1.5),
            "n_slices": ("int", 17),
            "dt": ("float", 0.0),
        },
        "data": {
            "kind": ("str", "gaussian"),
            "amplitude": ("float", 0.2),
            "width": ("float", 1.0),
            "center": ("float", 0.0),
            "decay": ("float", 2.0),
            "seed": ("int", 0),
        },
        "check": {
            "ratio_max": ("float", 0.75),
            "ratio_from": ("int", 3),
            "direct_tol": ("float", 1e-4),
        },
        "output": {"plot": ("bool", True), "timestamp": ("bool", False)},
    },
    "besov-audit": {
        "grid": {"L": ("float", 20.0), "n": ("int", 512)},
        "corpus": {
            "count": ("int", 100),
            "seed": ("int", 0),
            "frac": ("float", 0.33),
            "decay": ("float", 2.0),
        },
        "audits": {"which": ("str", "all")},
        "output": {"plot": ("bool", False), "timestamp": ("bool", False)},
    },
    "transport-test": {
        "grid": {"L": ("float", 3.141592653589793), "n": ("int", 512)},
        # dt0 keeps the whole ladder above the cubic-interpolation floor
        "run": {"T": ("float", 1.0), "levels": ("int", 4), "dt0": ("float", 0.5)},
        "check": {"order_min": ("float", 3.0), "exact_tol": ("float", 1e-8)},
        "audit": {"s": ("float", 0.5), "dt": ("float", 0.01), "seed": ("int", 0)},
        "output": {"plot": ("bool", True), "timestamp": ("bool", False)},
    },
}


# [data] kinds a runner can build
DATA_KINDS = ("zero", "gaussian", "peakon", "random")


def _tokens(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def sweep_amplitudes(raw: str) -> list[float]:
    """Sorted amplitudes of a blowup-study [sweep] list; none when blank."""
    return sorted(float(tok) for tok in _tokens(raw))


def audit_ids(which: str) -> tuple[str, ...]:
    """The audits a besov-audit [audits] which names: "all" or a list."""
    return AUDIT_IDS if which == "all" else tuple(_tokens(which))


def _finite_amplitudes(raw: str) -> bool:
    try:
        return all(map(math.isfinite, sweep_amplitudes(raw)))
    except ValueError:
        return False


_GRID = (
    ("grid", "L", lambda v, _: v > 0, "> 0"),
    ("grid", "n", lambda v, _: v >= 16 and v & (v - 1) == 0, "a power of two >= 16"),
)
_T = ("run", "T", lambda v, _: v > 0, "> 0")
_DT = ("run", "dt", lambda v, _: v >= 0, ">= 0 (0 picks the default step)")
_WIDTH = ("data", "width", lambda v, _: v > 0, "> 0")
_EVOLVE = _GRID + (
    _T,
    ("run", "cfl_sigma", lambda v, _: 0 < v <= 1, "in (0, 1]"),
    ("run", "monitor_every", lambda v, _: v >= 1, ">= 1"),
)

# load-time ranges: kind -> (section, key, test(value, cfg), what it demands)
RANGES: dict[str, tuple[tuple[str, str, object, str], ...]] = {
    "simulate": _EVOLVE
    + (
        _DT,
        ("run", "rhs_form", lambda v, _: v in RHS_FORMS, f"one of {RHS_FORMS}"),
        ("data", "kind", lambda v, _: v in DATA_KINDS, f"one of {DATA_KINDS}"),
        _WIDTH,
    ),
    "peakon-verify": _EVOLVE
    + (
        ("wave", "speed", lambda v, _: v > 0, "> 0"),
        ("residual", "levels", lambda v, _: v >= 2, ">= 2 (an order fit needs two)"),
        ("residual", "sigma", lambda v, _: v > 0, "> 0"),
        # the test function's support [x0 - sigma, x0 + sigma] stays in the box
        (
            "residual",
            "x0",
            lambda v, cfg: -cfg["grid"]["L"] <= v - cfg["residual"]["sigma"]
            and v + cfg["residual"]["sigma"] <= cfg["grid"]["L"],
            "at least [residual] sigma inside [-L, L]",
        ),
        ("residual", "nx0", lambda v, _: v >= 4, ">= 4 (quadrature cells)"),
        ("residual", "nt0", lambda v, _: v >= 4, ">= 4 (quadrature cells)"),
    ),
    "blowup-study": _EVOLVE
    + (
        _WIDTH,
        (
            "sweep",
            "amplitudes",
            lambda v, _: _finite_amplitudes(v),
            "a comma-separated list of finite numbers",
        ),
    ),
    "picard": _GRID
    + (
        _T,
        ("run", "n_iter", lambda v, _: v >= 2, ">= 2"),
        ("run", "n_slices", lambda v, _: v >= 2, ">= 2"),
        _DT,
        # ratios run 1 .. n_iter - 1; a later start would check none of them
        (
            "check",
            "ratio_from",
            lambda v, cfg: 1 <= v <= cfg["run"]["n_iter"] - 1,
            "between 1 and [run] n_iter - 1",
        ),
        # picard's [data] has no speed to build a peakon from
        (
            "data",
            "kind",
            lambda v, _: v in DATA_KINDS and v != "peakon",
            "one of zero, gaussian, random",
        ),
        _WIDTH,
    ),
    "besov-audit": _GRID
    + (
        ("corpus", "count", lambda v, _: v >= 1, ">= 1"),
        ("corpus", "frac", lambda v, _: 0 < v <= 1, "in (0, 1]"),
        (
            "audits",
            "which",
            lambda v, _: bool(audit_ids(v)) and set(audit_ids(v)) <= set(AUDIT_IDS),
            f'"all" or a comma-separated list from {AUDIT_IDS}',
        ),
    ),
    "transport-test": _GRID
    + (
        _T,
        ("run", "levels", lambda v, _: v >= 2, ">= 2 (an order fit needs two)"),
        ("run", "dt0", lambda v, _: v > 0, "> 0"),
        ("audit", "dt", lambda v, _: v > 0, "> 0"),
    ),
}


def _strip_comment(line: str) -> str:
    out = []
    in_str = False
    for ch in line:
        if ch == '"':
            in_str = not in_str
        elif ch == "#" and not in_str:
            break
        out.append(ch)
    return "".join(out)


def _parse_value(raw: str, ty: str, key: str, ln: int):
    raw = raw.strip()
    where = f"line {ln}: key '{key}'"
    if ty == "str":
        if len(raw) < 2 or raw[0] != '"' or raw[-1] != '"':
            raise ConfigError(f"{where} expects a quoted string, got {raw!r}")
        inner = raw[1:-1]
        if '"' in inner:
            raise ConfigError(f"{where}: embedded quotes are not supported")
        return inner
    if ty == "bool":
        if raw == "true":
            return True
        if raw == "false":
            return False
        raise ConfigError(f"{where} expects true or false, got {raw!r}")
    if ty == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{where} expects an integer, got {raw!r}") from None
    if ty == "float":
        try:
            v = float(raw)
        except ValueError:
            raise ConfigError(f"{where} expects a number, got {raw!r}") from None
        if not math.isfinite(v):
            raise ConfigError(f"{where} expects a finite number, got {raw!r}")
        return v
    raise ConfigError(f"internal: unknown type tag {ty!r}")


def parse_config(text: str, kind: str) -> dict:
    """Parse one config document against the schema for `kind`."""
    if kind not in SCHEMAS:
        raise ConfigError(f"unknown experiment kind {kind!r}; choose from {KINDS}")
    schema = SCHEMAS[kind]
    cfg = {sec: {k: d for k, (_, d) in keys.items()} for sec, keys in schema.items()}
    section = None
    seen: dict[tuple[str, str], int] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {ln}: unterminated section header {raw!r}")
            name = line[1:-1].strip()
            if name not in schema:
                raise ConfigError(
                    f"line {ln}: unknown section [{name}] for kind {kind!r}; "
                    f"known: {sorted(schema)}"
                )
            section = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"line {ln}: key outside any [section]")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in schema[section]:
            raise ConfigError(
                f"line {ln}: unknown key '{key}' in [{section}]; "
                f"known: {sorted(schema[section])}"
            )
        if (section, key) in seen:
            raise ConfigError(
                f"line {ln}: key '{key}' in [{section}] repeats line {seen[section, key]}"
            )
        seen[section, key] = ln
        ty, _ = schema[section][key]
        cfg[section][key] = _parse_value(val, ty, key, ln)
    for sec, key, ok, need in RANGES.get(kind, ()):
        if not ok(cfg[sec][key], cfg):
            raise ConfigError(f"[{sec}] {key} must be {need}, got {cfg[sec][key]!r}")
    return cfg


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return f'"{v}"'
    if isinstance(v, float):
        return repr(v)
    return str(v)


def canonical_echo(cfg: dict, kind: str) -> str:
    """Deterministic text form in schema order; parses back to cfg."""
    schema = SCHEMAS[kind]
    lines = [f"# kind = {kind}"]
    for sec, keys in schema.items():
        lines.append(f"[{sec}]")
        for key, (ty, _) in keys.items():
            v = cfg[sec][key]
            if ty == "float" and isinstance(v, int):
                v = float(v)
            lines.append(f"{key} = {_fmt_value(v)}")
        lines.append("")
    return "\n".join(lines)


def load_config(path: str, kind: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), kind)


def default_config(kind: str) -> dict:
    return parse_config("", kind)
