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

from .errors import ConfigError

# the besov-audit [audits] ids, in the order "all" runs them
AUDIT_IDS = ("embedding", "interpolation", "algebra", "morse", "kato_ponce")

# the solver's right-hand-side forms, as [run] rhs_form names them
RHS_FORMS = ("spectral_form", "m_form", "u_form")
# evolve gives up with DivergedError after this many steps; load time
# rejects a config whose fixed step plans more
MAX_STEPS = 2_000_000
# the most quadrature nodes peakon-verify's residual ladder may put on its
# finest rung
MAX_NODES = 2**24

# schema: section -> key -> (type tag, default)
SCHEMAS: dict[str, dict[str, dict[str, tuple[str, object]]]] = {
    "simulate": {
        "grid": {"L": ("float", 40.0), "n": ("int", 4096)},
        "run": {
            "T": ("float", 0.25),
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
        "output": {"plot": ("bool", True)},
    },
    "peakon-verify": {
        "grid": {"L": ("float", 40.0), "n": ("int", 4096)},
        "wave": {"speed": ("float", 1.0)},
        "run": {
            "T": ("float", 1.0),
            "cfl_sigma": ("float", 0.3),
            "monitor_every": ("int", 10),
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
        },
        "output": {"plot": ("bool", True)},
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
        "output": {"plot": ("bool", True)},
    },
    "picard": {
        "grid": {"L": ("float", 20.0), "n": ("int", 1024)},
        "run": {
            "T": ("float", 0.25),
            "n_iter": ("int", 6),
            "s": ("float", 1.5),
            "n_slices": ("int", 17),
        },
        "data": {
            "kind": ("str", "gaussian"),
            "amplitude": ("float", 0.2),
            "width": ("float", 1.0),
            "center": ("float", 0.0),
            "decay": ("float", 2.0),
            "seed": ("int", 0),
        },
        "output": {"plot": ("bool", True)},
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
        "output": {"plot": ("bool", False)},
    },
    "transport-test": {
        "grid": {"L": ("float", 3.141592653589793), "n": ("int", 512)},
        # dt0 keeps the whole ladder above the cubic-interpolation floor
        "run": {"T": ("float", 1.0), "levels": ("int", 4), "dt0": ("float", 0.5)},
        "audit": {"s": ("float", 0.5), "dt": ("float", 0.01), "seed": ("int", 0)},
        "output": {"plot": ("bool", True)},
    },
}

KINDS = tuple(SCHEMAS)

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


def _power_of_two(n: int) -> bool:
    return n >= 16 and n & (n - 1) == 0


def _partition_n(n: int, cfg: dict) -> bool:
    """A dyadic partition needs j_max = floor(log2(k_Nyquist / 0.75)) >= 1,
    and <= 1023 for its scales 2^j to be doubles."""
    if not _power_of_two(n):
        return False
    k_nyquist = math.pi * (n // 2) / cfg["grid"]["L"]
    return k_nyquist >= 1.5 and k_nyquist / 0.75 < 2.0**1023


def _grid_steps(L: float, cfg: dict) -> bool:
    """Grid1D's dx = 2L/n and k_Nyquist = pi (n/2) / L are positive and
    finite; an n outside its own range leaves only L > 0 to check here."""
    n = cfg["grid"]["n"]
    if L <= 0 or not _power_of_two(n):
        return L > 0
    return 0 < 2.0 * L / n < math.inf and math.pi * (n // 2) / L < math.inf


_GRID = (
    (
        "grid",
        "L",
        _grid_steps,
        "> 0 with a positive, finite dx = 2L/n and k_Nyquist = pi (n/2) / L",
    ),
    ("grid", "n", lambda v, _: _power_of_two(v), "a power of two >= 16"),
)
_PARTITION_GRID = (
    _GRID[0],
    (
        "grid",
        "n",
        _partition_n,
        "a power of two >= 16 with 1.5 <= pi (n/2) / L < 0.75 * 2^1023",
    ),
)


def _weights_finite(sigmas: tuple[float, ...], cfg: dict) -> bool:
    """A B^sigma norm squares the weight 2^(sigma j) of each dyadic block
    j = -1 .. j_max (`lpaley._besov_sum`); 2 |sigma| j_max < 1024 keeps
    every square a finite double.  j_max is the grid's top block, as
    `lpaley.build_partition` counts it, and is >= 1 on any grid that loads."""
    L, n = cfg["grid"]["L"], cfg["grid"]["n"]
    j_max = math.floor(math.log2(math.pi * (n // 2) / L / 0.75))
    return all(2.0 * abs(sigma) * j_max < 1024 for sigma in sigmas)


_J_MAX = "j_max = floor(log2(pi (n/2) / L / 0.75))"


def _steps_ok(T: float, dt: float) -> bool:
    """A horizon T in steps of dt plans at most MAX_STEPS steps."""
    return T <= MAX_STEPS * dt


_T = ("run", "T", lambda v, _: v > 0, "> 0")
_WIDTH = ("data", "width", lambda v, _: v > 0, "> 0")


def _seed(sec: str) -> tuple:
    """The [sec] seed range: numpy's default_rng takes seeds >= 0."""
    return (sec, "seed", lambda v, _: v >= 0, ">= 0")


_EVOLVE = _GRID + (
    _T,
    ("run", "cfl_sigma", lambda v, _: 0 < v <= 1, "in (0, 1]"),
    ("run", "monitor_every", lambda v, _: v >= 1, ">= 1"),
)

# load-time ranges: kind -> (section, key, test(value, cfg), what it demands)
RANGES: dict[str, tuple[tuple[str, str, object, str], ...]] = {
    "simulate": _EVOLVE
    + (
        (
            "run",
            "dt",
            lambda v, cfg: v == 0 or (v > 0 and _steps_ok(cfg["run"]["T"], v)),
            f"0 (the CFL policy) or > 0 with [run] T / dt <= {MAX_STEPS}",
        ),
        ("run", "rhs_form", lambda v, _: v in RHS_FORMS, f"one of {RHS_FORMS}"),
        ("data", "kind", lambda v, _: v in DATA_KINDS, f"one of {DATA_KINDS}"),
        _WIDTH,
        _seed("data"),
    ),
    "peakon-verify": _EVOLVE
    + (
        ("wave", "speed", lambda v, _: v > 0, "> 0"),
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
        # an order fit needs two levels, and the finest rung of the ladder
        # has nx0 nt0 4^(levels - 1) nodes
        (
            "residual",
            "levels",
            lambda v, cfg: v >= 2
            and cfg["residual"]["nx0"] * cfg["residual"]["nt0"]
            <= math.ldexp(MAX_NODES, -2 * (v - 1)),
            f">= 2 with nx0 * nt0 * 4^(levels - 1) <= {MAX_NODES} (nodes on the finest rung)",
        ),
    ),
    "blowup-study": _EVOLVE
    + (
        _WIDTH,
        # rate_report fits its trend on at least three samples
        ("estimate", "window", lambda v, _: v >= 3, ">= 3"),
        (
            "sweep",
            "amplitudes",
            lambda v, _: _finite_amplitudes(v),
            "a comma-separated list of finite numbers",
        ),
    ),
    "picard": _PARTITION_GRID
    + (
        _T,
        # the verdict checks the contraction ratios from the third on
        ("run", "n_iter", lambda v, _: v >= 4, ">= 4"),
        ("run", "n_slices", lambda v, _: v >= 2, ">= 2"),
        # the ladder's norms are in B^(s - 1)
        (
            "run",
            "s",
            lambda v, cfg: _weights_finite((v - 1.0,), cfg),
            f"a number with 2 |s - 1| j_max < 1024, {_J_MAX}",
        ),
        # picard's [data] has no speed to build a peakon from
        (
            "data",
            "kind",
            lambda v, _: v in DATA_KINDS and v != "peakon",
            "one of zero, gaussian, random",
        ),
        _WIDTH,
        _seed("data"),
    ),
    "besov-audit": _PARTITION_GRID
    + (
        ("corpus", "count", lambda v, _: v >= 1, ">= 1"),
        _seed("corpus"),
        # below 2/n the band |k| <= frac * k_Nyquist holds no mode but k = 0
        (
            "corpus",
            "frac",
            lambda v, cfg: 2.0 / cfg["grid"]["n"] <= v <= 1,
            "in [2/n, 1] with n = [grid] n",
        ),
        (
            "audits",
            "which",
            lambda v, _: bool(audit_ids(v)) and set(audit_ids(v)) <= set(AUDIT_IDS),
            f'"all" or a comma-separated list from {AUDIT_IDS}',
        ),
    ),
    "transport-test": _PARTITION_GRID
    + (
        _T,
        ("run", "levels", lambda v, _: v >= 2, ">= 2 (an order fit needs two)"),
        # the finest rung of the ladder steps at dt0 / 2^(levels - 1)
        (
            "run",
            "dt0",
            lambda v, cfg: v > 0
            and _steps_ok(cfg["run"]["T"], math.ldexp(v, 1 - cfg["run"]["levels"])),
            f"> 0 with [run] T / dt0 * 2^(levels - 1) <= {MAX_STEPS}",
        ),
        # the audit reruns at dt / 2 to check its constant
        (
            "audit",
            "dt",
            lambda v, cfg: v > 0 and _steps_ok(cfg["run"]["T"], 0.5 * v),
            f"> 0 with 2 [run] T / dt <= {MAX_STEPS}",
        ),
        # the audit takes frame norms in B^s and velocity norms in B^(s + 2)
        (
            "audit",
            "s",
            lambda v, cfg: _weights_finite((v, v + 2.0), cfg),
            f"a number with 2 max(|s|, |s + 2|) j_max < 1024, {_J_MAX}",
        ),
        _seed("audit"),
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
    check_ranges(cfg, kind)
    return cfg


def check_ranges(cfg: dict, kind: str) -> None:
    """Raise ConfigError on the first value of cfg outside its RANGES entry."""
    for sec, key, ok, need in RANGES[kind]:
        if not ok(cfg[sec][key], cfg):
            raise ConfigError(f"[{sec}] {key} must be {need}, got {cfg[sec][key]!r}")


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
