"""Key-value experiment configs: sections in brackets, one pair per line.

Strings are quoted, numbers bare, booleans true/false; `#` starts a
comment outside quotes.  Floats must be finite, and a key with a range in
SCHEMAS must lie in it, so a bad value fails here, before any work.
Every key has a typed default, so a minimal config is just the values that
differ.
parse -> echo -> parse is exact because floats are echoed through repr.
"""

from __future__ import annotations

import math

from .errors import ConfigError

# the besov-audit [audits] ids, in the order "all" runs them
AUDIT_IDS = ("embedding", "interpolation", "algebra", "morse", "kato_ponce")

# evolve gives up with DivergedError after this many steps; load time
# rejects a config whose fixed step plans more
MAX_STEPS = 2_000_000
# the most quadrature nodes peakon-verify's residual ladder may put on its
# finest rung
MAX_NODES = 2**24

# [data] kinds a runner can build
DATA_KINDS = ("zero", "gaussian", "peakon", "random")


def _tokens(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def sweep_amplitudes(raw: str) -> list[float]:
    """Sorted amplitudes of a blowup-study [sweep] list; none when blank."""
    return sorted(float(tok) for tok in _tokens(raw))


def audit_ids(which: str) -> tuple[str, ...]:
    """The audits a besov-audit [audits] which names: "all" or a list, of
    which each distinct id counts once, in first-seen order."""
    return AUDIT_IDS if which == "all" else tuple(dict.fromkeys(_tokens(which)))


def _finite_amplitudes(raw: str) -> bool:
    try:
        return all(map(math.isfinite, sweep_amplitudes(raw)))
    except ValueError:
        return False


def _power_of_two(n: int) -> bool:
    return n >= 16 and n & (n - 1) == 0


def top_block(k_nyquist: float) -> int:
    """The top block j_max = floor(log2(k_Nyquist / 0.75)) of the dyadic
    partition of a grid whose Nyquist wavenumber is k_nyquist."""
    return math.floor(math.log2(k_nyquist / 0.75))


_J_MAX = "j_max = floor(log2(pi (n/2) / L / 0.75))"


def _nyquist(cfg: dict) -> float:
    """k_Nyquist = pi (n/2) / L, as `Grid1D.nyquist` computes it."""
    return math.pi * (cfg["grid"]["n"] // 2) / cfg["grid"]["L"]


def _grid_steps(L: float, cfg: dict) -> bool:
    """Grid1D's dx = 2L/n and its Nyquist wavenumber are positive and
    finite, both as `nyquist` gives it and as the last of its wavenumbers
    2 pi rfftfreq(n, dx), which rounds differently; an n outside its own
    range leaves only L > 0 to check here."""
    n = cfg["grid"]["n"]
    if L <= 0 or not _power_of_two(n):
        return L > 0
    dx = 2.0 * L / n
    return (
        0 < dx < math.inf
        and _nyquist(cfg) < math.inf
        and 2.0 * math.pi * (n // 2 * (1.0 / (n * dx))) < math.inf
    )


def _partition_n(n: int, cfg: dict) -> bool:
    """A dyadic partition needs k_Nyquist / 0.75 < 2^1023, for its scales
    2^j to be doubles, and a top block j_max >= 1.  That caps j_max at 1022,
    but where k_Nyquist / 0.75 is one of the last 354 doubles below 2^1023:
    their log2 rounds up to 1023."""
    if not _power_of_two(n):
        return False
    k_nyquist = _nyquist(cfg)
    return k_nyquist / 0.75 < 2.0**1023 and top_block(k_nyquist) >= 1


def _weights_finite(sigmas: tuple[float, ...], cfg: dict) -> bool:
    """A B^sigma norm squares the weight 2^(sigma j) of each dyadic block
    j = -1 .. j_max (`lpaley._besov_sum`); 2 |sigma| j_max < 1024 keeps
    every square a finite double."""
    j_max = top_block(_nyquist(cfg))
    return all(2.0 * abs(sigma) * j_max < 1024 for sigma in sigmas)


def _steps_ok(T: float, dt: float) -> bool:
    """A horizon T in steps of dt plans at most MAX_STEPS steps."""
    return T <= MAX_STEPS * dt


# the [grid] ranges: (test, demand)
_BOX = (
    _grid_steps,
    "> 0 with a positive, finite dx = 2L/n and k_Nyquist = pi (n/2) / L",
)
_POW2 = (lambda v, _: _power_of_two(v), "a power of two >= 16")
_DYADIC = (
    _partition_n,
    "a power of two >= 16 with 1.5 <= pi (n/2) / L < 0.75 * 2^1023",
)

# schema: kind -> section -> key -> (type tag, default), or (type tag,
# default, test(value, cfg), demand) for a key with a load-time range.
# Ranges are checked in schema order; a test that reads a later key must
# not raise on that key's bad values.  Seeds are >= 0: fields.SeededNormals
# would fold a negative seed onto its absolute value.
SCHEMAS: dict[str, dict[str, dict[str, tuple]]] = {
    "simulate": {
        "grid": {"L": ("float", 40.0, *_BOX), "n": ("int", 4096, *_POW2)},
        "run": {
            "T": ("float", 0.25, lambda v, _: v > 0, "> 0"),
            "cfl_sigma": ("float", 0.3, lambda v, _: 0 < v <= 1, "in (0, 1]"),
            "dt": (
                "float",
                0.0,
                lambda v, cfg: v == 0 or (v > 0 and _steps_ok(cfg["run"]["T"], v)),
                f"0 (the CFL policy) or > 0 with [run] T / dt <= {MAX_STEPS}",
            ),
            "monitor_every": ("int", 10, lambda v, _: v >= 1, ">= 1"),
            # a share of the band's H^1 density; at 1 the tail never stops a run
            "tail_threshold": ("float", 1e-3, lambda v, _: 0 < v <= 1, "in (0, 1]"),
        },
        "data": {
            "kind": (
                "str",
                "gaussian",
                lambda v, _: v in DATA_KINDS,
                f"one of {DATA_KINDS}",
            ),
            "amplitude": ("float", 1.0),
            "width": ("float", 1.0, lambda v, _: v > 0, "> 0"),
            "center": ("float", 0.0),
            "speed": (
                "float",
                1.0,
                lambda v, cfg: v > 0 or cfg["data"]["kind"] != "peakon",
                "> 0 when [data] kind is peakon",
            ),
            "decay": ("float", 2.0),
            "seed": ("int", 0, lambda v, _: v >= 0, ">= 0"),
        },
        "output": {"plot": ("bool", True)},
    },
    "peakon-verify": {
        "grid": {"L": ("float", 40.0, *_BOX), "n": ("int", 4096, *_POW2)},
        "wave": {"speed": ("float", 1.0, lambda v, _: v > 0, "> 0")},
        "run": {
            "T": ("float", 1.0, lambda v, _: v > 0, "> 0"),
            "cfl_sigma": ("float", 0.3, lambda v, _: 0 < v <= 1, "in (0, 1]"),
            "monitor_every": ("int", 10, lambda v, _: v >= 1, ">= 1"),
        },
        "residual": {
            # the test function's support [x0 - sigma, x0 + sigma] stays in the box
            "x0": (
                "float",
                0.5,
                lambda v, cfg: -cfg["grid"]["L"] <= v - cfg["residual"]["sigma"]
                and v + cfg["residual"]["sigma"] <= cfg["grid"]["L"],
                "at least [residual] sigma inside [-L, L]",
            ),
            # a collapsed support puts every quadrature node on x0
            "sigma": (
                "float",
                1.5,
                lambda v, cfg: (x0 := cfg["residual"]["x0"]) - v < x0 < x0 + v,
                "x0 - sigma < x0 < x0 + sigma (so > 0): the support must not collapse onto x0",
            ),
            "nx0": ("int", 32, lambda v, _: v >= 4, ">= 4 (quadrature cells)"),
            "nt0": ("int", 32, lambda v, _: v >= 4, ">= 4 (quadrature cells)"),
            # an order fit needs two levels, and the finest rung of the ladder
            # has nx0 nt0 4^(levels - 1) nodes
            "levels": (
                "int",
                4,
                lambda v, cfg: v >= 2
                and cfg["residual"]["nx0"] * cfg["residual"]["nt0"]
                <= math.ldexp(MAX_NODES, -2 * (v - 1)),
                f">= 2 with nx0 * nt0 * 4^(levels - 1) <= {MAX_NODES} (nodes on the finest rung)",
            ),
            "p0": ("float", 1.0),
            "p1": ("float", 0.5),
            "p2": ("float", -0.25),
            "p3": ("float", 0.0),
        },
        "output": {"plot": ("bool", True)},
    },
    "blowup-study": {
        "grid": {"L": ("float", 5.0, *_BOX), "n": ("int", 4096, *_POW2)},
        "run": {
            "T": ("float", 0.05, lambda v, _: v > 0, "> 0"),
            # small sigma buys dense monitoring near the singular time; the
            # tight tail cut stops the run before curvature ringing can leak
            # into the a-priori-bound checks
            "cfl_sigma": ("float", 0.05, lambda v, _: 0 < v <= 1, "in (0, 1]"),
            "monitor_every": ("int", 1, lambda v, _: v >= 1, ">= 1"),
            "tail_threshold": ("float", 1e-4, lambda v, _: 0 < v <= 1, "in (0, 1]"),
        },
        "data": {
            "amplitude": ("float", 0.5),
            "width": ("float", 0.025, lambda v, _: v > 0, "> 0"),
            "center": ("float", 0.0),
        },
        "estimate": {
            # rate_report fits its trend on at least three samples
            "window": ("int", 20, lambda v, _: v >= 3, ">= 3"),
            "ceiling_factor": ("float", 2.0),
        },
        "sweep": {
            "amplitudes": (
                "str",
                "",
                lambda v, _: _finite_amplitudes(v),
                "a comma-separated list of finite numbers",
            )
        },
        "output": {"plot": ("bool", True)},
    },
    "picard": {
        "grid": {"L": ("float", 20.0, *_BOX), "n": ("int", 1024, *_DYADIC)},
        "run": {
            "T": ("float", 0.25, lambda v, _: v > 0, "> 0"),
            # the verdict checks the contraction ratios from the third on
            "n_iter": ("int", 6, lambda v, _: v >= 4, ">= 4"),
            # the ladder's norms are in B^(s - 1)
            "s": (
                "float",
                1.5,
                lambda v, cfg: _weights_finite((v - 1.0,), cfg),
                f"a number with 2 |s - 1| j_max < 1024, {_J_MAX}",
            ),
            "n_slices": ("int", 17, lambda v, _: v >= 2, ">= 2"),
        },
        "data": {
            # picard's [data] has no speed to build a peakon from
            "kind": (
                "str",
                "gaussian",
                lambda v, _: v in DATA_KINDS and v != "peakon",
                "one of zero, gaussian, random",
            ),
            "amplitude": ("float", 0.2),
            "width": ("float", 1.0, lambda v, _: v > 0, "> 0"),
            "center": ("float", 0.0),
            "decay": ("float", 2.0),
            "seed": ("int", 0, lambda v, _: v >= 0, ">= 0"),
        },
        "output": {"plot": ("bool", True)},
    },
    "besov-audit": {
        "grid": {"L": ("float", 20.0, *_BOX), "n": ("int", 512, *_DYADIC)},
        "corpus": {
            "count": ("int", 100, lambda v, _: v >= 1, ">= 1"),
            "seed": ("int", 0, lambda v, _: v >= 0, ">= 0"),
            # below 2/n the band |k| <= frac * k_Nyquist holds no mode but k = 0
            "frac": (
                "float",
                0.33,
                lambda v, cfg: 2.0 / cfg["grid"]["n"] <= v <= 1,
                "in [2/n, 1] with n = [grid] n",
            ),
            "decay": ("float", 2.0),
        },
        "audits": {
            "which": (
                "str",
                "all",
                lambda v, _: bool(audit_ids(v)) and set(audit_ids(v)) <= set(AUDIT_IDS),
                f'"all" or a comma-separated list from {AUDIT_IDS}',
            )
        },
        "output": {"plot": ("bool", False)},
    },
    "transport-test": {
        "grid": {"L": ("float", math.pi, *_BOX), "n": ("int", 512, *_DYADIC)},
        "run": {
            "T": ("float", 1.0, lambda v, _: v > 0, "> 0"),
            "levels": ("int", 4, lambda v, _: v >= 2, ">= 2 (an order fit needs two)"),
            # dt0 keeps the whole ladder above the cubic-interpolation floor;
            # the finest rung of the ladder steps at dt0 / 2^(levels - 1)
            "dt0": (
                "float",
                0.5,
                lambda v, cfg: v > 0
                and _steps_ok(cfg["run"]["T"], math.ldexp(v, 1 - cfg["run"]["levels"])),
                f"> 0 with [run] T / dt0 * 2^(levels - 1) <= {MAX_STEPS}",
            ),
        },
        "audit": {
            # the audit takes frame norms in B^s and velocity norms in B^(s + 2)
            "s": (
                "float",
                0.5,
                lambda v, cfg: _weights_finite((v, v + 2.0), cfg),
                f"a number with 2 max(|s|, |s + 2|) j_max < 1024, {_J_MAX}",
            ),
            # the audit reruns at dt / 2 to check its constant
            "dt": (
                "float",
                0.01,
                lambda v, cfg: v > 0 and _steps_ok(cfg["run"]["T"], 0.5 * v),
                f"> 0 with 2 [run] T / dt <= {MAX_STEPS}",
            ),
            "seed": ("int", 0, lambda v, _: v >= 0, ">= 0"),
        },
        "output": {"plot": ("bool", True)},
    },
}

KINDS = tuple(SCHEMAS)


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
    cfg = {sec: {k: spec[1] for k, spec in keys.items()} for sec, keys in schema.items()}
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
        cfg[section][key] = _parse_value(val, schema[section][key][0], key, ln)
    check_ranges(cfg, kind)
    return cfg


def check_ranges(cfg: dict, kind: str) -> None:
    """Raise ConfigError on the first value of cfg outside its range."""
    for sec, keys in SCHEMAS[kind].items():
        for key, (_, _, *rule) in keys.items():
            if rule and not rule[0](cfg[sec][key], cfg):
                raise ConfigError(f"[{sec}] {key} must be {rule[1]}, got {cfg[sec][key]!r}")


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
        for key, (ty, *_) in keys.items():
            v = cfg[sec][key]
            if ty == "float" and isinstance(v, int):
                v = float(v)
            lines.append(f"{key} = {_fmt_value(v)}")
        lines.append("")
    return "\n".join(lines)


def load_config(path: str, kind: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), kind)
