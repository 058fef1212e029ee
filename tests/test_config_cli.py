"""Config grammar, canonical echo, CLI exit codes, artifact determinism."""

import contextlib
import io
import json
import math
import multiprocessing
import os
import struct
import subprocess
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gchlab
from gchlab import config, experiments
from gchlab.cli import main
from gchlab.config import (
    KINDS,
    SCHEMAS,
    canonical_echo,
    parse_config,
)
from gchlab.errors import ConfigError, EstimationError
from gchlab.fields import Grid1D
from gchlab.transport import picard_run

SIM_SMOKE = """
[grid]
n = 512
[run]
T = 0.2
[data]
amplitude = 0.5
width = 2.0
"""

BLOWUP_SMOKE = """
[grid]
L = 10.0
n = 512
[run]
T = 0.02
[data]
amplitude = 0.05
width = 0.2
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_artifacts(outdir, names=("report.json", "series.csv", "echo.cfg")):
    out = {}
    for n in names:
        with open(os.path.join(outdir, n), "rb") as fh:
            out[n] = fh.read()
    return out


class TestGrammar:
    def test_empty_config_gives_defaults(self):
        cfg = parse_config("", "simulate")
        assert cfg["grid"]["L"] == 40.0
        assert cfg["grid"]["n"] == 4096
        assert cfg["run"]["cfl_sigma"] == 0.3
        assert cfg["data"]["kind"] == "gaussian"

    def test_partial_override_keeps_other_defaults(self):
        cfg = parse_config("[grid]\nn = 256\n", "simulate")
        assert cfg["grid"]["n"] == 256
        assert cfg["grid"]["L"] == 40.0

    def test_comments_and_quoting(self):
        cfg = parse_config(
            '[data]\nkind = "random"  # trailing comment\n# full-line comment\n',
            "simulate",
        )
        assert cfg["data"]["kind"] == "random"

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown experiment kind"):
            parse_config("", "fourier-party")

    def test_unknown_section_names_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("\n[nope]\n", "simulate")

    def test_unknown_key_names_line_and_candidates(self):
        with pytest.raises(ConfigError, match="line 2.*known.*"):
            parse_config("[grid]\nm = 3\n", "simulate")

    def test_malformed_number_names_key(self):
        with pytest.raises(ConfigError, match="key 'n' expects an integer"):
            parse_config("[grid]\nn = twelve\n", "simulate")

    def test_bool_spelling_is_strict(self):
        with pytest.raises(ConfigError, match="expects true or false"):
            parse_config("[output]\nplot = True\n", "simulate")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside any"):
            parse_config("n = 3\n", "simulate")

    def test_string_must_be_quoted(self):
        with pytest.raises(ConfigError, match="quoted string"):
            parse_config("[data]\nkind = gaussian\n", "simulate")


class TestEcho:
    @pytest.mark.parametrize("kind", KINDS)
    def test_roundtrip_of_defaults(self, kind):
        cfg = parse_config("", kind)
        echoed = canonical_echo(cfg, kind)
        assert echoed.splitlines()[0] == f"# kind = {kind}"
        assert parse_config(echoed, kind) == cfg

    def test_roundtrip_with_overrides(self):
        cfg = parse_config(SIM_SMOKE, "simulate")
        again = parse_config(canonical_echo(cfg, "simulate"), "simulate")
        assert again == cfg
        # echo is a fixed point
        assert canonical_echo(again, "simulate") == canonical_echo(cfg, "simulate")

    def test_float_repr_survives(self):
        cfg = parse_config("[run]\nT = 0.30000000000000004\n", "simulate")
        again = parse_config(canonical_echo(cfg, "simulate"), "simulate")
        assert again["run"]["T"] == cfg["run"]["T"]


# Property tests of the grammar: deterministic and small, so they stay in
# the fast suite.  The range property runs once per numeric range entry.
ECHO = settings(derandomize=True, max_examples=30, deadline=None)
RANGE = settings(derandomize=True, max_examples=10, deadline=None)

# values per schema type; the first strategy of each sits near the edges of
# the ranges
VALUES = {
    "float": st.floats(-4.0, 4.0) | st.floats(allow_nan=False, allow_infinity=False),
    "int": st.integers(-4, 40)
    | st.integers(-(10**9), 10**9)
    | st.integers(0, 14).map(lambda j: 2**j),
    "bool": st.booleans(),
    # printable, without the quote a string cannot hold
    "str": st.text(
        st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters='"'),
        max_size=12,
    ),
}


def _text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return f'"{v}"'
    return repr(v)


def _document(cfg: dict) -> str:
    """A config document that sets every key of cfg."""
    lines = []
    for sec, keys in cfg.items():
        lines.append(f"[{sec}]")
        lines += [f"{key} = {_text(v)}" for key, v in keys.items()]
    return "\n".join(lines) + "\n"


def _ranges(kind: str) -> list:
    """(section, key, test) of each key of `kind` with a load-time range."""
    return [
        (sec, key, spec[2])
        for sec, keys in SCHEMAS[kind].items()
        for key, spec in keys.items()
        if len(spec) == 4
    ]


def _in_range(cfg: dict, kind: str) -> bool:
    return all(ok(cfg[sec][key], cfg) for sec, key, ok in _ranges(kind))


@st.composite
def in_range_configs(draw, kind):
    """A config of `kind` with drawn values for a drawn subset of its keys;
    a value out of its range goes back to the key's default."""
    schema = SCHEMAS[kind]
    cfg = parse_config("", kind)
    for sec, keys in schema.items():
        for key, (ty, *_) in keys.items():
            if draw(st.booleans()):
                cfg[sec][key] = draw(VALUES[ty])
    for sec, key, ok in _ranges(kind):
        if not ok(cfg[sec][key], cfg):
            cfg[sec][key] = schema[sec][key][1]
    # a default can still clash with a drawn key it depends on
    assume(_in_range(cfg, kind))
    return cfg


NUMERIC_RANGES = [
    pytest.param(kind, sec, key, id=f"{kind}-{sec}.{key}")
    for kind in KINDS
    for sec, key, _ in _ranges(kind)
    if SCHEMAS[kind][sec][key][0] in ("int", "float")
]


def _key_table(kind: str) -> str:
    """README's table of the keys of `kind`, written from SCHEMAS."""
    rows = [f"### `{kind}`", "", "| key | type | default | demand |", "|---|---|---|---|"]
    for sec, keys in SCHEMAS[kind].items():
        for key, (ty, default, *rule) in keys.items():
            need = "`" + rule[1].replace("|", "\\|") + "`" if rule else ""
            rows.append(f"| `[{sec}] {key}` | {ty} | `{_text(default)}` | {need} |")
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("kind", KINDS)
def test_readme_key_table_matches_the_schema(kind):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    table = _key_table(kind)
    assert table in text, f"README.md needs this table:\n{table}"


class TestGrammarProperties:
    @pytest.mark.parametrize("kind", KINDS)
    @ECHO
    @given(data=st.data())
    def test_parse_echo_parse_is_exact(self, data, kind):
        cfg = data.draw(in_range_configs(kind))
        parsed = parse_config(_document(cfg), kind)
        assert parsed == cfg
        assert parse_config(canonical_echo(parsed, kind), kind) == parsed

    @pytest.mark.parametrize("kind,sec,key", NUMERIC_RANGES)
    @RANGE
    @given(data=st.data())
    def test_range_rejects_exactly_out_of_range_values(self, data, kind, sec, key):
        v = data.draw(VALUES[SCHEMAS[kind][sec][key][0]])
        cfg = parse_config("", kind)
        cfg[sec][key] = v
        text = f"[{sec}]\n{key} = {_text(v)}\n"
        if _in_range(cfg, kind):
            assert parse_config(text, kind) == cfg
            return
        with pytest.raises(ConfigError):
            parse_config(text, kind)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "r.cfg")
            with open(path, "w") as fh:
                fh.write(text)
            out = os.path.join(tmp, "o")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main([kind, "--config", path, "--out", out])
            assert rc == 2
            assert "config error" in err.getvalue()
            assert "Traceback" not in err.getvalue()
            assert not os.path.exists(out)


# The completion property: the accepted edge of every numeric range loads
# and runs to an end, exit 0 or 1 with a report.json, and prints neither a
# traceback nor a RuntimeWarning.  Each edge runs in its own process on a
# small grid.
# The step and node budgets are scaled down in the test and in that
# process alike, so the edges they set cost 256 steps or 4,096 quadrature
# nodes instead of 2,000,000 steps or 2^24 nodes.
EDGE_STEPS, EDGE_NODES = 256, 2**12
EDGE_BASE = {
    # a fixed step, so that [run] dt and T reach the step budget
    "simulate": "[grid]\nn = 128\n[run]\nT = 0.05\ndt = 0.0125\n[data]\nwidth = 2.0\n",
    "peakon-verify": "[grid]\nn = 64\n[run]\nT = 0.05\n"
    "[residual]\nlevels = 2\nnx0 = 4\nnt0 = 4\n",
    "blowup-study": BLOWUP_SMOKE.replace("n = 512", "n = 64"),
    "picard": "[grid]\nn = 64\n[run]\nn_iter = 4\nn_slices = 3\n",
    "besov-audit": "[grid]\nn = 64\n[corpus]\ncount = 2\n",
    "transport-test": "[grid]\nn = 64\n[run]\nlevels = 2\n",
}
# a range that bites only beside another key's value gets a base that sets it
EDGE_BASE_FOR = {
    ("simulate", "data", "speed"): EDGE_BASE["simulate"] + 'kind = "peakon"\n',
}
# The code each edge's process runs: stdout is dropped, and stderr, from
# Python and from C alike, goes to a file the test reads.
EDGE_PROBE = """
import os, sys
from gchlab import cli, config, dynamics
config.MAX_STEPS = dynamics.MAX_STEPS = {steps}
config.MAX_NODES = {nodes}
sys.stdout = open(os.devnull, "w")
sys.stderr = open({err!r}, "w")
os.dup2(sys.stderr.fileno(), 2)
sys.exit(cli.main({argv!r}))
"""
# Every edge process is forked from one server that has imported these
# modules and run nothing, so an edge pays no start-up imports and finds no
# warm cache.
EDGE_PRELOAD = ["numpy"] + [
    f"gchlab.{name}"
    for name in (
        "blowup",
        "cli",
        "config",
        "dynamics",
        "experiments",
        "fields",
        "lpaley",
        "peakon",
        "svgplot",
        "transport",
    )
]


def _float_order(x: float) -> int:
    """An integer that orders the doubles as their values, one per double."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & (2**63 - 1))


def _order_float(i: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", i if i >= 0 else 2**63 | -i))[0]


def _edges(kind: str, base: dict, sec: str, key: str) -> list:
    """The accepted values of [sec] key at the two ends of the run of
    accepted values around base's, every other key as in base.  A side
    accepted out to its far end (the largest double, 2^62) has no edge."""
    v0 = base[sec][key]
    if key == "n":  # a power of two: walk the exponents
        to_value, c0, ends = (lambda c: 2**c), v0.bit_length() - 1, (0, 62)
    elif SCHEMAS[kind][sec][key][0] == "int":
        to_value, c0, ends = int, v0, (-(2**62), 2**62)
    else:
        big = _float_order(sys.float_info.max)
        to_value, c0, ends = _order_float, _float_order(v0), (-big, big)

    def ok(c: int) -> bool:
        cfg = {name: dict(keys) for name, keys in base.items()}
        cfg[sec][key] = to_value(c)
        return _in_range(cfg, kind)

    edges = []
    for end in ends:
        if ok(end):
            continue
        # gallop out from the base to a rejected value, then bisect
        inside, step = c0, 1
        out = c0 + step if end > c0 else c0 - step
        while ok(out):
            inside, step = out, 2 * step
            out = min(c0 + step, end) if end > c0 else max(c0 - step, end)
        while abs(out - inside) > 1:
            mid = (inside + out) // 2
            inside, out = (mid, out) if ok(mid) else (inside, mid)
        edges.append(to_value(inside))
    return sorted(set(edges))


@pytest.fixture(scope="module")
def edge_server():
    ctx = multiprocessing.get_context("forkserver")
    ctx.set_forkserver_preload(EDGE_PRELOAD)
    return ctx


class TestCompletion:
    @pytest.mark.parametrize("kind,sec,key", NUMERIC_RANGES)
    def test_accepted_edges_run_to_an_end(
        self, tmp_path, monkeypatch, edge_server, kind, sec, key
    ):
        monkeypatch.setattr(config, "MAX_STEPS", EDGE_STEPS)
        monkeypatch.setattr(config, "MAX_NODES", EDGE_NODES)
        base = parse_config(EDGE_BASE_FOR.get((kind, sec, key), EDGE_BASE[kind]), kind)
        edges = _edges(kind, base, sec, key)
        assert edges, "a range with no edge rejects nothing"
        for i, v in enumerate(edges):
            cfg = {name: dict(keys) for name, keys in base.items()}
            cfg[sec][key] = v
            path = write(tmp_path, f"edge{i}.cfg", canonical_echo(cfg, kind))
            out, err = tmp_path / f"o{i}", tmp_path / f"err{i}.txt"
            argv = [kind, "--config", path, "--out", str(out)]
            code = EDGE_PROBE.format(
                steps=EDGE_STEPS, nodes=EDGE_NODES, err=str(err), argv=argv
            )
            proc = edge_server.Process(target=exec, args=(code, {}))
            proc.start()
            proc.join(60)
            if proc.exitcode is None:
                proc.kill()
                proc.join()
                pytest.fail(f"{v!r} did not end within 60 s")
            stderr = err.read_text()
            assert proc.exitcode in (0, 1), (v, stderr)
            assert "Traceback" not in stderr, (v, stderr)
            assert "RuntimeWarning" not in stderr, (v, stderr)
            rep = json.loads((out / "report.json").read_text())
            assert rep["passed"] is (proc.exitcode == 0), v


class TestCli:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "absent.cfg")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case", ["config dir", "config not utf-8", "out file", "out under file", "out too long"]
    )
    def test_file_errors_exit_2_in_one_line(self, tmp_path, capsys, case):
        good = write(tmp_path, "ok.cfg", "[grid]\nn = 64\n")
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"n = 64\xff")
        afile = write(tmp_path, "afile", "")
        out = str(tmp_path / "o")
        config_path, out = {
            "config dir": (str(tmp_path / "cfgdir"), out),
            "config not utf-8": (str(bad), out),
            "out file": (good, afile),
            "out under file": (good, os.path.join(afile, "o")),
            "out too long": (good, str(tmp_path / ("o" * 300))),
        }[case]
        os.mkdir(tmp_path / "cfgdir")
        rc = main(["besov-audit", "--config", config_path, "--out", out])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert (out if case.startswith("out") else config_path) in err
        assert "Traceback" not in err
        assert not os.path.isdir(out)

    def test_repeated_audit_id_is_reported_once(self, tmp_path, capsys):
        text = SMALL["besov-audit"] + '[audits]\nwhich = "embedding,embedding"\n'
        out = tmp_path / "o"
        main(["besov-audit", "--config", write(tmp_path, "a.cfg", text), "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert [a["audit_id"] for a in report["audits"]] == ["embedding"]
        rows = (out / "series.csv").read_text().splitlines()
        assert len(rows) == 1 + 12  # the header, then one row per field
        assert config.audit_ids("morse, embedding,morse") == ("morse", "embedding")

    def test_lowest_corpus_frac_draws_nonzero_fields(self, tmp_path, capsys):
        # at L = 1.07, k_1 rounds above (2/n) * k_Nyquist; the band must
        # still hold its one mode, or every field is zero and the audit fails
        text = "[grid]\nL = 1.07\nn = 64\n[corpus]\ncount = 3\nfrac = 0.03125\n"
        out = tmp_path / "o"
        rc = main(["besov-audit", "--config", write(tmp_path, "a.cfg", text), "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        assert json.loads((out / "report.json").read_text())["passed"] is True

    def test_malformed_config(self, tmp_path, capsys):
        path = write(tmp_path, "bad.cfg", "[grid]\nn = twelve\n")
        rc = main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "[run]\nn_slices = 1\n",
            "[run]\nn_iter = 1\n",
            "[run]\nT = 0.0\n",
            "[run]\nT = -0.25\n",
            "[run]\nT = nan\n",
            # the verdict checks the ratios from n = 3 on; three iterates
            # give none of them
            "[run]\nn_iter = 3\n",
        ],
    )
    def test_picard_range_fails_at_load_time(self, tmp_path, capsys, text):
        path = write(tmp_path, "p.cfg", text)
        out = tmp_path / "o"
        rc = main(["picard", "--config", path, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "[data]\namplitude = nan\n",  # used to crash in the plot axis ticks
            "[run]\nT = inf\n",  # used to PASS after an early resolution stop
            "[run]\ncfl_sigma = -inf\n",
        ],
    )
    def test_non_finite_float_fails_at_load_time(self, tmp_path, capsys, text):
        path = write(tmp_path, "s.cfg", "[grid]\nn = 256\n" + text)
        out = tmp_path / "o"
        rc = main(["simulate", "--config", path, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind,text",
        [
            ("simulate", "[run]\ndt = -0.01\n"),
            ("simulate", "[run]\nmonitor_every = 0\n"),
            ("peakon-verify", "[run]\nmonitor_every = -3\n"),
            ("simulate", "[run]\ncfl_sigma = 0.0\n"),
            ("blowup-study", "[run]\ncfl_sigma = 1.5\n"),
            ("simulate", "[run]\nT = 0.0\n"),
            ("peakon-verify", "[run]\nT = -1.0\n"),
            ("blowup-study", "[run]\nT = 0.0\n"),
            ("transport-test", "[run]\nT = 0.0\n"),
            # a former key: the solver integrates the spectral form only
            ("simulate", '[run]\nrhs_form = "weak_form"\n'),
            ("simulate", "[data]\nwidth = 0.0\n"),
            ("blowup-study", "[data]\nwidth = -0.1\n"),
            ("picard", "[data]\nwidth = 0.0\n"),
            ("simulate", '[data]\nkind = "square"\n'),
            # picard's [data] has no speed key to build a peakon from
            ("picard", '[data]\nkind = "peakon"\n'),
            ("peakon-verify", "[wave]\nspeed = 0.0\n"),
            # one level gives no order to fit: an error, or a PASS on noise
            ("peakon-verify", "[residual]\nlevels = 1\n"),
            ("transport-test", "[run]\nlevels = 1\n"),
            # the residual ladder's finest rung above 2^24 nodes: endless
            # runs or a MemoryError, and 2^levels is never built to say so
            ("peakon-verify", "[residual]\nlevels = 40\n"),
            ("peakon-verify", "[residual]\nnx0 = 1000000\n"),
            ("peakon-verify", "[residual]\nlevels = 1000000000000000000000000\n"),
            ("peakon-verify", "[residual]\nnx0 = 64\nnt0 = 65\nlevels = 7\n"),
            ("besov-audit", '[audits]\nwhich = "embedding,sobolev"\n'),
            ("besov-audit", '[audits]\nwhich = ""\n'),  # would audit nothing
            ("besov-audit", "[corpus]\ncount = 0\n"),
            ("blowup-study", '[sweep]\namplitudes = "0.05,nan"\n'),
            ("blowup-study", '[sweep]\namplitudes = "0.05,inf"\n'),
            ("blowup-study", '[sweep]\namplitudes = "0.05,abc"\n'),
            ("simulate", "[grid]\nn = 100\n"),
            ("besov-audit", "[grid]\nL = 0.0\n"),
            ("transport-test", "[run]\ndt0 = 0.0\n"),
            ("transport-test", "[run]\ndt0 = -0.5\n"),
            ("transport-test", "[audit]\ndt = 0.0\n"),
            ("besov-audit", "[corpus]\nfrac = 0.0\n"),
            ("besov-audit", "[corpus]\nfrac = 1.5\n"),
            # below 2/n = 0.00390625 the band keeps no mode: zero fields
            ("besov-audit", "[grid]\nn = 512\n[corpus]\nfrac = 0.0039\n"),
            # planned transport steps above dynamics.MAX_STEPS
            ("transport-test", "[run]\ndt0 = 1e-300\n"),
            ("transport-test", "[run]\nlevels = 40\n"),
            ("transport-test", "[run]\nT = 0.95367431640625\nlevels = 2\ndt0 = 9.5e-07\n"),
            ("transport-test", "[audit]\ndt = 1e-300\n"),
            ("simulate", "[run]\ndt = 1e-300\n"),
            ("peakon-verify", "[residual]\nsigma = 0.0\n"),
            # x0 +- sigma rounds to x0 = 0.5: every residual was 0.0 under a
            # plain FAIL
            ("peakon-verify", "[grid]\nn = 64\n[residual]\nlevels = 2\nsigma = 1e-17\n"),
            ("peakon-verify", "[residual]\nsigma = 6e-154\n"),
            # a peakon needs a positive speed; this failed at run time
            ("simulate", '[grid]\nn = 256\n[data]\nkind = "peakon"\nspeed = -1.0\n'),
            ("simulate", '[grid]\nn = 256\n[data]\nkind = "peakon"\nspeed = 0.0\n'),
            ("peakon-verify", "[residual]\nnt0 = 2\n"),
            ("peakon-verify", "[residual]\nnx0 = 2\n"),
            # the test function's support [37.5, 40.5] leaves [-40, 40)
            ("peakon-verify", "[residual]\nx0 = 39.0\n"),
            # k_Nyquist = pi (16/2) / 20 = 1.26 leaves no dyadic block above j = 0
            ("picard", "[grid]\nn = 16\n"),
            ("besov-audit", "[grid]\nn = 16\n"),
            ("transport-test", "[grid]\nL = 20.0\nn = 16\n"),
            # one ulp above L = 8 pi / 1.5
            ("besov-audit", "[grid]\nL = 16.755160819145566\nn = 16\n"),
            # k_Nyquist / 0.75 overflows, and j_max with it (a traceback in
            # build_partition)
            ("besov-audit", "[grid]\nL = 5.6e-307\nn = 64\n"),
            # dx = 2L/n rounds to 0 (a traceback in rfftfreq) or overflows
            ("simulate", "[grid]\nL = 5e-324\nn = 512\n"),
            ("besov-audit", "[grid]\nL = 5e-324\nn = 512\n"),
            ("simulate", "[grid]\nL = 1e308\nn = 512\n"),
            # pi (n/2) / L is finite, but Grid1D's last wavenumber
            # 2 pi rfftfreq(n, dx) rounds up to inf
            ("simulate", "[grid]\nL = 1.1184441100129471e-306\nn = 128\n"),
            # seeds are >= 0: random.Random would fold -1 onto the stream of 1
            ("simulate", "[data]\nseed = -1\n"),
            ("picard", "[data]\nseed = -1\n"),
            ("besov-audit", "[corpus]\nseed = -1\n"),
            ("transport-test", "[audit]\nseed = -1\n"),
            # rate_report needs three samples; this used to fail after the evolve
            ("blowup-study", "[estimate]\nwindow = 0\n"),
            ("blowup-study", "[estimate]\nwindow = 2\n"),
            # the tail share is in (0, 1]: these stopped after one step and
            # exited 1 with no T_est
            ("blowup-study", "[run]\ntail_threshold = 0.0\n"),
            ("blowup-study", "[run]\ntail_threshold = -1.0\n"),
            ("simulate", "[run]\ntail_threshold = 1.0000000000000002\n"),
            # the top dyadic weight 2^((s + 2) 8) of the velocity norm squares
            # past the largest double: this passed with fitted_C 4.8e-141
            ("transport-test", "[audit]\ns = 64.0\n"),
            ("transport-test", "[audit]\ns = -66.0\n"),
            # so does 2^((s - 1) 6) of the datum's norm: this failed at run time
            ("picard", "[run]\ns = 400.0\n"),
            ("picard", "[run]\ns = 87.0\n"),
        ],
    )
    def test_range_fails_at_load_time(self, tmp_path, capsys, kind, text):
        path = write(tmp_path, "r.cfg", text)
        out = tmp_path / "o"
        rc = main([kind, "--config", path, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_fails_at_parse_time(self, tmp_path, capsys):
        path = write(tmp_path, "a.cfg", "")
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["besov-audit", "--config", path, "--out", str(out), "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seed" in err and ">= 0" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text,lines",
        [
            ("[grid]\nn = 256\nn = 512\n", (2, 3)),
            ("[grid]\nn = 256\n[run]\nT = 0.1\n[grid]\nn = 256\n", (2, 6)),
        ],
    )
    def test_repeated_key_fails_at_load_time(self, tmp_path, capsys, text, lines):
        path = write(tmp_path, "r.cfg", text)
        out = tmp_path / "o"
        rc = main(["simulate", "--config", path, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert f"line {lines[1]}" in err and f"repeats line {lines[0]}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", KINDS)
    def test_timestamp_is_an_unknown_key(self, tmp_path, capsys, kind):
        path = write(tmp_path, "t.cfg", "[output]\ntimestamp = false\n")
        out = tmp_path / "o"
        rc = main([kind, "--config", path, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "unknown key 'timestamp' in [output]" in err
        assert "Traceback" not in err
        assert not out.exists()

    # the pass bars are fixed in the runners
    @pytest.mark.parametrize(
        "kind, sec, key",
        [
            ("peakon-verify", "run", "rel_tol"),
            ("peakon-verify", "residual", "tol"),
            ("peakon-verify", "residual", "order_min"),
            ("picard", "check", "ratio_max"),
            ("picard", "check", "ratio_from"),
            ("picard", "check", "direct_tol"),
            ("transport-test", "check", "order_min"),
            ("transport-test", "check", "exact_tol"),
        ],
    )
    def test_pass_bar_is_an_unknown_key(self, tmp_path, capsys, kind, sec, key):
        path = write(tmp_path, "b.cfg", f"[{sec}]\n{key} = 1\n")
        out = tmp_path / "o"
        rc = main([kind, "--config", path, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err
        # a section left without keys is gone too, and its header fails first
        if sec in SCHEMAS[kind]:
            assert f"unknown key '{key}' in [{sec}]" in err
        else:
            assert f"unknown section [{sec}]" in err
        assert "Traceback" not in err
        assert not out.exists()

    # the solver integrates the spectral form only
    @pytest.mark.parametrize("form", ["spectral_form", "m_form", "u_form"])
    def test_rhs_form_is_an_unknown_key(self, tmp_path, capsys, form):
        path = write(tmp_path, "f.cfg", f'[run]\nrhs_form = "{form}"\n')
        out = tmp_path / "o"
        rc = main(["simulate", "--config", path, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "unknown key 'rhs_form' in [run]" in err
        assert "Traceback" not in err
        assert not out.exists()

    # picard picks its transport step itself
    @pytest.mark.parametrize("dt", ["0.0", "-0.01", "1e-300"])
    def test_picard_dt_is_an_unknown_key(self, tmp_path, capsys, dt):
        path = write(tmp_path, "p.cfg", f"[run]\ndt = {dt}\n")
        out = tmp_path / "o"
        rc = main(["picard", "--config", path, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "unknown key 'dt' in [run]" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_range_edges_accepted(self):
        text = "[run]\ncfl_sigma = 1.0\nmonitor_every = 1\n"
        cfg = parse_config(text, "simulate")
        assert (cfg["run"]["cfl_sigma"], cfg["run"]["monitor_every"]) == (1.0, 1)
        cfg = parse_config('[audits]\nwhich = "morse, embedding"\n', "besov-audit")
        assert cfg["audits"]["which"] == "morse, embedding"
        cfg = parse_config('[sweep]\namplitudes = " 0.3, 0.1 ,"\n', "blowup-study")
        assert cfg["sweep"]["amplitudes"] == " 0.3, 0.1 ,"
        # only a peakon datum needs a positive speed
        cfg = parse_config('[data]\nkind = "gaussian"\nspeed = -1.0\n', "simulate")
        assert cfg["data"]["speed"] == -1.0
        # the support [x0 - sigma, x0 + sigma] may touch either end of the box
        for x0 in (38.5, -38.5):
            text = f"[residual]\nx0 = {x0}\nsigma = 1.5\nnx0 = 4\nnt0 = 4\n"
            cfg = parse_config(text, "peakon-verify")
            assert (cfg["residual"]["x0"], cfg["residual"]["nx0"]) == (x0, 4)
        # the residual ladder's finest rung, 4096 x 4096, has exactly 2^24 nodes
        text = "[residual]\nnx0 = 64\nnt0 = 64\nlevels = 7\n"
        rs = parse_config(text, "peakon-verify")["residual"]
        assert (rs["nx0"] << rs["levels"] - 1) * (rs["nt0"] << rs["levels"] - 1) == 2**24
        cfg = parse_config("[estimate]\nwindow = 3\n", "blowup-study")
        assert cfg["estimate"]["window"] == 3
        cfg = parse_config("[corpus]\nfrac = 1.0\n", "besov-audit")
        assert cfg["corpus"]["frac"] == 1.0
        cfg = parse_config("[grid]\nn = 512\n[corpus]\nfrac = 0.00390625\n", "besov-audit")
        assert cfg["corpus"]["frac"] == 2.0 / 512
        # the finest rung, dt0 / 2 = 2^-21, takes exactly MAX_STEPS steps to T
        text = "[run]\nT = 0.95367431640625\nlevels = 2\ndt0 = 9.5367431640625e-07\n"
        cfg = parse_config(text, "transport-test")
        assert cfg["run"]["T"] / (cfg["run"]["dt0"] / 2) == 2_000_000
        # k_Nyquist = pi (16/2) / L is exactly 1.5: j_max = 1
        cfg = parse_config("[grid]\nL = 16.755160819145562\nn = 16\n", "besov-audit")
        assert math.pi * 8 / cfg["grid"]["L"] == 1.5
        # the largest squared dyadic weights, 2^(2 * 63 * 8) and
        # 2^(2 * 85 * 6), stay finite on the default grids
        assert parse_config("[audit]\ns = 61.0\n", "transport-test")["audit"]["s"] == 61.0
        assert parse_config("[run]\ns = 86.0\n", "picard")["run"]["s"] == 86.0

    def test_tiny_sigma_at_zero_center_runs(self, tmp_path):
        # at x0 = 0 the support [-1e-17, 1e-17] is resolved, and the ladder
        # gives finite residuals
        text = "[grid]\nn = 64\n[residual]\nx0 = 0.0\nsigma = 1e-17\nlevels = 2\n"
        path = write(tmp_path, "s.cfg", text)
        out = tmp_path / "o"
        assert main(["peakon-verify", "--config", path, "--out", str(out)]) in (0, 1)
        rep = json.loads((out / "report.json").read_text())
        assert all(map(math.isfinite, rep["residuals"]))

    def test_picard_range_edges_accepted(self):
        cfg = parse_config("[run]\nn_slices = 2\nn_iter = 4\n", "picard")
        assert (cfg["run"]["n_slices"], cfg["run"]["n_iter"]) == (2, 4)

    def test_simulate_smoke_passes(self, tmp_path, capsys):
        path = write(tmp_path, "sim.cfg", SIM_SMOKE)
        out = str(tmp_path / "out")
        rc = main(["simulate", "--config", path, "--out", out])
        assert rc == 0
        assert "simulate: PASS" in capsys.readouterr().out
        for name in ("report.json", "series.csv", "plot.svg", "echo.cfg"):
            assert os.path.exists(os.path.join(out, name))
        rep = json.loads(open(os.path.join(out, "report.json")).read())
        assert rep["passed"] is True
        header = open(os.path.join(out, "series.csv")).readline().strip()
        assert header == "t,E,w_linf,w_bound,ux_linf,ux_bound,B,min_uxx,xi"

    def test_empty_simulate_config_reaches_the_horizon(self, tmp_path, capsys):
        # the default data steepens; the default horizon ends before the
        # default grid stops resolving it
        path = write(tmp_path, "e.cfg", "")
        out = tmp_path / "o"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        assert "simulate: PASS" in capsys.readouterr().out
        rep = json.loads((out / "report.json").read_text())
        assert rep["summary"]["stop_reason"] == "horizon"

    def test_zero_data_simulate_passes(self, tmp_path):
        path = write(tmp_path, "z.cfg", '[grid]\nn = 256\n[run]\nT = 0.1\n[data]\nkind = "zero"\n')
        rc = main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 0

    def test_failed_hard_assertion_exits_one(self, tmp_path, capsys):
        # 64 points interpolate too coarsely for third order in dt
        path = write(tmp_path, "tt.cfg", "[grid]\nn = 64\n")
        rc = main(["transport-test", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "transport-test: FAIL" in capsys.readouterr().out
        rep = json.loads(open(tmp_path / "o" / "report.json").read())
        assert rep["fitted_order"] < experiments.TRANSPORT_ORDER_MIN
        assert rep["passed"] is False

    def test_shallow_blowup_smoke(self, tmp_path):
        path = write(tmp_path, "b.cfg", BLOWUP_SMOKE)
        out = str(tmp_path / "o")
        rc = main(["blowup-study", "--config", path, "--out", out])
        assert rc == 0
        rep = json.loads(open(os.path.join(out, "report.json")).read())
        assert rep["study"]["verdict"] is False
        assert rep["study"]["stop_reason"] == "horizon"


# one small, passing config per experiment kind
SMALL = {
    "simulate": SIM_SMOKE,
    "peakon-verify": "[grid]\nn = 1024\n[run]\nT = 0.2\n[residual]\nlevels = 3\n",
    "blowup-study": BLOWUP_SMOKE + '[sweep]\namplitudes = "0.04"\n',
    "picard": "[grid]\nn = 256\n[run]\nn_iter = 4\n",
    # plot is off by default for besov-audit; on here to render its chart
    "besov-audit": "[grid]\nn = 256\n[corpus]\ncount = 12\n[output]\nplot = true\n",
    "transport-test": "[grid]\nn = 256\n",
}


AUDIT_PROBE = """
import math
import numpy as np
from gchlab.errors import EstimationError
from gchlab.fields import Grid1D, random_band_limited
from gchlab.transport import TimeSlices, transport_apriori_audit

grid = Grid1D(math.pi, 512)
rng = np.random.default_rng(0)
v, f = random_band_limited(grid, rng), random_band_limited(grid, rng)
frozen = TimeSlices(grid, [0.0, 1.0], np.tile(v.values, (2, 1)))
with np.errstate(over="ignore", invalid="ignore"):
    try:
        transport_apriori_audit(f, frozen, 1.0, 0.01, s=70.0)
    except EstimationError as exc:
        print(exc)
"""


class TestRunContract:
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_kind_passes_with_ordered_report(self, tmp_path, kind):
        path = write(tmp_path, "k.cfg", SMALL[kind])
        out = tmp_path / "o"
        assert main([kind, "--config", path, "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        keys = list(rep)
        assert keys[:2] == ["kind", "config"] and keys[-1] == "passed"
        assert rep["kind"] == kind and rep["passed"] is True
        assert (out / "echo.cfg").exists() and (out / "plot.svg").exists()

    @pytest.mark.parametrize("kind", KINDS)
    def test_runner_body_is_json_native(self, kind):
        # report.json only spells out non-finite floats; a numpy integer,
        # bool or array in a runner's body would fail to serialize here
        cfg = parse_config(SMALL[kind], kind)
        grid = Grid1D(cfg["grid"]["L"], cfg["grid"]["n"])
        json.dumps(experiments.RUNNERS[kind](cfg, grid).body)

    def test_early_stop_never_passes(self, tmp_path, capsys):
        # the least accepted tail threshold stops the run at its first
        # monitored step
        text = "[grid]\nn = 256\n[run]\ntail_threshold = 5e-324\n"
        path = write(tmp_path, "s.cfg", text)
        out = tmp_path / "o"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 1
        assert "simulate: FAIL" in capsys.readouterr().out
        rep = json.loads((out / "report.json").read_text())
        assert rep["summary"]["stop_reason"] == "resolution_stop"
        assert rep["passed"] is False

    # A tall bump with a huge fixed step: at T = 2 the state itself leaves
    # floating point; at T = 1 it stays finite (about 1e200) but its energy
    # overflows.  A tail threshold of 1 keeps the resolution stop out of it.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "T", [pytest.param(2.0, id="spectral_form"), pytest.param(1.0, id="spectral_form-T1")]
    )
    def test_nonfinite_state_fails_cleanly(self, tmp_path, capsys, T):
        text = (
            f"[grid]\nn = 256\n[run]\nT = {T}\ndt = 0.5\ntail_threshold = 1.0\n"
            "[data]\namplitude = 5.0\n"
        )
        path = write(tmp_path, "nf.cfg", text)
        out = tmp_path / "o"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "simulate: FAIL" in captured.out
        assert "Traceback" not in captured.out + captured.err
        assert (out / "plot.svg").exists()
        rep = json.loads((out / "report.json").read_text())
        assert rep["summary"]["stop_reason"] == "nonfinite"
        assert rep["passed"] is False

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_norm_peakon_fails_with_its_cause(self, tmp_path, capsys):
        # at the least accepted speed the exact translate underflows to 0,
        # so there is no relative error to compare
        text = EDGE_BASE["peakon-verify"] + "[wave]\nspeed = 5e-324\n"
        path = write(tmp_path, "z.cfg", text)
        out = tmp_path / "o"
        assert main(["peakon-verify", "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "run failed: the exact translate at T has L2 norm 0" in err
        assert "Traceback" not in err
        rep = json.loads((out / "report.json").read_text())
        assert list(rep) == ["kind", "error", "passed"] and rep["passed"] is False

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sigma", ["5e-324", "1e-155"])
    def test_tiny_sigma_fails_with_its_cause(self, tmp_path, capsys, sigma):
        # the test function's second derivative b''/sigma^2 overflows, and
        # every residual came out NaN under a plain FAIL; at x0 = 0 such a
        # sigma still gives x0 +- sigma a support, so it loads
        text = EDGE_BASE["peakon-verify"] + f"x0 = 0.0\nsigma = {sigma}\n"
        path = write(tmp_path, "s.cfg", text)
        out = tmp_path / "o"
        assert main(["peakon-verify", "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"run failed: sigma = {sigma} is too small" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        rep = json.loads((out / "report.json").read_text())
        assert list(rep) == ["kind", "error", "passed"] and rep["passed"] is False
        assert f"sigma = {sigma}" in rep["error"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_picard_fails_cleanly(self, tmp_path, capsys):
        # the CFL step of the direct solve collapses; the transport feet
        # are far off the grid before that
        path = write(tmp_path, "p.cfg", "[grid]\nn = 256\n[data]\namplitude = 1e150\n")
        out = tmp_path / "o"
        assert main(["picard", "--config", path, "--out", str(out)]) == 1
        assert "run failed: CFL collapse" in capsys.readouterr().err
        rep = json.loads((out / "report.json").read_text())
        assert list(rep) == ["kind", "error", "passed"] and rep["passed"] is False

    # [run] s = 400 and [audit] s = 70 fail at load time now, so the two
    # tests below reach the run-time guards behind those ranges directly
    def test_overflowing_picard_norm_fails_with_its_name(self):
        # at s = 400 the B^399 norm of the datum overflows
        grid = Grid1D(20.0, 256)
        m0 = experiments._initial_field(parse_config("", "picard")["data"], grid)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            EstimationError, match=r"^\|\|m0\|\|_B\^399 is not finite"
        ):
            picard_run(m0, 0.25, s=400.0)

    def test_overflowing_audit_norm_fails_in_time(self):
        # at s = 70 on transport-test's grid and data V(T) overflows, so the
        # fit must raise before any exp(C V), within the timeout
        src = os.path.dirname(os.path.dirname(os.path.abspath(gchlab.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", AUDIT_PROBE],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("V(T)") and "not finite" in proc.stdout

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sweep_members_keep_the_error_state(self, tmp_path, monkeypatch):
        # run_experiment ignores floating-point overflow; every sweep member
        # must run under the same error state
        single = experiments._blowup_single

        def overflowing(cfg, grid, amplitude):
            np.full(2, 1e300) * 1e300
            return single(cfg, grid, amplitude)

        monkeypatch.setattr(experiments, "_blowup_single", overflowing)
        text = BLOWUP_SMOKE + '[sweep]\namplitudes = "0.05,0.03"\n'
        path = write(tmp_path, "bs.cfg", text)
        out = str(tmp_path / "o")
        assert main(["blowup-study", "--config", path, "--out", out, "--threads", "2"]) == 0

    def test_sweep_members_run_in_the_calling_thread(self, tmp_path, monkeypatch):
        # a thread pool costs CPU on GIL contention and saves no wall time
        # for the small evolves of a sweep
        single, idents = experiments._blowup_single, []

        def recording(cfg, grid, amplitude):
            idents.append(threading.get_ident())
            return single(cfg, grid, amplitude)

        monkeypatch.setattr(experiments, "_blowup_single", recording)
        text = BLOWUP_SMOKE + '[sweep]\namplitudes = "0.05,0.03"\n'
        path = write(tmp_path, "bs.cfg", text)
        out = str(tmp_path / "o")
        assert main(["blowup-study", "--config", path, "--out", out, "--threads", "2"]) == 0
        assert idents == [threading.get_ident()] * 3  # the study run, two members

    def test_run_time_error_leaves_echo_and_error_report(self, tmp_path, capsys):
        # a width-30 Gaussian on [-40, 40) fails the solver's domain-decay screen
        path = write(tmp_path, "w.cfg", "[grid]\nn = 256\n[data]\nwidth = 30.0\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 1
        assert "run failed" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["echo.cfg", "report.json"]
        rep = json.loads((out / "report.json").read_text())
        assert list(rep) == ["kind", "error", "passed"]
        assert "decay" in rep["error"] and rep["passed"] is False


# a fresh process loads these after `load_config`, and each kind's run adds
# only the solver modules its runner reaches
STARTUP_MODULES = {"cli", "config", "errors", "experiments", "fields", "lpaley", "svgplot"}
RUN_MODULES = {
    "simulate": {"dynamics"},
    "peakon-verify": {"dynamics", "peakon"},
    "blowup-study": {"dynamics", "blowup"},
    "picard": {"dynamics", "transport"},
    "besov-audit": set(),
    "transport-test": {"dynamics", "transport"},
}
MODULE_PROBE = """
import json, sys
import gchlab
from gchlab import cli, config, experiments

def loaded():
    return sorted(m[len("gchlab."):] for m in sys.modules if m.startswith("gchlab."))

kind, path, out = sys.argv[1:]
cfg = config.load_config(path, kind)
before = loaded()
polynomial = "numpy.polynomial" in sys.modules
code = experiments.run_experiment(kind, cfg, out)
print(json.dumps([before, polynomial, loaded(), code, "numpy.random" in sys.modules]))
"""


# Resident KiB of the mappings whose path names BLAS or LAPACK (numpy's
# OpenBLAS), before and after runs that reach every line fit of the lab:
# blowup-study's two (its default run breaks down), peakon-verify's order
# and transport-test's.  The first BLAS or LAPACK call maps about 1 MB more.
BLAS_PROBE = """
import json, re, sys
import numpy
from gchlab import config, experiments

def resident_kib():
    total, hit = None, False
    with open("/proc/self/smaps") as fh:
        for line in fh:
            if re.match(r"[0-9a-f]+-[0-9a-f]+ ", line):
                parts = line.split(maxsplit=5)
                hit = len(parts) == 6 and re.search("blas|lapack", parts[5], re.I)
            elif hit and line.startswith("Rss:"):
                total = (total or 0) + int(line.split()[1])
    return total

runs = json.loads(sys.argv[1])
before = resident_kib()
codes = [
    experiments.run_experiment(kind, config.parse_config(text, kind), out)
    for kind, text, out in runs
]
print(json.dumps([before, resident_kib(), codes]))
"""


class TestStartup:
    @pytest.mark.parametrize("kind", KINDS)
    def test_run_loads_only_its_runners_modules(self, tmp_path, kind):
        path = write(tmp_path, "k.cfg", SMALL[kind])
        src = os.path.dirname(os.path.dirname(os.path.abspath(gchlab.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", MODULE_PROBE, kind, path, str(tmp_path / "o")],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        before, polynomial, after, code, np_random = json.loads(proc.stdout)
        assert set(before) == STARTUP_MODULES
        assert not polynomial
        assert set(after) - set(before) == RUN_MODULES[kind]
        assert code == 0
        # seeded corpora draw from fields.SeededNormals, not numpy's generator
        assert not np_random

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/smaps")
    def test_runs_reach_no_blas_or_lapack(self, tmp_path):
        runs = [
            ("blowup-study", "", str(tmp_path / "b")),
            ("peakon-verify", SMALL["peakon-verify"], str(tmp_path / "p")),
            ("transport-test", SMALL["transport-test"], str(tmp_path / "t")),
        ]
        src = os.path.dirname(os.path.dirname(os.path.abspath(gchlab.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", BLAS_PROBE, json.dumps(runs)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        before, after, codes = json.loads(proc.stdout)
        assert codes == [0, 0, 0]
        study = json.loads((tmp_path / "b" / "report.json").read_text())["study"]
        assert study["T_est"] is not None and study["window_mean"] is not None
        if before is None:
            pytest.skip("numpy maps no library whose path names BLAS or LAPACK")
        assert after <= before


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def fresh_python(code, *args, **env):
    """Run code in a fresh interpreter with none of THREAD_VARS set but env."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gchlab.__file__)))
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**base, "PYTHONPATH": src, **env},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout


class TestBlasThreads:
    PROBE = "import os, gchlab.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"

    @pytest.mark.parametrize(
        "env,expect",
        [
            ({}, "1"),
            ({"OPENBLAS_NUM_THREADS": "3"}, "3"),
            ({"GOTO_NUM_THREADS": "2"}, "None"),
            ({"OMP_NUM_THREADS": "2"}, "None"),
        ],
    )
    def test_cli_sets_one_thread_unless_the_user_chose(self, env, expect):
        assert fresh_python(self.PROBE, **env).strip() == expect

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
    def test_cli_run_ends_with_one_thread(self, tmp_path):
        code = (
            "import os, sys\n"
            "from gchlab.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, len(os.listdir('/proc/self/task')))\n"
        )
        path = write(tmp_path, "a.cfg", SMALL["besov-audit"])
        out = str(tmp_path / "o")
        last = fresh_python(code, "besov-audit", "--config", path, "--out", out).splitlines()[-1]
        assert last == "0 1"


class TestDeterminism:
    def test_simulate_random_data_byte_identical(self, tmp_path):
        text = SIM_SMOKE.replace("amplitude = 0.5\n", "") + (
            '\n[data]\nkind = "random"\nseed = 11\namplitude = 0.05\n'
        )
        path = write(tmp_path, "r.cfg", text)
        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / tag)
            assert main(["simulate", "--config", path, "--out", out]) == 0
            outs.append(
                read_artifacts(out, ("report.json", "series.csv", "echo.cfg", "plot.svg"))
            )
        assert outs[0] == outs[1]

    def test_seed_override_changes_random_run(self, tmp_path):
        text = SIM_SMOKE.replace("amplitude = 0.5\n", "") + (
            '\n[data]\nkind = "random"\nseed = 11\namplitude = 0.05\n'
        )
        path = write(tmp_path, "r.cfg", text)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", "--config", path, "--out", out_a]) == 0
        assert main(["simulate", "--config", path, "--out", out_b, "--seed", "99"]) == 0
        a = read_artifacts(out_a, ("series.csv",))
        b = read_artifacts(out_b, ("series.csv",))
        assert a != b

    @pytest.mark.parametrize(
        "kind, text",
        [
            ("besov-audit", "[grid]\nn = 256\n[corpus]\ncount = 12\n"),
            ("transport-test", "[grid]\nn = 256\n"),
        ],
    )
    def test_seeded_run_reproduces_from_its_echo(self, tmp_path, kind, text):
        path = write(tmp_path, "s.cfg", text)
        seeded, echoed = str(tmp_path / "a"), str(tmp_path / "b")
        assert main([kind, "--config", path, "--out", seeded, "--seed", "5"]) == 0
        echo = os.path.join(seeded, "echo.cfg")
        assert main([kind, "--config", echo, "--out", echoed]) == 0
        a, b = read_artifacts(seeded), read_artifacts(echoed)
        assert a == b
        assert json.loads(a["report.json"])["config"] == parse_config(
            open(echo).read(), kind
        )
        unseeded = str(tmp_path / "c")
        assert main([kind, "--config", path, "--out", unseeded]) == 0
        assert read_artifacts(unseeded)["report.json"] != a["report.json"]

    def test_negative_seed_fails_before_any_write(self, tmp_path):
        cfg = parse_config("", "besov-audit")
        out = tmp_path / "o"
        with pytest.raises(ConfigError, match=r"\[corpus\] seed must be >= 0"):
            experiments.run_experiment("besov-audit", cfg, str(out), -1)
        assert not out.exists()
        assert cfg["corpus"]["seed"] == 0

    def test_besov_audit_byte_identical(self, tmp_path):
        path = write(tmp_path, "ba.cfg", "[grid]\nn = 256\n[corpus]\ncount = 12\n")
        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / tag)
            assert main(["besov-audit", "--config", path, "--out", out]) == 0
            outs.append(read_artifacts(out))
        assert outs[0] == outs[1]

    def test_sweep_threading_does_not_change_bytes(self, tmp_path):
        text = BLOWUP_SMOKE + "\n[sweep]\namplitudes = \"0.05,0.03\"\n"
        path = write(tmp_path, "bs.cfg", text)
        outs = []
        for tag, threads in (("a", "1"), ("b", "2")):
            out = str(tmp_path / tag)
            rc = main(
                ["blowup-study", "--config", path, "--out", out, "--threads", threads]
            )
            assert rc == 0
            outs.append(read_artifacts(out, ("report.json", "sweep.csv")))
        assert outs[0] == outs[1]
        header = outs[0]["sweep.csv"].decode().splitlines()[0]
        assert header == "A,C_T,verdict,T_est,bound,window_mean"
        # rows come out sorted by amplitude no matter the submission order
        rows = outs[0]["sweep.csv"].decode().splitlines()[1:]
        assert len(rows) == 2
        assert float(rows[0].split(",")[0]) < float(rows[1].split(",")[0])
