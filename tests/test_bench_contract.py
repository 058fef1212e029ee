"""The bench tracer's contract on tiny versions of the four bench workloads.

Each case runs `bench/child.py --trace` as its own process, the way
`bench/run.py --trace 1` runs a repetition: every public gchlab function
and the bench-bound methods are wrapped, and the tracer fails if one is
still reachable unwrapped.  The traced counts then go through bench/run.py's
own self-checks (RHS evaluations per step, records per series row, evolves
per sweep member, solve_transport and besov_norm calls per Picard run).  A
renamed traced method, a public function held in a closure, or a changed
count of Besov norms fails here, not only in the benchmark.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")

# bench workload name -> (kind, threads, a small config of that kind)
TINY = {
    "peakon-n8192": (
        "peakon-verify",
        1,
        "[grid]\nn = 1024\n[run]\nT = 0.2\n[residual]\nlevels = 3\n",
    ),
    "breakdown-sweep": (
        "blowup-study",
        2,
        "[grid]\nL = 10.0\nn = 256\n[run]\nT = 0.02\n[data]\namplitude = 0.05\n"
        'width = 0.2\n[sweep]\namplitudes = "0.05,0.03"\n',
    ),
    "picard-c10": ("picard", 1, "[grid]\nn = 256\n[run]\nn_iter = 4\nn_slices = 5\n"),
    "audit-n512": ("besov-audit", 1, "[grid]\nn = 64\n[corpus]\ncount = 4\n"),
}


def _bench_run():
    spec = importlib.util.spec_from_file_location(
        "bench_run", os.path.join(BENCH, "run.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_passes_the_bench_self_checks(tmp_path, workload):
    kind, threads, text = TINY[workload]
    cfg, out, result = tmp_path / "w.cfg", tmp_path / "o", tmp_path / "r.json"
    cfg.write_text(text)
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(BENCH, "child.py"),
            "--t0",
            repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
            "--result",
            str(result),
            "--trace",
            "--",
            kind,
            "--config",
            str(cfg),
            "--out",
            str(out),
            "--seed",
            "3",
            "--threads",
            str(threads),
        ],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.loads(result.read_text())
    assert "error" not in res and res["code"] == 0
    report = json.loads((out / "report.json").read_text())
    assert _bench_run()._self_checks(workload, res["layers"], report, str(out)) == []
