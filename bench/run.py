"""gchlab benchmark: four lab workloads, each run as fresh CLI-like processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports gchlab from ./src.
Each repetition is a new process (bench/child.py) that loads the workload's
config and calls the runner the way `gchlab KIND --config ...` does, so the
per-grid caches start cold as they do for a user.  Repetitions follow each
other (closed loop, one client) until S seconds have passed, and at least
MIN_REPS have run.

--trace 0 prints the end-to-end metrics (medians over repetitions);
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics from the traced ones, plus the tracing overhead: each
traced repetition against the untraced one run just before it.  Every
repetition is checked: exit status 0, a passing report.json, and sha256 of
every artifact equal to the first repetition's.  The last stdout line is
the JSON result; the environment and all samples also go to
.bench_work/<workload>/.  Metric names and units come from BENCHMARK.json.
See bench/README.md for what each metric and workload is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(ROOT, "bench", "child.py")
WORK = os.path.join(ROOT, ".bench_work")

MIN_REPS = 2  # byte-identity needs a second repetition
MIN_PAIRS = 3  # untraced-then-traced pairs that --trace 1 runs at least
CHILD_TIMEOUT_S = 150
DEADLINE_S = 160  # no repetition starts that could end after this

# The sweep amplitudes give six threaded evolves besides the main study run.
WORKLOADS = {
    "peakon-n8192": {"kind": "peakon-verify", "threads": 1, "config": "[grid]\nn = 8192\n"},
    "breakdown-sweep": {
        "kind": "blowup-study",
        "threads": 2,
        "config": '[sweep]\namplitudes = "0.3,0.4,0.5,0.6,0.7,0.8"\n',
    },
    "picard-c10": {"kind": "picard", "threads": 1, "config": "[run]\nn_iter = 10\n"},
    "audit-n512": {"kind": "besov-audit", "threads": 1, "config": ""},
}

SERIES_HEADER = "t,E,w_linf,w_bound,ux_linf,ux_bound,B,min_uxx,xi"


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


STARTED = _now()


def _sha_tree(top: str) -> dict[str, str]:
    out = {}
    for dirpath, dirnames, files in os.walk(top):
        dirnames.sort()
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, top)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _tree_bytes(top: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(top) for f in files
    )


# ------------------------------------------------------------------ accuracy
# Each workload's two accuracy figures, read from its own artifacts.  They are
# reported under the generic names accuracy_err and accuracy_aux because
# every workload must report every end-to-end metric; ACCURACY_NAMES gives
# the figure each one stands for.

ACCURACY_NAMES = {
    "peakon-n8192": ("peakon_rel_l2", "energy_drift_rel"),
    "breakdown-sweep": ("rate_err", "sweep_rate_err_max"),
    "picard-c10": ("picard_direct_gap", "picard_ratio_max"),
    "audit-n512": ("interp_constant", "mean_audit_constant"),
}


def _accuracy(workload: str, report: dict) -> tuple[float, float]:
    if workload == "peakon-n8192":
        return report["rel_l2_error"], report["energy_drift_rel"]
    if workload == "breakdown-sweep":
        study = report["study"]
        sweep = max(abs(r["window_mean"] + 0.5) for r in report["sweep"])
        return abs(study["window_mean"] + 0.5), sweep
    if workload == "picard-c10":
        return report["direct_gap_l2"], max(report["ratios"][2:])
    audits = {a["audit_id"]: a["fitted_constant"] for a in report["audits"]}
    return audits["interpolation"], statistics.fmean(audits.values())


# ------------------------------------------------------------- self-checks


def _series_rows(outdir: str) -> int:
    rows = 0
    for dirpath, _, files in os.walk(outdir):
        if "series.csv" in files:
            with open(os.path.join(dirpath, "series.csv"), encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            if lines and lines[0] == SERIES_HEADER:
                rows += len(lines) - 1
    return rows


def _self_checks(workload: str, layers: dict, report: dict, outdir: str) -> list[str]:
    """Traced counts against what the program itself reports."""
    expect = {"dynamics.rhs_evals": 4 * layers["dynamics.step.calls"]}
    if workload == "picard-c10":
        # one distance per iteration; besov_norm: the norm of m0, then per
        # iteration a distance and a sup norm over every slice
        n_iter, n_slices = len(report["d"]), report["config"]["run"]["n_slices"]
        expect["transport.solve_transport.calls"] = n_iter
        expect["lpaley.besov_norm.calls"] = 1 + 2 * n_iter * n_slices
    if workload in ("peakon-n8192", "breakdown-sweep"):
        # every evolve here writes its monitor series, one row per record()
        expect["dynamics.records"] = _series_rows(outdir)
        expect["dynamics.evolve.calls"] = 1 + len(report.get("sweep", []))
    return [
        f"{name}: traced {layers[name]} != expected {want}"
        for name, want in expect.items()
        if layers[name] != want
    ]


# ---------------------------------------------------------------- processes


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.wl = WORKLOADS[workload]
        self.dir = os.path.join(WORK, workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.config = os.path.join(self.dir, "workload.cfg")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(self.wl["config"])
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.reference: dict[str, str] | None = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.numpy = None

    def _spawn(self, tag: str, trace: bool = False, setup_only: bool = False) -> dict | None:
        out = os.path.join(self.dir, tag)
        result = os.path.join(self.dir, tag + ".json")
        shutil.rmtree(out, ignore_errors=True)
        args = ["--result", result]
        args += ["--trace"] * trace + ["--setup-only"] * setup_only
        gchlab_args = [
            self.wl["kind"], "--config", self.config, "--out", out,
            "--seed", str(self.seed), "--threads", str(self.wl["threads"]),
        ]
        self.attempted += 1
        t0 = _now()
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, "--t0", repr(t0), *args, "--", *gchlab_args],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return self._fail(tag, f"no exit within {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0 or not os.path.exists(result):
            return self._fail(tag, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        with open(result, encoding="utf-8") as fh:
            res = json.load(fh)
        if setup_only:
            return res
        self.numpy = res["numpy"]
        if res["code"] != 0 or "error" in res:
            return self._fail(tag, f"runner exit {res['code']} {res.get('error', '')}")
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        if report.get("passed") is not True:
            return self._fail(tag, "report.json says passed=false")
        hashes = _sha_tree(out)
        if self.reference is None:
            self.reference = hashes
        elif hashes != self.reference:
            diff = sorted(
                k for k in set(hashes) | set(self.reference)
                if hashes.get(k) != self.reference.get(k)
            )
            return self._fail(tag, f"artifacts differ from the first run: {diff}")
        res["accuracy"] = _accuracy(self.workload, report)
        res["artifact_bytes"] = _tree_bytes(out)
        if trace:
            bad = _self_checks(self.workload, res["layers"], report, out)
            if bad:
                return self._fail(tag, "count self-check failed: " + "; ".join(bad))
        return res

    def _fail(self, tag: str, why: str) -> None:
        self.failed += 1
        self.problems.append(f"{tag}: {why}")
        print(f"FAILED {self.workload} {tag}: {why}", file=sys.stderr)
        return None

    def _loop(self, seconds: float, kinds: list[bool], min_reps: int) -> list[dict | None]:
        """Repeat, cycling through `kinds` (traced or not), until time is up.

        Returns one entry per repetition, in order; None for a failed one."""
        runs: list[dict | None] = []
        start, longest = _now(), 0.0
        while True:
            t = _now()
            runs.append(self._spawn(f"rep{len(runs):03d}", trace=kinds[len(runs) % len(kinds)]))
            longest = max(longest, _now() - t)
            if (_now() - start >= seconds and len(runs) >= min_reps) or (
                _now() - STARTED + longest > DEADLINE_S
            ):
                return runs

    def warm_up(self) -> None:
        """One set-up-only process: compiles bytecode and fills the file cache."""
        self._spawn("warmup", setup_only=True)

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        self.warm_up()
        reps = [r for r in self._loop(seconds, [False], MIN_REPS) if r is not None]
        if not reps:
            return {}, {}
        samples = {
            "setup_s": [r["setup_s"] for r in reps],
            "run_s": [r["run_s"] for r in reps],
            "cpu_s": [r["cpu_s"] for r in reps],
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
            "accuracy_err": [r["accuracy"][0] for r in reps],
            "accuracy_aux": [r["accuracy"][1] for r in reps],
        }
        metrics = {k: statistics.median(v) for k, v in samples.items()}
        metrics["ok_frac"] = (self.attempted - self.failed) / self.attempted
        samples["ok_frac"] = [1.0] * (self.attempted - self.failed) + [0.0] * self.failed
        return metrics, samples

    def per_layer(self, seconds: float) -> tuple[dict, dict]:
        self.warm_up()
        runs = self._loop(seconds, [False, True], 2 * MIN_PAIRS)
        traced = [r for r in runs[1::2] if r is not None]
        # each traced repetition against the untraced one run just before it
        pairs = [
            (p, t) for p, t in zip(runs[::2], runs[1::2]) if p is not None and t is not None
        ]
        if not pairs:
            return {}, {}
        samples: dict[str, list] = {}
        for r in traced:
            r["layers"]["experiments.artifact_bytes"] = r["artifact_bytes"]
            for k, v in r["layers"].items():
                samples.setdefault(k, []).append(v)
        metrics = {k: statistics.median(v) for k, v in samples.items()}
        samples["trace.run_s"] = [r["run_s"] for r in traced]
        samples["trace.overhead_s"] = [t["run_s"] - p["run_s"] for p, t in pairs]
        samples["trace.overhead_frac"] = [t["run_s"] / p["run_s"] - 1 for p, t in pairs]
        for k in ("trace.run_s", "trace.overhead_s", "trace.overhead_frac"):
            metrics[k] = statistics.median(samples[k])
        return metrics, samples


def _git_commit() -> str | None:
    if shutil.which("git") is None or not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for rel, digest in sorted(_sha_tree(os.path.join(SRC, "gchlab")).items()):
        if rel.endswith(".py"):
            h.update(f"{rel} {digest}\n".encode())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "gchlab", "__init__.py")):
        print(f"error: no gchlab sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if opts.trace else spec["end_to_end"]

    load_before = os.getloadavg()
    bench = Bench(opts.workload, opts.seed)
    if opts.trace:
        metrics, samples = bench.per_layer(opts.seconds)
    else:
        metrics, samples = bench.end_to_end(opts.seconds)
    env = {
        "python": platform.python_version(),
        "numpy": bench.numpy,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "computed_not_measured": [
            m["name"] for m in wanted if m["unit"].endswith("computed")
        ],
    }

    names = [m["name"] for m in wanted]
    missing = [n for n in names if n not in metrics]
    if metrics and set(metrics) != set(names):
        extra = sorted(set(metrics) - set(names))
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 3
    correct = bench.failed == 0 and not missing
    with open(os.path.join(bench.dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {"workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
             "env": env, "metrics": metrics, "samples": samples,
             "problems": bench.problems},
            fh, indent=1,
        )

    print(f"workload {opts.workload} seed {opts.seed} trace {opts.trace}: "
          f"{bench.attempted} processes, {bench.failed} failed")
    for m in wanted:
        if m["name"] in metrics:
            n = len(samples.get(m["name"], [None]))
            print(f"  {m['name']:<40} {metrics[m['name']]:<14.6g} {m['unit']:<14} n={n}")
    if not opts.trace and metrics:
        err, aux = ACCURACY_NAMES[opts.workload]
        print(f"  (accuracy_err is {err}, accuracy_aux is {aux})")
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
