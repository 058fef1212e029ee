"""One benchmark repetition: a fresh process that runs gchlab as its CLI does.

    python3 bench/child.py --t0 T --result FILE [--trace] [--setup-only] \
        -- <gchlab arguments: KIND --config FILE --out DIR --seed N --threads K>

It mirrors `gchlab.cli.main`: parse the arguments, `load_config`, then
`run_experiment`.  `--t0` is the CLOCK_MONOTONIC reading taken by the parent
just before it started this process, so setup time covers interpreter start,
`import gchlab` and the config load, up to the runner call.  The measurements
go to FILE as JSON; with --trace the process also writes FILE's spans next
to it and adds the per-layer metrics.
"""

import argparse
import json
import os
import resource
import sys
import time


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("gchlab_args", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    argv = opts.gchlab_args[1:] if opts.gchlab_args[:1] == ["--"] else opts.gchlab_args

    import numpy
    import gchlab
    from gchlab import cli, config, experiments

    src = os.path.realpath(SRC)
    if not os.path.realpath(gchlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"gchlab imported from {gchlab.__file__}, not from {src}")
    tracer = None
    if opts.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    args = cli.build_parser().parse_args(argv)
    cfg = config.load_config(args.config, args.kind)
    out = {"setup_s": _now() - opts.t0}
    if not opts.setup_only:
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        w0 = time.perf_counter()
        try:
            code = experiments.run_experiment(
                args.kind, cfg, args.out, args.seed, args.threads
            )
        except Exception as exc:  # a failed run is a measurement, not a crash
            code, out["error"] = 1, f"{type(exc).__name__}: {exc}"
        run_s = time.perf_counter() - w0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        out.update(
            code=code,
            run_s=run_s,
            cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            peak_rss_mb=ru1.ru_maxrss / 1024.0,  # Linux reports KiB
            numpy=numpy.__version__,
            python=sys.version.split()[0],
        )
        if tracer is not None:
            out["layers"] = tracer.metrics()
            tracer.dump(opts.result[: -len(".json")] + ".spans.json")
    with open(opts.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
