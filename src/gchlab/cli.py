"""Command line entry point: one subcommand per experiment kind."""

from __future__ import annotations

import argparse
import os
import sys

# No gchlab run calls BLAS, so numpy's OpenBLAS gets one thread and starts
# no idle worker; this holds only if numpy is not imported yet, and a count
# the user set is kept.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .config import KINDS, load_config  # noqa: E402  (after the thread count)
from .errors import ConfigError, DivergedError, EstimationError  # noqa: E402
from .experiments import run_experiment  # noqa: E402


def _seed(text: str) -> int:
    """A --seed value: a decimal integer >= 0, the range of every seed key."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gchlab",
        description="numerical laboratory for a peaked-wave shallow water model",
    )
    sub = p.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        sp = sub.add_parser(kind, help=f"run a {kind} experiment")
        sp.add_argument("--config", required=True, help="path to a config document")
        sp.add_argument("--out", default="gchlab_out", help="output directory")
        sp.add_argument("--seed", type=_seed, default=None, help="override the RNG seed")
        sp.add_argument(
            "--threads", type=int, default=1, help="accepted; starts no thread"
        )
    return p


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.kind)
    except FileNotFoundError:
        return _usage_error(f"config file not found: {args.config}")
    except OSError as exc:  # a directory, or a path under a file
        return _usage_error(f"cannot read config file {args.config}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        return _usage_error(f"config file {args.config} is not UTF-8 text (byte {exc.start})")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        code = run_experiment(args.kind, cfg, args.out, args.seed, args.threads)
    except OSError as exc:
        if os.path.isdir(args.out):  # the run got as far as its artifacts
            raise
        return _usage_error(f"cannot make output directory {args.out}: {exc.strerror}")
    except (ConfigError, DivergedError, EstimationError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    status = "PASS" if code == 0 else "FAIL"
    print(f"{args.kind}: {status} (artifacts in {args.out})")
    return code


if __name__ == "__main__":
    sys.exit(main())
