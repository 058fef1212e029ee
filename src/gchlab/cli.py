"""Command line entry point: one subcommand per experiment kind."""

from __future__ import annotations

import argparse
import sys

from .config import KINDS, load_config
from .errors import ConfigError, DivergedError, EstimationError
from .experiments import run_experiment


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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.kind)
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        code = run_experiment(args.kind, cfg, args.out, args.seed, args.threads)
    except (ConfigError, DivergedError, EstimationError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    status = "PASS" if code == 0 else "FAIL"
    print(f"{args.kind}: {status} (artifacts in {args.out})")
    return code


if __name__ == "__main__":
    sys.exit(main())
