"""Command line front end.

Two subcommands:

``geominimax run --config <path> [--out <dir>] [--seed <u64>] [--jobs <n>]``
    Run a configured experiment, writing ``trace.csv`` and ``meta.json``
    to the output directory. ``--seed`` and ``--out`` override the
    config; ``--jobs N`` runs N seed replicates (seeds ``seed..seed+N-1``)
    concurrently, at most one process per usable core, each in its own
    ``seed-<s>/`` subdirectory. One line per replicate names the
    directory it wrote to.

``geominimax check <target> [--trials <n>] [--seed <u64>]``
    Run an invariant suite (``manifolds``, ``triangles``, ``gradients``,
    or ``rate``) and print one line per invariant.

Exit codes: 0 success (including expected solver divergence), 1 usage or
config error, 2 numerical failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .checks import CHECK_TARGETS
from .errors import ConfigError, GeominimaxError, NumericalError, ParameterError
from .harness import parse_config, run_replicates

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geominimax", description="Saddle-point solvers and benchmarks on Riemannian manifolds.")
    sub = parser.add_subparsers(dest="command", metavar="{run,check}")

    p_run = sub.add_parser("run", parents=[], description="Run a configured experiment.")
    p_run.add_argument("--config", required=True, help="path to a key = value config file")
    p_run.add_argument("--out", default=None, help="output directory (overrides the config's 'out')")
    p_run.add_argument("--seed", type=int, default=None, help="seed override")
    p_run.add_argument("--jobs", type=int, default=1, help="number of concurrent seed replicates")

    p_check = sub.add_parser("check", description="Run an invariant suite.")
    p_check.add_argument("target", choices=sorted(CHECK_TARGETS), help="which suite to run")
    p_check.add_argument("--trials", type=int, default=100, help="trials per invariant (iterations for 'rate')")
    p_check.add_argument("--seed", type=int, default=0, help="seed for the sampled trials")
    return parser


def _cmd_run(args) -> int:
    from dataclasses import replace

    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    for seed, status, replicate_dir in run_replicates(cfg, args.out, args.jobs):
        print(f"seed={seed} status={status} out={replicate_dir}")
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    lines = CHECK_TARGETS[args.target](args.trials, args.seed)
    all_pass = True
    for line in lines:
        print(line.format())
        all_pass = all_pass and line.passed
    return EXIT_OK if all_pass else EXIT_NUMERICAL


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors and --help
        return exc.code
    try:
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("geominimax: error: a subcommand is required", file=sys.stderr)
            return EXIT_USAGE
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_check(args)
    except (ConfigError, ParameterError) as exc:
        print(f"geominimax: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"geominimax: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericalError, GeominimaxError) as exc:
        print(f"geominimax: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
