"""Command-line entry point: `fracperc <command> [key=value ...]`."""

import argparse
import sys

from .errors import BudgetError, ConfigError, FracPercError
from .harness import COMMANDS, ExperimentConfig, aggregate, run


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fracperc",
        description=(
            "Fractal percolation laboratory: sample survival-conditioned "
            "dyadic trees, intersect product measures with planes and "
            "varieties, and sweep geometric-configuration thresholds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd, help=f"run the {cmd} experiment")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--threads", type=int, help="accepted; has no effect")
        p.add_argument("--preset", choices=("smoke", "paper"))
        p.add_argument(
            "overrides", nargs="*", metavar="key=value",
            help="inline config overrides",
        )
    agg = sub.add_parser("aggregate", help="pool frequency-table CSVs")
    agg.add_argument("inputs", nargs="+")
    agg.add_argument("--out", default="pooled.csv")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "aggregate":
            aggregate(args.inputs, args.out)
            return 0
        overrides = {}
        for tok in args.overrides:
            if "=" not in tok:
                raise ConfigError(f"override {tok!r} must be key=value")
            k, _, v = tok.partition("=")
            overrides[k] = v
        if args.seed is not None:
            overrides["seed"] = args.seed
        cfg = ExperimentConfig(
            args.command, overrides=overrides,
            config_path=args.config, preset=args.preset,
        )
        run(cfg, args.out)
        return 0
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, FracPercError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
