"""Command-line entry point: ``dynwalk run`` drives experiments from a flat
key=value config file plus flag overrides; ``dynwalk schedule`` materializes
a schedule prefix to a JSONL file for inspection or replay."""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .graphs import DynwalkError, parse_schedule_spec, write_schedule_file
from .harness import ALGORITHMS, ExperimentConfig, config_from_values, load_config_file, run_experiment

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_CONFIG_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dynwalk")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment sweep")
    run_p.add_argument("--config", help="key=value config file; flags override it")
    run_p.add_argument("--schedule", help="schedule spec, e.g. static:petersen or rr:n=16,d=4")
    run_p.add_argument("--algo", choices=ALGORITHMS)
    run_p.add_argument("--tau", help="oracle | worstcase | integer", default=None)
    run_p.add_argument("--lambda-c", dest="lambda_c", type=float, default=None)
    run_p.add_argument("--k", type=int, default=None)
    run_p.add_argument("--seeds", type=int, default=None)
    run_p.add_argument("--seed-base", dest="seed_base", type=int, default=None)
    run_p.add_argument("--bandwidth", type=int, default=None)
    run_p.add_argument("--phi", help="oracle | integer", default=None)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--oracle", action="store_true", default=None,
                       help="enable oracle comparisons (n <= 512 only)")

    sched_p = sub.add_parser("schedule", help="write a schedule prefix as JSON Lines")
    sched_p.add_argument("--schedule", required=True)
    sched_p.add_argument("--rounds", type=int, default=32)
    sched_p.add_argument("--seed", type=int, default=0)
    sched_p.add_argument("--out", required=True)
    return parser


def _config_from_args(args) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        values.update(load_config_file(args.config))
    overrides = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
    values.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_values(values)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "schedule":
            schedule = parse_schedule_spec(args.schedule, seed=args.seed)
            write_schedule_file(schedule, args.rounds, args.out)
            print(f"wrote {args.rounds} snapshots to {args.out}")
            return EXIT_OK
        config = _config_from_args(args)
    except (DynwalkError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        report, code = run_experiment(config)
    except (DynwalkError, ValueError) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    for failure in report.failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(f"report: {config.out}/report.json")
    return code


if __name__ == "__main__":
    sys.exit(main())
