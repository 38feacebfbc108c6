"""Command-line entry point: run, sweep, validate.

Exit codes: 0 success, 2 configuration/schema problem, 3 physics guard
violation, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    ConfigError,
    ConvergenceError,
    DivergenceError,
    ExceptionalPointError,
    StepSizeError,
    TruncationOverflowError,
    UnphysicalRatesError,
)
from .scenario import load_config, run_scenario, run_sweep, validate_config

EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_NUMERIC = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfsim",
        description="Scenario runner for collective damping of coupled oscillators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one scenario config")
    run_p.add_argument("config", help="path to the scenario JSON")
    run_p.add_argument("--out", default=None, help="output directory")

    sweep_p = sub.add_parser("sweep", help="execute a scenario over its sweep grid")
    sweep_p.add_argument("config", help="path to the scenario JSON")
    sweep_p.add_argument("--out", default=None, help="output directory")
    sweep_p.add_argument("--jobs", type=int, default=1, help="worker threads")

    val_p = sub.add_parser("validate", help="check a scenario config")
    val_p.add_argument("config", help="path to the scenario JSON")
    return parser


def _out_dir(arg) -> str:
    return arg or os.environ.get("DFSIM_OUT") or "dfsim_out"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            with open(args.config) as fh:
                cfg = json.load(fh)
            errors = validate_config(cfg)
            if errors:
                for err in errors:
                    print(f"error: {err}", file=sys.stderr)
                return EXIT_CONFIG
            print("config OK")
            return 0
        cfg = load_config(args.config)
        out_dir = _out_dir(args.out)
        if args.command == "run":
            report = run_scenario(cfg, out_dir)
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            result = run_sweep(cfg, out_dir, jobs=args.jobs)
            summary = {
                "count": result["count"],
                "parameters": result["parameters"],
                "summary_csv": result.get("summary_csv"),
                "reports_json": result.get("reports_json"),
            }
            print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        for err in exc.errors:
            print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except UnphysicalRatesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except (
        DivergenceError,
        ConvergenceError,
        StepSizeError,
        TruncationOverflowError,
        ExceptionalPointError,
        OverflowError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
