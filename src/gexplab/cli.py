"""Command-line entry point.

Subcommands: simulate-gbm, simulate-hunt, solve-gspde, solve-gbdsde,
verify-representation, verify-comparison, run-suite, validate, report-merge.
Exit codes: 0 all enabled checks pass, 1 a check failed, 2 invalid
configuration or usage, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

from .artifacts import merge_summaries, rows_to_json, write_artifacts, write_summary
from .config import load_config, validate_config
from .errors import ConfigError, NumericalError, UsageError
from .experiments import RUNNERS, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

COMMANDS = {
    "simulate-gbm": "gbm-integral",
    "simulate-hunt": "hunt-bracket",
    "solve-gspde": "gspde",
    "solve-gbdsde": "gbdsde",
    "verify-representation": "representation",
    "verify-comparison": "comparison",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gexplab",
        description="Scenario-driven noise ensembles, grid equations, and "
                    "backward regression solvers with verification reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="path to the experiment JSON ('default' for the shipped one)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")
        return p

    add_run_command("simulate-gbm", "sample the noise ensemble and check the backward integral")
    add_run_command("simulate-hunt", "simulate the diffusion and check its bracket")
    add_run_command("solve-gspde", "run the grid-equation fixed point per scenario")
    add_run_command("solve-gbdsde", "run the backward regression solver per scenario")
    add_run_command("verify-representation", "compare the two solvers along shared paths")
    add_run_command("verify-comparison", "check ordering of solutions under ordered data")
    add_run_command("run-suite", "run every enabled check and write a summary")
    add_run_command("validate", "validate the config and print derived constants")

    merge = sub.add_parser("report-merge", help="concatenate run summaries")
    merge.add_argument("run_dirs", nargs="+", help="directories holding suite_summary.csv")
    merge.add_argument("--out", default="merged_summary.csv", help="merged CSV path")
    return parser


@contextmanager
def _writing(field: str):
    """Turn an ``OSError`` of the writes inside into a usage error naming
    ``field``, the option that chose where they go."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(field, str(exc)) from exc


def _apply_overrides(cfg: dict, args) -> dict:
    cfg = dict(cfg)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["output_dir"] = args.out
    return cfg


def _run_command(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    single = COMMANDS.get(args.command)
    exp = validate_config(cfg, None if single is None else [single])

    if args.command == "validate":
        print(json.dumps(exp.constants_report(), indent=2, sort_keys=True))
        return EXIT_OK

    out_dir = exp.output_dir or "gexplab-out"
    with _writing("output_dir"):
        os.makedirs(out_dir, exist_ok=True)
    if args.command == "run-suite":
        rows, artifacts = run_suite(exp)
    else:
        rows, artifacts = RUNNERS[single](exp)

    artifacts = dict(artifacts)
    artifacts["checks_report.json"] = {"checks": rows_to_json(rows), "seed": exp.seed}
    with _writing("output_dir"):
        write_artifacts(out_dir, artifacts, exp.config_hash)
        write_summary(out_dir, rows, exp.config_hash, exp.seed)
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.check} scenario={r.scenario_id} {r.metric}: "
              f"value={r.value:.6g} tolerance={r.tolerance:.6g}")
    failed = [r for r in rows if not r.passed]
    print(f"{len(rows) - len(failed)}/{len(rows)} checks passed; artifacts in {out_dir}")
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report-merge":
            # An unreadable input is a UsageError already; what is left is the write.
            with _writing("--out"):
                count = merge_summaries(args.run_dirs, args.out)
            print(f"merged {count} rows into {args.out}")
            return EXIT_OK
        return _run_command(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
