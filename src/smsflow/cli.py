"""Command-line harness.

Exit codes: 0 success, 1 usage or lookup error, 2 soundness violation,
3 events were left pending.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, default_config_path, load_config
from .harness import (
    load_corpus,
    render_report_json,
    render_report_table,
    run_pipeline,
    soundness_violations,
    summarize_run,
    trace_lines,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOUNDNESS = 2
EXIT_STUCK = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smsflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the pipeline over an SMS corpus")
    p_run.add_argument("--config", type=Path, default=default_config_path(),
                       help="configuration bundle (default: packaged bundle)")
    p_run.add_argument("--corpus", type=Path, required=True,
                       help="JSON-lines corpus, one {phone, text} object per line")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--add-keyword-rate", type=float, default=0.0)
    p_run.add_argument("--drop-keyword-rate", type=float, default=0.0)
    p_run.add_argument("--out", type=Path, default=Path("run-out"),
                       help="run directory for logs and reports")
    p_run.add_argument("--budget", type=int, default=None,
                       help="scheduler passes (one hop each) before declaring a deadlock")

    p_trace = sub.add_parser("trace", help="print the step history of one event")
    p_trace.add_argument("--run", type=Path, required=True, help="run directory")
    p_trace.add_argument("--event", required=True, help="event id, e.g. A1001")

    p_report = sub.add_parser("report", help="summarize a run directory and check soundness")
    p_report.add_argument("--run", type=Path, required=True, help="run directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    command = {"run": _cmd_run, "trace": _cmd_trace, "report": _cmd_report}[args.command]
    try:
        return command(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _cmd_run(args) -> int:
    if args.budget is not None and args.budget < 1:
        raise ValueError(f"--budget must be a positive number of passes, got {args.budget}")
    result = run_pipeline(
        load_config(args.config),
        load_corpus(args.corpus),
        seed=args.seed,
        add_keyword_rate=args.add_keyword_rate,
        drop_keyword_rate=args.drop_keyword_rate,
        run_dir=args.out,
        budget=args.budget,
    )
    print(render_report_table(result.report), end="")
    pending = result.pending
    if pending or not result.quiescent:
        print(f"events left pending: {', '.join(pending)}", file=sys.stderr)
        return EXIT_STUCK
    violations = soundness_violations(args.out)
    if violations:
        print(f"soundness violations: {json.dumps(violations)}", file=sys.stderr)
        return EXIT_SOUNDNESS
    return EXIT_OK


def _cmd_trace(args) -> int:
    lines = trace_lines(args.run, args.event)
    if lines is None:
        print(f"event {args.event} not found in {args.run}", file=sys.stderr)
        return EXIT_USAGE
    for line in lines:
        print(line)
    return EXIT_OK


def _cmd_report(args) -> int:
    if not (args.run / "steps.jsonl").exists():
        print(f"no run found at {args.run}", file=sys.stderr)
        return EXIT_USAGE
    summary = summarize_run(args.run)
    sys.stdout.write(render_report_json(summary))
    violations = soundness_violations(args.run)
    if violations:
        print(f"soundness violations: {json.dumps(violations)}", file=sys.stderr)
        return EXIT_SOUNDNESS
    print("soundness: ok")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
