"""The ``python -m repro lint`` subcommand."""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.engine import LintReport, lint_paths
from repro.analysis.findings import RULES


def add_lint_parser(sub, help: str) -> argparse.ArgumentParser:
    parser = sub.add_parser(
        "lint",
        help=help,
        description=(
            "AST-based linter for the reproduction's correctness "
            "invariants: no hidden nondeterminism in simulation code "
            "(DET*) and in-repo imports that stay on the packages' "
            "public surface (API*).  Exits 1 on any finding that is not "
            "suppressed inline (# repro-lint: disable=RULE -- reason)."),
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files/directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    parser.add_argument("--rule", action="append", default=[],
                        metavar="ID",
                        help="check only these rule IDs (repeatable)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.set_defaults(func=cmd_lint)
    return parser


def _render_report(report: LintReport, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(report.to_dict(), indent=2))
        return report.exit_code
    for finding in report.new:
        print(finding.render())
    for finding, reason in report.suppressed:
        print(f"{finding.render()}  [suppressed: {reason}]")
    print(f"{report.files_checked} file(s) checked: "
          f"{len(report.new)} new, {len(report.suppressed)} suppressed")
    return report.exit_code


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        width = max(len(rule_id) for rule_id in RULES)
        for rule_id in sorted(RULES):
            print(f"{rule_id:<{width}}  {RULES[rule_id].summary}")
        return 0

    try:
        report = lint_paths(args.paths, rules=args.rule or None)
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return _render_report(report, args.format)
