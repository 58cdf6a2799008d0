"""The ``python -m repro lint`` subcommand."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.analysis.baseline import (
    DEFAULT_BASELINE,
    Baseline,
    BaselineError,
)
from repro.analysis.cache import DEFAULT_CACHE_DIR, LintCache
from repro.analysis.engine import LintReport, lint_paths
from repro.analysis.findings import RULES
from repro.analysis.fixes import apply_fixes, fixes_by_path, unified_diff


def add_lint_parser(sub, help: str) -> argparse.ArgumentParser:
    parser = sub.add_parser(
        "lint",
        help=help,
        description=(
            "AST-based linter for the reproduction's correctness "
            "invariants: no hidden nondeterminism in simulation code "
            "(DET*), nothing unpicklable across the sweep dispatch "
            "boundary (PAY*), experiment specs and result types that "
            "honor the registry contracts (REG*), nothing "
            "nondeterministic feeding the sweep cache key (CKY*), and "
            "no wall-clock values crossing into sim-domain traces "
            "(TDM*).  Exits 1 on any finding that is neither "
            "suppressed inline "
            "(# repro-lint: disable=RULE -- reason) nor grandfathered "
            "in the baseline file."),
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files/directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    parser.add_argument("--rule", action="append", default=[],
                        metavar="ID",
                        help="check only these rule IDs (repeatable)")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        metavar="FILE",
                        help=f"baseline of grandfathered findings "
                             f"(default {DEFAULT_BASELINE})")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline file entirely")
    parser.add_argument("--write-baseline", action="store_true",
                        help="record every current finding into the "
                             "baseline file and exit 0")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--fix", action="store_true",
                        help="apply the deterministic autofixes attached "
                             "to findings (sorted() wrapping for DET004, "
                             "public-surface import rewrites for API001), "
                             "then re-lint and report what remains")
    parser.add_argument("--diff", action="store_true",
                        help="with --fix: print the unified diff of what "
                             "would change instead of writing files")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="analyze files with N parallel worker "
                             "processes (output is path-sorted and "
                             "identical to --jobs 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the incremental result cache")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="DIR",
                        help=f"incremental result cache location "
                             f"(default {DEFAULT_CACHE_DIR})")
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
    for finding in report.baselined:
        print(f"{finding.render()}  [baselined]")
    for fingerprint, entry in sorted(report.stale_baseline.items()):
        print(f"note: stale baseline entry {fingerprint} "
              f"({entry.get('rule')} at {entry.get('path')}): finding "
              f"no longer present; prune it", file=sys.stderr)
    summary = (f"{report.files_checked} file(s) checked "
               f"({report.files_analyzed} analyzed, "
               f"{report.files_cached} cached): "
               f"{len(report.new)} new, {len(report.suppressed)} "
               f"suppressed, {len(report.baselined)} baselined")
    print(summary)
    return report.exit_code


def _cmd_fix(args: argparse.Namespace, report: LintReport,
             baseline: Optional[Baseline],
             cache: Optional[LintCache]) -> int:
    """Apply (or preview) autofixes, then re-lint from scratch."""
    # Baselined findings are fixed too: an autofix is strictly better
    # than a grandfathered violation, and their entries are dropped
    # below so they don't rot into stale noise.
    candidates = report.new + report.baselined
    fixable = [f for f in candidates if f.fix is not None]
    if not fixable:
        print("no fixable findings")
        return _render_report(report, args.format)

    if args.diff:
        for path in sorted(fixes_by_path(fixable)):
            with open(path, encoding="utf-8") as handle:
                before = handle.read()
            after, _ = apply_fixes(before, fixes_by_path(fixable)[path])
            sys.stdout.write(unified_diff(path, before, after))
        print(f"would fix {len(fixable)} finding(s) in "
              f"{len(fixes_by_path(fixable))} file(s)")
        return report.exit_code

    applied_total = 0
    for path, fixes in sorted(fixes_by_path(fixable).items()):
        with open(path, encoding="utf-8") as handle:
            before = handle.read()
        after, applied = apply_fixes(before, fixes)
        if applied:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(after)
            applied_total += applied
    # The fixed lines' fingerprints change, which would strand their
    # baseline entries as stale — drop them in the same run.
    if baseline is not None:
        dropped = baseline.drop([f for f in fixable
                                 if f in report.baselined
                                 or baseline.match(f)])
        if dropped:
            print(f"dropped {dropped} fixed entr"
                  f"{'y' if dropped == 1 else 'ies'} from "
                  f"{baseline.path}")
    print(f"fixed {applied_total} finding(s)")

    # Re-lint so the report reflects the rewritten tree (and proves the
    # fixes actually satisfied the rules).
    fresh = lint_paths(args.paths, rules=args.rule or None,
                       baseline=baseline, cache=cache, jobs=args.jobs)
    return _render_report(fresh, args.format)


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        width = max(len(rule_id) for rule_id in RULES)
        for rule_id in sorted(RULES):
            print(f"{rule_id:<{width}}  {RULES[rule_id].summary}")
        return 0

    if args.diff and not args.fix:
        print("error: --diff requires --fix", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2

    try:
        baseline: Optional[Baseline] = (
            None if args.no_baseline else Baseline.load(args.baseline))
    except BaselineError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    cache: Optional[LintCache] = (
        None if args.no_cache else LintCache(args.cache_dir))

    try:
        report = lint_paths(args.paths, rules=args.rule or None,
                            baseline=baseline, cache=cache,
                            jobs=args.jobs)
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.fix:
        return _cmd_fix(args, report, baseline, cache)

    if args.write_baseline:
        if baseline is None:
            print("error: --write-baseline conflicts with --no-baseline",
                  file=sys.stderr)
            return 2
        baseline.save(report.new + report.baselined)
        print(f"wrote {len(report.new) + len(report.baselined)} "
              f"finding(s) to {baseline.path}")
        return 0

    return _render_report(report, args.format)

