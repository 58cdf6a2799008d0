"""The lint engine: discover files, run passes, apply pragmas + baseline.

:func:`lint_paths` is the one entry point (the CLI and the test suite
both call it).  It walks the targets, parses every ``.py`` file once,
builds the cross-file :class:`~repro.analysis.model.ProjectIndex` (plus
the dataflow engine's one-hop function summaries), runs each enabled
rule pass, then filters the raw findings through inline
``# repro-lint: disable=RULE -- reason`` suppressions and the baseline.
The result separates *new* findings (fail the run) from *suppressed* and
*baselined* ones (reported, never fatal).

Two throughput levers, both preserving byte-identical reports:

* an optional :class:`~repro.analysis.cache.LintCache` skips the rule
  passes for files whose (content, rule-set version, index digest) key
  is unchanged — parsing still happens, because the project index needs
  every module;
* ``jobs > 1`` fans per-file analysis across a process pool; results
  are merged in path order, so output is deterministic regardless of
  completion order.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis import dataflow
from repro.analysis.baseline import Baseline
from repro.analysis.cache import LintCache, index_digest
from repro.analysis.findings import Finding, RULES, assign_occurrences
from repro.analysis.model import (
    ModuleInfo,
    ProjectIndex,
    index_module,
    load_module,
)
from repro.analysis.rules import PASSES


@dataclass
class LintReport:
    """Everything one lint run produced."""

    new: List[Finding] = field(default_factory=list)
    suppressed: List[Tuple[Finding, str]] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    stale_baseline: Dict[str, dict] = field(default_factory=dict)
    files_checked: int = 0
    #: Files whose rule passes actually ran this invocation.
    files_analyzed: int = 0
    #: Files served from the incremental result cache.
    files_cached: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.new else 0

    def all_findings(self) -> List[Finding]:
        return (self.new + [f for f, _ in self.suppressed]
                + self.baselined)

    def to_dict(self) -> dict:
        return {
            "schema": "repro.lint/v1",
            "files_checked": self.files_checked,
            "files_analyzed": self.files_analyzed,
            "files_cached": self.files_cached,
            "exit_code": self.exit_code,
            "new": [f.to_dict() for f in self.new],
            "suppressed": [dict(f.to_dict(), reason=reason)
                           for f, reason in self.suppressed],
            "baselined": [f.to_dict() for f in self.baselined],
            "stale_baseline": self.stale_baseline,
            "rules": {rule_id: RULES[rule_id].summary
                      for rule_id in sorted(
                          {f.rule for f in self.all_findings()})},
        }


def discover_files(paths: Sequence[str]) -> List[str]:
    """Every ``.py`` file under the given files/directories, sorted."""
    found: List[str] = []
    for target in paths:
        if os.path.isfile(target):
            found.append(target)
        elif os.path.isdir(target):
            for root, dirs, names in os.walk(target):
                dirs[:] = sorted(d for d in dirs
                                 if not d.startswith(".")
                                 and d not in ("__pycache__",
                                               "build", "dist"))
                found.extend(os.path.join(root, name)
                             for name in sorted(names)
                             if name.endswith(".py"))
        else:
            raise FileNotFoundError(f"lint target not found: {target}")
    # De-duplicate while keeping deterministic order.
    seen = {}
    for path in found:
        seen.setdefault(os.path.normpath(path), None)
    return list(seen)


def _select_rules(only: Optional[Sequence[str]]) -> Optional[set]:
    if not only:
        return None
    unknown = sorted(set(only) - set(RULES))
    if unknown:
        raise ValueError(
            f"unknown rule(s): {', '.join(unknown)}; known: "
            f"{', '.join(sorted(RULES))}")
    return set(only)


def _run_passes(info: ModuleInfo, index: ProjectIndex) -> List[Finding]:
    """All rule passes over one module (rule filtering happens later)."""
    raw: List[Finding] = []
    for check in PASSES.values():
        raw.extend(check(info, index))
    return raw


# Per-worker state for ``jobs > 1``: the (pickled) module list and index
# are shipped once per worker via the pool initializer, not per task.
_WORKER: Dict[str, object] = {}


def _init_worker(modules: List[ModuleInfo], index: ProjectIndex) -> None:
    _WORKER["index"] = index
    _WORKER["by_path"] = {info.path: info for info in modules}


def _analyze_in_worker(path: str) -> Tuple[str, List[Finding]]:
    index = _WORKER["index"]
    info = _WORKER["by_path"][path]  # type: ignore[index]
    return path, _run_passes(info, index)  # type: ignore[arg-type]


def lint_paths(
    paths: Sequence[str],
    *,
    rules: Optional[Sequence[str]] = None,
    baseline: Optional[Baseline] = None,
    cache: Optional[LintCache] = None,
    jobs: int = 1,
) -> LintReport:
    """Lint every Python file under ``paths``; see module docstring."""
    selected = _select_rules(rules)
    report = LintReport()
    index = ProjectIndex()
    modules: List[ModuleInfo] = []
    file_hashes: Dict[str, str] = {}

    for path in discover_files(paths):
        info, syntax_error = load_module(path, display_path=path)
        if syntax_error is not None:
            report.new.append(Finding(
                rule="LNT002", path=path, line=1, col=0,
                message=f"file does not parse: {syntax_error}"))
            continue
        modules.append(info)
        index_module(info, index)
        if cache is not None:
            with open(path, "rb") as handle:
                file_hashes[info.path] = hashlib.sha256(
                    handle.read()).hexdigest()
    report.files_checked = len(modules)

    # One-hop call summaries: which functions return clock/entropy/env/
    # set-order-tainted values.  Part of the index, so part of its digest.
    dataflow.compute_summaries(index)

    digest = index_digest(index) if cache is not None else ""
    raw: List[Finding] = []
    findings_by_path: Dict[str, List[Finding]] = {}
    to_analyze: List[ModuleInfo] = []

    for info in modules:
        cached = (cache.load(info.path, file_hashes[info.path], digest)
                  if cache is not None else None)
        if cached is not None:
            findings_by_path[info.path] = cached
            report.files_cached += 1
        else:
            to_analyze.append(info)

    analyzed_paths = {info.path for info in to_analyze}
    report.files_analyzed = len(to_analyze)
    if jobs > 1 and len(to_analyze) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
                max_workers=min(jobs, len(to_analyze)),
                initializer=_init_worker,
                initargs=(to_analyze, index)) as pool:
            for path, found in pool.map(
                    _analyze_in_worker,
                    [info.path for info in to_analyze]):
                findings_by_path[path] = found
    else:
        for info in to_analyze:
            findings_by_path[info.path] = _run_passes(info, index)

    for info in modules:
        found = findings_by_path.get(info.path, [])
        if cache is not None and info.path in analyzed_paths:
            cache.store(info.path, file_hashes[info.path], digest, found)
        raw.extend(found)
        # Suppression pragmas missing a reason are findings themselves,
        # whether or not they matched anything.
        for sup in info.suppressions:
            if not sup.reason:
                raw.append(Finding(
                    rule="LNT001", path=info.path, line=sup.pragma_line,
                    col=0,
                    message=("suppression for "
                             f"{', '.join(sup.rules)} has no reason; "
                             "write '# repro-lint: disable=RULE -- why'"),
                    source_line=info.source_line(sup.pragma_line)))

    if selected is not None:
        # LNT meta-rules always apply: a broken pragma/file is a lint
        # problem regardless of which passes were requested.
        raw = [f for f in raw
               if f.rule in selected or f.rule.startswith("LNT")]
    raw.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    assign_occurrences(raw)

    by_path = {info.path: info for info in modules}
    for finding in raw:
        info = by_path.get(finding.path)
        sup = (info.suppressed(finding.rule, finding.line)
               if info is not None else None)
        if sup is not None and sup.reason:
            report.suppressed.append((finding, sup.reason))
        elif baseline is not None and baseline.match(finding):
            report.baselined.append(finding)
        else:
            report.new.append(finding)

    if baseline is not None:
        report.stale_baseline = baseline.stale_entries(raw)
    return report
