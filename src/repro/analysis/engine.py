"""The lint engine: discover files, run passes, apply pragmas.

:func:`lint_paths` is the one entry point (the CLI and the test suite
both call it).  It is one in-process pass in two phases: parse every
``.py`` file under the targets into the cross-file
:class:`~repro.analysis.model.ProjectIndex`, then run each rule pass
over each module and filter the raw findings through inline
``# repro-lint: disable=RULE -- reason`` suppressions.  The result
separates *new* findings (fail the run) from *suppressed* ones
(reported, never fatal).  Nothing is read or written besides the
targets.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding, RULES
from repro.analysis.model import ModuleInfo, ProjectIndex, load_module
from repro.analysis.rules import PASSES


@dataclass
class LintReport:
    """Everything one lint run produced."""

    new: List[Finding] = field(default_factory=list)
    suppressed: List[Tuple[Finding, str]] = field(default_factory=list)
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.new else 0

    def all_findings(self) -> List[Finding]:
        return self.new + [f for f, _ in self.suppressed]

    def to_dict(self) -> dict:
        return {
            "schema": "repro.lint/v2",
            "files_checked": self.files_checked,
            "exit_code": self.exit_code,
            "new": [f.to_dict() for f in self.new],
            "suppressed": [dict(f.to_dict(), reason=reason)
                           for f, reason in self.suppressed],
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
                # build/ and dist/ are packaging output unless they are
                # packages themselves (repro.dist is).
                dirs[:] = sorted(
                    d for d in dirs
                    if not d.startswith(".") and d != "__pycache__"
                    and (d not in ("build", "dist") or os.path.isfile(
                        os.path.join(root, d, "__init__.py"))))
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


def lint_paths(
    paths: Sequence[str],
    *,
    rules: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint every Python file under ``paths``; see module docstring."""
    selected = _select_rules(rules)
    report = LintReport()
    index = ProjectIndex()
    modules: List[ModuleInfo] = []

    for path in discover_files(paths):
        info, syntax_error = load_module(path, display_path=path)
        if syntax_error is not None:
            report.new.append(Finding(
                rule="LNT002", path=path, line=1, col=0,
                message=f"file does not parse: {syntax_error}"))
            continue
        modules.append(info)
        index.modules[info.module] = info
    report.files_checked = len(modules)

    raw: List[Finding] = []
    for info in modules:
        for check in PASSES.values():
            raw.extend(check(info, index))
        # Suppression pragmas missing a reason are findings themselves,
        # whether or not they matched anything.
        for sup in info.suppressions:
            if not sup.reason:
                raw.append(Finding(
                    rule="LNT001", path=info.path, line=sup.pragma_line,
                    col=0,
                    message=("suppression for "
                             f"{', '.join(sup.rules)} has no reason; "
                             "write '# repro-lint: disable=RULE -- why'")))

    if selected is not None:
        # LNT meta-rules always apply: a broken pragma/file is a lint
        # problem regardless of which passes were requested.
        raw = [f for f in raw
               if f.rule in selected or f.rule.startswith("LNT")]
    raw.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    by_path = {info.path: info for info in modules}
    for finding in raw:
        sup = by_path[finding.path].suppressed(finding.rule, finding.line)
        if sup is not None and sup.reason:
            report.suppressed.append((finding, sup.reason))
        else:
            report.new.append(finding)
    return report
