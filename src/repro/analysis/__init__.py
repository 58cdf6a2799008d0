"""repro.analysis: AST-based invariant linting for the reproduction.

The runtime can only spot-check the properties everything else rests on
— bit-reproducible simulation, picklable sweep payloads, registry
contracts.  This package checks their syntactic form before the code
runs:

* determinism rules (DET001-DET004) over the simulation packages,
* payload-safety rules (PAY001-PAY003) at every pickle boundary,
* registry-contract rules (REG001-REG003) over experiment specs and
  result types,
* the public-surface rule (API001) over in-repo imports.

It is one in-process pass: parse every file, index top-level functions
and classes across files, run four single-file AST visitors, apply the
inline ``# repro-lint: disable=RULE -- reason`` pragmas.  It keeps no
state on disk.  Run it as ``python -m repro lint`` (see
:mod:`repro.analysis.cli`) or call :func:`lint_paths` directly.
"""

from repro.analysis.engine import LintReport, discover_files, lint_paths
from repro.analysis.findings import RULES, Finding, Rule

__all__ = [
    "Finding",
    "LintReport",
    "RULES",
    "Rule",
    "discover_files",
    "lint_paths",
]
