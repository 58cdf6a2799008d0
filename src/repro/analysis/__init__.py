"""repro.analysis: AST-based invariant linting for the reproduction.

The runtime can only spot-check the property everything else rests on
— bit-reproducible simulation — and cannot see which imports reach
past a package's ``__all__``.  This package checks both before the code
runs:

* determinism rules (DET001-DET004) over the simulation packages,
* the public-surface rule (API001) over in-repo imports.

It is one in-process pass: parse every file, index the modules by
dotted name, run two single-file AST visitors, apply the
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
