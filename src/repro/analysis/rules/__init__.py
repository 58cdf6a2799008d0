"""Rule passes: each pass checks one invariant family over one module.

A pass is ``check(info, index) -> List[Finding]``.  ``PASSES`` maps the
pass name to its function; :data:`repro.analysis.findings.RULES` holds
the catalogue of rule IDs each pass can emit.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.analysis.findings import Finding
from repro.analysis.model import ModuleInfo, ProjectIndex
from repro.analysis.rules.api import check_api_surface
from repro.analysis.rules.determinism import check_determinism

Pass = Callable[[ModuleInfo, ProjectIndex], List[Finding]]

PASSES: Dict[str, Pass] = {
    "api-surface": check_api_surface,
    "determinism": check_determinism,
}
