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
from repro.analysis.rules.payload import check_payload_safety
from repro.analysis.rules.contracts import check_registry_contracts

Pass = Callable[[ModuleInfo, ProjectIndex], List[Finding]]

PASSES: Dict[str, Pass] = {
    "api-surface": check_api_surface,
    "determinism": check_determinism,
    "payload-safety": check_payload_safety,
    "registry-contracts": check_registry_contracts,
}
