"""Finding and rule-catalogue types shared by every lint pass."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Rule:
    """One lint rule: stable ID, one-line summary, rationale."""

    id: str
    summary: str
    rationale: str = ""


@dataclass
class Finding:
    """One rule violation at one location."""

    rule: str
    path: str  # as given on the command line (normalized, relative ok)
    line: int  # 1-based
    col: int   # 0-based, ast convention
    message: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


#: The rule catalogue.  IDs are stable public API: tests and suppression
#: comments reference them.
RULES: Dict[str, Rule] = {}


def rule(id: str, summary: str, rationale: str = "") -> Rule:
    """Declare one rule in the catalogue (module-import time)."""
    entry = Rule(id, summary, rationale)
    RULES[id] = entry
    return entry


# Meta rules the engine itself emits (not tied to a pass).
LNT001 = rule(
    "LNT001",
    "suppression comment without a reason",
    "`# repro-lint: disable=RULE` must carry `-- <why>` so the next "
    "reader knows why the invariant is waived here.",
)
LNT002 = rule(
    "LNT002",
    "file does not parse",
    "a lint target with a syntax error cannot be checked at all.",
)
