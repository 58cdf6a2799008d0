"""Parsed-source model: per-file info and the cross-file project index.

Rule passes never touch the filesystem; they see a :class:`ModuleInfo`
(one parsed file: AST, dotted module name, suppressions) and a
:class:`ProjectIndex` (every linted module by dotted name) so the
public-surface rule can read a package's ``__all__`` from its
``__init__``.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: ``# repro-lint: disable=DET001,DET003 -- reason`` (reason optional at
#: parse time; the engine reports LNT001 when it is missing).
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+?)"
    r"(?:\s*--\s*(.*\S))?\s*$")
#: ``# repro-lint: module=repro.net.fixture`` — override the inferred
#: dotted module name (used by test fixtures to opt into scoped rules).
_MODULE_RE = re.compile(r"#\s*repro-lint:\s*module=([\w.]+)")


@dataclass
class Suppression:
    """One ``disable=`` pragma: which rules, on which line, and why."""

    line: int  # the line the pragma waives (its own, or the next one)
    rules: Tuple[str, ...]
    reason: str
    pragma_line: int  # where the comment physically sits


@dataclass
class ModuleInfo:
    """One parsed lint target."""

    path: str            # normalized path as reported in findings
    module: str          # dotted module name ("" when unknown)
    tree: ast.Module
    suppressions: List[Suppression] = field(default_factory=list)
    #: import alias -> dotted module name (``import x.y as z``,
    #: ``from x import y`` when y is a module we indexed).
    module_aliases: Dict[str, str] = field(default_factory=dict)
    #: local name -> (module, attr) for ``from x import y [as z]``.
    imported_names: Dict[str, Tuple[str, str]] = field(default_factory=dict)

    def suppressed(self, rule: str, line: int) -> Optional[Suppression]:
        for sup in self.suppressions:
            if sup.line == line and rule in sup.rules:
                return sup
        return None


@dataclass
class ProjectIndex:
    """Cross-file lookup table: every linted module by dotted name."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)


def dotted_name(node: ast.expr) -> str:
    """'a.b.c' for nested Name/Attribute chains, '' otherwise."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def infer_module_name(path: str) -> str:
    """Dotted module name from a file path, by walking up __init__.py."""
    path = os.path.abspath(path)
    parts = [os.path.splitext(os.path.basename(path))[0]]
    directory = os.path.dirname(path)
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        parts.append(os.path.basename(directory))
        parent = os.path.dirname(directory)
        if parent == directory:
            break
        directory = parent
    if parts[0] == "__init__":
        parts = parts[1:] or [""]
    return ".".join(reversed(parts))


def _parse_pragmas(info: ModuleInfo, source: str) -> None:
    """Collect suppressions and the module-name override from comments.

    A pragma is a COMMENT token that starts with ``# repro-lint:``, so
    neither pragma-shaped text in a string or docstring nor a prose
    comment quoting one (``#: write `# repro-lint: ...```) counts.
    """
    if "repro-lint:" not in source:
        return  # nothing to find: skip tokenising
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.COMMENT:
            continue
        line, col = token.start
        match = _SUPPRESS_RE.match(token.string)
        if match:
            rules = tuple(part.strip() for part in match.group(1).split(",")
                          if part.strip())
            reason = (match.group(2) or "").strip()
            # A comment-only line waives the next line; a trailing
            # comment waives its own line.
            code = token.line[:col].strip()
            target = line + 1 if not code else line
            info.suppressions.append(
                Suppression(line=target, rules=rules, reason=reason,
                            pragma_line=line))
        module_match = _MODULE_RE.match(token.string)
        if module_match:
            info.module = module_match.group(1)


def _collect_imports(info: ModuleInfo) -> None:
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                info.module_aliases[alias.asname or
                                    alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0])
                if alias.asname:
                    info.module_aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                full = f"{node.module}.{alias.name}"
                # Could be a submodule (alias it) or a name (map it);
                # record both views, resolvers try each.
                info.module_aliases.setdefault(local, full)
                info.imported_names[local] = (node.module, alias.name)


def load_module(path: str, display_path: str) -> Tuple[Optional[ModuleInfo],
                                                       Optional[str]]:
    """Parse one file; returns (info, None) or (None, syntax error text)."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return None, f"line {error.lineno}: {error.msg}"
    info = ModuleInfo(path=display_path, module=infer_module_name(path),
                      tree=tree)
    _parse_pragmas(info, source)
    _collect_imports(info)
    return info, None

