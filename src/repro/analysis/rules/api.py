"""Public-API surface rules: internals stay internal.

``repro.net``, ``repro.core``, ``repro.eval`` and ``repro.obs`` export
their supported surface through an explicit ``__all__``; behind it is an
implementation module that may be reorganized freely.  This pass is the
one enforcer of that promise, and ``__all__`` is what it reads:

* **API001** — code outside the owning package imports a name from an
  internal module (``from repro.net.queues import REDQueue``) when the
  package itself exports that name (``from repro.net import REDQueue``),
  or imports an internal module wholesale (``import repro.net.queues``,
  ``from repro.net import queues``).  Names *without* a public re-export
  are exempt: importing them from the implementation module is the only
  way and is an accepted, visible signal that the dependency is on
  internals.
  A submodule whose name is itself in the package's ``__all__`` (e.g.
  ``repro.eval.registry``) is a public module: importing it — or names
  from it — is part of the promised surface and never flagged.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.findings import Finding, rule
from repro.analysis.model import ModuleInfo, ProjectIndex

rule("API001",
     "internal-module import bypasses the package's public surface",
     "repro.net / repro.core promise only their __all__; import "
     "publicly exported names from the package so internal modules can "
     "be reorganized without breaking callers.")

#: Packages with a defended public surface.
PUBLIC_PACKAGES = ("repro.net", "repro.core", "repro.eval", "repro.obs")


def _package_exports(index: ProjectIndex,
                     package: str) -> Optional[FrozenSet[str]]:
    """The package's ``__all__`` as parsed from its ``__init__``.

    Returns None when the package is not part of this lint run (single
    file invocations outside the tree) — the rule then stays silent
    rather than guessing.
    """
    info = index.modules.get(package)
    if info is None:
        return None
    for node in ast.walk(info.tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    names = [elt.value for elt in node.value.elts
                             if isinstance(elt, ast.Constant)
                             and isinstance(elt.value, str)]
                    return frozenset(names)
    return None


def _exports_for(index: ProjectIndex) -> Dict[str, Optional[FrozenSet[str]]]:
    return {pkg: _package_exports(index, pkg) for pkg in PUBLIC_PACKAGES}


def _owning_package(module: str) -> Optional[Tuple[str, str]]:
    """(package, submodule path) when ``module`` is inside a defended one."""
    for pkg in PUBLIC_PACKAGES:
        if module == pkg or module.startswith(pkg + "."):
            return pkg, module[len(pkg) + 1:]
    return None


def check_api_surface(info: ModuleInfo, index: ProjectIndex) -> List[Finding]:
    findings: List[Finding] = []
    # Intra-package imports are how the implementation is built; a module
    # inside a defended package is exempt for its own package only.
    home = _owning_package(info.module)
    exports = _exports_for(index)

    def emit(node: ast.AST, message: str) -> None:
        findings.append(Finding(
            rule="API001", path=info.path, line=node.lineno,
            col=node.col_offset, message=message))

    for node in ast.walk(info.tree):
        if isinstance(node, ast.ImportFrom):
            if node.level or not node.module:
                continue
            owner = _owning_package(node.module)
            if owner is None:
                continue
            pkg, sub = owner
            if home is not None and home[0] == pkg:
                continue  # importing our own package's internals
            public = exports.get(pkg)
            if public is None:
                continue
            if not sub:
                # ``from repro.net import X``: flag only submodule pulls
                # (a submodule named in __all__ is a public module).
                for alias in node.names:
                    if (alias.name not in public
                            and f"{pkg}.{alias.name}" in index.modules):
                        emit(node,
                             f"'{pkg}.{alias.name}' is an internal module; "
                             f"import the supported names from {pkg} "
                             f"(see {pkg}.__all__)")
                continue
            if sub.split(".")[0] in public:
                continue  # public submodule: its contents are fair game
            for alias in node.names:
                if alias.name in public:
                    emit(node,
                         f"{alias.name!r} is part of the public {pkg} "
                         f"API; import it from {pkg}, not the internal "
                         f"module {node.module!r}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                owner = _owning_package(alias.name)
                if owner is None or not owner[1]:
                    continue
                pkg = owner[0]
                if home is not None and home[0] == pkg:
                    continue
                public = exports.get(pkg)
                if public is None:
                    continue
                if owner[1].split(".")[0] in public:
                    continue  # public submodule import, e.g. repro.eval.registry
                emit(node,
                     f"{alias.name!r} is an internal module; import the "
                     f"supported names from {pkg} (see {pkg}.__all__)")
    return findings
