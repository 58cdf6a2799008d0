"""Registry-contract rules: specs and signatures agree.

The experiment registry promises two things the runtime only enforces
late (at registration import time, or when a sweep ships an experiment
to a worker).  These rules move both to lint time, resolving callables
*across files* through the project index:

* **REG001** — an ``ExperimentSpec``'s declared ``defaults`` /
  ``params`` name a parameter the experiment function's signature does
  not accept.
* **REG003** — the callable handed to ``ExperimentSpec`` is a lambda or
  a nested function, which cannot be named by string or pickled into a
  sweep worker.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis.findings import Finding, rule
from repro.analysis.model import ModuleInfo, ProjectIndex, dotted_name

rule("REG001",
     "ExperimentSpec parameter not in the experiment's signature",
     "defaults/params must match the callable's signature or sweeps "
     "fail at dispatch time with a TypeError deep in a worker.")
rule("REG003",
     "experiment callable is not a module-level function",
     "specs reference module-level callables only: the registry ships "
     "experiments to workers by name.")


def _literal_str(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _declared_param_names(call: ast.Call) -> List[ast.expr]:
    """Name-bearing nodes from defaults=((name, v), ...) and params=(...)."""
    nodes: List[ast.expr] = []
    for kw in call.keywords:
        if kw.arg == "defaults" and isinstance(kw.value,
                                               (ast.Tuple, ast.List)):
            for pair in kw.value.elts:
                if isinstance(pair, (ast.Tuple, ast.List)) and pair.elts:
                    nodes.append(pair.elts[0])
        elif kw.arg == "params" and isinstance(kw.value,
                                               (ast.Tuple, ast.List)):
            for spec in kw.value.elts:
                if isinstance(spec, ast.Call) and spec.args:
                    nodes.append(spec.args[0])
    return nodes


class _NestedDefs(ast.NodeVisitor):
    def __init__(self) -> None:
        self.names: Set[str] = set()
        self._depth = 0

    def _visit_def(self, node) -> None:
        if self._depth > 0:
            self.names.add(node.name)
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_FunctionDef = _visit_def
    visit_AsyncFunctionDef = _visit_def


def _check_spec_call(info: ModuleInfo, index: ProjectIndex,
                     call: ast.Call, nested: Set[str],
                     findings: List[Finding]) -> None:
    # ExperimentSpec(name, fn, reporter, ...)
    fn_node: Optional[ast.expr] = None
    for kw in call.keywords:
        if kw.arg == "fn":
            fn_node = kw.value
    if fn_node is None and len(call.args) >= 2:
        fn_node = call.args[1]
    spec_name = None
    for kw in call.keywords:
        if kw.arg == "name":
            spec_name = _literal_str(kw.value)
    if spec_name is None and call.args:
        spec_name = _literal_str(call.args[0])
    label = f"experiment {spec_name!r}" if spec_name else "experiment spec"

    def emit(rule_id: str, node: ast.AST, message: str) -> None:
        findings.append(Finding(
            rule=rule_id, path=info.path, line=node.lineno,
            col=node.col_offset, message=message))

    if fn_node is None:
        return
    # REG003: lambdas and nested functions can't be shipped by name.
    if isinstance(fn_node, ast.Lambda):
        emit("REG003", fn_node,
             f"{label}: fn is a lambda; experiments must be "
             f"module-level functions (pickled by name into workers)")
        return
    if isinstance(fn_node, ast.Name) and fn_node.id in nested:
        emit("REG003", fn_node,
             f"{label}: fn {fn_node.id!r} is a nested function; move "
             f"it to module level so workers can import it")
        return

    fn_info = index.resolve_function(info, fn_node)
    if fn_info is None:
        return  # out-of-index callable (plugin, class): nothing to check
    accepted = set(fn_info.params)
    for name_node in _declared_param_names(call):
        declared = _literal_str(name_node)
        if declared is None:
            continue
        if declared not in accepted and not fn_info.has_kwargs:
            emit("REG001", name_node,
                 f"{label}: parameter {declared!r} is not accepted by "
                 f"{fn_info.name}() (signature: "
                 f"{', '.join(fn_info.params) or 'no parameters'})")


def check_registry_contracts(info: ModuleInfo,
                             index: ProjectIndex) -> List[Finding]:
    findings: List[Finding] = []
    nested = _NestedDefs()
    nested.visit(info.tree)
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Call):
            callee = dotted_name(node.func).split(".")[-1]
            if callee == "ExperimentSpec":
                _check_spec_call(info, index, node, nested.names, findings)
    return findings
