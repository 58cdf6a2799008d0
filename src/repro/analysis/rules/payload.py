"""Payload-safety rules: keep pickle-boundary payloads picklable.

PR 3's executor redesign established a contract: everything that crosses
a pool's ``submit`` or rides on a :class:`~repro.sweep.runner.SweepConfig`
/ :class:`~repro.sweep.executors.ShardSpec` /
:class:`~repro.sweep.grid.RunSpec` must pickle, because sweep execution
may serialize it into a worker or shard child process.  These rules
catch the classic violations at the call site instead of at 2 a.m. in a
worker traceback:

* **PAY001** — a lambda or nested (non-module-level) function passed
  across the boundary.
* **PAY002** — an open file handle or a threading lock/primitive passed
  across the boundary.
* **PAY003** — a generator expression passed across the boundary
  (generators never pickle).

``submit`` receivers known to be thread pools
(``ThreadPoolExecutor()``) are exempt: threads share memory and have no
pickle boundary.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from repro.analysis.findings import Finding, rule
from repro.analysis.model import (
    ModuleInfo,
    ProjectIndex,
    dotted_name,
)

rule("PAY001",
     "lambda or nested function crosses the pickle boundary",
     "only module-level callables pickle; a lambda/closure dies inside "
     "ProcessPoolExecutor or shard dispatch.")
rule("PAY002",
     "file handle or lock crosses the pickle boundary",
     "open files and threading primitives are process-local; pass paths "
     "and re-open/re-create on the worker side.")
rule("PAY003",
     "generator crosses the pickle boundary",
     "generators cannot be pickled; materialize a list/tuple before "
     "submitting.")

#: Constructors whose instances must stay pickle-clean.
_PAYLOAD_TYPES = {"SweepConfig", "ShardSpec", "RunSpec"}
#: Calls that construct unpicklable resources (PAY002).
_RESOURCE_CALLS = {"open", "Lock", "RLock", "Condition", "Semaphore",
                   "BoundedSemaphore", "Event", "Barrier",
                   "threading.Lock", "threading.RLock",
                   "threading.Condition", "threading.Semaphore",
                   "threading.BoundedSemaphore", "threading.Event",
                   "threading.Barrier", "multiprocessing.Lock",
                   "multiprocessing.RLock"}
_THREAD_POOLS = {"ThreadPoolExecutor", "futures.ThreadPoolExecutor",
                 "concurrent.futures.ThreadPoolExecutor"}


class _BindingCollector(ast.NodeVisitor):
    """File-wide maps: nested defs, thread-pool names, resource names."""

    def __init__(self) -> None:
        self.nested_defs: Set[str] = set()
        self.thread_pools: Set[str] = set()
        self.resources: Dict[str, str] = {}  # name -> resource call text
        self._depth = 0

    def _visit_def(self, node) -> None:
        if self._depth > 0:
            self.nested_defs.add(node.name)
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_FunctionDef = _visit_def
    visit_AsyncFunctionDef = _visit_def

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # Methods are attribute lookups at the call site, not bare names;
        # don't record them as nested defs.
        depth, self._depth = self._depth, -1000
        self.generic_visit(node)
        self._depth = depth

    def _record(self, targets, value: ast.expr) -> None:
        if not isinstance(value, ast.Call):
            return
        callee = dotted_name(value.func)
        for target in targets:
            name = dotted_name(target)
            if not name:
                continue
            if callee in _THREAD_POOLS:
                self.thread_pools.add(name)
            elif callee in _RESOURCE_CALLS:
                self.resources[name] = callee

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record([node.target], node.value)
        self.generic_visit(node)

    def visit_withitem(self, node: ast.withitem) -> None:
        if node.optional_vars is not None:
            self._record([node.optional_vars], node.context_expr)
        self.generic_visit(node)


class _PayloadVisitor(ast.NodeVisitor):
    def __init__(self, info: ModuleInfo,
                 bindings: _BindingCollector) -> None:
        self.info = info
        self.bindings = bindings
        self.findings: List[Finding] = []

    def _emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            rule=rule_id, path=self.info.path, line=node.lineno,
            col=node.col_offset, message=message))

    def _check_value(self, value: ast.expr, boundary: str) -> None:
        if isinstance(value, ast.Lambda):
            self._emit("PAY001", value,
                       f"lambda passed to {boundary} cannot be pickled; "
                       f"use a module-level function")
        elif isinstance(value, ast.GeneratorExp):
            self._emit("PAY003", value,
                       f"generator expression passed to {boundary} "
                       f"cannot be pickled; materialize a list first")
        elif isinstance(value, ast.Call):
            callee = dotted_name(value.func)
            if callee in _RESOURCE_CALLS:
                self._emit("PAY002", value,
                           f"'{callee}(...)' result passed to {boundary} "
                           f"is process-local and cannot be pickled")
        else:
            name = dotted_name(value)
            if name in self.bindings.nested_defs:
                self._emit("PAY001", value,
                           f"nested function {name!r} passed to "
                           f"{boundary} cannot be pickled; move it to "
                           f"module level")
            elif name in self.bindings.resources:
                self._emit("PAY002", value,
                           f"{name!r} (from "
                           f"{self.bindings.resources[name]}(...)) "
                           f"passed to {boundary} is process-local and "
                           f"cannot be pickled")

    def visit_Call(self, node: ast.Call) -> None:
        callee = dotted_name(node.func)
        # Executor.submit(...) boundary.
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "submit":
            receiver = dotted_name(node.func.value)
            if receiver not in self.bindings.thread_pools:
                for arg in list(node.args) + [kw.value
                                              for kw in node.keywords]:
                    self._check_value(arg, f"{receiver or '<expr>'}.submit")
        # Payload-type constructors.
        tail = callee.split(".")[-1]
        if tail in _PAYLOAD_TYPES:
            for kw in node.keywords:
                self._check_value(kw.value, f"{tail}({kw.arg}=...)")
            for arg in node.args:
                self._check_value(arg, f"{tail}(...)")
        self.generic_visit(node)


def check_payload_safety(info: ModuleInfo,
                         index: ProjectIndex) -> List[Finding]:
    bindings = _BindingCollector()
    bindings.visit(info.tree)
    visitor = _PayloadVisitor(info, bindings)
    visitor.visit(info.tree)
    return visitor.findings
