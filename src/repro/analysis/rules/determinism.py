"""Determinism rules: keep simulation code bit-reproducible.

The traffic-validation detectors and the sweep engine's shard-merge
identity both assume that a run is a pure function of its
:class:`~repro.sweep.grid.RunSpec` — same seed, same bytes.  These rules
fence off the three classic leaks inside the simulation packages
(``repro.net``, ``repro.core``, ``repro.dist``, ``repro.crypto``,
``repro.obs``):

* **DET001** — the process-global ``random`` generator (``random.random()``,
  ``random.choice`` ...).  Seeded ``random.Random(seed)`` instances are
  fine; the global generator's state is shared, order-dependent, and
  invisible to the cache key.
* **DET002** — unseeded numpy RNGs (``np.random.rand()``,
  ``default_rng()`` with no seed).  ``default_rng(seed)`` /
  ``RandomState(seed)`` are fine.
* **DET003** — clock and OS entropy reads (``time.time``,
  ``time.perf_counter``, ``time.monotonic``, ``datetime.now``,
  ``os.urandom``, ``uuid.uuid1/uuid4``, ``secrets``) in simulation code.
  No module is exempt: wall times are measured by ``repro.sweep``, and
  a simulation module that cannot read any clock has no wall value to
  leak into a trace.
* **DET004** — iterating a ``set``/``frozenset``.  String hashing is
  salted per process (PYTHONHASHSEED), so set order differs across the
  very worker processes a sweep fans out to.  In simulation code a set
  is iterated through ``sorted(...)`` or an order-insensitive reducer
  (``sum``/``min``/``max``/``len``/``any``/``all``/set constructors);
  anything else carries a pragma with a reason.

The rules are syntactic; the byte-level check of the same invariant is
``tests/test_hashseed_determinism.py``, which runs sweeps under
different ``PYTHONHASHSEED`` values and compares results and traces.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.analysis.findings import Finding, rule
from repro.analysis.model import ModuleInfo, ProjectIndex, dotted_name

rule("DET001",
     "call through the process-global random generator",
     "global RNG state is shared and order-dependent; thread a seeded "
     "random.Random(seed) instance instead so runs are pure functions "
     "of their RunSpec.")
rule("DET002",
     "unseeded numpy random call",
     "np.random.* and default_rng() without a seed draw from hidden "
     "global state; pass an explicit seed or Generator.")
rule("DET003",
     "clock or OS-entropy read in simulation code",
     "time.time()/perf_counter()/datetime.now()/os.urandom() make a run "
     "depend on when and where it executed, breaking cache keys and "
     "shard-merge bit-identity.")
rule("DET004",
     "iteration over an unordered set in simulation code",
     "set order is salted per process (PYTHONHASHSEED); iterate "
     "sorted(...) or an ordered container when order can feed "
     "scheduling, serialization, or hashing.")

#: Packages the determinism rules police.
SIM_PACKAGES = ("repro.net", "repro.core", "repro.dist", "repro.crypto",
                "repro.obs")

#: random-module attributes that are *not* global-state draws.
_RANDOM_SAFE = {"Random", "SystemRandom", "__name__"}
#: numpy.random attributes that are deterministic when given a seed arg.
_NUMPY_SEEDED_OK = {"default_rng", "RandomState", "Generator",
                    "SeedSequence", "PCG64", "Philox", "MT19937", "SFC64"}
#: Wrappers whose result does not depend on iteration order.
_ORDER_INSENSITIVE = {"sorted", "sum", "min", "max", "len", "any", "all",
                      "set", "frozenset", "Counter"}
#: datetime constructors that read the wall clock.
_WALLCLOCK_DATETIME = {"now", "utcnow", "today"}
#: time-module functions that read a clock.  The interval clocks count:
#: an elapsed time is as host-dependent as a timestamp once it reaches a
#: trace or a result.
_WALLCLOCK_TIME = {"time", "time_ns", "localtime", "gmtime", "ctime",
                   "perf_counter", "perf_counter_ns", "monotonic",
                   "monotonic_ns", "process_time", "process_time_ns"}
#: Set-type annotation spellings for within-file set inference.
_SET_ANNOTATIONS = ("set", "Set", "FrozenSet", "frozenset", "AbstractSet",
                    "MutableSet")


def _in_sim_scope(module: str) -> bool:
    return any(module == pkg or module.startswith(pkg + ".")
               for pkg in SIM_PACKAGES)


class _SetTracker(ast.NodeVisitor):
    """Within-file inference of set-typed names and attributes.

    Over-approximates on purpose: a name assigned from a set expression
    or annotated ``Set[...]`` anywhere in the file is treated as
    set-typed everywhere.  Scope-precise inference is not worth the
    complexity for a codebase this size.
    """

    def __init__(self) -> None:
        self.set_names: Set[str] = set()

    def _is_set_annotation(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value.split("[")[0].strip()
            return text.split(".")[-1] in _SET_ANNOTATIONS
        text = dotted_name(node)
        return text.split(".")[-1] in _SET_ANNOTATIONS

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        target = dotted_name(node.target)
        if target and self._is_set_annotation(node.annotation):
            self.set_names.add(target)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_expr(node.value, self.set_names):
            for target in node.targets:
                text = dotted_name(target)
                if text:
                    self.set_names.add(text)
        self.generic_visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        if node.annotation is not None \
                and self._is_set_annotation(node.annotation):
            self.set_names.add(node.arg)
        self.generic_visit(node)


def _is_set_expr(node: ast.expr, set_names: Set[str]) -> bool:
    """Is this expression certainly a set/frozenset?"""
    if isinstance(node, (ast.SetComp, ast.Set)):
        return True
    if isinstance(node, ast.Call):
        callee = dotted_name(node.func)
        if callee in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "union", "intersection", "difference",
                "symmetric_difference"):
            return _is_set_expr(node.func.value, set_names)
        return False
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)):
        return (_is_set_expr(node.left, set_names)
                or _is_set_expr(node.right, set_names))
    text = dotted_name(node)
    if text:
        return text in set_names or text.split(".", 1)[-1] in set_names
    return False


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, info: ModuleInfo, set_names: Set[str]) -> None:
        self.info = info
        self.set_names = set_names
        self.findings: List[Finding] = []
        #: comprehension nodes fed straight into an order-insensitive
        #: reducer (sum/min/max/any/all/sorted/...): exempt from DET004.
        self._exempt: Set[int] = set()
        #: local aliases for the random/numpy/time modules, from imports.
        self.random_aliases: Set[str] = set()
        self.numpy_aliases: Set[str] = set()
        self.global_random_names: Set[str] = set()  # from random import x
        self.datetime_aliases: Set[str] = set()     # datetime *class* names
        for alias, module in info.module_aliases.items():
            if module == "random":
                self.random_aliases.add(alias)
            elif module in ("numpy", "numpy.random"):
                self.numpy_aliases.add(alias)
            elif module == "datetime.datetime":
                self.datetime_aliases.add(alias)
        for local, (module, name) in info.imported_names.items():
            if module == "random" and name not in _RANDOM_SAFE:
                self.global_random_names.add(local)
            elif module == "datetime" and name == "datetime":
                self.datetime_aliases.add(local)

    def _emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            rule=rule_id, path=self.info.path, line=node.lineno,
            col=node.col_offset, message=message))

    # -- DET001 / DET002 / DET003: calls -------------------------------
    def _check_call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if not dotted:
            return
        head, _, tail = dotted.partition(".")

        # DET001: random.<fn>() through the module-global generator.
        if head in self.random_aliases and tail \
                and tail not in _RANDOM_SAFE:
            self._emit("DET001", node,
                       f"'{dotted}()' uses the process-global RNG; "
                       f"thread a seeded random.Random instance instead")
        elif dotted in self.global_random_names:
            self._emit("DET001", node,
                       f"'{dotted}()' (imported from random) uses the "
                       f"process-global RNG; thread a seeded "
                       f"random.Random instance instead")

        # DET002: numpy.random draws.
        parts = dotted.split(".")
        np_random = (
            (parts[0] in self.numpy_aliases and len(parts) >= 2
             and (self.info.module_aliases.get(parts[0]) == "numpy.random"
                  or parts[1] == "random")))
        if np_random:
            fn = parts[-1]
            if fn in _NUMPY_SEEDED_OK:
                if not node.args and not node.keywords:
                    self._emit("DET002", node,
                               f"'{dotted}()' without a seed draws OS "
                               f"entropy; pass an explicit seed")
            elif fn not in ("__name__",):
                self._emit("DET002", node,
                           f"'{dotted}()' uses numpy's global RNG state; "
                           f"use np.random.default_rng(seed)")

        # DET003: clock / entropy.
        if head == "time" and tail in _WALLCLOCK_TIME \
                and "time" in self.info.module_aliases:
            self._emit("DET003", node,
                       f"'{dotted}()' reads the wall clock inside "
                       f"simulation code; derive times from the "
                       f"simulated clock or the seed")
        if len(parts) >= 2 and parts[-1] in _WALLCLOCK_DATETIME \
                and (parts[0] in self.datetime_aliases
                     or (parts[0] == "datetime" and len(parts) == 3)):
            self._emit("DET003", node,
                       f"'{dotted}()' reads the wall clock inside "
                       f"simulation code")
        if dotted.endswith("os.urandom") or dotted == "os.urandom":
            self._emit("DET003", node,
                       "'os.urandom()' reads OS entropy inside "
                       "simulation code; derive bytes from the seed")
        elif head == "secrets" and tail:
            self._emit("DET003", node,
                       f"'{dotted}()' reads OS entropy inside "
                       f"simulation code")
        elif head == "uuid" and tail in ("uuid1", "uuid4"):
            self._emit("DET003", node,
                       f"'{dotted}()' is non-deterministic; derive "
                       f"IDs from a counter or the seed")

    # -- DET004: set iteration ------------------------------------------
    def _check_iteration(self, iterable: ast.expr, node: ast.AST) -> None:
        if _is_set_expr(iterable, self.set_names):
            text = dotted_name(iterable) or ast.unparse(iterable)
            self._emit("DET004", node,
                       f"iteration over set {text!r} has "
                       f"PYTHONHASHSEED-dependent order; wrap in "
                       f"sorted(...) or use an ordered container")

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        if id(node) not in self._exempt:
            for gen in node.generators:
                self._check_iteration(gen.iter, node)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building a set from a set is order-insensitive.
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        # Dict insertion order is iteration order: flag it.
        self._visit_comprehension(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._check_call(node)
        # list(someset) / tuple(someset) materialize unordered state;
        # sorted(someset) / sum(...) etc. do not.
        callee = dotted_name(node.func)
        if callee.split(".")[-1] in _ORDER_INSENSITIVE:
            self._exempt.update(
                id(arg) for arg in node.args
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp,
                                    ast.SetComp)))
        if callee in ("list", "tuple") and len(node.args) == 1:
            self._check_iteration(node.args[0], node)
        if callee == "enumerate" and node.args:
            self._check_iteration(node.args[0], node)
        if callee in ("map", "filter", "zip"):
            for arg in node.args[1:] if callee in ("map", "filter") \
                    else node.args:
                self._check_iteration(arg, node)
        if callee.endswith(".join") and len(node.args) == 1:
            self._check_iteration(node.args[0], node)
        self.generic_visit(node)


def check_determinism(info: ModuleInfo,
                      index: ProjectIndex) -> List[Finding]:
    if not _in_sim_scope(info.module):
        return []
    tracker = _SetTracker()
    tracker.visit(info.tree)
    visitor = _DeterminismVisitor(info, tracker.set_names)
    visitor.visit(info.tree)
    return visitor.findings
