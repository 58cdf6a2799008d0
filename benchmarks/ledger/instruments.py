"""The harness's own instruments: spans, failure tally, profile fold.

All of it observes ``repro`` from outside: spans wrap the calls the
harness makes, the layer table is a fold of ``cProfile`` rows by module,
and work counts are ``ncalls`` of named public callables.  None of it is
active while end-to-end numbers are taken.
"""

from __future__ import annotations

import contextlib
import heapq
import hmac
import importlib
import json
import os
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from spec import LAYER_MODULES, LAYERS, OTHER

FuncKey = Tuple[str, int, str]  # (filename, first line, name) as in pstats


#: Timings are scaled to a host on which ``calibration_s()`` takes this long
#: (the sandbox this was built on, in its quiet minutes).
CALIB_REF_S = 0.15


def calibration_s() -> float:
    """Seconds this host takes for a fixed pure-Python heap/dict/HMAC loop.

    The 2-core sandbox slows down by 30-40% for seconds to minutes at a
    time, invisibly to the guest (no steal time is reported): over 70
    back-to-back repetitions of one body, medians of 7 scattered 33%
    (IQR/median).  The same repetitions, summed and divided by the summed
    time of this loop run between them, scattered 7%.  So every reported
    time is such a ratio; see ``scaled``.  The heap is kept small so the
    loop does not move ``peak_rss_mb``.
    """
    started = time.perf_counter()
    heap: list = []
    table: Dict[int, int] = {}
    for i in range(120_000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        if len(heap) > 1024:
            heapq.heappop(heap)
        table[i % 4096] = table.get(i % 4096, 0) + i
    for i in range(12_000):
        hmac.new(b"ledger", i.to_bytes(8, "big"), "sha256").digest()
    return time.perf_counter() - started


def scaled(samples: List[float], calibrations: List[float]) -> List[float]:
    """*samples* as the reference host would read them.

    One factor for the whole run, from the mean of every calibration in it:
    a single 0.15 s loop is too short a proxy for a 2 s body, their sums
    are not.
    """
    factor = CALIB_REF_S * len(calibrations) / sum(calibrations)
    return [seconds * factor for seconds in samples]


class Tally:
    """Operations attempted and failed, with a reason per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def record_many(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failures.extend([what] * failed)


class Tracer:
    """In-memory spans: name, layer, start, end, parent, workload id.

    Disabled (the default) ``span`` costs one attribute test, so bodies
    keep their span calls during the timed repetitions.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.enabled = False
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str = OTHER):
        if not self.enabled:
            yield
            return
        record = {"id": len(self.spans), "name": name, "layer": layer,
                  "workload": self.workload,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def duration(self, name: str) -> Optional[float]:
        """Total seconds inside spans called *name* (None if there are none)."""
        found = [s["end"] - s["start"] for s in self.spans
                 if s["name"] == name]
        return sum(found) if found else None

    def self_time_by_layer(self) -> Dict[str, float]:
        """Span duration minus the part its child spans cover, per layer."""
        child_time: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        layers = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            layers[s["layer"]] += (s["end"] - s["start"]
                                   - child_time.get(s["id"], 0.0))
        return layers


# -- cProfile rows -> layer table --------------------------------------------

_PREFIX_TO_LAYER = sorted(
    ((prefix, layer) for layer, prefixes in LAYER_MODULES.items()
     for prefix in prefixes), key=lambda item: -len(item[0]))


def layer_of_file(filename: str) -> Optional[str]:
    """The layer owning *filename*, or None for code outside ``repro``."""
    marker = os.sep + "repro" + os.sep
    at = filename.rfind(marker)
    if at < 0:
        return None
    relative = filename[at + len(marker):].replace(os.sep, "/")
    for prefix, layer in _PREFIX_TO_LAYER:
        if relative.startswith(prefix):
            return layer
    return OTHER


def fold_profile(stats: Dict[FuncKey, tuple]) -> Dict[str, float]:
    """Fold ``pstats`` rows into self seconds per layer.

    A ``repro`` function's ``tottime`` goes to its module's layer.  Any
    other row (built-in, stdlib, third party) is split among its callers
    in proportion to the time each caller's calls spent in it, following
    caller chains until ``repro`` code is reached; rows with no ``repro``
    ancestor land in ``other``.
    """
    memo: Dict[FuncKey, Dict[str, float]] = {}

    def spread(func: FuncKey,
               visiting: frozenset) -> Tuple[Dict[str, float], bool]:
        """(layer -> share of *func*, whether no caller cycle was cut)."""
        layer = layer_of_file(func[0])
        if layer is not None:
            return {layer: 1.0}, True
        if func in memo:
            return memo[func], True
        callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        open_callers = [c for c in callers if c not in visiting]
        clean = len(open_callers) == len(callers)
        weights = {c: callers[c][2] for c in open_callers}
        if not any(weights.values()):
            weights = {c: float(callers[c][0]) for c in open_callers}
        total = sum(weights.values())
        shares: Dict[str, float] = {}
        inside = visiting | {func}
        for caller, weight in weights.items():
            if weight <= 0:
                continue
            parts, caller_clean = spread(caller, inside)
            clean = clean and caller_clean
            for name, part in parts.items():
                shares[name] = shares.get(name, 0.0) + part * weight / total
        result = shares or {OTHER: 1.0}
        if clean:  # an answer that cut a cycle depends on the entry point
            memo[func] = result
        return result, clean

    layers = dict.fromkeys(LAYERS, 0.0)
    for func, row in stats.items():
        tottime = row[2]
        if tottime <= 0:
            continue
        for name, part in spread(func, frozenset())[0].items():
            layers[name] += tottime * part
    return layers


# -- ncalls of named public callables ----------------------------------------

def _code_key(target: str) -> Optional[FuncKey]:
    """``"repro.net:Router.receive"`` -> its pstats key, None if it is gone."""
    module_name, _, path = target.partition(":")
    try:
        obj = importlib.import_module(module_name)
        for part in path.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return None
    code = getattr(getattr(obj, "__func__", obj), "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def ncalls(stats: Dict[FuncKey, tuple],
           targets: Iterable[str]) -> Optional[int]:
    """Summed call count of *targets*; None when one no longer exists."""
    total = 0
    for target in targets:
        key = _code_key(target)
        if key is None:
            return None
        total += stats.get(key, (0, 0))[1]
    return total


def ncalls_from(stats: Dict[FuncKey, tuple], builtin: str,
                caller: str) -> Optional[int]:
    """Calls of the built-in row named *builtin* made by *caller*."""
    caller_key = _code_key(caller)
    if caller_key is None:
        return None
    row = stats.get(("~", 0, builtin))
    if row is None:
        return 0
    edge = row[4].get(caller_key)
    return edge[0] if edge else 0


def ratio(numerator: Optional[float],
          denominator: Optional[float]) -> Optional[float]:
    """None only when an operand is missing; nothing over nothing is 0."""
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def timed(fn: Callable[[], object]) -> Tuple[float, object]:
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value
