"""repro.obs: the observability subsystem.

Two strictly separated time domains:

* **sim domain** — :mod:`~repro.obs.record` (global :class:`Recorder`),
  :mod:`~repro.obs.metrics`, :mod:`~repro.obs.trace`,
  :mod:`~repro.obs.sinks`, plus the trace analytics layer
  (:mod:`~repro.obs.query`, :mod:`~repro.obs.forensics`,
  :mod:`~repro.obs.diff`).  Trace timestamps are Simulator virtual
  time only; output is deterministic and byte-stable across runs.
* **wall domain** — :mod:`~repro.obs.telemetry` (sweep wall times,
  cache/retry/worker stats) and :mod:`~repro.obs.profile` (cProfile
  wrapper).  Wall readings never influence simulated behaviour.

The global recorder is disabled by default; every instrumentation site
guards on ``recorder().active`` so the subsystem costs one attribute
read + branch when off.

The supported surface is exactly ``__all__`` — which includes the two
wall-domain modules ``telemetry`` and ``profile`` as *public modules*
(sweep machinery addresses their schemas directly).  The remaining
submodules are internal: reaching them through the package emits a
:class:`DeprecationWarning` naming the supported import path, and the
``API001`` lint rule flags in-repo imports that bypass the package for
names it already exports.
"""

from repro._surface import narrow as _narrow
from repro.obs.diff import DiffReport, diff_sweeps
from repro.obs.forensics import (
    RouterExplanation,
    VerdictReport,
    explain_router,
    explain_sweep,
    flow_timeline,
)
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               merge_snapshots)
from repro.obs.query import (
    QueryFilter,
    TraceEvent,
    TraceReader,
    trace_files,
)
from repro.obs.record import Recorder, recorder
from repro.obs.sinks import JsonlSink, MemorySink, NullSink

__all__ = [
    "profile",
    "telemetry",
    "Counter",
    "DiffReport",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "NullSink",
    "QueryFilter",
    "Recorder",
    "RouterExplanation",
    "TraceEvent",
    "TraceReader",
    "VerdictReport",
    "diff_sweeps",
    "explain_router",
    "explain_sweep",
    "flow_timeline",
    "merge_snapshots",
    "recorder",
    "trace_files",
]

# Internal implementation modules stay reachable through the package,
# with a deprecation warning; public submodules import silently.
_narrow(globals(),
        internal=("cli", "diff", "forensics", "metrics", "query",
                  "record", "sinks", "trace"),
        public=("profile", "telemetry"))
