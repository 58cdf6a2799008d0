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
read + branch when off.  Each name below is imported from its submodule
on first access: a simulation's ``from repro.obs import recorder`` and a
sweep's ``repro.obs.telemetry`` load no trace analytics.

The supported surface is exactly ``__all__`` — which includes the two
wall-domain modules ``telemetry`` and ``profile`` as *public modules*
(sweep machinery addresses their schemas directly).  The remaining
submodules are internal, and the ``API001`` lint rule flags in-repo
imports that bypass the package for names it already exports.
"""

from repro._surface import lazy_exports as _lazy_exports

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

_lazy_exports(globals(), {
    "diff": ("DiffReport", "diff_sweeps"),
    "forensics": ("RouterExplanation", "VerdictReport", "explain_router",
                  "explain_sweep", "flow_timeline"),
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry",
                "merge_snapshots"),
    "query": ("QueryFilter", "TraceEvent", "TraceReader", "trace_files"),
    "record": ("Recorder", "recorder"),
    "sinks": ("JsonlSink", "MemorySink", "NullSink"),
})
