"""The global trace recorder.

One process-wide :class:`Recorder` instance sits behind ``recorder()``.
It is disabled by default: ``rec.active`` is a plain attribute read, so
instrumentation sites guard with ``if rec.active:`` and cost one
attribute load + branch when tracing is off.  Sites that would build a
tap object or format an event do so only inside that guard.

Time-domain rule: every ``t=`` passed to :meth:`Recorder.event` must be
simulator virtual time (``sim.now``) or an interval bound derived from
it — never a wall clock.  Wall times are measured by ``repro.sweep`` and
only stored and merged by :mod:`repro.obs.telemetry`.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import NullSink


class Recorder:
    """Pairs a trace sink with a metrics registry behind one switch."""

    def __init__(self) -> None:
        self.active = False
        self.sink = NullSink()
        self.metrics = MetricsRegistry()
        self._events = 0

    # -- lifecycle ----------------------------------------------------

    def enable(self, sink) -> None:
        """Start recording into *sink* with a fresh metrics registry."""
        if self.active:
            raise RuntimeError("recorder already enabled; disable() first")
        self.sink = sink
        self.metrics = MetricsRegistry()
        self._events = 0
        self.active = True

    def disable(self) -> dict:
        """Stop recording; flush a final metrics snapshot to the sink.

        Returns the snapshot so callers can use it without re-reading
        the trace file.  Safe to call when already disabled.
        """
        if not self.active:
            return {}
        snapshot = self.metrics.snapshot()
        self.sink.emit({"event": "obs.metrics", "t": None,
                        "metrics": snapshot, "events": self._events})
        self.active = False
        sink, self.sink = self.sink, NullSink()
        self.metrics = MetricsRegistry()  # disabled means fully inert
        sink.close()
        return snapshot

    # -- recording ----------------------------------------------------

    def event(self, name: str, t: Optional[float], **fields) -> None:
        """Emit one structured trace event at sim time *t*."""
        record = {"event": name, "t": t}
        record.update(fields)
        self._events += 1
        self.sink.emit(record)

    @property
    def events_emitted(self) -> int:
        return self._events


_GLOBAL = Recorder()


def recorder() -> Recorder:
    """The process-wide recorder used by all instrumentation sites."""
    return _GLOBAL
