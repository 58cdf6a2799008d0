"""Discrete-event simulation engine.

A single-threaded event heap drives the whole network: link transmissions,
propagation delays, application sends, protocol rounds and timers are all
events.  Time is modelled in float seconds.

The engine is deliberately minimal: callers schedule callbacks at absolute
or relative times and the :meth:`Simulator.run` loop dispatches them in
timestamp order.  Ties are broken by insertion order so runs are fully
deterministic for a fixed seed.

Hot-path notes: the heap stores flat ``(time, seq, event)`` tuples so
``heapq`` compares plain floats/ints instead of calling a rich-comparison
method per sift step, and :class:`Event` is a ``__slots__`` class — both
measurably matter at millions of events per run.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional, Tuple

from repro.obs import recorder


class Event:
    """A scheduled callback.

    Events order by ``(time, seq)`` so that simultaneous events fire in
    the order they were scheduled.  (Inside :class:`Simulator` that key
    lives in the heap entry itself; the comparison operators here keep
    the historical dataclass ``order=True`` contract for external code.)
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., None],
                 args: tuple = (), cancelled: bool = False) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = cancelled

    def cancel(self) -> None:
        """Mark the event so the dispatcher skips it."""
        self.cancelled = True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (self.time, self.seq) == (other.time, other.seq)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __le__(self, other: "Event") -> bool:
        return (self.time, self.seq) <= (other.time, other.seq)

    def __gt__(self, other: "Event") -> bool:
        return (self.time, self.seq) > (other.time, other.seq)

    def __ge__(self, other: "Event") -> bool:
        return (self.time, self.seq) >= (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", cancelled" if self.cancelled else ""
        return f"Event(t={self.time}, seq={self.seq}{flag})"


#: One heap entry: ``(time, seq, event)``.
_HeapEntry = Tuple[float, int, Event]


class Simulator:
    """Event heap with a simulation clock.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    #: Process-wide cumulative dispatch count across every Simulator
    #: instance.  ``benchmarks/ledger`` reads the delta around a workload
    #: run to count events without instrumenting (or slowing) the loop.
    dispatched_total: int = 0

    def __init__(self) -> None:
        self._heap: list[_HeapEntry] = []
        self._seq = 0
        self.now: float = 0.0
        self._running = False
        #: Cumulative count of events dispatched by this simulator across
        #: all :meth:`run` calls (summed process-wide in
        #: ``dispatched_total``).
        self.events_dispatched: int = 0

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        # Inlined schedule_at: one call frame per event matters at ~3
        # schedules per packet (delay >= 0 makes the past-check moot).
        when = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(when, seq, fn, args)
        heapq.heappush(self._heap, (when, seq, event))
        return event

    def schedule_at(self, when: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``when``."""
        if when < self.now:
            raise ValueError(
                f"cannot schedule at {when} before current time {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(when, seq, fn, args)
        heapq.heappush(self._heap, (when, seq, event))
        return event

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the next pending event, or None."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Dispatch events in order.

        Stops when the heap is empty, when the next event is later than
        ``until``, or after ``max_events`` dispatches.  Returns the number
        of events dispatched.  When stopped by ``until``, the clock is
        advanced to ``until`` even if no event fired exactly there.
        """
        dispatched = 0
        heap = self._heap
        heappop = heapq.heappop
        self._running = True
        try:
            while heap:
                if max_events is not None and dispatched >= max_events:
                    break
                when, _seq, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    continue
                if until is not None and when > until:
                    break
                heappop(heap)
                self.now = when
                event.fn(*event.args)
                dispatched += 1
        finally:
            self._running = False
            self.events_dispatched += dispatched
            Simulator.dispatched_total += dispatched
        if until is not None and until > self.now:
            self.now = until
        rec = recorder()
        if rec.active:
            rec.metrics.counter("repro.net.sim.runs").inc()
            rec.metrics.counter("repro.net.sim.events").inc(dispatched)
            rec.metrics.gauge("repro.net.sim.horizon").set(self.now)
        return dispatched

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for _, _, e in self._heap if not e.cancelled)
