"""Discrete-event simulation engine.

A single-threaded event heap drives the whole network: link transmissions,
propagation delays, application sends, protocol rounds and timers are all
events.  Time is modelled in float seconds.

The engine is deliberately minimal: callers schedule callbacks at absolute
or relative times and the :meth:`Simulator.run` loop dispatches them in
timestamp order.  Ties are broken by insertion order so runs are fully
deterministic for a fixed seed.

Hot-path notes: the heap entry *is* the event.  It is a flat
``(time, seq, fn, args)`` tuple, so ``heapq`` compares plain floats/ints
(``seq`` is unique, so ``fn`` is never compared), and scheduling builds
that one tuple and nothing else.  :meth:`Simulator.schedule` returns it
as the event's handle.  Every event is scheduled through
:meth:`~Simulator.schedule` or :meth:`~Simulator.schedule_at`: nothing
outside this module touches ``_heap`` or ``_seq``.

Cancellation contract: :meth:`Simulator.cancel` takes a handle and
records its ``seq``; the entry stays in the heap until it reaches the
top, where :meth:`~Simulator.run` and :meth:`~Simulator.peek_time` drop
it (and forget the ``seq``).  Cancelling twice is the same as cancelling
once.  Cancelling a handle that already fired changes no dispatch: its
``seq`` is never scheduled again, so it matches no later event (it does
stay in the set).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional, Tuple

from repro.obs import recorder


#: One heap entry, which is also the handle ``schedule`` returns:
#: ``(time, seq, fn, args)``.
Handle = Tuple[float, int, Callable[..., None], tuple]


class Simulator:
    """Event heap with a simulation clock.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    2
    >>> fired
    ['b', 'a']
    """

    #: Process-wide cumulative dispatch count across every Simulator
    #: instance.  ``benchmarks/ledger`` reads the delta around a workload
    #: run to count events without instrumenting (or slowing) the loop.
    dispatched_total: int = 0

    def __init__(self) -> None:
        self._heap: list[Handle] = []
        #: Seqs of cancelled entries not yet popped off the heap.
        self._cancelled: set[int] = set()
        self._seq = 0
        self.now: float = 0.0
        #: Cumulative count of events dispatched by this simulator across
        #: all :meth:`run` calls (summed process-wide in
        #: ``dispatched_total``).
        self.events_dispatched: int = 0

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Handle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        # Inlined schedule_at: one call frame per event matters at ~3
        # schedules per packet (delay >= 0 makes the past-check moot).
        seq = self._seq
        self._seq = seq + 1
        entry = (self.now + delay, seq, fn, args)
        heapq.heappush(self._heap, entry)
        return entry

    def schedule_at(self, when: float, fn: Callable[..., None], *args: Any) -> Handle:
        """Schedule ``fn(*args)`` at absolute simulation time ``when``."""
        if when < self.now:
            raise ValueError(
                f"cannot schedule at {when} before current time {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = (when, seq, fn, args)
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, handle: Handle) -> None:
        """Skip the event ``handle`` (as returned by :meth:`schedule`)."""
        self._cancelled.add(handle[1])

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the next pending event, or None."""
        heap = self._heap
        cancelled = self._cancelled
        while heap and heap[0][1] in cancelled:
            cancelled.discard(heapq.heappop(heap)[1])
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
        cancelled = self._cancelled
        heappop = heapq.heappop
        # Sentinels, so the loop tests no None per event.
        limit = float("inf") if until is None else until
        budget = float("inf") if max_events is None else max_events
        try:
            while heap and dispatched < budget:
                entry = heappop(heap)
                when, seq, fn, args = entry
                if seq in cancelled:
                    cancelled.discard(seq)
                    continue
                if when > limit:
                    heapq.heappush(heap, entry)
                    break
                self.now = when
                fn(*args)
                dispatched += 1
        finally:
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
        cancelled = self._cancelled
        return sum(1 for entry in self._heap if entry[1] not in cancelled)
