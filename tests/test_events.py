"""Unit tests for the discrete-event engine."""

import ast
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.events import Simulator


class TestScheduling:
    def test_runs_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(3.0, fired.append, "last")
        sim.run()
        assert fired == ["early", "late", "last"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        fired = []
        for tag in ("a", "b", "c"):
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_schedule_at_absolute(self):
        sim = Simulator()
        sim.schedule_at(4.0, lambda: None)
        sim.run()
        assert sim.now == 4.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "in")
        sim.schedule(5.0, fired.append, "out")
        sim.run(until=2.0)
        assert fired == ["in"]
        assert sim.now == 2.0  # clock advances to the horizon

    def test_run_until_resumes(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        sim.run(until=10.0)
        assert fired == ["a", "b"]

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), fired.append, i)
        dispatched = sim.run(max_events=2)
        assert dispatched == 2
        assert fired == [0, 1]

    def test_run_returns_dispatch_count(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(1.0, lambda: None)
        assert sim.run() == 4


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        sim.cancel(event)
        sim.run()
        assert fired == []

    def test_cancel_is_per_event(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(1.0, fired.append, "keep")
        drop = sim.schedule(1.0, fired.append, "drop")
        sim.cancel(drop)
        sim.run()
        assert fired == ["keep"]

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(event)
        assert sim.pending() == 1

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(first)
        assert sim.peek_time() == 2.0

    def test_peek_time_empty(self):
        assert Simulator().peek_time() is None

    def test_cancelled_seqs_are_forgotten_once_popped(self):
        sim = Simulator()
        sim.cancel(sim.schedule(1.0, lambda: None))
        sim.cancel(sim.schedule(3.0, lambda: None))
        sim.schedule(2.0, lambda: None)
        assert sim.peek_time() == 2.0
        assert len(sim._cancelled) == 1
        assert sim.run() == 1
        assert sim._cancelled == set()

    def test_handle_is_the_heap_entry(self):
        sim = Simulator()
        handle = sim.schedule(1.0, print, "x")
        assert handle == (1.0, 0, print, ("x",))
        assert sim._heap == [handle]


class ListEngine:
    """Reference engine: a plain list, sorted on every pop."""

    def __init__(self):
        self.entries = []
        self.cancelled = set()
        self.seq = 0
        self.now = 0.0

    def schedule(self, delay, fn, *args):
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, when, fn, *args):
        entry = (when, self.seq, fn, args)
        self.seq += 1
        self.entries.append(entry)
        return entry

    def cancel(self, handle):
        self.cancelled.add(handle[1])

    def live(self):
        return sorted((e for e in self.entries if e[1] not in self.cancelled),
                      key=lambda e: e[:2])

    def peek_time(self):
        live = self.live()
        return live[0][0] if live else None

    def pending(self):
        return len(self.live())

    def run(self, until=None, max_events=None):
        dispatched = 0
        while max_events is None or dispatched < max_events:
            live = self.live()
            if not live or (until is not None and live[0][0] > until):
                break
            when, _, fn, args = live[0]
            self.entries.remove(live[0])
            self.now = when
            fn(*args)
            dispatched += 1
        if until is not None and until > self.now:
            self.now = until
        return dispatched


#: Few distinct offsets, so exact-time ties are common.
OFFSETS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])


def ops(depth, min_size=0):
    """A program: schedule/schedule_at (with the ops their callback runs
    when it fires) and cancel of the k-th handle made so far, which may
    already have fired or been cancelled."""
    children = st.just([]) if depth == 0 else ops(depth - 1)
    schedule = st.tuples(st.sampled_from(["schedule", "schedule_at"]),
                         OFFSETS, children)
    cancel = st.tuples(st.just("cancel"), st.integers(0, 12))
    return st.lists(st.one_of(schedule, schedule, cancel),
                    min_size=min_size, max_size=5)


UNTIL = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.5])
MAX_EVENTS = st.integers(0, 3)
RUN_CALLS = st.lists(st.one_of(
    st.just({}),
    st.builds(dict, until=UNTIL),
    st.builds(dict, max_events=MAX_EVENTS),
    st.builds(dict, until=UNTIL, max_events=MAX_EVENTS),
), min_size=1, max_size=4)


def execute(engine, program, run_calls):
    """Run ``program`` on ``engine``; return everything it observed."""
    fired, handles = [], []

    def perform(op_list):
        for op in op_list:
            if op[0] == "cancel":
                if handles:
                    engine.cancel(handles[op[1] % len(handles)])
                continue
            kind, offset, children = op
            label = len(handles)
            if kind == "schedule":
                handle = engine.schedule(offset, fire, label, children)
            else:
                handle = engine.schedule_at(engine.now + offset, fire, label,
                                            children)
            handles.append(handle)

    def fire(label, children):
        fired.append((label, engine.now))
        perform(children)

    perform(program)
    observed = []
    for call in run_calls + [{}]:
        observed.append(("pending", engine.pending()))
        observed.append(("run", engine.run(**call), engine.now))
        observed.append(("peek", engine.peek_time(), engine.pending()))
    return fired, observed, [handle[:2] for handle in handles]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(program=ops(2, min_size=1), run_calls=RUN_CALLS)
def test_dispatch_matches_a_sorted_list_reference(program, run_calls):
    """Pop order is (time, seq) with cancels skipped, whatever the
    program: ties, schedules and cancels from inside dispatch, cancel
    after fire, double cancel, and every way ``run`` can stop."""
    assert execute(Simulator(), program, run_calls) == execute(
        ListEngine(), program, run_calls)


#: The simulator's private state that orders every event.
HEAP_STATE = frozenset({"_heap", "_seq"})


def heap_accesses(path):
    """``(line, text)`` of each reach into another object's ``_heap`` or
    ``_seq`` in one module (``self._seq`` is the class's own counter)."""
    from repro.analysis.model import load_module

    info, error = load_module(path, path)
    assert error is None, (path, error)
    return sorted((node.lineno, ast.unparse(node))
                  for node in ast.walk(info.tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in HEAP_STATE
                  and not (isinstance(node.value, ast.Name)
                           and node.value.id == "self"))


class TestWhoWritesTheHeap:
    """Every event goes through ``schedule``/``schedule_at``: nothing
    outside ``repro.net.events`` reaches into a simulator's heap or its
    seq counter, so the ledger's count of ``schedule`` calls is the
    count of events scheduled."""

    def test_only_the_engine(self):
        from repro.analysis.engine import discover_files

        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src", "repro")
        events = os.path.join(src, "net", "events.py")
        offenders = {path: found for path in discover_files([src])
                     if not os.path.samefile(path, events)
                     and (found := heap_accesses(path))}
        assert offenders == {}

    def test_scan_reports_a_reach_into_another_object(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "class Sender:\n"
            "    def __init__(self, sim):\n"
            "        self._seq = 0\n"
            "        sim._seq += 1\n"
            "def peek(net):\n"
            "    return net.sim._heap[0]\n"
        )
        assert heap_accesses(str(bad)) == [(4, "sim._seq"),
                                           (6, "net.sim._heap")]

    def test_every_seq_drawn_is_one_dispatched_event(self):
        from repro.net.packet import Packet
        from repro.net.router import Network
        from repro.net.routing import install_static_routes
        from repro.net.topology import MBPS, chain

        net = Network(chain(4, bandwidth=10 * MBPS, delay=0.001))
        install_static_routes(net)
        for i in range(20):
            net.sim.schedule(i * 0.0002, net.routers["r1"].originate,
                             Packet(src="r1", dst="r4", flow_id="f", seq=i))
        net.run(1.0)
        # 20 originations, then per packet three finishes and three
        # receives; no seq skipped or used twice.
        assert net.sim.events_dispatched == net.sim._seq == 20 + 20 * 6
        assert net.sim.pending() == 0
