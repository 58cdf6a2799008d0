"""Sim-domain tracing end to end.

The load-bearing properties: instrumentation is inert while the global
recorder is disabled (results identical with tracing on and off), trace
files are byte-deterministic for a fixed seed, and every ``t`` in the
trace is simulator virtual time — never a wall clock.
"""

import filecmp
import json

import pytest

from repro.eval import AdversarySpec, droptail_spec
from repro.eval.experiments import run_testbed
from repro.eval.results import serialize_result
from repro.net.events import Simulator
from repro.obs.record import recorder
from repro.obs.sinks import JsonlSink, MemorySink
from repro.obs.trace import TraceTap, _reason_token


def mini_scenario(seed=0):
    """A shrunken Fig 6.6 attack: full pipeline, fraction of the cost."""
    return run_testbed("obs-mini", droptail_spec(
        n_sources=2, seed=seed,
        adversary=AdversarySpec("drop", 0.3, options={"flows": ["tcp1"]}),
        learning_until=5.0, first_round=3, rounds=10, attack_at=10.0,
        end=22.0))


@pytest.fixture
def rec():
    """The global recorder, guaranteed disabled before and after."""
    instance = recorder()
    assert not instance.active, "another test leaked an enabled recorder"
    yield instance
    if instance.active:
        instance.disable()


class TestSimulatorInstrumentation:
    def test_run_counters_use_virtual_time(self, rec):
        rec.enable(MemorySink())
        sim = Simulator()
        for delay in (1.0, 2.0, 7.5):
            sim.schedule(delay, lambda: None)
        sim.run()
        snapshot = rec.disable()
        assert snapshot["repro.net.sim.runs"]["value"] == 1
        assert snapshot["repro.net.sim.events"]["value"] == 3
        assert snapshot["repro.net.sim.horizon"]["value"] == 7.5

    def test_disabled_recorder_records_nothing(self, rec):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert len(rec.metrics) == 0 and rec.events_emitted == 0


class _StubRouter:
    name = "r1"


class _StubPacket:
    flow_id = "tcp1"
    src = "s1"
    dst = "d1"


class _StubReason:
    value = "malicious"


class TestTraceTap:
    def test_counts_and_occupancy(self, rec):
        rec.enable(MemorySink())
        tap = TraceTap(rec)
        router, packet = _StubRouter(), _StubPacket()
        tap.on_receive(router, "n", packet, 1.0)
        tap.on_enqueue(router, "n", packet, 1.0, occupancy=3)
        tap.on_enqueue(router, "n", packet, 1.5, occupancy=5)
        tap.on_transmit(router, "n", packet, 2.0)
        tap.on_deliver(router, packet, 2.5)
        tap.on_originate(router, packet, 0.5)
        snapshot = rec.disable()
        assert snapshot["repro.net.pkt.received"]["value"] == 1
        assert snapshot["repro.net.pkt.enqueued"]["value"] == 2
        assert snapshot["repro.net.pkt.transmitted"]["value"] == 1
        assert snapshot["repro.net.pkt.delivered"]["value"] == 1
        assert snapshot["repro.net.pkt.originated"]["value"] == 1
        occupancy = snapshot["repro.net.queue.occupancy"]
        assert occupancy["count"] == 2 and occupancy["max"] == 5
        # Pre-registered so consumers always see them, even at zero.
        assert snapshot["repro.net.pkt.dropped"]["value"] == 0
        assert snapshot["repro.net.pkt.fabricated"]["value"] == 0

    def test_drop_emits_event_with_reason(self, rec):
        sink = MemorySink()
        rec.enable(sink)
        tap = TraceTap(rec)
        tap.on_drop(_StubRouter(), "n2", _StubPacket(), 4.25,
                    _StubReason(), drop_prob=1.0)
        snapshot = rec.disable()
        assert snapshot["repro.net.pkt.dropped"]["value"] == 1
        assert snapshot["repro.net.drops.malicious"]["value"] == 1
        (event,) = [r for r in sink.records if r["event"] == "net.drop"]
        assert event == {"event": "net.drop", "t": 4.25, "router": "r1",
                         "out_nbr": "n2", "reason": "malicious",
                         "flow": "tcp1", "src": "s1", "dst": "d1"}

    def test_reason_token_handles_plain_strings(self):
        assert _reason_token("congestion") == "congestion"
        assert _reason_token(_StubReason()) == "malicious"


class TestScenarioTracing:
    def test_traced_scenario_populates_metrics(self, rec):
        sink = MemorySink()
        rec.enable(sink)
        result = mini_scenario()
        snapshot = rec.disable()
        assert result.total_drops > 0
        assert snapshot["repro.net.pkt.received"]["value"] > 0
        assert snapshot["repro.net.pkt.dropped"]["value"] > 0
        assert snapshot["repro.net.sim.runs"]["value"] >= 1
        drops = [r for r in sink.records if r["event"] == "net.drop"]
        assert drops, "an attack scenario must trace drop events"
        # Time-domain rule: every event timestamp is sim virtual time,
        # bounded by the scenario horizon — wall clock would be ~1e9.
        for record in sink.records:
            if record["event"] != "obs.metrics":
                assert 0.0 <= record["t"] <= 22.0

    def test_tracing_does_not_change_results(self, rec):
        untraced = serialize_result(mini_scenario())
        rec.enable(MemorySink())
        try:
            traced = serialize_result(mini_scenario())
        finally:
            rec.disable()
        assert traced == untraced

    def test_trace_bytes_deterministic(self, rec, tmp_path):
        paths = []
        for attempt in ("first", "second"):
            path = tmp_path / f"{attempt}.jsonl"
            rec.enable(JsonlSink(str(path)))
            try:
                mini_scenario()
            finally:
                rec.disable()
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].stat().st_size > 0
