"""Unit tests for traffic summaries and the segment monitor."""

import hashlib
import sys
from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import example, given, reject, settings

from repro.core.summaries import (
    EcmpPathOracle,
    PathOracle,
    SegmentMonitor,
    SummaryBuilder,
    SummaryPolicy,
    TrafficSummary,
)
from repro.crypto.fingerprint import FingerprintSampler, fingerprint
from repro.dist.sync import ClockModel, RoundSchedule
from repro.eval import BEHAVIORS, ScenarioSpec, build_scenario
from repro.eval.registry import run_experiment
from repro.net import MonitorTap
from repro.net.adversary import MisrouteAttack
from repro.net.packet import Packet
from repro.net.router import Network
from repro.net.routing import install_static_routes
from repro.net.topology import MBPS, chain
from tests.strategies import scenario_specs
from tests.test_ecmp_oracle import ecmp_net


class TestSummaryBuilder:
    def build(self, policy, items=((1, 100, 0.1), (2, 200, 0.2))):
        builder = SummaryBuilder("r", ("a", "b"), 0, "sent", policy)
        for fp, size, when in items:
            builder.observe(fp, size, when)
        return builder.freeze()

    def test_flow_policy_counts_only(self):
        s = self.build(SummaryPolicy.FLOW)
        assert s.count == 2
        assert s.byte_count == 300
        assert s.fingerprints is None
        assert s.ordered is None

    def test_content_policy_keeps_set(self):
        s = self.build(SummaryPolicy.CONTENT)
        assert s.fingerprints == frozenset({1, 2})
        assert s.ordered is None

    def test_order_policy_keeps_sequence(self):
        s = self.build(SummaryPolicy.ORDER)
        assert s.ordered == (1, 2)

    def test_timeliness_policy_keeps_timestamps(self):
        s = self.build(SummaryPolicy.TIMELINESS)
        assert s.timestamps == ((1, 0.1), (2, 0.2))

    def test_state_size_by_policy(self):
        items = tuple((i, 100, 0.1 * i) for i in range(10))
        flow = SummaryBuilder("r", ("a", "b"), 0, "sent", SummaryPolicy.FLOW)
        content = SummaryBuilder("r", ("a", "b"), 0, "sent",
                                 SummaryPolicy.CONTENT)
        for fp, size, when in items:
            flow.observe(fp, size, when)
            content.observe(fp, size, when)
        assert flow.state_size() == 2
        assert content.state_size() == 10


class TestPathOracle:
    def oracle(self):
        return PathOracle({
            ("a", "d"): ["a", "b", "c", "d"],
            ("a", "c"): ["a", "b", "c"],
        })

    def test_path_lookup(self):
        assert self.oracle().path("a", "d") == ("a", "b", "c", "d")
        assert self.oracle().path("d", "a") is None

    def test_traverses_contiguous(self):
        oracle = self.oracle()
        p = Packet(src="a", dst="d")
        assert oracle.traverses(p, ("b", "c")) == 1
        assert oracle.traverses(p, ("a", "b", "c")) == 0
        assert oracle.traverses(p, ("a", "c")) is None  # not contiguous

    def test_next_hop_after(self):
        oracle = self.oracle()
        p = Packet(src="a", dst="d")
        assert oracle.next_hop_after(p, "b") == "c"
        assert oracle.next_hop_after(p, "d") is None


def make_monitored_chain(policy=SummaryPolicy.CONTENT, tau=1.0,
                         clock=None, samplers=None):
    net = Network(chain(4, bandwidth=10 * MBPS, delay=0.001))
    paths = install_static_routes(net)
    oracle = PathOracle(paths)
    schedule = RoundSchedule(tau=tau)
    monitor = SegmentMonitor(net, oracle, schedule, policy=policy,
                             clock=clock, samplers=samplers)
    net.add_tap(monitor)
    return net, monitor


class TestSegmentMonitor:
    def test_matched_summaries_for_clean_traffic(self):
        net, monitor = make_monitored_chain()
        segment = ("r1", "r2", "r3")
        monitor.watch_segment(segment)
        for i in range(10):
            net.routers["r1"].originate(
                Packet(src="r1", dst="r4", flow_id="f", seq=i))
        net.run(0.9)
        sent = monitor.summary(segment, "r1", "sent", 0)
        received = monitor.summary(segment, "r3", "received", 0)
        assert sent.count == 10
        assert received.count == 10
        assert sent.fingerprints == received.fingerprints

    def test_traffic_not_on_segment_ignored(self):
        net, monitor = make_monitored_chain()
        monitor.watch_segment(("r2", "r3", "r4"))
        # r1 -> r2 traffic terminates at r2: it never enters the segment.
        for i in range(5):
            net.routers["r1"].originate(
                Packet(src="r1", dst="r2", flow_id="f", seq=i))
        net.run(0.9)
        summary = monitor.summary(("r2", "r3", "r4"), "r2", "sent", 0)
        assert summary.count == 0

    def test_round_attribution_consistent_across_link(self):
        """Receiver subtracts propagation so both ends agree on rounds."""
        net, monitor = make_monitored_chain(tau=0.05)
        segment = ("r1", "r2", "r3")
        monitor.watch_segment(segment)
        for i in range(40):
            net.sim.schedule_at(
                i * 0.01, net.routers["r1"].originate,
                Packet(src="r1", dst="r4", flow_id="f", seq=i))
        net.run(2.0)
        for round_index in range(4):
            sent = monitor.summary(segment, "r1", "sent", round_index)
            got = monitor.summary(segment, "r3", "received", round_index)
            assert sent.fingerprints == got.fingerprints

    def test_ends_only_monitoring(self):
        net, monitor = make_monitored_chain()
        segment = ("r1", "r2", "r3")
        monitor.watch_segment(segment, monitors=("r1", "r3"))
        for i in range(5):
            net.routers["r1"].originate(
                Packet(src="r1", dst="r4", flow_id="f", seq=i))
        net.run(0.9)
        summaries = monitor.segment_summaries(segment, 0)
        routers = {router for router, _ in summaries}
        assert routers == {"r1", "r3"}

    def test_watching_a_segment_twice_counts_each_packet_once(self):
        net, monitor = make_monitored_chain()
        segment = ("r1", "r2", "r3")
        monitor.watch_segment(segment)
        monitor.watch_segment(segment)
        for i in range(5):
            net.routers["r1"].originate(
                Packet(src="r1", dst="r4", flow_id="f", seq=i))
        net.run(0.9)
        summaries = monitor.segment_summaries(segment, 0)
        assert len(summaries) == 4
        assert {s.count for s in summaries.values()} == {5}

    def test_rewatch_replaces_the_monitoring_members(self):
        net, monitor = make_monitored_chain()
        segment = ("r1", "r2", "r3")
        monitor.watch_segment(segment)
        monitor.watch_segment(segment, monitors=("r1", "r3"))
        for i in range(5):
            net.routers["r1"].originate(
                Packet(src="r1", dst="r4", flow_id="f", seq=i))
        net.run(0.9)
        assert monitor.summary(segment, "r1", "sent", 0).count == 5
        assert monitor.summary(segment, "r3", "received", 0).count == 5
        for direction in ("sent", "received"):
            assert monitor.summary(segment, "r2", direction, 0).count == 0
        assert set(monitor.segment_summaries(segment, 0)) == {
            ("r1", "sent"), ("r3", "received")}

    def test_sampling_restricts_recording(self):
        sampler = FingerprintSampler(rate=0.5, key=b"k")
        segment = ("r1", "r2", "r3")
        net, monitor = make_monitored_chain(
            samplers={segment: sampler})
        monitor.watch_segment(segment)
        packets = [Packet(src="r1", dst="r4", flow_id="f", seq=i)
                   for i in range(100)]
        expected = sum(sampler.sampled(p) for p in packets)
        for i, p in enumerate(packets):  # paced: no source-queue overflow
            net.sim.schedule_at(i * 0.002, net.routers["r1"].originate, p)
        net.run(2.0)
        sent = monitor.summary(segment, "r1", "sent", 0)
        assert sent.count == expected

    def test_sampled_sets_still_match(self):
        sampler = FingerprintSampler(rate=0.3, key=b"k2")
        segment = ("r1", "r2", "r3")
        net, monitor = make_monitored_chain(samplers={segment: sampler})
        monitor.watch_segment(segment)
        for i in range(60):
            net.routers["r1"].originate(
                Packet(src="r1", dst="r4", flow_id="f", seq=i))
        net.run(2.0)
        sent = monitor.summary(segment, "r1", "sent", 0)
        got = monitor.summary(segment, "r3", "received", 0)
        assert sent.fingerprints == got.fingerprints

    def test_segment_validation(self):
        net, monitor = make_monitored_chain()
        with pytest.raises(ValueError):
            monitor.watch_segment(("r1",))

    def test_state_units_and_gc(self):
        net, monitor = make_monitored_chain()
        segment = ("r1", "r2", "r3")
        monitor.watch_segment(segment)
        for i in range(10):
            net.routers["r1"].originate(
                Packet(src="r1", dst="r4", flow_id="f", seq=i))
        net.run(0.9)
        assert monitor.state_units("r1") > 0
        monitor.drop_rounds_before(10)
        assert monitor.state_units("r1") == 0

    def test_clock_skew_shifts_round_boundaries(self):
        """With skew larger than tau the two ends can disagree."""
        clock = ClockModel(epsilon=0.2, seed=1)
        net, monitor = make_monitored_chain(tau=0.05, clock=clock)
        segment = ("r1", "r2", "r3")
        monitor.watch_segment(segment)
        for i in range(40):
            net.sim.schedule_at(
                i * 0.01, net.routers["r1"].originate,
                Packet(src="r1", dst="r4", flow_id="f", seq=i))
        net.run(2.0)
        mismatched = any(
            monitor.summary(segment, "r1", "sent", r).fingerprints
            != monitor.summary(segment, "r3", "received", r).fingerprints
            for r in range(6)
        )
        assert mismatched


def tap_time_rule(network, direction, router, nbr, packet, time):
    """Today's round attribution: what rᵢ transmits counts at the
    transmit instant, what it receives at ``arrival - link delay``."""
    if direction == "received":
        return time - network.topology.link(nbr, router).delay
    return time


#: The rule the reference files records by (ROADMAP item 1a replaces it
#: with the agreed-time rule it lands).
ATTRIBUTION_RULE = tap_time_rule


class ReferenceSummariser(MonitorTap):
    """info(r, π, τ) by brute force, straight from the documented rules.

    For every tap call, every watched segment, nothing remembered: the
    packet follows π if π is a contiguous run of its predicted path *now*;
    rᵢ files what it transmits to rᵢ₊₁ and what it receives from rᵢ₋₁
    under the round of its own clock at the instant ``rule`` names
    (``ATTRIBUTION_RULE`` unless given).  Clock offsets are recomputed
    from the formula, not read from the ``ClockModel``.
    """

    def __init__(self, network, oracle, schedule, epsilon=0.0, clock_seed=0,
                 samplers=None, fingerprint_key=b"", rule=None):
        self.network, self.oracle, self.schedule = network, oracle, schedule
        self.rule = rule or ATTRIBUTION_RULE
        self.epsilon, self.clock_seed = epsilon, clock_seed
        self.samplers, self.key = samplers or {}, fingerprint_key
        self.watched = []  # (segment, monitoring members)
        self.filed = defaultdict(list)  # (π, r, direction, τ) -> [(fp, size, t)]

    def watch(self, segment, monitors=None):
        self.watched.append((tuple(segment), set(monitors or segment)))

    def _file(self, direction, step, router, nbr, packet, time):
        when = self.rule(self.network, direction, router, nbr, packet, time)
        path = self.oracle.packet_path(packet) or ()
        digest = hashlib.sha256(f"{self.clock_seed}|{router}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
        local = when + (2.0 * unit - 1.0) * self.epsilon
        for segment, members in self.watched:
            n = len(segment)
            if (router not in members or router not in segment
                    or not any(path[i:i + n] == segment
                               for i in range(len(path) - n + 1))):
                continue
            at = segment.index(router) + step
            if not 0 <= at < n or segment[at] != nbr:
                continue
            sampler = self.samplers.get(segment)
            if sampler is not None and not sampler.sampled(packet):
                continue
            self.filed[(segment, router, direction,
                        self.schedule.round_of(local))].append(
                (fingerprint(packet, self.key), packet.size, local))

    def on_transmit(self, router, out_nbr, packet, time):
        self._file("sent", +1, router.name, out_nbr, packet, time)

    def on_receive(self, router, from_nbr, packet, time):
        self._file("received", -1, router.name, from_nbr, packet, time)

    def summary(self, segment, router, direction, round_index):
        seen = self.filed.get((segment, router, direction, round_index), [])
        return TrafficSummary(
            router=router, segment=segment, round_index=round_index,
            direction=direction, policy=SummaryPolicy.TIMELINESS,
            count=len(seen), byte_count=sum(size for _, size, _ in seen),
            fingerprints=frozenset(fp for fp, _, _ in seen),
            ordered=tuple(fp for fp, _, _ in seen),
            timestamps=tuple((fp, t) for fp, _, t in seen))

    def assert_matches(self, monitor, last_round):
        """Every (segment, member, direction, round), empty ones included."""
        assert self.filed, "the case recorded nothing: it proves nothing"
        for segment, _ in self.watched:
            for router in segment:
                for direction in ("sent", "received"):
                    for r in range(-1, last_round + 2):
                        assert (monitor.summary(segment, router, direction, r)
                                == self.summary(segment, router, direction, r))


def monitored_pair(net, oracle, tau, epsilon=0.0, clock_seed=0, samplers=None):
    """A TIMELINESS monitor (it keeps everything) and its reference."""
    schedule = RoundSchedule(tau=tau)
    monitor = SegmentMonitor(
        net, oracle, schedule, policy=SummaryPolicy.TIMELINESS,
        clock=ClockModel(epsilon=epsilon, seed=clock_seed), samplers=samplers)
    reference = ReferenceSummariser(net, oracle, schedule, epsilon,
                                    clock_seed, samplers)
    net.add_tap(monitor)
    net.add_tap(reference)
    return monitor, reference


def paced(net, src, dst, flow_id, count, gap, start=0.0):
    # Uids from the network, as every in-simulator source draws them: a
    # sampled count must not depend on what ran earlier in the process.
    for i in range(count):
        net.sim.schedule_at(start + i * gap, net.routers[src].originate,
                            Packet(src=src, dst=dst, flow_id=flow_id, seq=i,
                                   uid=next(net.packet_ids)))


def runnable_pi2_cells():
    """``scenario_specs()`` cut to cells a unit test can afford: no
    315-router topology, half-second rounds, and 1.5 s of constant-rate
    traffic (a bulk TCP flow on these links is 600k events)."""
    return scenario_specs(("pi2", "pik2")).filter(
        lambda spec: spec.topology.name != "sprintlink_like"
        and spec.adversary.behavior in BEHAVIORS
    ).map(lambda spec: replace(
        spec, tau=0.5, rounds=min(spec.rounds, 3), options=(),
        adversary=replace(spec.adversary, options=(),
                          rate=min(spec.adversary.rate, 1.0)),
        traffic=replace(spec.traffic, kind="cbr", rate_bps=300_000.0,
                        duration=1.5)))


class TestSegmentMonitorAgainstReference:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(runnable_pi2_cells())
    def test_generated_cells(self, spec):
        try:
            scenario = build_scenario(spec)
        except ValueError:
            reject()  # e.g. a fixed placement this topology does not have
        # A second monitor over the scenario's own segments, traffic and
        # adversary: Π2's retires its rounds, this one keeps them.
        monitor, reference = monitored_pair(
            scenario.network, scenario.protocol.monitor.oracle, spec.tau,
            epsilon=0.004, clock_seed=spec.seed)
        for segment in scenario.protocol.segments:
            monitor.watch_segment(segment)
            reference.watch(segment)
        scenario.run()
        reference.assert_matches(
            monitor, scenario.protocol.schedule.round_of(spec.end))

    def test_segment_watched_after_traffic_has_flowed(self):
        net = Network(chain(4, bandwidth=10 * MBPS, delay=0.001))
        monitor, reference = monitored_pair(
            net, PathOracle(install_static_routes(net)), tau=0.25)
        early, late = ("r1", "r2", "r3"), ("r2", "r3", "r4")
        monitor.watch_segment(early)
        reference.watch(early)
        paced(net, "r1", "r4", "f", count=80, gap=0.01)
        net.run(0.4)
        monitor.watch_segment(late, monitors=("r2", "r4"))
        reference.watch(late, monitors=("r2", "r4"))
        net.run(1.0)
        assert monitor.summary(late, "r2", "sent", 2).count > 0
        reference.assert_matches(monitor, last_round=4)

    def test_reroute_and_invalidate_mid_run(self):
        net = ecmp_net()
        net.routers["s"].forwarding_table["t"] = ["a"]
        oracle = EcmpPathOracle(net)
        monitor, reference = monitored_pair(net, oracle, tau=0.25)
        for segment in (("s", "a", "m"), ("s", "b", "m"), ("a", "m", "t"),
                        ("b", "m", "t")):
            monitor.watch_segment(segment)
            reference.watch(segment)
        paced(net, "s", "t", "f", count=80, gap=0.01)

        def reroute():
            net.routers["s"].forwarding_table["t"] = ["b"]
            oracle.invalidate()

        net.sim.schedule_at(0.405, reroute)
        net.run(1.5)
        via_a = sum(monitor.summary(("s", "a", "m"), "s", "sent", r).count
                    for r in range(6))
        via_b = sum(monitor.summary(("s", "b", "m"), "s", "sent", r).count
                    for r in range(6))
        assert via_a > 0 and via_b > 0 and via_a + via_b == 80
        reference.assert_matches(monitor, last_round=6)

    def test_misrouted_packet_coming_back_over_the_link_it_left_by(self):
        """r3 bounces half of r2's packets straight back: what r2 *sends*
        to r3 along a path says nothing about what it *receives* from r3
        on that path."""
        net = Network(chain(4, bandwidth=10 * MBPS, delay=0.001))
        monitor, reference = monitored_pair(
            net, PathOracle(install_static_routes(net)), tau=0.25)
        for segment in (("r1", "r2", "r3"), ("r2", "r3", "r4"),
                        ("r4", "r3", "r2"), ("r3", "r2", "r1")):
            monitor.watch_segment(segment)
            reference.watch(segment)
        net.routers["r3"].compromise = MisrouteAttack("r2", fraction=0.5,
                                                      seed=4)
        paced(net, "r1", "r4", "f", count=60, gap=0.01)
        net.run(1.0)
        assert net.routers["r3"].compromise.misrouted
        reference.assert_matches(monitor, last_round=4)

    def test_segments_sharing_a_link_with_different_samplers(self):
        net = Network(chain(5, bandwidth=10 * MBPS, delay=0.001))
        long, short = ("r1", "r2", "r3", "r4"), ("r2", "r3", "r4")
        samplers = {long: FingerprintSampler(rate=0.5, key=b"long"),
                    short: FingerprintSampler(rate=0.3, key=b"short")}
        monitor, reference = monitored_pair(
            net, PathOracle(install_static_routes(net)), tau=0.25,
            samplers=samplers)
        for segment in (long, short, ("r3", "r4", "r5")):  # last: unsampled
            monitor.watch_segment(segment)
            reference.watch(segment)
        paced(net, "r1", "r5", "f", count=120, gap=0.005)
        net.run(1.5)
        kept = [sum(monitor.summary(seg, "r3", "sent", r).count
                    for r in range(6))
                for seg in (long, short, ("r3", "r4", "r5"))]
        assert 0 < kept[1] < kept[0] < kept[2] == 120
        reference.assert_matches(monitor, last_round=6)

    def test_clock_skew_straddling_a_round_edge(self):
        """Same traffic, two clock seeds: each monitor files by *its*
        routers' offsets (a second ClockModel is not served the first's)."""
        filed = []
        for clock_seed in (1, 2):
            net = Network(chain(4, bandwidth=10 * MBPS, delay=0.001))
            monitor, reference = monitored_pair(
                net, PathOracle(install_static_routes(net)), tau=0.1,
                epsilon=0.03, clock_seed=clock_seed)
            for segment in (("r1", "r2", "r3"), ("r2", "r3", "r4")):
                monitor.watch_segment(segment)
                reference.watch(segment)
            # Bursts around every round edge, where 30 ms of skew decides.
            for edge in range(1, 6):
                paced(net, "r1", "r4", f"f{edge}", count=12, gap=0.005,
                      start=edge * 0.1 - 0.03)
            net.run(1.0)
            reference.assert_matches(monitor, last_round=10)
            filed.append({key: len(seen)
                          for key, seen in reference.filed.items()})
        assert filed[0] != filed[1]


def loss_free_cells():
    """``scenario_specs()`` with no adversary and constant-rate traffic,
    cut to cells a unit test can afford (as ``runnable_pi2_cells``)."""
    return scenario_specs(("pi2", "pik2")).filter(
        lambda spec: spec.topology.name != "sprintlink_like"
    ).map(lambda spec: replace(
        spec, tau=0.5, rounds=min(spec.rounds, 3), options=(),
        adversary=replace(spec.adversary, behavior="none", options=()),
        traffic=replace(spec.traffic, kind="cbr", rate_bps=300_000.0,
                        duration=1.5)))


#: The ledger's ``pi2-abilene`` cell without its adversary: no queue
#: drops, and 429 suspicions under either detector (ROADMAP item 1).
PI2_ABILENE_NONE = ScenarioSpec(
    topology="abilene", adversary={"behavior": "none", "rate": 0.5},
    placement={"strategy": "max-betweenness"},
    traffic={"flows": 8, "duration": 12.0},
    detector="pi2", tau=1.0, rounds=12, seed=0)


class TestLossFreeSilence:
    """Accuracy where nothing is lost: a correct detector suspects no
    one.  Both fail today because members attribute a packet that
    straddles a round boundary to different rounds (ROADMAP item 1);
    the fix removes the marks."""

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    @settings(max_examples=8, deadline=None, derandomize=True)
    @example(PI2_ABILENE_NONE)
    @given(loss_free_cells())
    def test_pi_detectors_silent_on_loss_free_cells(self, spec):
        try:
            scenario = build_scenario(spec)
        except ValueError:
            reject()  # e.g. a fixed placement this topology does not have
        scenario.run()
        drops = sum(iface.queue.drops
                    for router in scenario.network.routers.values()
                    for iface in router.interfaces.values())
        if drops:
            return  # congestive loss: outside the accuracy claim
        suspected = {router: len(state.suspicions)
                     for router, state in scenario.protocol.states.items()
                     if state.suspicions}
        assert not suspected, (spec.to_dict(), suspected)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_fatih_silent_without_attack_at_threshold_zero(self,
                                                            monkeypatch):
        # The attack is scheduled for the run's last instant, so it never
        # happens; threshold=2 hides the one false suspicion at 141.3 s.
        from repro.core import fatih
        from repro.eval.experiments import fig5_7_fatih

        monkeypatch.setattr(fatih, "_PIK2",
                            replace(fatih._PIK2, threshold=0))
        result = fig5_7_fatih(attack_time=160.0, end_time=160.0)
        assert result.first_detection is None, result.suspected_segments
        assert result.suspected_segments == []


def test_one_fingerprint_per_recording_tap_call(monkeypatch):
    """Work pin on a small Π2 cell (the 6-chain bench, seed 0).

    A packet is fingerprinted once per tap call that records it, however
    many segments share the link, and the number of observations is what
    it was before the per-tap bookkeeping existed (7318, counted at
    commit 2313335).  The ledger only *reports* count drift; this fails.
    """
    calls = {"fingerprint": 0}
    observed = []
    observe = SummaryBuilder.observe

    def counted_fingerprint(packet, key=b""):
        calls["fingerprint"] += 1
        return fingerprint(packet, key)

    def logged_observe(self, fp, size, when):
        observed.append((self.router, self.direction, fp, when))
        observe(self, fp, size, when)

    monkeypatch.setattr(sys.modules[SegmentMonitor.__module__],
                        "fingerprint", counted_fingerprint)
    monkeypatch.setattr(SummaryBuilder, "observe", logged_observe)
    run_experiment("pi2_bench", {"seed": 0})
    assert len(observed) == 7318
    # One router sees one packet once per direction per instant.
    recording_tap_calls = len(set(observed))
    assert recording_tap_calls < len(observed)  # segments do share links
    assert calls["fingerprint"] == recording_tap_calls
