"""Integration tests for Protocol Πk+2 (Fig 5.3)."""

from importlib import import_module

from repro.core.detector import (
    PiConfig,
    RoundDetector,
    accuracy_report,
    completeness_report,
    run_tv,
)
from repro.core.pik2 import ProtocolPiK2
from repro.core.segments import monitored_segments_pik2
from repro.core.summaries import PathOracle, SegmentMonitor, SummaryPolicy
from repro.crypto.fingerprint import FingerprintSampler
from repro.crypto.keys import KeyInfrastructure
from repro.crypto.signatures import Signed
from repro.dist.sync import RoundSchedule
from repro.net.adversary import (
    CombinedCompromise,
    Compromise,
    ControlSuppressionAttack,
    DropFlowAttack,
    ModifyAttack,
)
from repro.net.router import Network
from repro.net.routing import install_static_routes
from repro.net.topology import MBPS, chain
from repro.net.traffic import CBRSource


def build(n=5, k=1, config=None, samplers=None, rounds=3):
    net = Network(chain(n, bandwidth=10 * MBPS, delay=0.001))
    paths = install_static_routes(net)
    oracle = PathOracle(paths)
    schedule = RoundSchedule(tau=1.0)
    keys = KeyInfrastructure()
    monitor = SegmentMonitor(net, oracle, schedule,
                             policy=SummaryPolicy.CONTENT,
                             samplers=samplers)
    net.add_tap(monitor)
    segments = set()
    for segs in monitored_segments_pik2(
            [tuple(p) for p in paths.values()], k=k).values():
        segments |= segs
    protocol = ProtocolPiK2(net, monitor, segments, keys, schedule,
                            config=config or PiConfig(k=k))
    protocol.schedule_rounds(0, rounds)
    return net, protocol


def spy_tv(monkeypatch):
    """Record every (remote, local, result) Πk+2 validates."""
    checks = []

    def spy(upstream, downstream, config):
        result = run_tv(upstream, downstream, config)
        checks.append((upstream, downstream, result))
        return result

    monkeypatch.setattr(import_module("repro.core.pik2"), "run_tv", spy)
    return checks


class Replayer(Compromise):
    """Relays each exchange's previous signed summary in place of the
    current one (a protocol-faulty intermediate replaying old claims)."""

    def __init__(self):
        super().__init__()
        self.held = {}

    def on_control(self, router, src, dst, message):
        if not isinstance(message, Signed):
            return message  # suspicion floods pass untouched
        previous = self.held.get((src, dst))
        self.held[(src, dst)] = message
        return message if previous is None else previous


def drive(net, duration=7.0):
    src = CBRSource(net, "r1", f"r{len(net.topology)}", "f1",
                    rate_bps=800_000, duration=4.0)
    net.run(duration)
    return src


class TestCleanRuns:
    def test_no_suspicions_without_faults(self):
        net, protocol = build()
        drive(net)
        assert all(not s.suspicions for s in protocol.states.values())

    def test_all_exchanges_validate(self, monkeypatch):
        checks = spy_tv(monkeypatch)
        net, protocol = build()
        drive(net)
        ran = [(up.round_index, up.segment, up.router, up.direction,
                down.router, down.direction) for up, down, _ in checks]
        want = [(r, seg, seg[0], "sent", seg[-1], "received")
                for r in range(4) for seg in protocol.segments]
        assert sorted(ran) == sorted(want)  # each exchange once per round
        assert all(result.ok for _, _, result in checks)


class TestTrafficFaults:
    def test_dropper_detected_within_k_plus_2(self):
        net, protocol = build(k=1)
        net.routers["r3"].compromise = DropFlowAttack(["f1"], fraction=0.4,
                                                      seed=1)
        drive(net)
        report = accuracy_report(protocol.states, {"r3"}, max_precision=3)
        assert report.total_suspicions > 0
        assert report.accurate

    def test_strong_completeness(self):
        net, protocol = build(k=1)
        net.routers["r3"].compromise = DropFlowAttack(["f1"], fraction=0.4,
                                                      seed=1)
        drive(net)
        report = completeness_report(protocol.states, {"r3"})
        assert report.complete

    def test_modifier_detected(self):
        net, protocol = build(k=1)
        net.routers["r2"].compromise = ModifyAttack(fraction=0.5, seed=2)
        drive(net)
        report = accuracy_report(protocol.states, {"r2"}, max_precision=3)
        assert report.total_suspicions > 0
        assert report.accurate

    def test_dormant_neighbour_still_validates_and_announces(self):
        # r4 is the sink of (r2, r3, r4); a compromise that has not
        # started yet leaves it a correct validator, so an attack built
        # dormant at set-up equals one installed when it starts.
        def suspicions(dormant):
            net, protocol = build(k=1)
            net.routers["r3"].compromise = DropFlowAttack(
                ["f1"], fraction=0.4, seed=1)
            if dormant:
                net.routers["r4"].compromise = DropFlowAttack(
                    ["f1"]).activate_between(100.0)
            drive(net)
            return sorted((router, s.segment, s.interval)
                          for router, state in protocol.states.items()
                          for s in state.suspicions)

        assert suspicions(dormant=True) == suspicions(dormant=False) != []

    def test_precision_is_k_plus_2(self):
        net, protocol = build(k=1)
        net.routers["r3"].compromise = DropFlowAttack(["f1"], fraction=0.4,
                                                      seed=1)
        drive(net)
        max_len = max(len(s.segment)
                      for st in protocol.states.values()
                      for s in st.suspicions)
        assert max_len <= 3


class TestProtocolFaults:
    def test_summary_suppression_causes_timeout_detection(self):
        """A protocol-faulty intermediate suppressing the exchange is
        caught by the µ timeout (§5.2)."""
        net, protocol = build(k=1)
        net.routers["r3"].compromise = ControlSuppressionAttack()
        drive(net)
        report = accuracy_report(protocol.states, {"r3"}, max_precision=3)
        assert report.total_suspicions > 0
        assert report.accurate
        assert any("timed out" in s.reason
                   for st in protocol.states.values()
                   for s in st.suspicions)

    def test_lying_end_detected(self):
        """An end router claiming to have sent more than it did fails TV."""
        from dataclasses import replace

        def inflate(summary):
            fps = set(summary.fingerprints or ())
            fps.add(0xDEADBEEF)
            return replace(summary, fingerprints=frozenset(fps),
                           count=summary.count + 1)

        net, protocol = build(
            k=1, config=PiConfig(k=1, threshold=0))
        protocol.reporters["r1"] = inflate
        drive(net)
        # r1's lie makes TV fail at the other end of r1-ended segments.
        suspected = {seg for st in protocol.states.values()
                     for seg in st.suspected_segments()}
        assert any("r1" in seg for seg in suspected)

    def test_replayed_summary_is_not_validated(self, monkeypatch):
        """A summary replayed into a later round is never validated as
        that round's: the exchange times out, as under suppression."""
        checks = spy_tv(monkeypatch)
        net, protocol = build(k=1)
        protocol.exchange_timeout = 0.5
        net.routers["r2"].compromise = Replayer()
        drive(net)
        assert checks
        for remote, local, _ in checks:
            assert remote.round_index == local.round_index
        through_r2 = {seg for seg in protocol.segments if "r2" in seg[1:-1]}
        reasons = {s.reason for s in protocol.states["r3"].suspicions
                   if s.segment in through_r2}
        assert reasons == {"summary exchange timed out"}
        assert protocol._mailbox == {}

    def test_drop_and_suppress_combined(self):
        net, protocol = build(k=1)
        net.routers["r3"].compromise = CombinedCompromise(
            DropFlowAttack(["f1"], fraction=0.5, seed=4),
            ControlSuppressionAttack(),
        )
        drive(net)
        report = accuracy_report(protocol.states, {"r3"}, max_precision=3)
        assert report.total_suspicions > 0
        assert report.accurate


class TestSampling:
    def test_sampled_monitoring_still_detects(self):
        keys = KeyInfrastructure()
        # Build segments first so we can attach samplers to each.
        net = Network(chain(5, bandwidth=10 * MBPS, delay=0.001))
        paths = install_static_routes(net)
        oracle = PathOracle(paths)
        schedule = RoundSchedule(tau=1.0)
        segments = set()
        for segs in monitored_segments_pik2(
                [tuple(p) for p in paths.values()], k=1).values():
            segments |= segs
        samplers = {
            seg: FingerprintSampler(
                rate=0.5, key=keys.sampling_key(seg[0], seg[-1]))
            for seg in segments
        }
        monitor = SegmentMonitor(net, oracle, schedule,
                                 policy=SummaryPolicy.CONTENT,
                                 samplers=samplers)
        net.add_tap(monitor)
        protocol = ProtocolPiK2(net, monitor, segments, keys, schedule)
        protocol.schedule_rounds(0, 3)
        net.routers["r3"].compromise = DropFlowAttack(["f1"], fraction=0.4,
                                                      seed=5)
        drive(net)
        report = accuracy_report(protocol.states, {"r3"}, max_precision=3)
        assert report.total_suspicions > 0
        assert report.accurate

    def test_segment_state_is_smaller_with_sampling(self):
        keys = KeyInfrastructure()
        net = Network(chain(5, bandwidth=10 * MBPS, delay=0.001))
        paths = install_static_routes(net)
        oracle = PathOracle(paths)
        schedule = RoundSchedule(tau=1.0)
        seg = ("r1", "r2", "r3")
        full = SegmentMonitor(net, oracle, schedule)
        sampled = SegmentMonitor(
            net, oracle, schedule,
            samplers={seg: FingerprintSampler(rate=0.25, key=b"s")})
        full.watch_segment(seg, monitors=("r1", "r3"))
        sampled.watch_segment(seg, monitors=("r1", "r3"))
        net.add_tap(full)
        net.add_tap(sampled)
        drive(net, duration=2.0)
        assert sampled.state_units("r1") < full.state_units("r1")


class TestMonitorRetires:
    """The monitor leaves the network once no conclusion will read it."""

    def test_leaves_after_the_last_scheduled_round_concludes(self):
        net, protocol = build(rounds=3)
        attached = []
        # Round 3 ends at 4 s, is exchanged at 4.2 s, concludes at 5.2 s.
        for when in (5.15, 5.25):
            net.sim.schedule_at(
                when, lambda: attached.append(protocol.monitor in net.taps))
        drive(net)
        assert attached == [True, False]

    @staticmethod
    def stopped_run(monkeypatch, retire):
        if not retire:
            monkeypatch.setattr(RoundDetector, "detach",
                                lambda self, tap: None)
        net, protocol = build(rounds=6)
        protocol.exchange_timeout = 2.5  # µ > τ: rounds overlap
        net.routers["r3"].compromise = DropFlowAttack(["f1"], fraction=0.4,
                                                      seed=1)
        attached = []

        def stop():
            protocol.stop()
            attached.append(protocol.monitor in net.taps)

        def concluded():
            attached.append(protocol.monitor in net.taps)

        # Rounds 0..2 are exchanged by 3.2 s and conclude at 3.7, 4.7
        # and 5.7 s: all three are in flight at 3.5 s.
        net.sim.schedule_at(3.5, stop)
        net.sim.schedule_at(5.65, concluded)
        net.sim.schedule_at(5.75, concluded)
        drive(net, duration=9.0)
        suspicions = {router: state.suspicions
                      for router, state in protocol.states.items()}
        return suspicions, attached

    def test_stopped_with_rounds_in_flight_gives_the_same_suspicions(
            self, monkeypatch):
        retired, attached = self.stopped_run(monkeypatch, retire=True)
        monkeypatch.undo()
        kept, _ = self.stopped_run(monkeypatch, retire=False)
        assert any(retired.values())
        assert retired == kept
        # Still on at stop() and before round 2 concludes; off after.
        assert attached == [True, True, False]
