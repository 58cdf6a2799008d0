"""Integration tests for Protocol Π2 (Fig 5.1)."""

from importlib import import_module

from repro.core.detector import (
    PiConfig,
    accuracy_report,
    completeness_report,
    run_tv,
)
from repro.core.pi2 import ProtocolPi2
from repro.core.segments import monitored_segments_pi2
from repro.core.summaries import PathOracle, SegmentMonitor, SummaryPolicy
from repro.crypto.keys import KeyInfrastructure
from repro.dist.sync import RoundSchedule
from repro.net.adversary import (
    DelayAttack,
    DropFlowAttack,
    ModifyAttack,
    ReorderAttack,
)
from repro.net.router import Network
from repro.net.routing import install_static_routes
from repro.net.topology import MBPS, chain
from repro.net.traffic import CBRSource


def build(n=4, policy=SummaryPolicy.CONTENT, k=1, config=None,
          reporters=None):
    net = Network(chain(n, bandwidth=10 * MBPS, delay=0.001))
    paths = install_static_routes(net)
    oracle = PathOracle(paths)
    schedule = RoundSchedule(tau=1.0)
    keys = KeyInfrastructure()
    monitor = SegmentMonitor(net, oracle, schedule, policy=policy)
    net.add_tap(monitor)
    segments = set()
    for segs in monitored_segments_pi2(
            [tuple(p) for p in paths.values()], k=k).values():
        segments |= segs
    protocol = ProtocolPi2(net, monitor, segments, keys, schedule,
                           config=config or PiConfig(k=k),
                           reporters=reporters)
    protocol.schedule_rounds(0, 3)
    return net, protocol


def drive(net, duration=6.0, rate=800_000):
    src = CBRSource(net, "r1", f"r{len(net.topology)}", "f1",
                    rate_bps=rate, duration=4.0)
    net.run(duration)
    return src


class TestCleanRuns:
    def test_no_suspicions_without_faults(self):
        net, protocol = build()
        drive(net)
        for state in protocol.states.values():
            assert state.suspicions == []

    def test_every_check_runs_and_passes(self, monkeypatch):
        checks = []

        def spy(upstream, downstream, config):
            result = run_tv(upstream, downstream, config)
            checks.append((upstream, downstream, result))
            return result

        monkeypatch.setattr(import_module("repro.core.pi2"), "run_tv", spy)
        net, protocol = build()
        drive(net)
        ran = [(up.round_index, up.segment, up.router, up.direction,
                down.router, down.direction) for up, down, _ in checks]
        want = set()
        for r in range(4):  # rounds 0..3 are scheduled
            for seg in protocol.segments:
                for a, b in zip(seg, seg[1:]):  # link checks
                    want.add((r, seg, a, "sent", b, "received"))
                for m in seg[1:-1]:  # transit checks
                    want.add((r, seg, m, "received", m, "sent"))
        assert sorted(ran) == sorted(want)  # each check once per round
        assert all(result.ok for _, _, result in checks)


class TestTrafficFaults:
    def test_dropper_detected_with_precision_2(self):
        net, protocol = build()
        net.routers["r2"].compromise = DropFlowAttack(["f1"], fraction=0.5,
                                                      seed=1)
        drive(net)
        report = accuracy_report(protocol.states, {"r2"}, max_precision=2)
        assert report.total_suspicions > 0
        assert report.accurate

    def test_strong_completeness_all_correct_routers_suspect(self):
        net, protocol = build()
        net.routers["r2"].compromise = DropFlowAttack(["f1"], fraction=0.5,
                                                      seed=1)
        drive(net)
        report = completeness_report(protocol.states, {"r2"})
        assert report.complete

    def test_modifier_detected_by_content_policy(self):
        net, protocol = build()
        net.routers["r3"].compromise = ModifyAttack(fraction=0.4, seed=2)
        drive(net)
        report = accuracy_report(protocol.states, {"r3"}, max_precision=2)
        assert report.total_suspicions > 0
        assert report.accurate

    def test_reorderer_detected_by_order_policy(self):
        net, protocol = build(
            policy=SummaryPolicy.ORDER,
            config=PiConfig(k=1, threshold=0),
        )
        net.routers["r2"].compromise = ReorderAttack(period=3, hold=0.05)
        drive(net)
        report = accuracy_report(protocol.states, {"r2"}, max_precision=2)
        assert report.total_suspicions > 0
        assert report.accurate

    def test_reorderer_invisible_to_content_policy(self):
        # A small threshold absorbs round-boundary straddlers; content
        # validation then has nothing to say about pure reordering.
        net, protocol = build(policy=SummaryPolicy.CONTENT,
                              config=PiConfig(k=1, threshold=2))
        net.routers["r2"].compromise = ReorderAttack(period=3, hold=0.02)
        drive(net)
        assert protocol.states["r1"].suspicions == []

    def test_delayer_detected_by_timeliness_policy(self):
        """Conservation of timeliness (§2.4.1): a router adding 200 ms of
        latency is caught even though content and order are intact."""
        net, protocol = build(
            policy=SummaryPolicy.TIMELINESS,
            config=PiConfig(k=1, threshold=2, max_delay=0.05),
        )
        net.routers["r2"].compromise = DelayAttack(0.2, flows=["f1"])
        drive(net)
        report = accuracy_report(protocol.states, {"r2"}, max_precision=2)
        assert report.total_suspicions > 0
        assert report.accurate

    def test_small_delayer_invisible_to_content_policy(self):
        # A modest delay only moves a couple of packets across round
        # boundaries — inside the content threshold.  (Timeliness policy
        # still catches it, see above; large delays eventually surface
        # even in content terms as round-boundary mass migration.)
        net, protocol = build(policy=SummaryPolicy.CONTENT,
                              config=PiConfig(k=1, threshold=4))
        net.routers["r2"].compromise = DelayAttack(0.02, flows=["f1"])
        drive(net, duration=7.0)
        assert protocol.states["r1"].suspicions == []

    def test_threshold_tolerates_benign_loss(self):
        net, protocol = build(config=PiConfig(k=1, threshold=3))
        net.routers["r2"].compromise = DropFlowAttack(["f1"], fraction=0.005,
                                                      seed=3)
        drive(net)
        # ~0.5% of ~100 pkts/round stays below the 3-packet allowance.
        assert all(len(s.suspicions) == 0
                   for name, s in protocol.states.items())


class TestProtocolFaults:
    def test_lying_reporter_detected(self):
        """A router that under-reports what it received frames itself."""
        def liar(honest):
            received, sent = honest
            fewer = TrafficSummaryHalver(received)
            return (fewer, sent)

        net, protocol = build(reporters={"r2": liar})
        drive(net)
        report = accuracy_report(protocol.states, {"r2"}, max_precision=2)
        assert report.total_suspicions > 0
        assert report.accurate

    def test_silent_reporter_detected(self):
        net, protocol = build(reporters={"r2": lambda honest: None})
        drive(net)
        report = accuracy_report(protocol.states, {"r2"}, max_precision=2)
        assert report.total_suspicions > 0
        assert report.accurate

    def test_equivocating_reporter_detected(self):
        def equivocator(honest):
            received, sent = honest
            return ((received, sent), (sent, received))  # two claims

        net, protocol = build(reporters={"r2": equivocator})
        drive(net)
        report = accuracy_report(protocol.states, {"r2"}, max_precision=2)
        assert report.total_suspicions > 0
        assert report.accurate


def TrafficSummaryHalver(summary):
    """Return a copy of ``summary`` with half the fingerprints removed."""
    from dataclasses import replace
    fps = sorted(summary.fingerprints or ())
    kept = frozenset(fps[: len(fps) // 2])
    return replace(summary, fingerprints=kept, count=len(kept),
                   byte_count=summary.byte_count // 2)
