"""Additional Fatih coordinator behaviours: re-arming, segment hygiene."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PathOracle,
    PiConfig,
    ProtocolPiK2,
    SegmentMonitor,
    SummaryPolicy,
    all_routing_paths,
    enumerate_segments,
    monitored_segments_pik2,
)
from repro.core.detector import RoundDetector
from repro.core.fatih import FatihSystem
from repro.crypto.keys import KeyInfrastructure
from repro.dist.sync import ClockModel, RoundSchedule
from repro.net.adversary import DropFractionAttack
from repro.net.router import Network
from repro.net.routing import LinkStateRouting, compute_all_paths
from repro.net.topology import MBPS, abilene
from repro.net.traffic import CBRSource
from tests.strategies import topology_specs


def build(rebuild_grace=6.0):
    net = Network(abilene(bandwidth=10 * MBPS), proc_jitter=0.0002)
    routing = LinkStateRouting(net, spf_delay=1.0, spf_hold=2.0,
                               hello_interval=2.0, boot_spread=4.0,
                               flood_hop_delay=0.01, lsa_refresh=4.0)
    routing.start()
    fatih = FatihSystem(net, routing, tau=2.0, rebuild_grace=rebuild_grace)
    flows = [("Sunnyvale", "NewYork"), ("NewYork", "Sunnyvale"),
             ("LosAngeles", "Chicago"), ("Seattle", "WashingtonDC")]
    for i, (s, d) in enumerate(flows):
        CBRSource(net, s, d, f"bg{i}", rate_bps=80_000, start=10.0)
    return net, routing, fatih


class TestRearm:
    def test_monitoring_rearms_after_detection(self):
        net, routing, fatih = build()
        fatih.start_monitoring(at=12.0, until=80.0)
        net.run(30.0)
        first_protocol = fatih.protocol  # the pre-attack instance
        net.routers["KansasCity"].compromise = DropFractionAttack(0.25,
                                                                  seed=1)
        net.run(80.0)
        assert fatih.suspicions
        # A fresh protocol instance replaced the stale-oracle one.
        assert fatih.protocol is not None
        assert fatih.protocol is not first_protocol
        assert first_protocol.stopped

    def test_rearmed_monitor_excludes_suspected_segments(self):
        net, routing, fatih = build()
        fatih.start_monitoring(at=12.0, until=80.0)
        net.run(30.0)
        net.routers["KansasCity"].compromise = DropFractionAttack(0.25,
                                                                  seed=1)
        net.run(80.0)
        suspected = fatih.suspected_segments()
        assert suspected
        monitored = set(fatih.protocol.segments)
        assert not (suspected & monitored)

    def test_old_protocol_stopped_on_detection(self):
        net, routing, fatih = build()
        fatih.start_monitoring(at=12.0, until=80.0)
        net.run(30.0)
        first_protocol = fatih.protocol
        net.routers["KansasCity"].compromise = DropFractionAttack(0.25,
                                                                  seed=1)
        net.run(50.0)
        assert first_protocol.stopped

    def test_no_rearm_when_window_over(self):
        net, routing, fatih = build(rebuild_grace=100.0)
        fatih.start_monitoring(at=12.0, until=40.0)
        net.run(30.0)
        net.routers["KansasCity"].compromise = DropFractionAttack(0.25,
                                                                  seed=1)
        net.run(60.0)
        # Detection happened, but the grace period extends past the
        # monitoring window: no rearm is scheduled.
        assert fatih.suspicions
        assert fatih.protocol.stopped


class TestDetectionQuality:
    def test_repeated_detection_isolates_more_segments(self):
        """Each rearm re-monitors the surviving fabric, so a uniformly
        malicious router accumulates exclusions round by round (§2.4.3:
        'each of these paths will be separately detected and then routed
        around')."""
        net, routing, fatih = build()
        fatih.start_monitoring(at=12.0, until=110.0)
        net.run(25.0)
        net.routers["KansasCity"].compromise = DropFractionAttack(0.3,
                                                                  seed=2)
        net.run(55.0)
        first_batch = len(fatih.suspected_segments())
        assert first_batch > 0
        net.run(110.0)
        # All suspicions, early and late, contain the attacker.
        for seg in fatih.suspected_segments():
            assert "KansasCity" in seg


class TestMonitorRetires:
    """A stopped Πk+2 instance takes its monitor off the network after
    the conclusions that read it, and not before."""

    @staticmethod
    def rearm_run(monkeypatch, retire=True):
        """The KansasCity re-arm run: when each monitor left the
        network, each protocol's last exchanged round, its conclusions
        and stop, and the last record each monitor filed."""
        log = {"left": {}, "exchanged": {}, "concluded": [], "stopped": {},
               "filed": {}}
        if not retire:
            monkeypatch.setattr(RoundDetector, "detach",
                                lambda self, tap: None)
        remove_tap = Network.remove_tap
        evaluate = ProtocolPiK2.evaluate_round
        conclude = ProtocolPiK2._conclude
        stop = ProtocolPiK2.stop
        record = SegmentMonitor._record

        def spy_remove(self, tap):
            log["left"][tap] = self.sim.now
            remove_tap(self, tap)

        def spy_evaluate(self, round_index):
            if not self.stopped:
                log["exchanged"][self] = round_index
            evaluate(self, round_index)

        def spy_conclude(self, segment, round_index):
            if segment == self.segments[-1]:  # the round's last conclusion
                log["concluded"].append((self, round_index,
                                         self.network.sim.now,
                                         self.monitor in self.network.taps))
            conclude(self, segment, round_index)

        def spy_stop(self):
            log["stopped"].setdefault(self, self.network.sim.now)
            stop(self)

        def spy_record(self, link, router, nbr, packet, time):
            log["filed"][self] = time
            record(self, link, router, nbr, packet, time)

        monkeypatch.setattr(Network, "remove_tap", spy_remove)
        monkeypatch.setattr(ProtocolPiK2, "evaluate_round", spy_evaluate)
        monkeypatch.setattr(ProtocolPiK2, "_conclude", spy_conclude)
        monkeypatch.setattr(ProtocolPiK2, "stop", spy_stop)
        monkeypatch.setattr(SegmentMonitor, "_record", spy_record)
        net, routing, fatih = build()
        fatih.start_monitoring(at=12.0, until=80.0)
        net.run(30.0)
        first = fatih.protocol
        net.routers["KansasCity"].compromise = DropFractionAttack(0.25,
                                                                  seed=1)
        net.run(80.0)
        return first, fatih, log

    def test_stopped_monitor_leaves_after_its_last_conclusion(self,
                                                              monkeypatch):
        first, fatih, log = self.rearm_run(monkeypatch)
        assert first.stopped and fatih.protocol is not first
        monitor = first.monitor
        assert monitor not in fatih.network.taps
        left = log["left"][monitor]
        ends = [(round_index, now, attached)
                for protocol, round_index, now, attached in log["concluded"]
                if protocol is first]
        # Attached through every conclusion, the last one included, and
        # gone right after that last one: the round in flight at stop().
        assert all(attached for _, _, attached in ends)
        last_round, last_at, _ = ends[-1]
        assert last_round == log["exchanged"][first]
        assert log["stopped"][first] <= last_at == left
        # It filed nothing after leaving, and left long before the
        # run's end at 80 s.
        assert log["filed"][monitor] <= left < 60.0

    def test_suspicions_and_detection_times_unchanged(self, monkeypatch):
        _, retired, _ = self.rearm_run(monkeypatch)
        monkeypatch.undo()
        _, kept, _ = self.rearm_run(monkeypatch, retire=False)
        assert retired.suspicions
        assert retired.suspicions == kept.suspicions
        assert retired.detection_times == kept.detection_times


KEYS = KeyInfrastructure()


def hand_arm(self, start, until):
    """``FatihSystem._arm`` as it was before it armed through
    ``arm_protocol``; ``self.keys`` / ``self.clock`` were their
    defaults, and the §5.3 validator settings are spelled out (k = 1,
    threshold 2, settle 0.3 s, Πk+2's own µ, content summaries).  The
    old monitor is not removed here: the stopped protocol detached it
    after its last conclusions."""
    suspected = {tuple(s.segment) for s in self.suspicions}
    paths = compute_all_paths(self.network.topology, suspected)
    oracle = PathOracle(paths)
    schedule = RoundSchedule(tau=self.tau, start=start)
    monitor = SegmentMonitor(
        self.network, oracle, schedule,
        policy=SummaryPolicy.CONTENT, clock=ClockModel(epsilon=0.002),
    )
    segments_by_router = monitored_segments_pik2(
        [tuple(p) for p in paths.values()], 1
    )
    segments = set()
    for segs in segments_by_router.values():
        segments.update(segs)
    # Never re-monitor segments already excluded from the fabric.
    segments = {s for s in segments if s not in suspected}
    protocol = ProtocolPiK2(
        self.network, monitor, segments, KEYS, schedule,
        config=PiConfig(k=1, threshold=2, settle_delay=0.3),
        on_suspicion=self._on_suspicion,
    )
    self.network.add_tap(monitor)
    self.protocol = protocol
    n_rounds = max(0, int((until - start) / self.tau) - 1)
    protocol.schedule_rounds(0, n_rounds)


class TestArmsThroughArmProtocol:
    """Fatih armed through ``arm_protocol`` against its hand assembly."""

    @staticmethod
    def rearm_run(monkeypatch, arm):
        """The KansasCity re-arm scenario, recording every arm."""
        arms = []

        def recorded(self, start, until):
            before = {entry[1] for entry in self.network.sim._heap}
            arm(self, start, until)
            protocol = self.protocol
            monitor = protocol.monitor
            arms.append((
                self.network.sim.now, protocol.segments,
                dict(monitor._monitors), protocol.config, protocol.schedule,
                monitor.policy, monitor.clock.epsilon,
                sorted((when, fn.__name__, args)
                       for when, seq, fn, args in self.network.sim._heap
                       if seq not in before),
                [tap is monitor for tap in self.network.taps],
            ))

        monkeypatch.setattr(FatihSystem, "_arm", recorded)
        net, routing, fatih = build()
        fatih.start_monitoring(at=12.0, until=80.0)
        net.run(30.0)
        net.routers["KansasCity"].compromise = DropFractionAttack(0.25,
                                                                  seed=1)
        net.run(80.0)
        return arms, fatih.suspicions, fatih.detection_times

    def test_same_arms_as_hand_assembly(self, monkeypatch):
        got = self.rearm_run(monkeypatch, FatihSystem._arm)
        want = self.rearm_run(monkeypatch, hand_arm)
        arms, suspicions, detection_times = got
        assert len(arms) >= 2  # armed, detected, re-armed
        assert arms == want[0]  # segments, schedule, clock, live taps
        assert suspicions == want[1]
        assert detection_times == want[2]
        assert suspicions


#: The windowed all-pairs search takes ~10 s an example on the
#: 87-router catalogue graphs; the small ones cover the windows.
small_topologies = topology_specs().map(lambda spec: spec.build()).filter(
    lambda topo: len(topo) <= 20)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(small_topologies, st.data())
def test_rerouted_paths_avoid_every_suspected_segment(topo, data):
    """Why a re-arm never monitors a suspected segment again."""
    routed = sorted({segment for path in all_routing_paths(topo)
                     for length in (2, 3)
                     for segment in enumerate_segments(path, length)})
    suspected = data.draw(st.lists(st.sampled_from(routed), max_size=4,
                                   unique=True))
    paths = compute_all_paths(topo, suspected)
    assert paths  # the catalogue graphs stay connected
    for path in paths.values():
        for segment in suspected:
            assert tuple(segment) not in set(
                enumerate_segments(tuple(path), len(segment)))
    monitored = monitored_segments_pik2(
        [tuple(p) for p in paths.values()], 1)
    assert not set(suspected) & set().union(*monitored.values())
