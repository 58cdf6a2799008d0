"""Unit tests for path-segment enumeration, P_r (§5.1/§5.2) and arming."""

import pytest

from repro.core import (
    PathOracle,
    PiConfig,
    ProtocolPi2,
    ProtocolPiK2,
    SegmentMonitor,
    arm_protocol,
)
from repro.core.segments import (
    all_routing_paths,
    enumerate_segments,
    monitored_segments_pi2,
    monitored_segments_pik2,
    pik2_counter_count,
    pr_statistics,
    watchers_counter_count,
)
from repro.crypto.keys import KeyInfrastructure
from repro.dist.sync import ClockModel, RoundSchedule
from repro.net import CBRSource, DropFlowAttack, Network, install_static_routes
from repro.net.topology import abilene, chain, diamond, ebone_like


class TestRoutingPaths:
    def test_chain_paths(self):
        paths = all_routing_paths(chain(3))
        assert ("r1", "r2", "r3") in paths
        assert ("r3", "r2", "r1") in paths
        assert len(paths) == 6  # every ordered pair

    def test_paths_are_shortest(self):
        topo = abilene()
        paths = {(p[0], p[-1]): p for p in all_routing_paths(topo)}
        p = paths[("Sunnyvale", "NewYork")]
        delay = sum(topo.link(a, b).delay for a, b in zip(p, p[1:]))
        assert delay == pytest.approx(0.025)

    def test_deterministic(self):
        a = all_routing_paths(ebone_like())
        b = all_routing_paths(ebone_like())
        assert a == b

    def test_one_path_per_pair(self):
        paths = all_routing_paths(diamond())
        pairs = [(p[0], p[-1]) for p in paths]
        assert len(pairs) == len(set(pairs))


class TestEnumerate:
    def test_subsequences(self):
        path = ("a", "b", "c", "d")
        assert list(enumerate_segments(path, 3)) == [
            ("a", "b", "c"), ("b", "c", "d")]

    def test_full_length(self):
        assert list(enumerate_segments(("a", "b"), 2)) == [("a", "b")]

    def test_too_long_yields_nothing(self):
        assert list(enumerate_segments(("a", "b"), 3)) == []


class TestPi2Segments:
    def test_chain_k1(self):
        paths = all_routing_paths(chain(4))
        by_router = monitored_segments_pi2(paths, k=1)
        # 3-segments in both directions
        assert ("r1", "r2", "r3") in by_router["r2"]
        assert ("r3", "r2", "r1") in by_router["r2"]
        # every member monitors (per path-segment *nodes*)
        assert ("r1", "r2", "r3") in by_router["r1"]
        assert ("r1", "r2", "r3") in by_router["r3"]

    def test_short_paths_monitored_whole(self):
        # k=3 wants 5-segments but the longest path in chain(4) has 4
        # routers; the whole path (terminal-ended) is monitored instead.
        paths = all_routing_paths(chain(4))
        by_router = monitored_segments_pi2(paths, k=3)
        assert ("r1", "r2", "r3", "r4") in by_router["r2"]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            monitored_segments_pi2([], k=0)

    def test_monotone_in_k_until_saturation(self):
        paths = all_routing_paths(ebone_like())
        sizes = []
        for k in (1, 2, 3):
            stats = pr_statistics(monitored_segments_pi2(paths, k))
            sizes.append(stats["mean"])
        assert sizes[0] < sizes[1] <= sizes[2]


class TestPik2Segments:
    def test_only_ends_monitor(self):
        paths = all_routing_paths(chain(5))
        by_router = monitored_segments_pik2(paths, k=1)
        seg = ("r1", "r2", "r3")
        assert seg in by_router["r1"]
        assert seg in by_router["r3"]
        assert seg not in by_router.get("r2", set())

    def test_all_lengths_up_to_k_plus_2(self):
        paths = all_routing_paths(chain(6))
        by_router = monitored_segments_pik2(paths, k=2)
        lengths = {len(s) for s in by_router["r1"]}
        assert lengths == {3, 4}

    def test_pik2_much_smaller_than_pi2(self):
        paths = all_routing_paths(ebone_like())
        pi2 = pr_statistics(monitored_segments_pi2(paths, 2))
        pik2 = pr_statistics(monitored_segments_pik2(paths, 2))
        assert pik2["mean"] < pi2["mean"]
        assert pik2["max"] < pi2["max"]


class TestOverheadCounters:
    def test_watchers_formula(self):
        topo = chain(4)
        counts = watchers_counter_count(topo)
        # 7 counters x degree x N (N = 4)
        assert counts["r1"] == 7 * 1 * 4
        assert counts["r2"] == 7 * 2 * 4

    def test_pik2_two_counters_per_segment(self):
        topo = chain(5)
        paths = all_routing_paths(topo)
        by_router = monitored_segments_pik2(paths, k=1)
        counts = pik2_counter_count(by_router, topo)
        assert counts["r1"] == 2 * len(by_router["r1"])

    def test_pik2_orders_of_magnitude_cheaper_than_watchers(self):
        """The §5.2.1 comparison on a realistic topology."""
        topo = ebone_like()
        paths = all_routing_paths(topo)
        watchers = watchers_counter_count(topo)
        pik2 = pik2_counter_count(monitored_segments_pik2(paths, 2), topo)
        watchers_mean = sum(watchers.values()) / len(watchers)
        pik2_mean = sum(pik2.values()) / len(pik2)
        assert pik2_mean < watchers_mean / 3


class TestPrStatistics:
    def test_stats_fields(self):
        stats = pr_statistics({"a": {("x", "y")}, "b": set()})
        assert stats["max"] == 1.0
        assert stats["mean"] == 0.5

    def test_routers_without_segments_counted(self):
        stats = pr_statistics({"a": {("x", "y")}},
                              all_routers=["a", "b", "c", "d"])
        assert stats["mean"] == 0.25

    def test_empty(self):
        stats = pr_statistics({})
        assert stats == {"max": 0, "mean": 0.0, "median": 0.0}



def hand_armed(net, paths, protocol, k, over=None):
    """The assembly every caller wrote out before ``arm_protocol``."""
    schedule = RoundSchedule(tau=1.0)
    keys = KeyInfrastructure()
    monitor = SegmentMonitor(net, PathOracle(paths), schedule)
    net.add_tap(monitor)
    if protocol == "pi2":
        enum, cls = monitored_segments_pi2, ProtocolPi2
    else:
        enum, cls = monitored_segments_pik2, ProtocolPiK2
    routed = paths.values() if over is None else over
    segments = set()
    for segs in enum([tuple(p) for p in routed], k=k).values():
        segments |= segs
    armed = cls(net, monitor, segments, keys, schedule, config=PiConfig(k=k))
    armed.schedule_rounds(0, 3)
    return armed


def by_arm_protocol(net, paths, protocol, k, over=None):
    return arm_protocol(net, paths, protocol, config=PiConfig(k=k), over=over)


#: Per topology: two opposite flows' ends and the router between them.
TWO_FLOWS = {
    "chain6": (chain(6), ("r1", "r6"), "r3"),
    "abilene": (abilene(), ("Sunnyvale", "NewYork"), "KansasCity"),
}


class TestArmProtocol:
    """``arm_protocol`` against the hand assembly it replaced."""

    @staticmethod
    def drop_run(topology, protocol, k, two_flows, arm):
        """Arm, then run two CBR flows through a dropping router."""
        topo, (a, b), bad = TWO_FLOWS[topology]
        net = Network(topo)
        paths = install_static_routes(net)
        over = [paths[(a, b)], paths[(b, a)]] if two_flows else None
        armed = arm(net, paths, protocol, k, over)
        scheduled = sorted((when, event.fn.__name__, event.args)
                           for when, _, event in net.sim._heap)
        assert armed.monitor in net.taps
        assert any(bad in segment for segment in armed.segments)
        net.routers[bad].compromise = DropFlowAttack(
            ["f1", "f2"], fraction=0.5, seed=1)
        CBRSource(net, a, b, "f1", rate_bps=600_000, duration=3.0)
        CBRSource(net, b, a, "f2", rate_bps=600_000, duration=3.0)
        net.run(6.0)
        return (type(armed), armed.segments, dict(armed.monitor._monitors),
                scheduled, {router: state.suspicions
                            for router, state in armed.states.items()})

    @pytest.mark.parametrize("two_flows", [False, True],
                             ids=["all-paths", "two-flows"])
    # At k = 1 both enumerators yield the same 3-segments; k = 2 tells
    # them apart (Π2: 4-segments; Πk+2: 3- and 4-segments).
    @pytest.mark.parametrize("k", [1, 2], ids=["k1", "k2"])
    @pytest.mark.parametrize("protocol", ["pi2", "pik2"])
    @pytest.mark.parametrize("topology", sorted(TWO_FLOWS))
    def test_same_detector_as_hand_assembly(self, topology, protocol, k,
                                            two_flows):
        got = self.drop_run(topology, protocol, k, two_flows,
                            by_arm_protocol)
        want = self.drop_run(topology, protocol, k, two_flows, hand_armed)
        kind, segments, watched, scheduled, suspicions = got
        assert kind is want[0]
        assert segments == want[1]
        assert watched == want[2]  # the monitors recording each segment
        assert scheduled == want[3]  # one evaluation per round end
        assert suspicions == want[4]
        assert any(suspicions.values())  # the drop run is not vacuous

    def test_sampling_keys_a_sampler_per_segment(self):
        net = Network(chain(5))
        keys = KeyInfrastructure()
        protocol = arm_protocol(net, install_static_routes(net), "pik2",
                                sampling=0.25)
        samplers = protocol.monitor.samplers
        assert set(samplers) == set(protocol.segments)
        for segment, sampler in samplers.items():
            assert sampler.rate == 0.25
            assert sampler.key == keys.sampling_key(segment[0], segment[-1])

    @pytest.mark.parametrize("protocol,k,precision", [
        ("pi2", 1, 2), ("pi2", 2, 2), ("pik2", 1, 3), ("pik2", 2, 4)])
    def test_precision_is_the_protocols(self, protocol, k, precision):
        """Appendix B: Π2 suspects 2-segments, Πk+2 (k+2)-segments."""
        net = Network(chain(5))
        armed = arm_protocol(net, install_static_routes(net), protocol,
                             config=PiConfig(k=k))
        assert armed.precision == precision

    def test_start_and_clock_reach_the_monitor(self):
        net = Network(chain(4))
        clock = ClockModel(epsilon=0.002)
        armed = arm_protocol(net, install_static_routes(net), "pik2",
                             tau=5.0, start=60.0, clock=clock,
                             last_round=1)
        assert armed.schedule == RoundSchedule(tau=5.0, start=60.0)
        assert armed.monitor.schedule is armed.schedule
        assert armed.monitor.clock is clock
        assert sorted(when for when, _, _ in net.sim._heap) == [
            65.0 + armed.settle_delay, 70.0 + armed.settle_delay]

    def test_unknown_protocol_names_the_choices(self):
        net = Network(chain(3))
        with pytest.raises(ValueError, match="pi2, pik2"):
            arm_protocol(net, install_static_routes(net), "pi3")
        assert net.taps == []

    def test_pi2_rejects_a_summary_codec(self):
        """Π2 agrees on full summaries; the §2.4.1 codecs are Πk+2's."""
        net = Network(chain(4))
        paths = install_static_routes(net)
        with pytest.raises(ValueError, match="'bloom'"):
            arm_protocol(net, paths, "pi2", config=PiConfig(codec="bloom"))
        assert net.taps == []
        armed = arm_protocol(net, paths, "pik2", config=PiConfig(codec="bloom"))
        assert armed.config.codec == "bloom"
