"""Tests for multipath-aware path prediction (§7.4.1)."""


from repro.core.pik2 import ProtocolPiK2
from repro.core.summaries import EcmpPathOracle, SegmentMonitor
from repro.crypto.keys import KeyInfrastructure
from repro.dist.sync import RoundSchedule
from repro.net.adversary import DropFlowAttack
from repro.net.packet import Packet
from repro.net.router import Network
from repro.net.routing import install_static_routes
from repro.net.topology import Topology, chain, diamond


def ecmp_net():
    """s fans out to a/b (ECMP), both rejoin at m, then t."""
    topo = Topology("ecmp")
    for x, y in [("s", "a"), ("a", "m"), ("s", "b"), ("b", "m"), ("m", "t")]:
        topo.add_link(x, y)
    net = Network(topo)
    install_static_routes(net)
    net.routers["s"].forwarding_table["t"] = ["a", "b"]
    return net


class TestEcmpPathOracle:
    def test_traces_live_tables(self):
        net = ecmp_net()
        oracle = EcmpPathOracle(net)
        path = oracle.packet_path(Packet(src="s", dst="t", flow_id="x"))
        assert path is not None
        assert path[0] == "s" and path[-1] == "t"
        assert path[1] in ("a", "b")

    def test_prediction_matches_actual_forwarding(self):
        net = ecmp_net()
        oracle = EcmpPathOracle(net)
        actual_first_hop = {}
        predicted_first_hop = {}
        for i in range(30):
            packet = Packet(src="s", dst="t", flow_id=f"f{i}")
            predicted_first_hop[i] = oracle.packet_path(packet)[1]
            actual_first_hop[i] = net.routers["s"].next_hop(packet)
        assert predicted_first_hop == actual_first_hop

    def test_flows_split_across_branches(self):
        net = ecmp_net()
        oracle = EcmpPathOracle(net)
        hops = {oracle.packet_path(Packet(src="s", dst="t",
                                          flow_id=f"f{i}"))[1]
                for i in range(40)}
        assert hops == {"a", "b"}

    def test_same_flow_stable(self):
        net = ecmp_net()
        oracle = EcmpPathOracle(net)
        paths = {oracle.packet_path(Packet(src="s", dst="t", flow_id="x"))
                 for _ in range(5)}
        assert len(paths) == 1

    def test_no_route_returns_none(self):
        net = Network(chain(3))  # no routes installed
        oracle = EcmpPathOracle(net)
        assert oracle.packet_path(Packet(src="r1", dst="r3")) is None

    def test_invalidate_after_table_change(self):
        net = ecmp_net()
        oracle = EcmpPathOracle(net)
        packet = Packet(src="s", dst="t", flow_id="x")
        before = oracle.packet_path(packet)
        other = "b" if before[1] == "a" else "a"
        net.routers["s"].forwarding_table["t"] = [other]
        assert oracle.packet_path(packet) == before  # cached
        oracle.invalidate()
        assert oracle.packet_path(packet)[1] == other

    def test_policy_table_respected(self):
        net = ecmp_net()
        oracle = EcmpPathOracle(net)
        net.routers["s"].policy_table[("s", "t")] = ["b"]
        oracle.invalidate()
        path = oracle.packet_path(Packet(src="s", dst="t", flow_id="q"))
        assert path[1] == "b"


class TestFlowlessPathQuery:
    def test_query_takes_no_uid_from_the_network(self):
        net = Network(diamond())
        install_static_routes(net)
        oracle = EcmpPathOracle(net)
        paths = [oracle.path("s", "t") for _ in range(3)]
        assert next(net.packet_ids) == 1  # the run's numbering is untouched
        expected = oracle.packet_path(Packet(src="s", dst="t", flow_id=""))
        assert paths == [expected] * 3
        assert expected[0] == "s" and expected[-1] == "t"
        assert expected[1] in ("a", "b")

    def test_query_uses_the_live_tables(self):
        net = ecmp_net()
        oracle = EcmpPathOracle(net)
        net.routers["s"].forwarding_table["t"] = ["b"]
        assert oracle.path("s", "t") == ("s", "b", "m", "t")
        assert oracle.path("a", "b") is not None
        assert next(net.packet_ids) == 1


class TestDetectionUnderECMP:
    def test_dropper_on_one_branch_localized(self):
        net = ecmp_net()
        oracle = EcmpPathOracle(net)
        schedule = RoundSchedule(tau=1.0)
        monitor = SegmentMonitor(net, oracle, schedule)
        net.add_tap(monitor)
        segments = {("s", "a", "m"), ("s", "b", "m"),
                    ("a", "m", "t"), ("b", "m", "t")}
        protocol = ProtocolPiK2(net, monitor, segments,
                                KeyInfrastructure(), schedule)
        protocol.schedule_rounds(0, 3)
        from repro.net.traffic import CBRSource
        flows = [CBRSource(net, "s", "t", f"f{i}", rate_bps=200_000,
                           duration=4.0) for i in range(6)]
        net.routers["a"].compromise = DropFlowAttack(
            [f"f{i}" for i in range(6)], fraction=0.5, seed=1)
        net.run(7.0)
        suspects = protocol.states["t"].suspected_segments()
        assert any("a" in seg for seg in suspects)
        assert not any("b" in seg for seg in suspects)
