"""Integration tests for the Fatih system (§5.3) — compressed timeline."""

import pytest

from repro.core.fatih import FatihSystem, RTTMonitor
from repro.net.adversary import DropFractionAttack
from repro.net.router import Network
from repro.net.routing import LinkStateRouting
from repro.net.topology import MBPS, abilene
from repro.net.traffic import CBRSource


def build_system(tau=2.0):
    net = Network(abilene(bandwidth=10 * MBPS), proc_jitter=0.0002)
    routing = LinkStateRouting(net, spf_delay=1.0, spf_hold=2.0,
                               hello_interval=2.0, boot_spread=4.0,
                               flood_hop_delay=0.01, lsa_refresh=4.0)
    routing.start()
    fatih = FatihSystem(net, routing, tau=tau, rebuild_grace=6.0)
    return net, routing, fatih


def add_background(net, start=10.0):
    flows = [("Sunnyvale", "NewYork"), ("NewYork", "Sunnyvale"),
             ("LosAngeles", "Chicago"), ("Seattle", "WashingtonDC")]
    return [CBRSource(net, s, d, f"bg{i}", rate_bps=80_000, start=start)
            for i, (s, d) in enumerate(flows)]


class TestFatihTimeline:
    def test_no_detection_without_attack(self):
        net, routing, fatih = build_system()
        add_background(net)
        fatih.start_monitoring(at=12.0, until=40.0)
        net.run(40.0)
        assert fatih.suspicions == []

    def test_detects_and_reroutes(self):
        net, routing, fatih = build_system()
        add_background(net)
        fatih.start_monitoring(at=12.0, until=60.0)
        net.run(30.0)
        net.routers["KansasCity"].compromise = DropFractionAttack(0.2,
                                                                  seed=1)
        net.run(60.0)
        assert fatih.first_detection_time() is not None
        assert fatih.first_detection_time() > 30.0
        # Every suspicion names a segment containing the attacker.
        assert fatih.suspected_segments()
        for seg in fatih.suspected_segments():
            assert "KansasCity" in seg
        # The routing daemons learned the alerts.
        first = next(iter(fatih.suspected_segments()))
        for name in net.topology.routers:
            assert first in routing.state[name].suspicions

    def test_detection_latency_within_two_rounds(self):
        net, routing, fatih = build_system(tau=2.0)
        add_background(net)
        fatih.start_monitoring(at=12.0, until=60.0)
        net.run(30.0)
        net.routers["KansasCity"].compromise = DropFractionAttack(0.3,
                                                                  seed=2)
        net.run(60.0)
        latency = fatih.first_detection_time() - 30.0
        assert latency < 2 * 2.0 + 2.0  # two rounds + settle/timeout slack

    def test_traffic_avoids_suspected_segments_after_response(self):
        net, routing, fatih = build_system()
        add_background(net)
        fatih.start_monitoring(at=12.0, until=80.0)
        net.run(30.0)
        attack = DropFractionAttack(0.25, seed=3)
        net.routers["KansasCity"].compromise = attack
        net.run(55.0)
        assert fatih.suspicions, "attack must be detected first"
        drops_at_response = len(attack.dropped)
        # After the reroute, transit through Kansas City on the suspected
        # segments dries up, so the attacker sees (almost) nothing new.
        net.run(80.0)
        assert len(attack.dropped) - drops_at_response <= \
            drops_at_response * 0.2 + 5


class TestRTTMonitor:
    def test_measures_path_latency(self):
        net = Network(abilene(bandwidth=10 * MBPS))
        from repro.net.routing import install_static_routes
        install_static_routes(net)
        rtt = RTTMonitor(net, "NewYork", "Sunnyvale", interval=0.5,
                         start=0.0, stop=5.0)
        net.run(8.0)
        assert rtt.samples
        assert rtt.mean_rtt() == pytest.approx(0.050, abs=0.003)

    def test_counts_lost_probes(self):
        net = Network(abilene(bandwidth=10 * MBPS))
        from repro.net.routing import install_static_routes
        install_static_routes(net)
        net.routers["KansasCity"].compromise = DropFractionAttack(1.0)
        rtt = RTTMonitor(net, "NewYork", "Sunnyvale", interval=0.5,
                         start=0.0, stop=3.0)
        net.run(10.0)
        assert rtt.samples == []
        assert rtt.lost > 0

    def test_flows_are_numbered_per_network(self):
        # A flow id is part of every probe's fingerprint, so a network's
        # probes must not depend on what else ran in this process.
        def flow_ids():
            net = Network(abilene(bandwidth=10 * MBPS))
            return [RTTMonitor(net, "NewYork", "Sunnyvale").flow_id,
                    RTTMonitor(net, "Seattle", "Atlanta").flow_id]

        assert flow_ids() == flow_ids() == ["rtt-1", "rtt-2"]
