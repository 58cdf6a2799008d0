"""Coverage for smaller behaviours across the library."""

import pytest

from repro.core.chi import TH_COMBINED, TH_CUMULATIVE, TH_SINGLE
from repro.core.detector import DetectorState, Suspicion
from repro.crypto.keys import KeyInfrastructure
from repro.dist.broadcast import robust_flood
from repro.eval import build_scenario, droptail_spec, red_spec
from repro.eval.scenarios import RepeatedConnector
from repro.net.router import Network
from repro.net.routing import compute_all_paths, install_static_routes
from repro.net.tcp import TCPFlow
from repro.net.topology import MBPS, abilene, chain


class TestRepeatedConnector:
    def test_opens_connections_sequentially(self):
        net = Network(chain(3, bandwidth=10 * MBPS, delay=0.001))
        install_static_routes(net)
        connector = RepeatedConnector(net, "r1", "r3",
                                      packets_per_conn=5, spacing=0.2)
        net.run(10.0)
        assert len(connector.connections) >= 3
        done = [c for c in connector.connections if c.done]
        assert len(done) >= 2
        assert connector.syn_retry_count() == 0

    def test_stop_time_respected(self):
        net = Network(chain(3, bandwidth=10 * MBPS, delay=0.001))
        install_static_routes(net)
        connector = RepeatedConnector(net, "r1", "r3",
                                      packets_per_conn=5, spacing=0.2,
                                      stop=2.0)
        net.run(10.0)
        count_at_stop = len(connector.connections)
        net.run(20.0)
        assert len(connector.connections) == count_at_stop

    def test_setup_times_reported(self):
        net = Network(chain(3, bandwidth=10 * MBPS, delay=0.001))
        install_static_routes(net)
        connector = RepeatedConnector(net, "r1", "r3",
                                      packets_per_conn=3, spacing=0.2)
        net.run(5.0)
        times = connector.setup_times()
        assert times
        assert all(t < 0.5 for t in times)


class TestComputeAllPaths:
    def test_all_pairs_present_when_connected(self):
        topo = abilene()
        paths = compute_all_paths(topo)
        n = len(topo)
        assert len(paths) == n * (n - 1)

    def test_suspicion_changes_affected_paths_only(self):
        topo = abilene()
        base = compute_all_paths(topo)
        seg = ("Denver", "KansasCity", "Indianapolis")
        constrained = compute_all_paths(topo, [seg])
        changed = [pair for pair in base
                   if tuple(base[pair]) != tuple(constrained[pair])]
        assert changed
        for pair in changed:
            joined = tuple(base[pair])
            assert any(joined[i:i + 3] == seg for i in range(len(joined) - 2))

    def test_paths_have_no_cycles(self):
        for path in compute_all_paths(abilene()).values():
            assert len(path) == len(set(path))


class TestFloodTiming:
    def test_delivery_times_increase_with_distance(self):
        net = Network(chain(5))
        result = robust_flood(net, "r1", "x", hop_delay=0.01)
        net.run(1.0)
        times = [result.delivery_times[f"r{i}"] for i in range(1, 6)]
        assert times == sorted(times)
        assert times[-1] > times[0]


class TestKeysExtra:
    def test_sampling_key_symmetric(self):
        keys = KeyInfrastructure()
        assert keys.sampling_key("a", "b") == keys.sampling_key("b", "a")

    def test_sampling_key_differs_from_pair_key(self):
        keys = KeyInfrastructure()
        assert keys.sampling_key("a", "b") != keys.pair_key("a", "b")


class TestChiConfig:
    """χ's settings: its queues' disciplines and the module's thresholds."""

    def test_calibrate_rejects_red_targets(self):
        scenario = build_scenario(red_spec())
        with pytest.raises(TypeError):
            scenario.chi.calibrate(scenario.target)

    def test_thresholds_default_tight(self):
        assert TH_SINGLE >= 0.99
        assert TH_COMBINED >= 0.99
        assert TH_CUMULATIVE > TH_COMBINED


class TestTcpLifecycle:
    def test_goodput_zero_before_establishment(self):
        net = Network(chain(3, bandwidth=10 * MBPS, delay=0.001))
        install_static_routes(net)
        flow = TCPFlow(net, "r1", "r3", "f", total_packets=10, start=5.0)
        net.run(1.0)  # before the SYN even goes out
        assert flow.goodput_pps() == 0.0
        assert flow.connection_setup_time() is None

    def test_no_events_after_completion(self):
        net = Network(chain(3, bandwidth=10 * MBPS, delay=0.001))
        install_static_routes(net)
        flow = TCPFlow(net, "r1", "r3", "f", total_packets=20)
        net.run(10.0)
        assert flow.done
        sent_at_completion = flow.data_sent
        net.run(90.0)  # long idle: no RTO storms, no retransmits
        assert flow.data_sent == sent_at_completion
        assert flow.timeouts == 0

    def test_completion_time_recorded(self):
        net = Network(chain(3, bandwidth=10 * MBPS, delay=0.001))
        install_static_routes(net)
        flow = TCPFlow(net, "r1", "r3", "f", total_packets=20)
        net.run(10.0)
        assert flow.completed_at is not None
        assert flow.completed_at > flow.established_at


class TestDetectorStateExtra:
    def test_suspected_segments_deduplicates(self):
        state = DetectorState("r")
        s1 = Suspicion(("a", "b"), (0.0, 1.0), "r", reason="x")
        s2 = Suspicion(("a", "b"), (1.0, 2.0), "r", reason="x")
        state.suspect(s1)
        state.suspect(s2)
        assert state.suspected_segments() == {("a", "b")}
        assert len(state.suspicions) == 2  # distinct intervals kept


class TestScenarioBundle:
    def test_droptail_scenario_exposes_bottleneck(self):
        scenario = build_scenario(droptail_spec())
        queue = scenario.bottleneck_queue
        assert queue.limit_bytes == 60_000
        assert scenario.target == ("r", "rd")
        assert set(scenario.flows) == {"tcp0", "tcp1", "tcp2"}
