"""Unit tests for application traffic sources."""

import pytest

from repro.net.router import Network
from repro.net.routing import install_static_routes
from repro.net.topology import MBPS, chain
from repro.net.traffic import CBRSource, PoissonSource


def net():
    network = Network(chain(3, bandwidth=50 * MBPS, delay=0.001))
    install_static_routes(network)
    return network


class TestCBR:
    def test_packet_count_matches_rate(self):
        network = net()
        src = CBRSource(network, "r1", "r3", "f", rate_bps=800_000,
                        packet_size=1000, duration=2.0)
        network.run(3.0)
        # 800 kbps / 8 kbit per packet = 100 pps for 2 s
        assert src.sent == pytest.approx(200, abs=2)

    def test_all_delivered_without_congestion(self):
        network = net()
        src = CBRSource(network, "r1", "r3", "f", rate_bps=400_000,
                        duration=1.0)
        network.run(2.0)
        assert src.received == src.sent
        assert src.loss_count == 0
        assert len(src.delivery_times) == src.received

    def test_stop(self):
        network = net()
        src = CBRSource(network, "r1", "r3", "f", rate_bps=800_000)
        network.run(0.5)
        src.stop()
        sent = src.sent
        network.run(2.0)
        assert src.sent == sent

    def test_start_offset(self):
        network = net()
        src = CBRSource(network, "r1", "r3", "f", rate_bps=800_000,
                        start=1.0, duration=1.0)
        network.run(0.9)
        assert src.sent == 0
        network.run(3.0)
        assert src.sent > 0

    def test_unknown_router_rejected(self):
        network = net()
        with pytest.raises(KeyError):
            CBRSource(network, "nope", "r3", "f", rate_bps=1000)


class TestPoisson:
    def test_mean_rate(self):
        network = net()
        src = PoissonSource(network, "r1", "r3", "f", rate_pps=100,
                            duration=5.0, seed=1)
        network.run(6.0)
        assert src.sent == pytest.approx(500, rel=0.2)

    def test_deterministic_for_seed(self):
        def run(seed):
            network = net()
            src = PoissonSource(network, "r1", "r3", "f", rate_pps=50,
                                duration=2.0, seed=seed)
            network.run(3.0)
            return src.sent

        assert run(3) == run(3)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            PoissonSource(net(), "r1", "r3", "f", rate_pps=0)

