"""Tests for the §2.4.1 summary exchange codecs."""

import pytest

from repro.core.codecs import encode_summary, validate_encoded
from repro.core.summaries import SummaryPolicy, TrafficSummary


def summary(fps, policy=SummaryPolicy.CONTENT):
    fps = frozenset(fps)
    return TrafficSummary(
        router="r", segment=("a", "b", "c"), round_index=0,
        direction="sent", policy=policy, count=len(fps),
        byte_count=1000 * len(fps), fingerprints=fps,
    )


class TestEncoding:
    def test_full_size_scales_with_set(self):
        small = encode_summary(summary(range(10)), "full")
        big = encode_summary(summary(range(1000)), "full")
        assert big.wire_bytes > small.wire_bytes * 50

    def test_polynomial_size_independent_of_set(self):
        small = encode_summary(summary(range(10)), "polynomial", max_diff=8)
        big = encode_summary(summary(range(5000)), "polynomial", max_diff=8)
        assert small.wire_bytes == big.wire_bytes

    def test_bloom_size_fixed(self):
        a = encode_summary(summary(range(10)), "bloom")
        b = encode_summary(summary(range(500)), "bloom")
        assert a.wire_bytes == b.wire_bytes == 16 + 2048 // 8

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError):
            encode_summary(summary(range(3)), "magic")

    def test_flow_policy_rejected(self):
        flow = TrafficSummary(router="r", segment=("a", "b"), round_index=0,
                              direction="sent", policy=SummaryPolicy.FLOW,
                              count=1, byte_count=1000)
        with pytest.raises(ValueError):
            encode_summary(flow, "full")


class TestValidation:
    def roundtrip(self, codec, remote_fps, local_fps, threshold=0, **kw):
        encoded = encode_summary(summary(remote_fps), codec, **kw)
        return validate_encoded(encoded, summary(local_fps), threshold)

    def test_full_exact(self):
        result = self.roundtrip("full", range(100), range(100))
        assert result.ok
        result = self.roundtrip("full", range(100), range(97))
        assert not result.ok
        assert result.missing == 3

    def test_polynomial_exact_within_bound(self):
        result = self.roundtrip("polynomial", range(100), range(100),
                                max_diff=8)
        assert result.ok
        result = self.roundtrip("polynomial", range(100), range(97),
                                max_diff=8)
        assert not result.ok
        assert result.missing == 3

    def test_polynomial_threshold(self):
        result = self.roundtrip("polynomial", range(100), range(98),
                                threshold=2, max_diff=8)
        assert result.ok

    def test_polynomial_overflow_fails_validation(self):
        result = self.roundtrip("polynomial", range(100), range(50),
                                max_diff=8)
        assert not result.ok
        assert "exceeds bound" in result.detail

    def test_bloom_detects_large_difference(self):
        result = self.roundtrip("bloom", range(200), range(140))
        assert not result.ok
        assert result.discrepancy > 30

    def test_bloom_passes_identical_sets(self):
        result = self.roundtrip("bloom", range(200), range(200))
        assert result.ok


class TestPiK2Integration:
    def run_with_codec(self, codec, drop_fraction):
        from repro.core.detector import PiConfig
        from repro.core.pik2 import ProtocolPiK2
        from repro.core.segments import monitored_segments_pik2
        from repro.core.summaries import PathOracle, SegmentMonitor
        from repro.crypto.keys import KeyInfrastructure
        from repro.dist.sync import RoundSchedule
        from repro.net.adversary import DropFlowAttack
        from repro.net.router import Network
        from repro.net.routing import install_static_routes
        from repro.net.topology import chain
        from repro.net.traffic import CBRSource

        net = Network(chain(5))
        paths = install_static_routes(net)
        monitor = SegmentMonitor(net, PathOracle(paths),
                                 RoundSchedule(tau=1.0))
        net.add_tap(monitor)
        segments = set().union(*monitored_segments_pik2(
            [tuple(p) for p in paths.values()], k=1).values())
        protocol = ProtocolPiK2(
            net, monitor, segments, KeyInfrastructure(),
            RoundSchedule(tau=1.0),
            config=PiConfig(codec=codec),
        )
        protocol.schedule_rounds(0, 3)
        CBRSource(net, "r1", "r5", "f1", rate_bps=800_000, duration=4.0)
        if drop_fraction:
            net.routers["r3"].compromise = DropFlowAttack(
                ["f1"], fraction=drop_fraction, seed=1)
        net.run(7.0)
        return protocol

    @pytest.mark.parametrize("codec", ["full", "polynomial", "bloom"])
    def test_codec_detects_dropper(self, codec):
        protocol = self.run_with_codec(codec, drop_fraction=0.3)
        suspects = protocol.states["r1"].suspected_segments()
        assert any("r3" in seg for seg in suspects)

    @pytest.mark.parametrize("codec", ["full", "polynomial", "bloom"])
    def test_codec_silent_without_attack(self, codec):
        protocol = self.run_with_codec(codec, drop_fraction=0.0)
        assert all(not s.suspicions for s in protocol.states.values())

    def test_polynomial_cheaper_than_full(self):
        full = self.run_with_codec("full", drop_fraction=0.0)
        poly = self.run_with_codec("polynomial", drop_fraction=0.0)
        assert poly.exchange_bytes < full.exchange_bytes / 2
