"""Unit tests for packets and their invariant identity."""

import pytest

from repro.net.packet import DEFAULT_TTL, Packet, PacketKind


class TestPacketBasics:
    def test_defaults(self):
        p = Packet(src="a", dst="b")
        assert p.size == 1000
        assert p.kind is PacketKind.DATA
        assert p.ttl == DEFAULT_TTL
        assert not p.expired

    def test_unique_uids(self):
        uids = {Packet(src="a", dst="b").uid for _ in range(100)}
        assert len(uids) == 100

    def test_positive_size_enforced(self):
        with pytest.raises(ValueError):
            Packet(src="a", dst="b", size=0)
        with pytest.raises(ValueError):
            Packet(src="a", dst="b", size=-5)

    def test_checksum_set_on_creation(self):
        p = Packet(src="a", dst="b")
        assert p.checksum == p.compute_checksum()


class TestPerHopMutation:
    def test_hop_decrements_ttl(self):
        p = Packet(src="a", dst="b")
        p.hop("r1")
        assert p.ttl == DEFAULT_TTL - 1

    def test_hop_updates_checksum(self):
        p = Packet(src="a", dst="b")
        before = p.checksum
        p.hop("r1")
        assert p.checksum == p.compute_checksum()
        assert p.checksum != before  # ttl participates in the checksum

    def test_hop_records_trace(self):
        p = Packet(src="a", dst="b")
        p.hop("r1")
        p.hop("r2")
        assert p.hops == ("r1", "r2")

    def test_expired_after_ttl_hops(self):
        p = Packet(src="a", dst="b", ttl=2)
        p.hop("r1")
        p.hop("r2")
        assert p.expired

    def test_invariant_fields_stable_across_hops(self):
        p = Packet(src="a", dst="b", payload=b"data")
        before = p.invariant_fields()
        p.hop("r1")
        p.hop("r2")
        assert p.invariant_fields() == before


class TestInvariantIdentity:
    def test_different_payload_different_identity(self):
        a = Packet(src="a", dst="b", payload=b"x")
        b = Packet(src="a", dst="b", payload=b"y")
        assert a.invariant_fields() != b.invariant_fields()

    def test_identity_includes_uid(self):
        a = Packet(src="a", dst="b", payload=b"x")
        b = Packet(src="a", dst="b", payload=b"x")
        assert a.invariant_fields() != b.invariant_fields()

    def test_ttl_excluded_from_identity(self):
        p = Packet(src="a", dst="b")
        fields = p.invariant_fields()
        p.ttl = 7
        assert p.invariant_fields() == fields


class TestModifiedClone:
    def test_clone_keeps_uid_and_position_fields(self):
        p = Packet(src="a", dst="b", payload=b"orig", flow_id="f", seq=3)
        evil = p.clone_modified(b"tampered")
        assert evil.uid == p.uid
        assert evil.flow_id == "f"
        assert evil.seq == 3

    def test_clone_changes_identity(self):
        p = Packet(src="a", dst="b", payload=b"orig")
        evil = p.clone_modified(b"tampered")
        assert evil.invariant_fields() != p.invariant_fields()


class TestNumberedPerNetwork:
    """A network numbers its packets; the process history does not."""

    @staticmethod
    def line_with_flow(mtu=None):
        from repro.net import CBRSource, Network, install_static_routes
        from repro.net.topology import MBPS, Topology

        topo = Topology("line")
        topo.add_link("r1", "r2", bandwidth=10 * MBPS, delay=0.001)
        topo.add_link("r2", "r3", bandwidth=10 * MBPS, delay=0.001, mtu=mtu)
        net = Network(topo)
        install_static_routes(net)
        CBRSource(net, "r1", "r3", "f", rate_bps=800_000, duration=0.1)
        uids = []  # replaces the source's own delivery counter
        net.routers["r3"].register_flow("f", lambda p, t: uids.append(p.uid))
        return net, uids

    def test_two_networks_number_from_the_same_start(self):
        first, first_uids = self.line_with_flow()
        first.run(1.0)
        for _ in range(5):
            Packet(src="a", dst="b")  # bare packets use their own counter
        second, second_uids = self.line_with_flow()
        second.run(1.0)
        assert first_uids == second_uids == list(range(1, 12))

    def test_interleaved_networks_keep_uids_unique(self):
        a, a_uids = self.line_with_flow(mtu=600)
        b, b_uids = self.line_with_flow(mtu=600)
        for step in range(1, 11):
            a.run(step * 0.02)
            b.run(step * 0.02)
        # 11 packets of 1000 bytes arrive as 22 fragments, whose fresh
        # uids come from their network's counter too.
        assert len(set(a_uids)) == len(a_uids) == 22
        assert a_uids == b_uids

    def test_fragment_and_clone_uid_rules(self):
        ids = iter(range(100, 200))
        p = Packet(src="a", dst="b", size=2500, uid=7)
        fragments = p.fragment(1000, ids)
        assert [f.uid for f in fragments] == [100, 101, 102]
        assert {f.fragment_of for f in fragments} == {7}
        assert p.clone_modified(b"x").uid == 7
