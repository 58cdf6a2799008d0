"""Unit tests for packets and their invariant identity."""

import ast
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import DEFAULT_TTL, Packet, PacketKind


class TestPacketBasics:
    def test_defaults(self):
        p = Packet(src="a", dst="b")
        assert p.size == 1000
        assert p.kind is PacketKind.DATA
        assert p.ttl == DEFAULT_TTL

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
        assert p.ttl == 0

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


class TestChecksumBase:
    """The cached name sum equals the per-character sum it replaced."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(src=st.text(max_size=12), dst=st.text(max_size=12),
           flow_id=st.text(max_size=12), seq=st.integers(-10**6, 10**6),
           size=st.integers(1, 10**6))
    def test_base_is_the_per_character_sum(self, src, dst, flow_id, seq,
                                           size):
        p = Packet(src=src, dst=dst, flow_id=flow_id, seq=seq, size=size)
        base = 0
        for part in (src, dst, flow_id):
            for ch in part:
                base += ord(ch)
        assert p._hdr_sum == base + seq + size
        assert p.checksum == (base + seq + size + p.ttl) & 0xFFFF


#: ``Packet.invariant_fields()``'s fields: fixed at construction.
IDENTITY_FIELDS = frozenset({
    "src", "dst", "size", "kind", "flow_id", "seq", "payload", "uid",
    "fragment_of", "fragment_index",
})


def identity_assignments(path):
    """``(line, target)`` of every identity-field write in one module.

    Allowed: ``self.<field>`` in ``Packet.__init__``, and in methods of
    classes that are not (and do not subclass) ``Packet``, where ``self``
    is some other object.  Everything else is reported: assignment,
    augmented or annotated assignment, loop and ``with`` targets, ``del``,
    and ``setattr`` / ``object.__setattr__`` with a literal field name.
    """
    from repro.analysis.model import load_module

    info, error = load_module(path, path)
    assert error is None, (path, error)
    found = []

    def is_packet(cls):
        return cls.name == "Packet" or any(
            ast.unparse(base).split(".")[-1] == "Packet" for base in cls.bases)

    def visit(node, cls, func):
        if isinstance(node, ast.ClassDef):
            cls, func = node, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node
        for lineno, obj, name in _writes(node):
            if name not in IDENTITY_FIELDS:
                continue
            own = (isinstance(obj, ast.Name) and obj.id == "self"
                   and cls is not None and func is not None)
            if own and not is_packet(cls):
                continue
            if own and func.name == "__init__" and cls.name == "Packet":
                continue
            found.append((lineno, f"{ast.unparse(obj)}.{name}"))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, func)

    visit(info.tree, None, None)
    return found


def _writes(node):
    """``(line, object, attribute)`` for each attribute *node* writes."""
    if (isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("setattr", "object.__setattr__")
            and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)):
        return [(node.lineno, node.args[0], node.args[1].value)]
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For,
                           ast.AsyncFor)):
        targets = [node.target]
    elif isinstance(node, (ast.With, ast.AsyncWith)):
        targets = [item.optional_vars for item in node.items
                   if item.optional_vars is not None]
    else:
        return []
    return [(sub.lineno, sub.value, sub.attr)
            for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, (ast.Store, ast.Del))]


class TestIdentityFixedAtConstruction:
    """The fingerprint cache's precondition (see ``fingerprint_bytes``)."""

    def test_no_module_assigns_an_identity_field_after_construction(self):
        from repro.analysis.engine import discover_files

        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        offenders = {path: found for path in discover_files([src])
                     if (found := identity_assignments(path))}
        assert offenders == {}

    def test_scan_reports_each_kind_of_write(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "class Packet:\n"
            "    def __init__(self):\n"
            "        self.uid = 1\n"
            "    def renumber(self):\n"
            "        self.uid = 2\n"
            "class Sender:\n"
            "    def __init__(self):\n"
            "        self.seq = 0\n"
            "    def send(self, packet):\n"
            "        self.seq += 1\n"
            "        packet.seq = self.seq\n"
            "        frag.fragment_of, frag.ttl = 1, 2\n"
            "        setattr(packet, 'payload', b'')\n"
            "        del packet.flow_id\n"
            "        object.__setattr__(self, 'kind', 1)\n"
            "        for packet.size in (1, 2):\n"
            "            pass\n"
        )
        assert identity_assignments(str(bad)) == [
            (5, "self.uid"), (11, "packet.seq"), (12, "frag.fragment_of"),
            (13, "packet.payload"), (14, "packet.flow_id"),
            (16, "packet.size")]
