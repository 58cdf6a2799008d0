"""Unit tests for fingerprints, keys and signatures."""

import copy
import enum
import hashlib
import json
import os
import pickle
import sys
from dataclasses import dataclass, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.summaries import SummaryPolicy, TrafficSummary
from repro.crypto.fingerprint import (
    FINGERPRINT_BYTES,
    FingerprintSampler,
    _encode_fields,
    _encode_identity,
    fingerprint,
    fingerprint_bytes,
)
from repro.crypto.keys import KeyInfrastructure
from repro.crypto.signatures import Signed, canonical_bytes, encoded_once
from repro.net.packet import Packet, PacketKind
from tests.canonical_vectors import NAMESPACE


class TestFingerprint:
    def test_stable_across_hops(self):
        """§7.4.2: fingerprints must ignore TTL and checksum."""
        p = Packet(src="a", dst="b", payload=b"data")
        before = fingerprint(p)
        p.hop("r1")
        p.hop("r2")
        assert fingerprint(p) == before

    def test_sensitive_to_payload(self):
        p = Packet(src="a", dst="b", payload=b"data")
        evil = p.clone_modified(b"tampered")
        assert fingerprint(p) != fingerprint(evil)

    def test_key_separates_domains(self):
        p = Packet(src="a", dst="b")
        assert fingerprint(p, b"k1") != fingerprint(p, b"k2")

    def test_64_bit_output(self):
        p = Packet(src="a", dst="b")
        assert len(fingerprint_bytes(p)) == 8
        assert 0 <= fingerprint(p) < (1 << 64)

    def test_distinct_packets_distinct_fingerprints(self):
        fps = {fingerprint(Packet(src="a", dst="b", seq=i))
               for i in range(1000)}
        assert len(fps) == 1000


class TestSampler:
    def test_rate_one_samples_everything(self):
        sampler = FingerprintSampler(rate=1.0)
        assert all(sampler.sampled(Packet(src="a", dst="b", seq=i))
                   for i in range(50))

    def test_rate_controls_fraction(self):
        sampler = FingerprintSampler(rate=0.25, key=b"s")
        packets = [Packet(src="a", dst="b", seq=i) for i in range(4000)]
        frac = sum(sampler.sampled(p) for p in packets) / len(packets)
        assert frac == pytest.approx(0.25, abs=0.03)

    def test_same_key_same_decisions(self):
        a = FingerprintSampler(rate=0.5, key=b"shared")
        b = FingerprintSampler(rate=0.5, key=b"shared")
        packets = [Packet(src="a", dst="b", seq=i) for i in range(100)]
        assert [a.sampled(p) for p in packets] == \
            [b.sampled(p) for p in packets]

    def test_secret_key_changes_selection(self):
        """An intermediary guessing the wrong key samples a different set."""
        a = FingerprintSampler(rate=0.5, key=b"secret")
        b = FingerprintSampler(rate=0.5, key=b"guess")
        packets = [Packet(src="a", dst="b", seq=i) for i in range(200)]
        assert [a.sampled(p) for p in packets] != \
            [b.sampled(p) for p in packets]

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            FingerprintSampler(rate=0.0)
        with pytest.raises(ValueError):
            FingerprintSampler(rate=1.5)


class TestKeys:
    def test_signing_keys_distinct(self):
        keys = KeyInfrastructure()
        assert keys.signing_key("a") != keys.signing_key("b")

    def test_master_secret_separates_infrastructures(self):
        a = KeyInfrastructure(b"net-a")
        b = KeyInfrastructure(b"net-b")
        assert a.signing_key("r") != b.signing_key("r")


class TestCanonicalBytes:
    def test_primitives(self):
        for value in (None, True, False, 0, -3, 1.5, "s", b"b"):
            assert isinstance(canonical_bytes(value), bytes)

    def test_dict_key_order_ignored(self):
        assert canonical_bytes({"a": 1, "b": 2}) == \
            canonical_bytes({"b": 2, "a": 1})

    def test_set_order_ignored(self):
        assert canonical_bytes({3, 1, 2}) == canonical_bytes({2, 3, 1})

    def test_type_distinctions(self):
        assert canonical_bytes(1) != canonical_bytes("1")
        assert canonical_bytes([1, 2]) != canonical_bytes([12])
        assert canonical_bytes(["ab"]) != canonical_bytes(["a", "b"])

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_bytes(object())

    def test_dataclasses_supported(self):
        summary = TrafficSummary(
            router="r", segment=("a", "b"), round_index=0,
            direction="sent", policy=SummaryPolicy.FLOW,
            count=3, byte_count=3000,
        )
        assert isinstance(canonical_bytes(summary), bytes)


def _canonical_goldens():
    path = os.path.join(os.path.dirname(__file__), "goldens",
                        "canonical_bytes.json")
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestCanonicalGoldens:
    """``canonical_bytes`` is a wire format: every MAC hangs off its bytes.

    ``goldens/canonical_bytes.json`` was written by the ``isinstance``
    ladder at commit 2313335, before the exact-type table existed, under
    CPython 3.9 and 3.11.  Where the two disagree (``IntEnum.__str__``
    became the value in 3.11) the entry holds both, and this interpreter
    must produce its own.
    """

    def test_vectors(self):
        tag = "py311" if sys.version_info >= (3, 11) else "py39"
        wrong = {}
        for entry in _canonical_goldens()["vectors"]:
            expected = entry["hex"]
            if isinstance(expected, dict):
                expected = expected[tag]
            try:
                got = canonical_bytes(eval(entry["expr"], dict(NAMESPACE))).hex()
            except TypeError:
                got = "TypeError"
            if got != expected:
                wrong[entry["expr"]] = (got, expected)
        assert wrong == {}

    def test_every_branch_has_a_vector(self):
        kinds = {type(eval(entry["expr"], dict(NAMESPACE))).__name__
                 for entry in _canonical_goldens()["vectors"]}
        assert kinds >= {
            "NoneType", "bool", "int", "float", "str", "bytes", "tuple",
            "list", "set", "frozenset", "dict",       # the exact-type table
            "Level", "Tag", "Wrapped", "Point", "OrderedDict",  # subclasses
            "Colour", "SummaryPolicy", "TrafficSummary", "Claim", "Signed",
            "object", "type", "complex", "bytearray",  # rejected
        }

    def test_sets_sort_by_encoded_bytes_not_by_value(self):
        assert canonical_bytes(frozenset({9, 10, 100})) == b"E(I10I100I9)"

    def test_pinned_mac(self):
        pinned = _canonical_goldens()["signed"]
        signed = Signed.sign(eval(pinned["payload"], dict(NAMESPACE)),
                             pinned["signer"], bytes.fromhex(pinned["key"]))
        assert signed.mac.hex() == pinned["mac"]
        assert signed.verify(bytes.fromhex(pinned["key"]))


class TestSigned:
    def test_sign_and_verify(self):
        keys = KeyInfrastructure()
        signed = Signed.sign({"count": 5}, "r1", keys.signing_key("r1"))
        assert signed.verify(keys.signing_key("r1"))
        assert signed.payload == {"count": 5}

    def test_tampered_payload_fails(self):
        keys = KeyInfrastructure()
        signed = Signed.sign({"count": 5}, "r1", keys.signing_key("r1"))
        forged = Signed(payload={"count": 9}, signer="r1", mac=signed.mac)
        assert not forged.verify(keys.signing_key("r1"))

    def test_wrong_signer_fails(self):
        keys = KeyInfrastructure()
        signed = Signed.sign("x", "r1", keys.signing_key("r1"))
        stolen = Signed(payload="x", signer="r2", mac=signed.mac)
        assert not stolen.verify(keys.signing_key("r2"))

    def test_mutating_a_signed_payload_breaks_verification(self):
        """Nothing about a payload is remembered between sign and verify."""
        keys = KeyInfrastructure()
        payload = {"count": 5, "seen": [1, 2]}
        signed = Signed.sign(payload, "r1", keys.signing_key("r1"))
        assert signed.verify(keys.signing_key("r1"))
        payload["seen"].append(3)
        assert not signed.verify(keys.signing_key("r1"))
        payload["seen"].pop()
        assert signed.verify(keys.signing_key("r1"))

    def test_cannot_sign_without_key(self):
        """Structural security: forging needs the victim's key object."""
        keys = KeyInfrastructure()
        attacker_keys = KeyInfrastructure(b"attacker-guess")
        forged = Signed.sign("lie", "r1", attacker_keys.signing_key("r1"))
        assert not forged.verify(keys.signing_key("r1"))



def _summary(policy, **changes):
    fps = (7, 3, 11)
    keeps_order = policy in (SummaryPolicy.ORDER, SummaryPolicy.TIMELINESS)
    values = dict(
        router="r2", segment=("r1", "r2", "r3"), round_index=4,
        direction="received", policy=policy, count=3, byte_count=3000,
        fingerprints=(None if policy is SummaryPolicy.FLOW
                      else frozenset(fps)),
        ordered=fps if keeps_order else None,
        timestamps=(tuple((fp, 0.5 + fp) for fp in fps)
                    if policy is SummaryPolicy.TIMELINESS else None))
    values.update(changes)
    return TrafficSummary(**values)


class TestEncodedOnce:
    """A ``TrafficSummary`` keeps its encoding, and nothing on the wire shows it."""

    def test_the_memo_is_not_a_field(self):
        assert [f.name for f in fields(TrafficSummary)] == [
            "router", "segment", "round_index", "direction", "policy",
            "count", "byte_count", "fingerprints", "ordered", "timestamps"]

    @pytest.mark.parametrize("policy", list(SummaryPolicy))
    def test_bytes_equal_a_fresh_equal_summary(self, policy):
        summary = _summary(policy)
        first = canonical_bytes(summary)
        assert canonical_bytes(summary) is first
        assert canonical_bytes(_summary(policy)) == first
        assert canonical_bytes((summary, summary)) == (
            b"L(" + first + first + b")")

    def test_a_replaced_copy_gets_its_own_bytes(self):
        summary = _summary(SummaryPolicy.CONTENT)
        before = canonical_bytes(summary)
        fewer = replace(summary, fingerprints=frozenset({7}), count=1)
        assert canonical_bytes(fewer) != before
        assert canonical_bytes(fewer) == canonical_bytes(
            _summary(SummaryPolicy.CONTENT, fingerprints=frozenset({7}),
                     count=1))
        assert canonical_bytes(summary) == before

    def test_a_replaced_payload_fails_verification(self):
        keys = KeyInfrastructure()
        summary = _summary(SummaryPolicy.CONTENT)
        signed = Signed.sign(summary, "r2", keys.signing_key("r2"))
        assert signed.verify(keys.signing_key("r2"))
        forged = Signed(payload=replace(summary, count=2), signer="r2",
                        mac=signed.mac)
        assert not forged.verify(keys.signing_key("r2"))
        same = Signed(payload=replace(summary), signer="r2", mac=signed.mac)
        assert same.verify(keys.signing_key("r2"))

    @pytest.mark.parametrize("duplicate", [
        copy.copy, lambda s: pickle.loads(pickle.dumps(s))],
        ids=["copy", "pickle"])
    def test_copies_encode_identically(self, duplicate):
        summary = _summary(SummaryPolicy.TIMELINESS)
        encoded = canonical_bytes(summary)
        twin = duplicate(summary)
        assert twin == summary and hash(twin) == hash(summary)
        assert canonical_bytes(twin) == encoded

    def test_mutable_containers_are_frozen_at_construction(self):
        frozen = _summary(SummaryPolicy.TIMELINESS)
        loose = _summary(
            SummaryPolicy.TIMELINESS, segment=["r1", "r2", "r3"],
            fingerprints={7, 3, 11}, ordered=[7, 3, 11],
            timestamps=[[fp, 0.5 + fp] for fp in (7, 3, 11)])
        assert type(loose.segment) is tuple
        assert type(loose.fingerprints) is frozenset
        assert type(loose.ordered) is tuple
        assert all(type(pair) is tuple for pair in loose.timestamps)
        assert loose == frozen and hash(loose) == hash(frozen)
        assert canonical_bytes(loose) == canonical_bytes(frozen)

    def test_only_a_frozen_dataclass_may_opt_in(self):
        class Plain:
            pass

        @dataclass
        class Mutable:
            x: int

        for cls in (Plain, Mutable):
            with pytest.raises(TypeError):
                encoded_once(cls)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2 ** 70


#: Ints of every width the 16-byte encoding takes, and some it does not.
_any_int = st.one_of(
    st.integers(-2 ** 10, 2 ** 10),
    st.integers(-2 ** 130, 2 ** 130),
    st.sampled_from([-1, 0, 2 ** 63 - 1, 2 ** 63, 2 ** 64, -2 ** 63 - 1,
                     2 ** 127 - 1, 2 ** 127, -2 ** 127, -2 ** 127 - 1]),
)
#: Values that are not exact ints and must take the generic encoder.
_odd_int = st.sampled_from([True, False, _Level.LOW, _Level.HIGH])
_names = st.text(max_size=6)  # non-ASCII included


def _outcome(encode, fields):
    try:
        return encode(fields)
    except Exception as error:  # the two encoders must fail alike
        return type(error)


class TestIdentityEncoding:
    """The one-step encoding equals the spec, ``_encode_fields``."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(src=_names, dst=_names, flow_id=_names,
           size=st.one_of(st.integers(1, 2 ** 130),
                          st.sampled_from([True, _Level.LOW, _Level.HIGH])),
           kind=st.sampled_from(list(PacketKind)),
           seq=st.one_of(_any_int, _odd_int),
           payload=st.one_of(st.binary(max_size=24), st.just(b""),
                             st.text(max_size=4), st.integers(0, 9)),
           uid=st.one_of(_any_int, _odd_int),
           fragment=st.one_of(st.none(), st.tuples(
               st.one_of(_any_int, _odd_int),
               st.one_of(_any_int, _odd_int))))
    def test_fast_encoding_equals_the_spec(self, src, dst, flow_id, size,
                                           kind, seq, payload, uid, fragment):
        fragment_of, fragment_index = fragment or (None, 0)
        packet = Packet(src=src, dst=dst, size=size, kind=kind,
                        flow_id=flow_id, seq=seq, payload=payload, uid=uid,
                        fragment_of=fragment_of, fragment_index=fragment_index)
        fields = packet.invariant_fields()
        expected = _outcome(_encode_fields, fields)
        assert _outcome(_encode_identity, fields) == expected
        # Twice: the second call reads the cached prefix.
        assert _outcome(_encode_identity, fields) == expected
        if isinstance(expected, bytes):
            h = hashlib.blake2b(digest_size=FINGERPRINT_BYTES, key=b"k")
            h.update(expected)
            assert fingerprint_bytes(packet, b"k") == h.digest()

    def test_bool_and_int_sizes_do_not_share_a_prefix(self):
        for size in (1, True, 1, _Level.LOW, True):
            fields = Packet(src="a", dst="b", size=size).invariant_fields()
            assert _encode_identity(fields) == _encode_fields(fields)

    def test_equal_but_differently_encoded_names_are_not_shared(self):
        class Folded(str):  # equal ignoring case, encoded as written
            def __eq__(self, other):
                return self.lower() == str(other).lower()

            def __hash__(self):
                return hash(self.lower())

        for flow_id in (Folded("F"), Folded("f")):
            fields = Packet(src="a", dst="b",
                            flow_id=flow_id).invariant_fields()
            assert _encode_identity(fields) == _encode_fields(fields)

    def test_payload_length_takes_four_bytes(self):
        fields = Packet(src="a", dst="b",
                        payload=b"x" * 70_000).invariant_fields()
        assert _encode_identity(fields) == _encode_fields(fields)

    def test_fragments_encode_like_the_spec(self):
        original = Packet(src="a", dst="b", size=2500, uid=7, payload=b"p")
        for piece in original.fragment(1000, iter(range(100, 200))):
            fields = piece.invariant_fields()
            assert fields[8:] == (7, piece.fragment_index)
            assert _encode_identity(fields) == _encode_fields(fields)


class TestFingerprintCache:
    def test_alternating_keys_give_each_key_its_digest(self):
        p = Packet(src="a", dst="b", payload=b"data")
        fresh = {key: fingerprint_bytes(Packet(
            src="a", dst="b", payload=b"data", uid=p.uid), key)
            for key in (b"k1", b"k2")}
        assert fresh[b"k1"] != fresh[b"k2"]
        for _ in range(3):
            for key in (b"k1", b"k2"):
                assert fingerprint_bytes(p, key) == fresh[key]

    def test_cache_holds_key_and_digest(self):
        p = Packet(src="a", dst="b")
        digest = fingerprint_bytes(p, b"k")
        assert p._fp_cache == (b"k", digest)

    def test_a_cached_digest_is_served_without_the_identity(self, monkeypatch):
        p = Packet(src="a", dst="b")
        digest = fingerprint_bytes(p, b"k")

        def rebuilt():
            raise AssertionError("identity rebuilt on a cache hit")

        monkeypatch.setattr(p.__class__, "invariant_fields",
                            lambda self: rebuilt())
        assert fingerprint_bytes(p, b"k") == digest
