"""Packets and their invariant identity.

A packet models the fields the detection protocols care about: an
end-to-end invariant part (addresses, flow/port identifiers, sequence
number, payload) and mutable per-hop fields (TTL, header checksum) that a
correct router legitimately rewrites.  Fingerprints (see
:mod:`repro.crypto.fingerprint`) must be computed over the invariant part
only — the paper discusses exactly this subtlety in §7.4.2.

``Packet`` is a ``__slots__`` class on the simulator's hottest allocation
path: every CBR/TCP send, ACK and control message allocates one, and every
hop touches its checksum.  The header-field contribution to the checksum
is summed once (``_hdr_sum``) since those fields are invariant along the
path; per-hop recomputation then reduces to one add and one mask, which is
arithmetically identical to the per-character loop because addition mod
2**16 can be masked once at the end.  The character sum of the names
(``src``, ``dst``, ``flow_id``) is itself cached per triple: a flow's
packets share it.

A packet's identity — the ten fields :meth:`Packet.invariant_fields`
reads — is fixed at construction: only ``Packet.__init__`` assigns them
(``fragment`` and ``clone_modified`` build new packets), which is what
lets :mod:`repro.crypto.fingerprint` cache a digest on the packet without
re-checking it.

A packet's ``uid`` comes from the network it is sent into: every source
in the simulator passes ``uid=next(network.packet_ids)``, so a network
numbers its packets from 1 whatever ran earlier in the process, and a
uid — hence a fingerprint, hence a sampled summary — is reproducible.
A bare ``Packet(...)`` built outside any network (unit tests, the
replica detector) draws from this module's own counter instead.
"""

from __future__ import annotations

import enum
import itertools
from functools import lru_cache
from typing import Iterator, Optional, Tuple

_packet_ids = itertools.count(1)


class PacketKind(enum.Enum):
    """Transport-level role of a packet."""

    DATA = "data"
    ACK = "ack"
    SYN = "syn"
    SYN_ACK = "syn_ack"
    CONTROL = "control"  # protocol messages (summaries, LSAs, alerts)
    PROBE = "probe"


DEFAULT_TTL = 64


@lru_cache(maxsize=8192)
def _name_sum(src: str, dst: str, flow_id: str) -> int:
    """Sum of the character codes of the three names (checksum base)."""
    return sum(map(ord, src)) + sum(map(ord, dst)) + sum(map(ord, flow_id))


#: Field order of ``__eq__``/``__repr__`` and keyword construction —
#: the historical dataclass field list.
_FIELDS = (
    "src", "dst", "size", "kind", "flow_id", "seq", "payload", "ttl",
    "checksum", "uid", "created_at", "fragment_of", "fragment_index",
    "last_fragment", "hops", "fabricated_by",
)


class Packet:
    """A network packet.

    ``src``/``dst`` are router (or host) names.  ``flow_id`` identifies the
    transport flow; ``seq`` is the transport sequence number.  ``payload``
    stands in for the packet body: any hashable value, typically bytes.

    ``ttl`` and ``checksum`` are the per-hop mutable fields.  A correct
    router decrements ``ttl`` and recomputes ``checksum`` on every hop; a
    malicious router may corrupt the invariant fields, which is what
    content validation detects.
    """

    __slots__ = _FIELDS + ("_hdr_sum", "_fp_cache")

    def __init__(
        self,
        src: str,
        dst: str,
        size: int = 1000,
        kind: PacketKind = PacketKind.DATA,
        flow_id: str = "",
        seq: int = 0,
        payload: bytes = b"",
        ttl: int = DEFAULT_TTL,
        checksum: int = 0,
        uid: Optional[int] = None,
        created_at: float = 0.0,
        # Fragmentation (§7.4.4).  A fragment carries its original
        # packet's uid; its own uid (hence fingerprint) is fresh — which
        # is exactly why in-network fragmentation breaks pre-computed
        # upstream fingerprints.
        fragment_of: Optional[int] = None,
        fragment_index: int = 0,
        last_fragment: bool = True,
        # Bookkeeping used by the simulator and experiments (not "on the
        # wire").
        hops: Tuple[str, ...] = (),
        fabricated_by: Optional[str] = None,
    ) -> None:
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        self.src = src
        self.dst = dst
        self.size = size
        self.kind = kind
        self.flow_id = flow_id
        self.seq = seq
        self.payload = payload
        self.ttl = ttl
        self.uid = next(_packet_ids) if uid is None else uid
        self.created_at = created_at
        self.fragment_of = fragment_of
        self.fragment_index = fragment_index
        self.last_fragment = last_fragment
        self.hops = hops
        self.fabricated_by = fabricated_by
        self._hdr_sum = _name_sum(src, dst, flow_id) + seq + size
        self.checksum = (self._hdr_sum + ttl) & 0xFFFF
        # (key, digest) of the last fingerprint (see repro.crypto).  No
        # identity field changes after this constructor, so the digest
        # stays valid for the packet's life; only the key is compared.
        self._fp_cache = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in _FIELDS)

    # Like the historical eq=True dataclass: equality without hashing.
    __hash__ = None  # type: ignore[assignment]

    def invariant_fields(self) -> tuple:
        """The end-to-end invariant identity of this packet.

        Excludes ``ttl`` and ``checksum`` (mutated hop-by-hop) and all
        simulator bookkeeping.  Fingerprints must be computed over exactly
        this tuple so that the same packet observed at different routers
        yields the same fingerprint.
        """
        return (
            self.src,
            self.dst,
            self.size,
            self.kind.value,
            self.flow_id,
            self.seq,
            self.payload,
            self.uid,
            self.fragment_of if self.fragment_of is not None else -1,
            self.fragment_index,
        )

    def compute_checksum(self) -> int:
        """A toy internet-checksum stand-in over header fields + TTL."""
        return (self._hdr_sum + self.ttl) & 0xFFFF

    def hop(self, router_name: str) -> None:
        """Apply correct per-hop mutation: decrement TTL, fix checksum."""
        ttl = self.ttl - 1
        self.ttl = ttl
        self.checksum = (self._hdr_sum + ttl) & 0xFFFF
        self.hops = self.hops + (router_name,)

    def fragment(self, mtu: int, ids: Iterator[int] = _packet_ids) -> list:
        """Split into MTU-sized fragments (§7.4.4).

        Each fragment gets a fresh uid from ``ids`` (a router passes its
        network's ``packet_ids``) and therefore a fresh fingerprint —
        faithfully modelling why fingerprints computed upstream of the
        fragmenting router stop matching downstream observations.
        """
        if mtu <= 0:
            raise ValueError("mtu must be positive")
        if self.size <= mtu:
            return [self]
        fragments = []
        remaining = self.size
        index = 0
        while remaining > 0:
            piece = min(mtu, remaining)
            remaining -= piece
            fragments.append(Packet(
                src=self.src, dst=self.dst, size=piece, kind=self.kind,
                flow_id=self.flow_id, seq=self.seq,
                payload=self.payload, ttl=self.ttl, uid=next(ids),
                created_at=self.created_at, fragment_of=self.uid,
                fragment_index=index, last_fragment=remaining == 0,
                hops=self.hops,
            ))
            index += 1
        return fragments

    def clone_modified(self, payload: bytes) -> "Packet":
        """Return a maliciously modified copy (same uid, altered payload).

        The uid is preserved because on the wire a modified packet occupies
        the position of the original; content validation distinguishes the
        two by fingerprint, not uid.
        """
        return Packet(
            src=self.src,
            dst=self.dst,
            size=self.size,
            kind=self.kind,
            flow_id=self.flow_id,
            seq=self.seq,
            payload=payload,
            ttl=self.ttl,
            uid=self.uid,
            created_at=self.created_at,
            hops=self.hops,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(uid={self.uid}, {self.src}->{self.dst}, "
            f"{self.kind.value}, flow={self.flow_id!r}, seq={self.seq}, "
            f"size={self.size})"
        )
