"""Packet fingerprints.

A fingerprint is a short one-way digest of a packet that is *stable along
the path*: it must be computed over the end-to-end invariant fields only,
excluding TTL and header checksum which correct routers rewrite hop-by-hop
(§7.4.2).  The paper's prototype uses UHASH; we use keyed BLAKE2b, which
gives the same interface properties (collision resistance, keyed so that
an adversary cannot engineer collisions against monitors).
"""

from __future__ import annotations

import hashlib
import struct
from functools import lru_cache

from repro.net import Packet

FINGERPRINT_BYTES = 8  # 64-bit fingerprints, as in the prototype


def _encode_field(value) -> bytes:
    # NOTE: bool is checked before int because bool is an int subclass;
    # reordering would silently change every fingerprint.
    if isinstance(value, bytes):
        return b"b" + len(value).to_bytes(4, "big") + value
    if isinstance(value, str):
        raw = value.encode()
        return b"s" + len(raw).to_bytes(4, "big") + raw
    if isinstance(value, bool):
        return b"?" + bytes([value])
    if isinstance(value, int):
        raw = value.to_bytes(16, "big", signed=True)
        return b"i" + raw
    raise TypeError(f"cannot encode field of type {type(value)!r}")


@lru_cache(maxsize=8192)
def _encode_str(value: str) -> bytes:
    raw = value.encode()
    return b"s" + len(raw).to_bytes(4, "big") + raw


def _encode_fields(fields: tuple) -> bytes:
    """Concatenated :func:`_encode_field` over *fields* in one buffer.

    Byte-for-byte identical to encoding field-by-field; a single
    ``join`` + one hasher ``update`` beats ten small updates on the
    per-packet path.  Exact ``str``/``int``/``bytes`` take an inline
    fast path (strings — addresses, kinds, flow ids — recur across
    packets and are cached encoded); anything else, including bool and
    subclasses, goes through the generic encoder unchanged.
    """
    parts = []
    append = parts.append
    for value in fields:
        kind = type(value)
        if kind is str:
            append(_encode_str(value))
        elif kind is int:
            append(b"i" + value.to_bytes(16, "big", signed=True))
        elif kind is bytes:
            append(b"b" + len(value).to_bytes(4, "big") + value)
        else:
            append(_encode_field(value))
    return b"".join(parts)


@lru_cache(maxsize=8192, typed=True)
def _encoded_prefix(src, dst, size, kind, flow_id):
    """``_encode_fields((src, dst, size, kind, flow_id))``, or None.

    None unless every field has its exact type (``str``/``int``), so a
    hit — same types, equal values — always stands for the same bytes.
    A packet's first five identity fields repeat across a flow.
    """
    if (type(src) is str and type(dst) is str and type(size) is int
            and type(kind) is str and type(flow_id) is str):
        return _encode_fields((src, dst, size, kind, flow_id))
    return None


# ``b"i"`` + a 16-byte big-endian signed int is a signed high half and
# an unsigned low half; ``struct`` raises on any int that does not fit.
_MASK64 = (1 << 64) - 1
#: seq, then the payload's ``b"b"`` tag and length.
_SEQ_HEAD = struct.Struct(">cqQcI")
#: uid, fragment_of, fragment_index.
_INT3 = struct.Struct(">cqQcqQcqQ")


def _encode_identity(fields: tuple) -> bytes:
    """``_encode_fields(fields)`` for a ``Packet.invariant_fields()`` tuple.

    The same bytes in one step: a cached prefix and two ``struct`` packs.
    Anything that is not an exact ``str``/``int``/``bytes``, or an int
    out of the 16-byte range, takes :func:`_encode_fields`, the spec.
    """
    src, dst, size, kind, flow_id, seq, payload, uid, frag_of, frag_index = (
        fields)
    if (type(seq) is int and type(payload) is bytes and type(uid) is int
            and type(frag_of) is int and type(frag_index) is int):
        try:
            prefix = _encoded_prefix(src, dst, size, kind, flow_id)
            if prefix is not None:
                return b"".join((
                    prefix,
                    _SEQ_HEAD.pack(b"i", seq >> 64, seq & _MASK64,
                                   b"b", len(payload)),
                    payload,
                    _INT3.pack(b"i", uid >> 64, uid & _MASK64,
                               b"i", frag_of >> 64, frag_of & _MASK64,
                               b"i", frag_index >> 64, frag_index & _MASK64),
                ))
        except (struct.error, TypeError):
            pass  # out of range or unhashable: the spec decides
    return _encode_fields(fields)


#: Keyed hasher prototypes.  ``blake2b(key=...)`` runs a full key-block
#: compression on construction; ``copy()`` of a prepared prototype skips
#: it.  Monitors use a handful of distinct keys, so this stays tiny.
_HASHER_PROTOTYPES: dict = {}


def _hasher(key: bytes):
    proto = _HASHER_PROTOTYPES.get(key)
    if proto is None:
        proto = hashlib.blake2b(digest_size=FINGERPRINT_BYTES, key=key[:64])
        _HASHER_PROTOTYPES[key] = proto
    return proto.copy()


def fingerprint_bytes(packet: Packet, key: bytes = b"") -> bytes:
    """Keyed digest of the packet's invariant identity.

    The digest is cached on the packet as ``(key, digest)``.  A packet's
    identity fields are fixed when it is built (derived packets —
    fragments, modified copies — are new ``Packet`` objects), so a cached
    digest under the same key is served without rebuilding or comparing
    :meth:`~repro.net.Packet.invariant_fields`.  Packets are fingerprinted
    at every monitor along the path under the same key; a second key
    replaces the entry.
    """
    cached = packet._fp_cache
    if cached is not None and cached[0] == key:
        return cached[1]
    h = _hasher(key)
    h.update(_encode_identity(packet.invariant_fields()))
    digest = h.digest()
    packet._fp_cache = (key, digest)
    return digest


def fingerprint(packet: Packet, key: bytes = b"") -> int:
    """The fingerprint as an int — convenient for sets and sampling."""
    return int.from_bytes(fingerprint_bytes(packet, key), "big")


class FingerprintSampler:
    """Hash-range packet sampling (Duffield–Grossglauser trajectory style).

    Both ends of a monitored path-segment agree on a secret ``key`` and a
    ``rate``; a packet is sampled iff its keyed fingerprint falls in the
    bottom ``rate`` fraction of the hash space.  Because the key is secret
    from intermediate routers, a faulty router cannot limit its attack to
    unmonitored packets (§5.2.1).  ``rate=1.0`` samples everything.
    """

    def __init__(self, rate: float = 1.0, key: bytes = b"sampling") -> None:
        if not (0.0 < rate <= 1.0):
            raise ValueError("sampling rate must be in (0, 1]")
        self.rate = rate
        self.key = key
        self._threshold = int(rate * (1 << (8 * FINGERPRINT_BYTES)))

    def sampled(self, packet: Packet) -> bool:
        return fingerprint(packet, self.key) < self._threshold

