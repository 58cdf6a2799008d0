"""Signatures over protocol messages.

Π2 disseminates traffic information via consensus on *digitally signed*
summaries ("[x]_i indicates that x is digitally signed by i", Fig 5.1);
Πk+2 exchanges signed summaries between segment ends; Fatih floods signed
alerts.  We implement signature semantics with HMAC over a canonical
serialization: a value signed by router ``i`` verifies only under ``i``'s
key, and any mutation of the payload breaks verification.

A frozen dataclass may opt in to :func:`encoded_once`: its instances
keep their finished encoding, so signing and verifying one object again
costs a lookup.  Nothing else is remembered: a payload that is not such
an instance is encoded afresh at every sign and verify.
"""

from __future__ import annotations

import enum
import hashlib
import hmac
from dataclasses import dataclass, fields, is_dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, Set, Tuple, TypeVar

_Class = TypeVar("_Class", bound=type)


def _encode_str(obj: str) -> bytes:
    raw = obj.encode()
    return b"S%d:%b" % (len(raw), raw)


def _encode_sequence(obj: Any) -> bytes:
    return b"L(" + b"".join([canonical_bytes(x) for x in obj]) + b")"


def _encode_set(obj: Any) -> bytes:
    return b"E(" + b"".join(sorted([canonical_bytes(x) for x in obj])) + b")"


def _encode_dict(obj: Any) -> bytes:
    keyed = sorted([(canonical_bytes(key), key) for key in obj],
                   key=itemgetter(0))
    return b"D(" + b"".join([encoded + b"=" + canonical_bytes(obj[key])
                             for encoded, key in keyed]) + b")"


#: Encoders for values whose class is *exactly* one of these.  A subclass
#: (``IntEnum``, a namedtuple, ``OrderedDict``) is not in the table and
#: takes the ``isinstance`` ladder below, whose order decides its bytes.
_EXACT: Dict[type, Callable[[Any], bytes]] = {
    type(None): lambda obj: b"N",
    bool: lambda obj: b"B1" if obj else b"B0",
    int: lambda obj: b"I%d" % obj,
    float: lambda obj: b"F" + repr(obj).encode(),
    str: _encode_str,
    bytes: lambda obj: b"Y%d:%b" % (len(obj), obj),
    tuple: _encode_sequence,
    list: _encode_sequence,
    set: _encode_set,
    frozenset: _encode_set,
    dict: _encode_dict,
}

#: Field names, in field order, of every dataclass the ladder has
#: encoded.  An instance of a class in here failed every ``isinstance``
#: test ahead of the dataclass branch, and so does any other instance.
_DATACLASS_FIELDS: Dict[type, Tuple[str, ...]] = {}

#: Classes whose instances keep their encoding in ``__dict__[_MEMO]``.
_ENCODED_ONCE: Set[type] = set()
_MEMO = "_canonical_bytes"


def encoded_once(cls: _Class) -> _Class:
    """Class decorator: encode each instance of ``cls`` at most once.

    Only a frozen dataclass whose fields hold immutable values may opt
    in, since the stored bytes must stay the bytes of the fields.  The
    memo lives in the instance ``__dict__``, not in a field, so it is
    not part of the encoding, of ``==`` or of the hash.
    """
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen:
        raise TypeError(f"{cls.__name__} is not a frozen dataclass; "
                        f"it cannot keep its encoding")
    _ENCODED_ONCE.add(cls)
    return cls


def canonical_bytes(obj: Any) -> bytes:
    """Deterministic serialization for signing.

    Supports the value shapes protocol messages are built from:
    primitives, bytes, tuples/lists, sets/frozensets (sorted), dicts
    (key-sorted) and dataclasses (field order).
    """
    kind = obj.__class__
    encode = _EXACT.get(kind)
    if encode is not None:
        return encode(obj)
    names = _DATACLASS_FIELDS.get(kind)
    if names is None:
        # NOTE: bool before int, and the int / str mix-in enums before
        # ``Enum``: reordering would silently change every signature.
        if isinstance(obj, bool):
            return b"B1" if obj else b"B0"
        if isinstance(obj, int):
            return b"I" + str(obj).encode()
        if isinstance(obj, float):
            return b"F" + repr(obj).encode()
        if isinstance(obj, str):
            return _encode_str(obj)
        if isinstance(obj, bytes):
            return b"Y%d:%b" % (len(obj), obj)
        if isinstance(obj, (tuple, list)):
            return _encode_sequence(obj)
        if isinstance(obj, (set, frozenset)):
            return _encode_set(obj)
        if isinstance(obj, dict):
            return _encode_dict(obj)
        if isinstance(obj, enum.Enum):
            return (b"M" + canonical_bytes(type(obj).__name__)
                    + canonical_bytes(obj.name))
        if not is_dataclass(obj) or isinstance(obj, type):
            raise TypeError(f"cannot canonicalize {type(obj)!r} for signing")
        names = _DATACLASS_FIELDS[kind] = tuple(f.name for f in fields(obj))
    if kind in _ENCODED_ONCE:
        memo = obj.__dict__
        encoded = memo.get(_MEMO)
        if encoded is None:
            encoded = memo[_MEMO] = _encode_fields(obj, names)
        return encoded
    return _encode_fields(obj, names)


def _encode_fields(obj: Any, names: Tuple[str, ...]) -> bytes:
    return (b"C(" + _encode_str(obj.__class__.__name__)
            + b"".join([canonical_bytes(getattr(obj, name)) for name in names])
            + b")")


def _mac(key: bytes, payload: Any) -> bytes:
    return hmac.new(key, canonical_bytes(payload), hashlib.sha256).digest()


@dataclass(frozen=True)
class Signed:
    """An immutable signed envelope: ``[payload]_signer``."""

    payload: Any
    signer: str
    mac: bytes

    @classmethod
    def sign(cls, payload: Any, signer: str, signing_key: bytes) -> "Signed":
        return cls(payload=payload, signer=signer,
                   mac=_mac(signing_key, (signer, payload)))

    def verify(self, signing_key: bytes) -> bool:
        expected = _mac(signing_key, (self.signer, self.payload))
        return hmac.compare_digest(expected, self.mac)
