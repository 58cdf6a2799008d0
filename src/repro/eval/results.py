"""The ``EvalResult`` protocol: one serialization contract for all results.

Every experiment result type (``ScenarioResult``, ``DetectionMetrics``,
``PrCurve``, ...) speaks the same three-method protocol — ``to_dict()``,
``from_dict()`` and ``fields()`` — so sweeps, artifacts and figure
scripts can serialize and rehydrate any result without per-type
switches.  :func:`serialize_result` is the single generic encoder
(protocol first, then dataclass/container fallbacks);
:func:`deserialize_result` rehydrates a record whose producing type was
stamped into it by the sweep worker.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Protocol, Type, runtime_checkable

@runtime_checkable
class EvalResult(Protocol):
    """What every experiment result type must implement."""

    def to_dict(self) -> dict: ...

    @classmethod
    def from_dict(cls, data: Mapping) -> "EvalResult": ...

    @classmethod
    def fields(cls) -> List[str]: ...


class EvalResultBase:
    """Mixin giving dataclass results the :class:`EvalResult` protocol.

    ``fields()`` enumerates the dataclass fields; ``from_dict`` pulls
    exactly those keys back out (types whose ``to_dict`` mangles keys —
    int-keyed maps, tuple rows — override it).  ``to_dict`` stays the
    responsibility of each type: what a result exports is part of its
    public schema, not boilerplate.
    """

    @classmethod
    def fields(cls) -> List[str]:
        return [f.name for f in dataclasses.fields(cls)]

    @classmethod
    def from_dict(cls, data: Mapping):
        return cls(**{name: data[name] for name in cls.fields()})


#: Registered result types, by class name — the deserialization table.
RESULT_TYPES: Dict[str, Type] = {}


def register_result_type(cls: Type) -> Type:
    """Class decorator: make ``cls`` rehydratable by name."""
    RESULT_TYPES[cls.__name__] = cls
    return cls


def result_type_name(result) -> str:
    """The registered type name of ``result``, or '' if unregistered.

    Only protocol-speaking registered types get a name; plain dicts,
    lists of results, and ad-hoc returns serialize fine but rehydrate
    as plain data.
    """
    name = type(result).__name__
    return name if name in RESULT_TYPES else ""


def serialize_result(result) -> object:
    """Serialize any experiment result to JSON-safe plain data.

    Prefers the protocol's ``to_dict``; falls back to dataclass fields,
    containers, then ``repr`` for anything exotic.
    """
    if hasattr(result, "to_dict"):
        return serialize_result(result.to_dict())
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        return {f.name: serialize_result(getattr(result, f.name))
                for f in dataclasses.fields(result)}
    if isinstance(result, Mapping):
        return {str(k): serialize_result(v) for k, v in result.items()}
    if isinstance(result, (list, tuple, set, frozenset)):
        items = (sorted(result) if isinstance(result, (set, frozenset))
                 else result)
        return [serialize_result(v) for v in items]
    if isinstance(result, (str, int, float, bool)) or result is None:
        return result
    return repr(result)


def deserialize_result(type_name: str, data):
    """Rehydrate a serialized result via its registered type.

    An empty/unknown ``type_name`` returns ``data`` unchanged — sweep
    records always stay readable even when the producing type has been
    renamed or was never registered.
    """
    cls = RESULT_TYPES.get(type_name)
    if cls is None or not isinstance(data, Mapping):
        return data
    return cls.from_dict(data)
