"""One serialization contract for every experiment result.

A result type is a dataclass deriving :class:`EvalResultBase`; its
schema is its dataclass fields, in declaration order, followed by the
computed properties the class names in ``derived``.  Nothing is written
per type: :meth:`EvalResultBase.to_dict` walks the fields and
:func:`serialize_result` is the single encoder (results first, then
dataclass/container fallbacks) that sweeps, artifacts and figure scripts
share.  Serialization is one-way — a sweep record is plain data stamped
with the name of the type that produced it.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar, Mapping, Tuple


class EvalResultBase:
    """Base of the dataclass result types; supplies their ``to_dict``."""

    #: Computed properties exported after the dataclass fields.
    derived: ClassVar[Tuple[str, ...]] = ()

    def to_dict(self) -> dict:
        names = [f.name for f in dataclasses.fields(self)]
        return {name: serialize_result(getattr(self, name))
                for name in (*names, *self.derived)}


def result_type_name(result) -> str:
    """The class name of a result object, '' for anything else.

    Plain dicts, lists of results and ad-hoc returns serialize fine but
    carry no type name in their sweep record.
    """
    return (type(result).__name__ if isinstance(result, EvalResultBase)
            else "")


def serialize_result(result) -> object:
    """Serialize any experiment result to JSON-safe plain data.

    Prefers an object's ``to_dict``; falls back to dataclass fields,
    containers (mapping keys become ``str`` in insertion order, tuples
    become lists, sets are sorted), then ``repr`` for anything exotic.
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
