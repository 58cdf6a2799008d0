"""The value shapes behind ``goldens/canonical_bytes.json``.

Each golden entry is an expression evaluated in :data:`NAMESPACE`; the
types here exist so that every branch of ``canonical_bytes`` has a
value: plain ``Enum``, the int / str mix-in enums and the namedtuple
that must *not* take an exact-type shortcut, and a frozen dataclass
holding the ``(received, sent)`` summary pair Π2 actually signs.

Stdlib and ``repro`` only, so the file also loads on an interpreter that
has no pytest (the goldens were generated under 3.9 and 3.11).
"""

import enum
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from typing import Tuple

from repro.core.summaries import SummaryPolicy, TrafficSummary
from repro.crypto.signatures import Signed


class Colour(enum.Enum):
    RED = 1
    GREEN = "green"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


class Tag(str, enum.Enum):
    ALPHA = "alpha"


class Wrapped(int):
    """An ``int`` subclass that is not an enum."""


Point = namedtuple("Point", "x label")


@dataclass(frozen=True)
class Claim:
    pair: Tuple[TrafficSummary, TrafficSummary]
    note: str


def summary(direction: str, policy: SummaryPolicy = SummaryPolicy.CONTENT,
            **extra) -> TrafficSummary:
    return TrafficSummary(
        router="Denver", segment=("KansasCity", "Denver", "Seattle"),
        round_index=3, direction=direction, policy=policy,
        count=3, byte_count=3000, **extra)


NAMESPACE = {
    "Claim": Claim, "Colour": Colour, "Level": Level, "OrderedDict": OrderedDict,
    "Point": Point, "Signed": Signed, "SummaryPolicy": SummaryPolicy,
    "Tag": Tag, "Wrapped": Wrapped, "summary": summary,
}
