"""Clock synchronization and measurement rounds.

Every detection protocol assumes a synchronous system: coarsely
synchronized clocks and bounded message delays (§2.1.2), typically
provided by NTP in the Fatih prototype (clocks "within a few
milliseconds", §5.3.1).  :class:`ClockModel` gives each router a bounded,
deterministic offset; :class:`RoundSchedule` carves time into the
agreed-upon validation intervals τ.

Traffic validation functions receive a ``skew_slack`` so that a packet
recorded just inside a round by one router and just outside by another is
not misread as a loss (§5.1.1: "TV could be written to accommodate a
small skew").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple


@lru_cache(maxsize=4096, typed=True)
def _unit_offset(seed: int, router: str) -> float:
    """The [0, 1) position of ``router``'s clock under ``seed``.

    Keyed on both (``typed``: the seed is hashed by its text, and ``1``
    and ``1.0`` print differently), so an instance whose ``seed`` or
    ``epsilon`` is changed later is never served a stale offset.
    """
    digest = hashlib.sha256(f"{seed}|{router}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class ClockModel:
    """Per-router clock offsets bounded by ``epsilon`` seconds."""

    def __init__(self, epsilon: float = 0.002, seed: int = 0) -> None:
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        self.epsilon = epsilon
        self.seed = seed

    def offset(self, router: str) -> float:
        """Deterministic offset in [-epsilon, +epsilon] for ``router``."""
        if self.epsilon == 0:
            return 0.0
        return (2.0 * _unit_offset(self.seed, router) - 1.0) * self.epsilon

    def local_time(self, router: str, true_time: float) -> float:
        return true_time + self.offset(router)

    def true_time(self, router: str, local: float) -> float:
        return local - self.offset(router)

    def max_skew(self) -> float:
        """Worst-case disagreement between any two routers."""
        return 2.0 * self.epsilon


@dataclass(frozen=True)
class RoundSchedule:
    """Agreed validation rounds: round k covers [start + k·tau, start + (k+1)·tau)."""

    tau: float = 5.0
    start: float = 0.0

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ValueError("round length tau must be positive")

    def round_of(self, time: float) -> int:
        return int((time - self.start) // self.tau)

    def interval(self, round_index: int) -> Tuple[float, float]:
        lo = self.start + round_index * self.tau
        return (lo, lo + self.tau)

    def round_end(self, round_index: int) -> float:
        return self.interval(round_index)[1]

    def contains(self, round_index: int, time: float) -> bool:
        lo, hi = self.interval(round_index)
        return lo <= time < hi
