"""Output-interface queues: droptail FIFO and RED.

The queue is the locus of *benign* packet loss: when the offered load
briefly exceeds the output link's capacity the buffer fills and packets
are dropped by the queueing discipline.  Protocol χ (Chapter 6) works by
predicting exactly which losses the discipline would produce; everything
beyond that is attributed to malice.

Both disciplines account occupancy in **bytes** against a byte limit, as
in the paper's experiments (queue limits and RED thresholds are quoted in
bytes, e.g. the 45,000 / 54,000-byte average thresholds of Figs 6.12-13).
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro.net.packet import Packet


class DropReason(enum.Enum):
    CONGESTION = "congestion"  # droptail buffer full
    RED_EARLY = "red_early"  # RED probabilistic early drop
    RED_FORCED = "red_forced"  # RED average above max threshold / hard limit
    MALICIOUS = "malicious"  # injected by an adversary, never by a queue
    TTL_EXPIRED = "ttl_expired"


class QueueEvent:
    """One observable queue transition, as seen by a monitor tap.

    A ``__slots__`` class: one is allocated per enqueue/dequeue/drop on
    every monitored interface, which puts it on the simulator hot path.
    """

    __slots__ = ("kind", "time", "packet", "occupancy", "reason",
                 "drop_prob")

    def __init__(self, kind: str, time: float, packet: Packet,
                 occupancy: int, reason: Optional[DropReason] = None,
                 drop_prob: float = 0.0) -> None:
        self.kind = kind  # "enqueue" | "dequeue" | "drop"
        self.time = time
        self.packet = packet
        self.occupancy = occupancy  # bytes queued after the event
        self.reason = reason
        self.drop_prob = drop_prob  # RED drop prob in force at the event

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"QueueEvent({self.kind!r}, t={self.time}, "
                f"occ={self.occupancy}, reason={self.reason})")


class DropTailQueue:
    """Plain FIFO with a byte limit.

    ``offer`` returns True when the packet was accepted.  The decision is
    purely deterministic: a packet is dropped iff it does not fit, which
    is what makes χ's queue prediction exact for droptail (§6.2.1).
    """

    __slots__ = ("limit_bytes", "_packets", "occupancy", "drops",
                 "enqueues")

    def __init__(self, limit_bytes: int = 64_000) -> None:
        if limit_bytes <= 0:
            raise ValueError("queue limit must be positive")
        self.limit_bytes = limit_bytes
        self._packets: Deque[Packet] = deque()
        self.occupancy = 0
        self.drops = 0
        self.enqueues = 0

    def __len__(self) -> int:
        return len(self._packets)

    @property
    def empty(self) -> bool:
        return not self._packets

    def offer(self, packet: Packet, now: float) -> Tuple[bool, Optional[DropReason], float]:
        """Try to enqueue.  Returns (accepted, drop_reason, drop_prob)."""
        if self.occupancy + packet.size > self.limit_bytes:
            self.drops += 1
            return (False, DropReason.CONGESTION, 1.0)
        self._packets.append(packet)
        self.occupancy += packet.size
        self.enqueues += 1
        return (True, None, 0.0)

    def pop(self, now: float) -> Optional[Packet]:
        if not self._packets:
            return None
        packet = self._packets.popleft()
        self.occupancy -= packet.size
        return packet

    def fill_fraction(self) -> float:
        return self.occupancy / self.limit_bytes


@dataclass
class REDParams:
    """Floyd/Jacobson RED configuration (byte mode, gentle variant)."""

    min_th: int = 15_000  # bytes of average queue below which nothing drops
    max_th: int = 45_000  # bytes above which drop prob ramps past max_p
    max_p: float = 0.10
    weight: float = 0.002  # EWMA weight w_q
    mean_pktsize: int = 1000  # used for the idle-time average decay
    gentle: bool = True  # ramp max_p -> 1 between max_th and 2*max_th
    # Byte mode: scale the drop probability by packet size / mean size,
    # so small packets (ACKs, SYNs) are rarely dropped — standard RED
    # behaviour, and the property that makes malicious SYN drops stand
    # out statistically (Fig 6.16).
    byte_mode: bool = True

    def validate(self) -> None:
        if not (0 < self.min_th < self.max_th):
            raise ValueError("need 0 < min_th < max_th")
        if not (0 < self.max_p <= 1):
            raise ValueError("max_p must be in (0, 1]")
        if not (0 < self.weight <= 1):
            raise ValueError("weight must be in (0, 1]")


def red_drop_probability(avg: float, params: REDParams, count: int = -1) -> float:
    """The marking probability RED applies at average queue size ``avg``.

    Implements the standard p_b ramp with the ``count`` correction
    p_a = p_b / (1 - count * p_b); pass ``count=-1`` (the reset value) to
    get the base probability.  This function is shared by the live queue
    and by χ's validator, which re-derives the probability each dropped
    packet faced (Fig 6.10).
    """
    params.validate()
    return _red_drop_probability_unchecked(avg, params, count)


def _red_drop_probability_unchecked(avg: float, params: REDParams,
                                    count: int) -> float:
    # The per-arrival path: REDQueue and χ's REDQueueValidator validate
    # their params once at construction and skip it per packet.
    if avg < params.min_th:
        return 0.0
    if avg >= params.max_th:
        if not params.gentle:
            return 1.0
        if avg >= 2 * params.max_th:
            return 1.0
        # gentle region: linear from max_p at max_th to 1 at 2*max_th
        frac = (avg - params.max_th) / params.max_th
        return params.max_p + (1.0 - params.max_p) * frac
    p_b = params.max_p * (avg - params.min_th) / (params.max_th - params.min_th)
    if count >= 0 and count * p_b < 1.0:
        p_a = p_b / (1.0 - count * p_b)
        return min(1.0, p_a)
    if count >= 0:
        return 1.0
    return p_b


def red_packet_drop_probability(avg: float, params: REDParams, count: int,
                                size: int) -> float:
    """Per-packet drop probability, honouring byte mode."""
    params.validate()
    return red_packet_drop_probability_unchecked(avg, params, count, size)


def red_packet_drop_probability_unchecked(avg: float, params: REDParams,
                                          count: int, size: int) -> float:
    """:func:`red_packet_drop_probability` for params validated earlier."""
    prob = _red_drop_probability_unchecked(avg, params, count)
    if params.byte_mode and 0.0 < prob < 1.0:
        prob = min(1.0, prob * size / params.mean_pktsize)
    return prob


class REDQueue:
    """Random Early Detection queue (byte-based, gentle).

    Tracks the exponentially weighted average occupancy; arrivals are
    dropped probabilistically once the average exceeds ``min_th``.  The
    RNG is injected so experiments are reproducible, and so that the
    validator's *inability* to see it is faithful: χ's RED traffic
    validation (§6.5.2) must reason about drop probabilities, not
    outcomes.
    """

    __slots__ = ("limit_bytes", "params", "rng", "_packets", "occupancy",
                 "avg", "count", "_idle_since", "drops", "enqueues")

    def __init__(
        self,
        limit_bytes: int = 64_000,
        params: Optional[REDParams] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if limit_bytes <= 0:
            raise ValueError("queue limit must be positive")
        self.limit_bytes = limit_bytes
        self.params = params or REDParams()
        self.params.validate()
        self.rng = rng or random.Random(0)
        self._packets: Deque[Packet] = deque()
        self.occupancy = 0
        self.avg = 0.0
        self.count = -1  # packets since last drop, RED's uniformization
        self._idle_since: Optional[float] = 0.0
        self.drops = 0
        self.enqueues = 0

    def __len__(self) -> int:
        return len(self._packets)

    @property
    def empty(self) -> bool:
        return not self._packets

    def update_average(self, now: float) -> float:
        """Advance the EWMA to ``now`` (idle decay) and fold in occupancy."""
        w = self.params.weight
        if self.occupancy == 0 and self._idle_since is not None:
            # Decay as if m small packets had been transmitted while idle.
            idle = max(0.0, now - self._idle_since)
            m = idle / 0.001  # 1 ms virtual transmission slots
            self.avg *= (1.0 - w) ** min(m, 10_000.0)
            self._idle_since = now
        self.avg = (1.0 - w) * self.avg + w * self.occupancy
        return self.avg

    def offer(self, packet: Packet, now: float) -> Tuple[bool, Optional[DropReason], float]:
        self.update_average(now)
        prob = red_packet_drop_probability_unchecked(
            self.avg, self.params, self.count, packet.size)
        if self.occupancy + packet.size > self.limit_bytes:
            self.drops += 1
            self.count = -1
            return (False, DropReason.RED_FORCED, 1.0)
        if prob >= 1.0:
            self.drops += 1
            self.count = -1
            return (False, DropReason.RED_FORCED, prob)
        if prob > 0.0:
            self.count += 1
            if self.rng.random() < prob:
                self.drops += 1
                self.count = 0
                return (False, DropReason.RED_EARLY, prob)
        else:
            self.count = -1
        self._packets.append(packet)
        self.occupancy += packet.size
        self.enqueues += 1
        self._idle_since = None
        return (True, None, prob)

    def pop(self, now: float) -> Optional[Packet]:
        if not self._packets:
            return None
        packet = self._packets.popleft()
        self.occupancy -= packet.size
        if self.occupancy == 0:
            self._idle_since = now
        return packet

    def fill_fraction(self) -> float:
        return self.occupancy / self.limit_bytes
