"""Adversarial router behaviours — the threat taxonomy of §2.2.1.

A :class:`Compromise` object attached to ``router.compromise`` intercepts
every *transit* packet after the forwarding decision and before the output
queue (traffic-faulty behaviour), and every control-plane message relayed
through the router (protocol-faulty behaviour).  Each concrete attack
records ground truth (what it actually did), which the evaluation harness
uses to score detectors without trusting anyone.

Attacks implemented (paper reference in parens):

* drop all / a fraction / selected flows           (packet loss)
* drop selected flows only when the queue is ≥X% full (Fig 6.7/6.8 —
  attacks crafted to hide inside plausible congestion)
* drop selected flows only when the RED average queue exceeds a byte
  threshold, optionally a fraction (Figs 6.12-6.15)
* drop SYN packets toward a victim (Fig 6.9 / 6.16 — disproportionate
  damage from tiny loss counts)
* modify payloads                                   (packet modification)
* reorder by selectively delaying                   (packet reordering)
* delay all matched traffic                         (time behaviour)
* fabricate packets                                 (packet fabrication)
* misroute to the wrong next hop                    (misrouting)
* suppress or corrupt relayed protocol messages     (protocol faulty)
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Set

from repro.net.packet import Packet, PacketKind
from repro.net.queues import REDQueue
from repro.net.router import ForwardAction, Network, Router

_FORWARD = ForwardAction.forward()
_DROP = ForwardAction.drop()


class Compromise:
    """Base class: a compromised router that behaves correctly.

    Subclasses override :meth:`should_drop` / :meth:`transform` /
    :meth:`on_control`.  Ground-truth bookkeeping lives here so every
    attack records what it did.
    """

    def __init__(self) -> None:
        self.dropped: List[Packet] = []
        self.drop_times: List[float] = []
        self.modified: List[Packet] = []
        self.delayed: List[Packet] = []
        self.misrouted: List[Packet] = []
        self.suppressed_control = 0
        self.active_from: float = 0.0
        self.active_until: float = float("inf")

    def activate_between(self, start: float, end: float = float("inf")) -> "Compromise":
        """Restrict the attack to a time window (attacks that start late
        are exactly the framing scenario of Fig 3.7)."""
        self.active_from = start
        self.active_until = end
        return self

    def active_at(self, now: float) -> bool:
        """Whether the window covers ``now``.  Outside it the router is
        correct in every respect, as a validator and an announcer too,
        so an attack built dormant equals one installed at its start."""
        return self.active_from <= now <= self.active_until

    # -- hooks ---------------------------------------------------------------
    def on_forward(self, router: Router, packet: Packet, in_nbr: Optional[str],
                   out_nbr: str, iface) -> ForwardAction:
        now = router.network.sim.now
        if not self.active_from <= now <= self.active_until:
            return _FORWARD
        return self.verdict(router, packet, out_nbr, iface, now)

    def verdict(self, router: Router, packet: Packet, out_nbr: str, iface,
                now: float) -> ForwardAction:
        """What to do with ``packet`` inside the window: a drop is
        recorded as ground truth, anything else is :meth:`transform`'s."""
        if self.should_drop(router, packet, out_nbr, iface):
            self.dropped.append(packet)
            self.drop_times.append(now)
            return _DROP
        return self.transform(router, packet, out_nbr, iface)

    def should_drop(self, router: Router, packet: Packet, out_nbr: str,
                    iface) -> bool:
        return False

    def transform(self, router: Router, packet: Packet, out_nbr: str,
                  iface) -> ForwardAction:
        return _FORWARD

    def on_control(self, router: Router, src: str, dst: str, message):
        """Relayed protocol message; return it (possibly altered) or None."""
        return message


class DropAllAttack(Compromise):
    """Black-hole every transit packet."""

    def should_drop(self, router, packet, out_nbr, iface) -> bool:
        return True


class DropFractionAttack(Compromise):
    """Drop a random fraction of all transit packets."""

    def __init__(self, fraction: float, seed: int = 0) -> None:
        super().__init__()
        if not (0 <= fraction <= 1):
            raise ValueError("fraction must be in [0, 1]")
        self.fraction = fraction
        self.rng = random.Random(seed)

    def should_drop(self, router, packet, out_nbr, iface) -> bool:
        return self.rng.random() < self.fraction


class DropFlowAttack(Compromise):
    """Drop (a fraction of) packets belonging to selected flows.

    This is "Attack 1: drop 20% of the selected flows" (Fig 6.6) with
    ``fraction=0.2``.
    """

    def __init__(self, flows: Sequence[str], fraction: float = 1.0,
                 seed: int = 0) -> None:
        super().__init__()
        self.flows: Set[str] = set(flows)
        self.fraction = fraction
        self.rng = random.Random(seed)

    def should_drop(self, router, packet, out_nbr, iface) -> bool:
        if packet.flow_id not in self.flows:
            return False
        return self.rng.random() < self.fraction


class QueueConditionalDropAttack(Compromise):
    """Drop selected flows only when the output queue is nearly full.

    Figs 6.7/6.8: the adversary hides behind plausible congestion by
    dropping only when the droptail queue is ≥ ``fill_threshold`` full
    (0.90 / 0.95) — exactly when a static-threshold detector cannot tell
    the drop from overflow.
    """

    def __init__(self, flows: Sequence[str], fill_threshold: float,
                 fraction: float = 1.0, seed: int = 0) -> None:
        super().__init__()
        self.flows = set(flows)
        self.fill_threshold = fill_threshold
        self.fraction = fraction
        self.rng = random.Random(seed)

    def should_drop(self, router, packet, out_nbr, iface) -> bool:
        if packet.flow_id not in self.flows or iface is None:
            return False
        if iface.queue.fill_fraction() < self.fill_threshold:
            return False
        return self.rng.random() < self.fraction


class REDAverageConditionalDropAttack(Compromise):
    """Drop selected flows when the RED *average* queue exceeds a level.

    Figs 6.12-6.15: thresholds of 45,000 / 54,000 bytes, optionally only a
    fraction of matching packets (10% / 5%) — attacks tuned to sit inside
    RED's own probabilistic drop regime.
    """

    def __init__(self, flows: Sequence[str], avg_threshold: float,
                 fraction: float = 1.0, seed: int = 0) -> None:
        super().__init__()
        self.flows = set(flows)
        self.avg_threshold = avg_threshold
        self.fraction = fraction
        self.rng = random.Random(seed)

    def should_drop(self, router, packet, out_nbr, iface) -> bool:
        if packet.flow_id not in self.flows or iface is None:
            return False
        queue = iface.queue
        if not isinstance(queue, REDQueue):
            return False
        if queue.avg < self.avg_threshold:
            return False
        return self.rng.random() < self.fraction


class SynDropAttack(Compromise):
    """Drop SYN packets toward a victim destination (Fig 6.9 / 6.16)."""

    def __init__(self, victim_dst: str, fraction: float = 1.0,
                 seed: int = 0, max_drops: Optional[int] = None) -> None:
        super().__init__()
        self.victim_dst = victim_dst
        self.fraction = fraction
        self.max_drops = max_drops
        self.rng = random.Random(seed)

    def should_drop(self, router, packet, out_nbr, iface) -> bool:
        if packet.kind is not PacketKind.SYN or packet.dst != self.victim_dst:
            return False
        if self.max_drops is not None and len(self.dropped) >= self.max_drops:
            return False
        return self.rng.random() < self.fraction


class ModifyAttack(Compromise):
    """Corrupt the payload of (a fraction of) selected-flow packets."""

    def __init__(self, flows: Optional[Sequence[str]] = None,
                 fraction: float = 1.0, seed: int = 0) -> None:
        super().__init__()
        self.flows = set(flows) if flows is not None else None
        self.fraction = fraction
        self.rng = random.Random(seed)

    def transform(self, router, packet, out_nbr, iface) -> ForwardAction:
        if self.flows is not None and packet.flow_id not in self.flows:
            return ForwardAction.forward()
        if packet.kind is not PacketKind.DATA:
            return ForwardAction.forward()
        if self.rng.random() >= self.fraction:
            return ForwardAction.forward()
        evil = packet.clone_modified(packet.payload + b"!tampered")
        self.modified.append(evil)
        return ForwardAction.modify(evil)


class ReorderAttack(Compromise):
    """Reorder by holding back every ``period``-th matched packet."""

    def __init__(self, flows: Optional[Sequence[str]] = None,
                 period: int = 4, hold: float = 0.05) -> None:
        super().__init__()
        if period < 2:
            raise ValueError("period must be >= 2")
        self.flows = set(flows) if flows is not None else None
        self.period = period
        self.hold = hold
        self._count = 0

    def transform(self, router, packet, out_nbr, iface) -> ForwardAction:
        if self.flows is not None and packet.flow_id not in self.flows:
            return ForwardAction.forward()
        if packet.kind is not PacketKind.DATA:
            return ForwardAction.forward()
        self._count += 1
        if self._count % self.period == 0:
            self.delayed.append(packet)
            return ForwardAction.delay(self.hold)
        return ForwardAction.forward()


class DelayAttack(Compromise):
    """Add constant extra latency to matched packets (time behaviour)."""

    def __init__(self, delay: float, flows: Optional[Sequence[str]] = None) -> None:
        super().__init__()
        self.extra = delay
        self.flows = set(flows) if flows is not None else None

    def transform(self, router, packet, out_nbr, iface) -> ForwardAction:
        if self.flows is not None and packet.flow_id not in self.flows:
            return ForwardAction.forward()
        self.delayed.append(packet)
        return ForwardAction.delay(self.extra)


class FabricateAttack(Compromise):
    """Periodically inject forged packets claiming a legitimate source.

    Call :meth:`start` once the network is built; fabrication is an
    active behaviour, not a per-packet transform.
    """

    def __init__(self, network: Network, router_name: str, out_nbr: str,
                 forged_src: str, forged_dst: str, flow_id: str,
                 rate_pps: float, seed: int = 0) -> None:
        super().__init__()
        self.network = network
        self.router_name = router_name
        self.out_nbr = out_nbr
        self.forged_src = forged_src
        self.forged_dst = forged_dst
        self.flow_id = flow_id
        self.interval = 1.0 / rate_pps
        self.fabricated: List[Packet] = []
        self._seq = 0

    def start(self, at: float = 0.0) -> None:
        self.network.sim.schedule_at(at, self._inject)

    def _inject(self) -> None:
        now = self.network.sim.now
        if not self.active_at(now):
            self.network.sim.schedule(self.interval, self._inject)
            return
        packet = Packet(src=self.forged_src, dst=self.forged_dst,
                        kind=PacketKind.DATA, flow_id=self.flow_id,
                        seq=self._seq, payload=b"forged",
                        uid=next(self.network.packet_ids))
        self._seq += 1
        self.fabricated.append(packet)
        self.network.routers[self.router_name].inject_fabricated(
            packet, self.out_nbr
        )
        self.network.sim.schedule(self.interval, self._inject)


class MisrouteAttack(Compromise):
    """Send matched packets to the wrong neighbour (detour/divert)."""

    def __init__(self, wrong_nbr: str,
                 flows: Optional[Sequence[str]] = None,
                 fraction: float = 1.0, seed: int = 0) -> None:
        super().__init__()
        self.wrong_nbr = wrong_nbr
        self.flows = set(flows) if flows is not None else None
        self.fraction = fraction
        self.rng = random.Random(seed)

    def transform(self, router, packet, out_nbr, iface) -> ForwardAction:
        if self.flows is not None and packet.flow_id not in self.flows:
            return ForwardAction.forward()
        if out_nbr == self.wrong_nbr:
            return ForwardAction.forward()
        if self.rng.random() >= self.fraction:
            return ForwardAction.forward()
        self.misrouted.append(packet)
        return ForwardAction.misroute(self.wrong_nbr)


class ControlSuppressionAttack(Compromise):
    """Protocol-faulty only: silently drop relayed protocol messages.

    Πk+2 exchanges summaries *through the monitored path-segment*; a
    router that suppresses them is detected because the exchange times
    out (§5.2, Fig 5.3).
    """

    def __init__(self, match: Optional[Callable[[object], bool]] = None) -> None:
        super().__init__()
        self.match = match

    def on_control(self, router, src, dst, message):
        if self.match is None or self.match(message):
            self.suppressed_control += 1
            return None
        return message


class CombinedCompromise(Compromise):
    """Compose several behaviours (e.g. traffic-faulty + protocol-faulty).

    One window, the whole's (:meth:`activate_between` sets every part's),
    is tested once per packet; inside it each part's :meth:`verdict` is asked.
    """

    def __init__(self, *parts: Compromise) -> None:
        super().__init__()
        self.parts = list(parts)
        if any((part.active_from, part.active_until) != (0.0, float("inf"))
               for part in parts):
            raise ValueError("window the combined compromise, not a part")

    def activate_between(self, start: float, end: float = float("inf")) -> "Compromise":
        for part in self.parts:
            part.activate_between(start, end)
        return super().activate_between(start, end)

    def verdict(self, router, packet, out_nbr, iface, now) -> ForwardAction:
        for part in self.parts:
            action = part.verdict(router, packet, out_nbr, iface, now)
            if action is _FORWARD:  # the shared untouched verdict
                continue
            if action.kind == ForwardAction.DROP:
                self.dropped.append(packet)
                return action
            if action.packet is not None or action.out_nbr is not None or action.delay > 0:
                return action
        return _FORWARD

    def on_control(self, router, src, dst, message):
        for part in self.parts:
            message = part.on_control(router, src, dst, message)
            if message is None:
                self.suppressed_control += 1
                return None
        return message
