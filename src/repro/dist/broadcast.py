"""Robust flooding (Perlman, §3.7).

Delivers a message to every correct router despite Byzantine routers that
suppress or alter it, relying only on the good-path condition: every pair
of correct routers is connected by a path of correct routers.  Each
router forwards a newly seen message on all links; a compromised router
may suppress (its ``on_control`` hook returns None) or alter the copy it
relays, but altered copies are detectable when the message is signed, and
suppression cannot cut correct routers off as long as a good path exists.

This primitive carries Π2's reliable broadcast of failure evidence and
Fatih's alert dissemination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Set

from repro.net import Network


@dataclass
class FloodResult:
    """Who received which copies of a flood."""

    origin: str
    delivered: Dict[str, Any] = field(default_factory=dict)  # router -> payload
    delivery_times: Dict[str, float] = field(default_factory=dict)

    def reached(self, router: str) -> bool:
        return router in self.delivered


def robust_flood(
    network: Network,
    origin: str,
    payload: Any,
    hop_delay: float = 0.01,
    on_deliver: Optional[Callable[[str, Any, float], None]] = None,
    verify: Optional[Callable[[Any], bool]] = None,
) -> FloodResult:
    """Flood ``payload`` from ``origin`` to all routers.

    ``verify`` (e.g. a signature check) is applied at each receiver; a
    copy failing verification is discarded *and not forwarded*, so an
    altered copy cannot crowd out the authentic one.  Returns a live
    :class:`FloodResult` populated as the simulation runs.
    """
    result = FloodResult(origin=origin)
    seen: Set[str] = set()

    def deliver(at: str, message: Any) -> None:
        now = network.sim.now
        if at in seen:
            return
        if verify is not None and not verify(message):
            return  # altered in transit: reject, wait for an honest copy
        seen.add(at)
        result.delivered[at] = message
        result.delivery_times[at] = now
        if on_deliver is not None:
            on_deliver(at, message, now)
        for nbr in network.routers[at].neighbors():
            relay(at, nbr, message)

    def relay(from_router: str, to_router: str, message: Any) -> None:
        comp = network.routers[from_router].compromise
        outgoing = message
        # Origin relays its own flood faithfully even if marked compromised
        # only in the traffic plane; protocol-faulty suppression applies to
        # transit relays.
        if comp is not None and from_router != origin:
            outgoing = comp.on_control(network.routers[from_router],
                                       from_router, to_router, message)
            if outgoing is None:
                return
        network.sim.schedule(hop_delay, deliver, to_router, outgoing)

    deliver(origin, payload)
    return result
