"""Protocol Π2 — complete, accurate, precision 2 (Fig 5.1).

Every router monitors every (k+2)-path-segment it belongs to.  At the end
of each agreed round τ the members of each segment run *consensus* on
their digitally signed traffic summaries, so that all correct members
hold the same vector of values; each member then evaluates TV pairwise
along the segment and suspects the 2-segment ⟨rᵢ, rᵢ₊₁⟩ wherever
validation fails, reliably broadcasting the signed evidence network-wide.

Two pairwise checks per adjacent pair implement TV:

* **link check** — what rᵢ claims to have sent to rᵢ₊₁ vs what rᵢ₊₁
  claims to have received: catches in-transit tampering and lying about
  the link.
* **transit check** — what rᵢ received from rᵢ₋₁ along π vs what it sent
  on to rᵢ₊₁: catches a router that truthfully reports while dropping
  inside itself (the threshold absorbs its benign congestion drops).

A member that is *silent* or *equivocates* in consensus is protocol
faulty with cryptographic/synchrony proof; the adjacent 2-segments are
suspected, preserving 2-accuracy.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.detector import PiConfig, RoundDetector, Suspicion, run_tv
from repro.core.summaries import PathSegment, SegmentMonitor, TrafficSummary
from repro.crypto.keys import KeyInfrastructure
from repro.dist.consensus import Equivocator, FaultyBehavior, Silent, SignedConsensus
from repro.dist.sync import RoundSchedule
from repro.net import Network

# A reporter maps the honest summary pair to what the router actually
# claims: the honest value, an altered one, a pair (equivocation), or
# None (silence).  Honest routers use the identity.
Reporter = Callable[[Tuple[TrafficSummary, TrafficSummary]], object]


def honest_reporter(value: Tuple[TrafficSummary, TrafficSummary]) -> object:
    return value


class ProtocolPi2(RoundDetector):
    """Distributed Π2 over a simulated network."""

    #: Appendix B: Π2 suspects 2-segments.
    precision = 2

    def __init__(
        self,
        network: Network,
        monitor: SegmentMonitor,
        segments: Iterable[PathSegment],
        keys: KeyInfrastructure,
        schedule: RoundSchedule,
        config: Optional[PiConfig] = None,
        reporters: Optional[Dict[str, Reporter]] = None,
        on_suspicion: Optional[Callable[[Suspicion], None]] = None,
    ) -> None:
        config = config or PiConfig()
        if config.codec != "full":
            raise ValueError(
                f"Π2 agrees on full summaries; codec {config.codec!r} "
                f"is Πk+2's")
        super().__init__(network, schedule, config.settle_delay,
                         on_suspicion)
        self.config = config
        self.monitor = monitor
        self.keys = keys
        self.reporters = reporters or {}
        self.segments: List[PathSegment] = sorted(set(tuple(s) for s in segments))
        for segment in self.segments:
            monitor.watch_segment(segment)  # every member records

    # -- one round --------------------------------------------------------------
    def evaluate_round(self, round_index: int) -> None:
        for segment in self.segments:
            self._evaluate_segment(segment, round_index)
        # Rounds are evaluated in order and every segment has now read
        # this one: per-round state (§5.1.1) ends with the round, and
        # the monitor with the last one.
        self.monitor.drop_rounds_before(round_index + 1)
        if round_index == self.last_round:
            self.detach(self.monitor)

    def _evaluate_segment(self, segment: PathSegment, round_index: int) -> None:
        members = list(segment)
        interval = self.schedule.interval(round_index)
        # 1. Each member produces its (received, sent) summary pair; the
        #    reporter hook models protocol-faulty claims.
        inputs: Dict[str, object] = {}
        behaviors: Dict[str, FaultyBehavior] = {}
        for i, member in enumerate(members):
            received = self.monitor.summary(segment, member, "received",
                                            round_index)
            sent = self.monitor.summary(segment, member, "sent", round_index)
            honest = (received, sent)
            claim = self.reporters.get(member, honest_reporter)(honest)
            if claim is None:
                behaviors[member] = Silent()
            elif isinstance(claim, tuple) and len(claim) == 2 and all(
                isinstance(c, tuple) for c in claim
            ):
                # Pair of two distinct claims => equivocation.
                behaviors[member] = Equivocator(claim[0], claim[1])
            else:
                inputs[member] = claim

        # 2. Consensus on the signed claims (f = members that could be bad).
        consensus = SignedConsensus(members, self.keys,
                                    max_faults=max(1, len(members) - 2))
        results = consensus.run(inputs, faulty=behaviors)

        # 3. Every correct member evaluates TV on the agreed vector.
        decided = next(iter(results.values()), None)
        if decided is None:
            return
        agreed: Dict[str, Optional[Tuple[TrafficSummary, TrafficSummary]]] = {}
        for member in members:
            value = decided.values.get(member)
            agreed[member] = value if isinstance(value, tuple) else None

        suspicions: List[Suspicion] = []
        for idx, member in enumerate(members):
            if agreed[member] is not None:
                continue
            # Silent or equivocating: protocol faulty with proof.  Suspect
            # the adjacent 2-segments (precision 2 preserved; each contains
            # the provably faulty member).
            for nbr_idx in (idx - 1, idx + 1):
                if 0 <= nbr_idx < len(members):
                    seg2 = ((members[nbr_idx], member) if nbr_idx < idx
                            else (member, members[nbr_idx]))
                    suspicions.append(Suspicion(
                        segment=seg2, interval=interval,
                        suspected_by=member,
                        reason=f"protocol-faulty {member} in consensus",
                    ))
        self._finish_segment(segment, round_index, members, interval,
                             agreed, suspicions)

    def _finish_segment(self, segment, round_index, members, interval,
                        agreed, suspicions) -> None:
        # link + transit checks over the agreed vector
        for i in range(len(members) - 1):
            a, b = members[i], members[i + 1]
            if agreed[a] is None or agreed[b] is None:
                continue
            result = run_tv(agreed[a][1], agreed[b][0], self.config)
            if not result.ok:
                suspicions.append(Suspicion(
                    segment=(a, b), interval=interval, suspected_by=a,
                    reason=f"link TV failed: {result.detail}",
                ))
        for i in range(1, len(members) - 1):
            member = members[i]
            if agreed[member] is None:
                continue
            received, sent = agreed[member]
            result = run_tv(received, sent, self.config)
            if not result.ok:
                suspicions.append(Suspicion(
                    segment=(member, members[i + 1]), interval=interval,
                    suspected_by=member,
                    reason=f"transit TV failed at {member}: {result.detail}",
                ))

        # 4. All correct members adopt the suspicions and flood the signed
        #    evidence.  Flooding from *each* member matters: a
        #    protocol-faulty router may suppress relays, and only the
        #    members on its far side can reach the routers there.
        unique = {(s.segment, s.reason): s for s in suspicions}
        for suspicion in unique.values():
            self.announce(suspicion, members)
