"""Failure-detector specification and ground-truth scoring (§4.2.2).

A detector emits :class:`Suspicion`s — (path-segment π, interval τ)
pairs, meaning "some router in π was faulty during τ".  The paper's
properties are checked *against simulator ground truth* (which routers
actually had a compromise attached and what it actually did):

* **a-Accuracy** — every suspicion by a correct router has |π| ≤ a and
  contains a router that was faulty during τ.
* **FI Completeness** — every traffic-faulty router eventually appears
  in a suspected segment at every correct router.
* **Precision** — the longest suspected segment.

:class:`RoundDetector` is the round step Π2, Πk+2 and χ share: the
router → :class:`DetectorState` table, one evaluation per round end,
and :meth:`RoundDetector.announce`, which spreads a suspicion.
:class:`PiConfig` holds the settings of a Π2 or Πk+2 detector.
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

    A subclass defines ``evaluate_round(round_index)``, which runs
    ``settle_delay`` seconds after each round's end: the wait for
    packets still in flight.  ``last_round`` is the last round
    :meth:`schedule_rounds` scheduled (None before it is called); Π2
    and Πk+2 detach their monitor after reading it, so every round is
    scheduled before that one is evaluated.
    """

    def __init__(self, network, schedule, settle_delay: float,
                 on_suspicion: Optional[Callable[[Suspicion], None]] = None,
                 ) -> None:
        self.network = network
        self.schedule = schedule
        self.settle_delay = settle_delay
        self.on_suspicion = on_suspicion
        self.states: Dict[str, DetectorState] = {
            name: DetectorState(name) for name in network.topology.routers
        }
        self.last_round: Optional[int] = None

    def schedule_rounds(self, first_round: int, last_round: int) -> None:
        for r in range(first_round, last_round + 1):
            when = self.schedule.round_end(r) + self.settle_delay
            self.network.sim.schedule_at(when, self.evaluate_round, r)
        if self.last_round is None or last_round > self.last_round:
            self.last_round = last_round

    def detach(self, tap) -> None:
        """Take ``tap`` off the network, if it is on it: nothing will
        read what it would record from now on."""
        if tap in self.network.taps:
            self.network.remove_tap(tap)

    def announce(self, suspicion: Suspicion, origins: Sequence[str]) -> None:
        """Each correct origin adopts ``suspicion`` and floods it.

        The evidence is reliably broadcast, so every correct router in
        the network converges on the same detections (strong
        completeness).  An origin whose compromise is active stays silent.
        """
        now = self.network.sim.now
        for origin in origins:
            compromise = self.network.routers[origin].compromise
            if compromise is not None and compromise.active_at(now):
                continue
            self.states[origin].suspect(suspicion)
            robust_flood(self.network, origin, suspicion,
                         on_deliver=self._adopt)
        if self.on_suspicion is not None:
            self.on_suspicion(suspicion)

    def _adopt(self, router: str, suspicion: Suspicion, _now: float) -> None:
        self.states[router].suspect(suspicion)


@dataclass(frozen=True)
class PiConfig:
    """The settings of a Π2 or Πk+2 detector.

    ``k`` is the AdjacentFault(k) bound the monitored segments are
    enumerated for; ``threshold`` the benign loss a validation allows;
    ``settle_delay`` the wait after a round's end for packets in flight;
    ``max_delay`` the timeliness policy's transit bound; ``codec`` how
    Πk+2 ships a content summary (§2.4.1): ``"full"`` fingerprints,
    ``"polynomial"`` set reconciliation or ``"bloom"`` filters.  Π2
    agrees on full summaries only.
    """

    k: int = 1
    threshold: int = 0
    settle_delay: float = 0.2
    max_delay: Optional[float] = None
    codec: str = "full"


def run_tv(upstream, downstream, config: PiConfig) -> TVResult:
    """TV of one summary pair under a Π protocol's ``config``.

    An :class:`EncodedSummary` (only Πk+2 ships one, §2.4.1) is checked
    against its codec; a plain summary by its policy's predicate.
    """
    if isinstance(upstream, EncodedSummary):
        return validate_encoded(upstream, downstream, config.threshold)
    return validate(upstream, downstream, threshold=config.threshold,
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
) -> AccuracyReport:
    """Check a-Accuracy over the suspicions of correct routers."""
    total = 0
    good = 0
    false_positives: List[Suspicion] = []
    precision = 0
    for router, state in states.items():
        if router in faulty_routers:
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
) -> CompletenessReport:
    """Check FI completeness.

    Each traffic-faulty router r must appear in some suspicion at every
    correct router (every router not in ``traffic_faulty``).
    """
    report = CompletenessReport()
    correct = [r for r in states if r not in traffic_faulty]
    for bad in sorted(traffic_faulty):
        seen_everywhere = True
        for router in correct:
            if states[router].suspects(bad):
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
