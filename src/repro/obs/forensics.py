"""Verdict forensics: join detector output against trace ground truth.

Three questions this module answers from a trace file (plus, when
available, the sweep manifest of the run that wrote it):

* **What happened to flow X?**  :func:`flow_timeline` reconstructs the
  flow's journey — first-seen hops, deliveries, drops, fabrications and
  misroutes — ordered by virtual time.
* **Why was router R suspected (or missed)?**  :func:`explain_router`
  joins every ``detector.suspect`` event naming R against the drops /
  fabrications / misroutes inside the suspicion's (segment, window),
  classifies the router as TP/FP/FN/TN against adversary ground truth,
  and attributes detection latency (first covering verdict's window end
  minus adversary activation — the same definition
  ``repro.eval.experiments.attack_matrix`` scores).
* **Which run produced this trace?**  :func:`trace_run_records` maps
  trace filenames to manifest run records, and
  :func:`ground_truth_for_trace` resolves adversary ground truth from
  the trace's ``scenario.ground_truth`` event or — for traces written
  before that event existed — deterministically re-derives it from the
  run record's serialized scenario parameters.

Everything here is sim-domain: inputs are virtual-time traces, outputs
are plain sorted-key dicts, and nothing reads a wall clock.  The one
``repro.eval`` dependency (spec-based ground-truth re-derivation) is
imported lazily to keep ``repro.obs`` import-light and cycle-free.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro._params import fold_dotted_params
from repro.obs.query import (
    QueryFilter,
    TraceEvent,
    TraceFormatError,
    TraceReader,
    trace_files,
)

#: Event kinds that are direct evidence of traffic-faulty behavior.
EVIDENCE_EVENTS = ("net.drop", "net.fabricate", "net.misroute")


# -- sweep manifest joins ---------------------------------------------------

def load_manifest(path: str) -> Optional[dict]:
    """The sweep manifest at *path* (a sweep dir or a ``.json`` file).

    None when there is none to read: a trace file, or a directory
    without ``sweep.json``.  A manifest that is there but is not a JSON
    object (torn, empty, ``[1, 2]``) raises :class:`TraceFormatError`,
    which ``repro obs`` reports as one ``error:`` line and exit 2.
    """
    manifest_path = (path if os.path.isfile(path)
                     else os.path.join(path, "sweep.json"))
    if not manifest_path.endswith(".json") \
            or not os.path.isfile(manifest_path):
        return None
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as error:
        raise TraceFormatError(
            f"{manifest_path}: not a sweep manifest ({error})") from None
    if not isinstance(manifest, dict):
        raise TraceFormatError(
            f"{manifest_path}: not a sweep manifest (top level is "
            f"{type(manifest).__name__}, not an object)")
    return manifest


def trace_run_records(path: str) -> Dict[str, dict]:
    """Trace filename (basename) -> manifest run record, for a sweep.

    Trace filenames embed the cell's param digest, so basenames are
    unique across shards and a flat map covers dispatched layouts too.
    """
    manifest = load_manifest(path)
    if manifest is None:
        return {}
    records: Dict[str, dict] = {}
    for record in manifest.get("runs", []):
        trace = record.get("trace")
        if trace:
            records[os.path.basename(trace)] = record
    return records


def ground_truth_from_record(record: dict) -> Optional[dict]:
    """Re-derive adversary ground truth from a manifest run record.

    Only ``attack_matrix`` cells place adversaries; their run params
    are exactly a serialized :class:`~repro.eval.specs.ScenarioSpec`,
    and placement resolution is deterministic, so the planted router
    can be recovered without touching the trace.
    """
    if record.get("experiment") != "attack_matrix":
        return None
    from repro.eval import ScenarioSpec, resolve_ground_truth

    # Manifest records keep grid params in dotted form
    # ("placement.router"); fold them into the nested dicts the
    # experiment itself receives before rebuilding the spec.
    params = fold_dotted_params(record.get("params") or {})
    if record.get("seed") is not None:
        params["seed"] = record["seed"]
    return resolve_ground_truth(ScenarioSpec.from_dict(params))


def ground_truth_for_trace(trace_path: str,
                           record: Optional[dict] = None) -> Optional[dict]:
    """Adversary ground truth for a trace: recorded event, else spec.

    The ``scenario.ground_truth`` event the scenario builder emits is
    authoritative (it names the router the run actually compromised);
    the run-record fallback re-derives the same answer for traces that
    predate the event.
    """
    return _ground_truth(TraceReader(trace_path), record)


def _ground_truth(reader: TraceReader,
                  record: Optional[dict]) -> Optional[dict]:
    for event in reader.events(
            QueryFilter(events=("scenario.ground_truth",))):
        truth = dict(event.fields)
        truth["t"] = event.t
        return truth
    if record is not None:
        return ground_truth_from_record(record)
    return None


# -- flow timelines ---------------------------------------------------------

def flow_timeline(trace_path: str, flow: str) -> List[TraceEvent]:
    """Every event mentioning *flow*, ordered by virtual time.

    Emission order breaks virtual-time ties, so the timeline is total
    and deterministic (trace files are written in emission order).
    """
    reader = TraceReader(trace_path)
    indexed = list(enumerate(reader.events(QueryFilter(flow=flow))))
    indexed.sort(key=lambda pair: (
        pair[1].t if pair[1].t is not None else float("inf"), pair[0]))
    return [event for _, event in indexed]


# -- verdict provenance -----------------------------------------------------

@dataclass(frozen=True)
class VerdictReport:
    """One suspicion naming the queried router, with its evidence."""

    by: str
    segment: Tuple[str, ...]
    segment_id: str
    interval: Tuple[float, float]
    reason: str
    confidence: float
    true_positive: bool
    #: Evidence event kind -> count inside this (segment, window).
    evidence: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "by": self.by,
            "segment": list(self.segment),
            "segment_id": self.segment_id,
            "interval": list(self.interval),
            "reason": self.reason,
            "confidence": self.confidence,
            "true_positive": self.true_positive,
            "evidence": {k: self.evidence[k]
                         for k in sorted(self.evidence)},
        }


@dataclass(frozen=True)
class RouterExplanation:
    """TP/FP/FN/TN classification of one router in one trace."""

    trace: str
    router: Optional[str]
    ground_truth: Optional[dict]
    #: "tp" | "fp" | "fn" | "tn" — suspected/not x adversary/not.
    classification: str
    detection_latency: Optional[float]
    total_suspicions: int
    verdicts: List[VerdictReport] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "trace": self.trace,
            "router": self.router,
            "ground_truth": self.ground_truth,
            "classification": self.classification,
            "detection_latency": self.detection_latency,
            "total_suspicions": self.total_suspicions,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


class _EvidenceIndex:
    """Evidence events by acting router in time order, so the events of
    a verdict's (segment, window) are found by bisection — and found
    once: detectors flood a failed check to every router, so many
    verdicts of a trace share one (segment, window)."""

    def __init__(self, events: Iterable[TraceEvent]) -> None:
        #: Acting router -> ([t, ...] ascending, [event kind, ...]).
        self._by_router: Dict[str, Tuple[List[float], List[str]]] = {}
        self._memo: Dict[tuple, Dict[str, int]] = {}
        unsorted = False
        for event in events:
            actor = event.fields.get("router")
            t = event.t
            # No window contains a missing or NaN time, and segments
            # name routers by string.
            if t is None or t != t or not isinstance(actor, str):
                continue
            times, kinds = self._by_router.setdefault(actor, ([], []))
            if times and t < times[-1]:
                unsorted = True
            times.append(t)
            kinds.append(event.event)
        if unsorted:
            # Traces are emitted in virtual-time order; a hand-written
            # one need not be.
            for times, kinds in self._by_router.values():
                order = sorted(range(len(times)), key=times.__getitem__)
                times[:] = [times[i] for i in order]
                kinds[:] = [kinds[i] for i in order]

    def counts(self, segment: Tuple[str, ...],
               interval: Tuple[float, float]) -> Dict[str, int]:
        """Evidence kind -> events whose actor is in *segment* during
        the half-open *interval*; a fresh dict for every caller."""
        key = (segment, interval)
        counts = self._memo.get(key)
        if counts is None:
            counts = self._memo[key] = {}
            lo, hi = interval
            if lo < hi:
                for actor in dict.fromkeys(segment):
                    times, kinds = self._by_router.get(actor, ((), ()))
                    for kind in kinds[bisect_left(times, lo):
                                      bisect_left(times, hi)]:
                        counts[kind] = counts.get(kind, 0) + 1
        return dict(counts)


def explain_router(trace_path: str, router: Optional[str] = None,
                   record: Optional[dict] = None) -> RouterExplanation:
    """Classify *router* against one trace's detector output.

    Without an explicit *router* the ground-truth adversary is
    explained (the common forensic question: "did we catch it, and
    why?").  Classification: TP = adversary and suspected, FN =
    adversary but never suspected, FP = correct router suspected
    anyway, TN = correct router never suspected.
    """
    reader = TraceReader(trace_path)
    truth = _ground_truth(reader, record)
    adversary = (truth or {}).get("router")
    attack_at = (truth or {}).get("attack_at")
    target = router if router is not None else adversary

    suspicions = list(reader.events(
        QueryFilter(events=("detector.suspect",))))
    evidence = _EvidenceIndex(
        reader.events(QueryFilter(events=EVIDENCE_EVENTS)))

    verdicts: List[VerdictReport] = []
    for event in suspicions:
        segment = tuple(str(r) for r in (event.get("segment") or ()))
        if target is None or target not in segment:
            continue
        raw_interval = event.get("interval") or [event.t, event.t]
        interval = (float(raw_interval[0]), float(raw_interval[1]))
        is_tp = (adversary is not None and adversary in segment
                 and (attack_at is None or interval[1] > attack_at))
        verdicts.append(VerdictReport(
            by=str(event.get("by", "")),
            segment=segment,
            segment_id=str(event.get("segment_id",
                                     ">".join(segment))),
            interval=interval,
            reason=str(event.get("reason", "")),
            confidence=float(event.get("confidence", 1.0) or 1.0),
            true_positive=is_tp,
            evidence=evidence.counts(segment, interval),
        ))

    suspected = bool(verdicts)
    if target is not None and target == adversary:
        classification = "tp" if suspected else "fn"
    else:
        classification = "fp" if suspected else "tn"

    latency: Optional[float] = None
    if classification == "tp" and attack_at is not None:
        covering = [v.interval[1] for v in verdicts if v.true_positive]
        if covering:
            latency = min(covering) - float(attack_at)

    return RouterExplanation(
        trace=trace_path,
        router=target,
        ground_truth=truth,
        classification=classification,
        detection_latency=latency,
        total_suspicions=len(suspicions),
        verdicts=verdicts,
    )


def explain_sweep(path: str,
                  router: Optional[str] = None) -> List[RouterExplanation]:
    """Explain *router* (or each trace's own adversary) across a sweep."""
    records = trace_run_records(path)
    explanations: List[RouterExplanation] = []
    for trace in trace_files(path):
        record = records.get(os.path.basename(trace))
        explanations.append(explain_router(trace, router, record))
    return explanations
