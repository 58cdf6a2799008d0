"""Protocol χ — detecting malicious packet losses (Chapter 6).

χ validates each output-interface queue Q of each router r: the upstream
neighbours record the traffic they feed into Q (fingerprint, size,
predicted entry time), the downstream router r_d records what leaves Q,
and r_d *simulates* Q from those records (Fig 6.1, §6.2.1).  A packet
that disappears when the predicted queue had room is attributed to
malice, with a confidence derived from the learned distribution of the
prediction error X = q_act − q_pred ≈ N(µ, σ):

* **single-packet test** (Fig 6.2):
  c_single = Φ((q_limit − q_pred(ts) − ps − µ)/σ); alarm if ≥ TH_SINGLE.
* **combined test** (Z-test over the round's n losses):
  z₁ = (q_limit − q̄_pred − p̄s − µ)/(σ/√n); alarm if Φ(z₁) ≥ TH_COMBINED.

For RED queues the drop decision is randomized, so exact replay is
impossible; §6.5.2 instead reasons about the drop *probability* each
packet faced (Fig 6.10).  :class:`REDQueueValidator` reconstructs the
average-queue trajectory, derives every packet's RED drop probability,
and applies three tests: a *definite* test (a packet dropped while the
average queue was below min_th and the buffer had room cannot be a RED
drop), an *aggregate* Poisson-binomial Z-test (observed vs expected drop
count), and a *per-flow* test with Bonferroni correction that exposes
flow-selective attacks hiding inside a plausible total.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.core.detector import RoundDetector, Suspicion
from repro.core.summaries import PathOracle
from repro.crypto.fingerprint import fingerprint
from repro.crypto.keys import KeyInfrastructure
from repro.dist.sync import RoundSchedule
from repro.net import MonitorTap, Network, Packet, REDParams, REDQueue, Router
from repro.net.queues import red_packet_drop_probability_unchecked


# χ's decision thresholds.  Single-packet and combined tests alarm at
# this confidence of malice.
TH_SINGLE = 0.999
TH_COMBINED = 0.999
# Wait after a round's end for packets still in flight (seconds).
SETTLE_DELAY = 0.3
# Slack on top of the time a full queue takes to drain before an
# unmatched arrival counts as lost (seconds).
WAIT_SLACK = 0.05
# The per-flow test skips a flow with fewer arrivals than this.
MIN_FLOW_ARRIVALS = 20
# A flow is only suspicious if its drop excess is material: at least
# FLOW_EFFECT_FLOOR drops above expectation and at least
# FLOW_EXCESS_FRACTION of the expectation.
FLOW_EFFECT_FLOOR = 6.0
FLOW_EXCESS_FRACTION = 0.3
# TCP burstiness correlates a flow's RED outcomes, so single-round
# z excursions happen; demand the flow look suspicious this many
# rounds in a row before alarming (latency traded for accuracy).
FLOW_PERSISTENCE = 2
# RED single-packet test: alarm once this many near-impossible drops
# (confidence >= TH_SINGLE each) have accumulated.
RED_SINGLE_MIN_COUNT = 2
# A neighbour whose claimed Tinfo omits this many packets that
# nevertheless *left* the monitored queue is protocol faulty
# (§6.2.2: signed traffic information is cross-checked; silence about
# forwarded traffic is as damning as lying about it).
MISREPORT_THRESHOLD = 3
# Cumulative (since monitoring began) per-flow and aggregate tests
# catch sustained fine-grained attacks whose per-round excess is too
# small to notice: z grows like sqrt(rounds) under a real attack.
TH_CUMULATIVE = 0.99997  # ~4 sigma
CUM_EFFECT_FLOOR = 10.0

# Replay order: by time, arrivals (0) before departures (1) on ties;
# the sort is stable, so equal keys keep their feed order.
_EVENT_ORDER = itemgetter(0, 1)


def _phi(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def single_loss_confidence(q_limit: float, q_pred: float, packet_size: float,
                           mu: float, sigma: float) -> float:
    """c_single of Fig 6.2: the probability the drop was malicious."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    margin = q_limit - q_pred - packet_size
    return _phi((margin - mu) / sigma)


def combined_loss_confidence(q_limit: float, q_preds: Sequence[float],
                             sizes: Sequence[float], mu: float,
                             sigma: float) -> float:
    """c_combined: Z-test over a set of losses (§6.2.1)."""
    n = len(q_preds)
    if n == 0:
        return 0.0
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    mean_qpred = sum(q_preds) / n
    mean_ps = sum(sizes) / n
    z1 = (q_limit - mean_qpred - mean_ps - mu) / (sigma / math.sqrt(n))
    return _phi(z1)


class TrafficRecord(NamedTuple):
    """One Tinfo entry: fingerprint, size, and queue entry/exit time.

    A named tuple: immutable, and built once per packet per side of a
    watched queue, so it is the cheapest immutable record to make.
    """

    fp: int
    size: int
    time: float
    flow_id: str = ""
    src: str = ""
    dst: str = ""
    reporter: str = ""


@dataclass
class DropVerdict:
    """The validator's ruling on one missing packet."""

    record: TrafficRecord
    q_pred: float
    congestive: bool
    confidence: float  # probability of malice (c_single or 1 - p_red)
    red_drop_prob: float = 0.0


@dataclass
class RoundFinding:
    """Per-round validator output for one monitored queue."""

    round_index: int
    target: Tuple[str, str]
    drops: List[DropVerdict] = field(default_factory=list)
    arrivals: int = 0
    single_alarm: bool = False
    combined_alarm: bool = False
    flow_alarm: bool = False
    definite_alarm: bool = False
    combined_confidence: float = 0.0
    max_single_confidence: float = 0.0
    suspicious_flows: List[str] = field(default_factory=list)
    cumulative_flows: List[str] = field(default_factory=list)
    cumulative_alarm: bool = False
    unmatched_out: int = 0  # fabricated / unexpected departures
    misreporting_neighbors: List[str] = field(default_factory=list)
    misrouted_or_fabricated: int = 0  # departures this queue should never carry

    @property
    def alarmed(self) -> bool:
        return (self.single_alarm or self.combined_alarm
                or self.flow_alarm or self.definite_alarm
                or self.cumulative_alarm or bool(self.misreporting_neighbors)
                or self.misroute_alarm)

    misroute_alarm: bool = False

    @property
    def congestive_drops(self) -> int:
        return sum(1 for d in self.drops if d.congestive)

    @property
    def candidate_drops(self) -> int:
        return sum(1 for d in self.drops if not d.congestive)


class QueueTap(MonitorTap):
    """Collects Tinfo around one monitored output queue (r → r_d).

    Upstream neighbours' records carry *predicted* entry times (transmit
    completion + propagation delay, §6.2.1); the downstream router's
    records carry exit times (arrival minus propagation).  Ground-truth
    occupancy samples are recorded too, used **only** by calibration.

    The record lists hold what has not been taken yet: :class:`ProtocolChi`
    takes them every round and hands them to its validator.
    """

    def __init__(self, network: Network, oracle: PathOracle, router: str,
                 downstream: str, fingerprint_key: bytes = b"") -> None:
        self.network = network
        self.oracle = oracle
        self.router = router
        self.downstream = downstream
        self.fingerprint_key = fingerprint_key
        self.records_in: List[TrafficRecord] = []
        self.records_out: List[TrafficRecord] = []
        self.truth_occupancy: List[Tuple[float, int]] = []
        # Off for queues that are never calibrated (RED) and once
        # calibration has read the samples (stop_sampling).
        self._samples_truth = True
        topology = network.topology
        # Every upstream neighbour but the downstream router transmits
        # into the queue; each entry time is dated by its link's delay.
        self._in_link_delay: Dict[str, float] = {
            link.src: link.delay for link in topology.links()
            if link.dst == router and link.src != downstream}
        out_link = topology.link(router, downstream)
        self._out_link_delay = out_link.delay
        self._out_bandwidth = out_link.bandwidth

    def sites(self) -> List[Tuple[str, str, str, Callable[..., None]]]:
        """The queue's in-links and out-link, and the queue itself while
        it samples truth."""
        rows = [("on_transmit", upstream, self.router, self._record_in)
                for upstream in self._in_link_delay]
        rows.append(("on_receive", self.downstream, self.router,
                     self._record_out))
        if self._samples_truth:
            rows.append(("on_enqueue", self.router, self.downstream,
                         self._sample))
        return rows

    def stop_sampling(self) -> None:
        """End the truth samples (calibration has read them, or the
        queue is never calibrated) and release them."""
        self._samples_truth = False
        self.truth_occupancy = []
        if self in self.network.taps:
            self.network.reindex_taps()

    def _fp(self, packet: Packet) -> int:
        return fingerprint(packet, self.fingerprint_key)

    def _record_in(self, router: Router, out_nbr: str, packet: Packet,
                   time: float) -> None:
        if self.oracle.next_hop_after(packet, self.router) != self.downstream:
            return
        self.records_in.append(TrafficRecord(
            fp=self._fp(packet), size=packet.size,
            time=time + self._in_link_delay[router.name],
            flow_id=packet.flow_id, src=packet.src, dst=packet.dst,
            reporter=router.name,
        ))

    def _record_out(self, router: Router, from_nbr: str, packet: Packet,
                    time: float) -> None:
        # Exit time = when the packet left the queue for transmission:
        # arrival minus propagation minus serialization (§6.2.1's q_pred
        # accounts a packet from queue entry to transmission start).
        exit_time = (time - self._out_link_delay
                     - packet.size / self._out_bandwidth) + 1e-9
        self.records_out.append(TrafficRecord(
            fp=self._fp(packet), size=packet.size, time=exit_time,
            flow_id=packet.flow_id, src=packet.src, dst=packet.dst,
            reporter=router.name,
        ))

    def _sample(self, router: Router, out_nbr: str, packet: Packet,
                time: float, occupancy: int) -> None:
        self.truth_occupancy.append((time, occupancy))


def _redeem(counts: Dict[int, int], fp: int) -> bool:
    """Take one unit of ``fp``'s count; False if it has none.

    A count that reaches zero is deleted, so ``counts`` holds only the
    packets still in flight.
    """
    n = counts.get(fp)
    if not n:
        return False
    if n == 1:
        del counts[fp]
    else:
        counts[fp] = n - 1
    return True


class QueueValidator:
    """Streaming droptail queue simulation over Tinfo records (§6.2.1).

    Feed records as they become available and call :meth:`advance` with a
    watermark; events older than ``watermark − max_wait`` are processed
    (``max_wait`` bounds how long a packet can legitimately sit in the
    queue, so an unmatched arrival older than that is a genuine loss).
    """

    def __init__(self, queue_limit: int, bandwidth: float,
                 mu: float = 0.0, sigma: float = 1.0) -> None:
        self.queue_limit = queue_limit
        self.mu = mu
        self.sigma = max(sigma, 1e-9)
        self.max_wait = queue_limit / bandwidth + WAIT_SLACK
        self.q_pred = 0.0
        self._pending_in: List[TrafficRecord] = []
        self._pending_out: List[TrafficRecord] = []
        # Multiset bookkeeping: a diverted-and-returned packet can appear
        # twice on the arrival side; each departure redeems exactly one
        # predicted arrival, the surplus is a genuine loss.  Counts are
        # positive: an entry is deleted when its packet is accounted for.
        self._out_credits: Dict[int, int] = {}
        self._added: Dict[int, int] = {}
        # The q_pred history calibration reads; kept only until
        # :meth:`calibrate` ends the learning period.
        self._learning = True
        self.timeline: List[Tuple[float, float]] = [(0.0, 0.0)]
        # Times column of ``timeline``, kept in lockstep so q_pred_at
        # can bisect without rebuilding the list per query (calibration
        # queries it once per truth sample).
        self._timeline_times: List[float] = [0.0]
        self.unmatched_out = 0
        self.unmatched_records: List[TrafficRecord] = []
        self.processed_arrivals = 0

    def feed(self, records_in: Iterable[TrafficRecord],
             records_out: Iterable[TrafficRecord]) -> None:
        new_out = list(records_out)
        self._pending_in.extend(records_in)
        self._pending_out.extend(new_out)
        for r in new_out:
            self._out_credits[r.fp] = self._out_credits.get(r.fp, 0) + 1

    def advance(self, watermark: float) -> List[DropVerdict]:
        """Process events up to ``watermark − max_wait``; return drops."""
        horizon = watermark - self.max_wait
        ready_in = [r for r in self._pending_in if r.time <= horizon]
        ready_out = [r for r in self._pending_out if r.time <= horizon]
        self._pending_in = [r for r in self._pending_in if r.time > horizon]
        self._pending_out = [r for r in self._pending_out if r.time > horizon]
        events: List[Tuple[float, int, TrafficRecord]] = []
        for rec in ready_in:
            events.append((rec.time, 0, rec))  # arrivals first on ties
        for rec in ready_out:
            events.append((rec.time, 1, rec))
        events.sort(key=_EVENT_ORDER)

        verdicts: List[DropVerdict] = []
        for when, kind, rec in events:
            if kind == 1:  # departure
                if _redeem(self._added, rec.fp):
                    self.q_pred = max(0.0, self.q_pred - rec.size)
                else:
                    # Unexpected departure: nothing we enqueued.  Count it
                    # (fabrication, misrouting, or an under-reporting
                    # neighbour); q_pred never accounted for it, so leave
                    # the prediction untouched.
                    self.unmatched_out += 1
                    self.unmatched_records.append(rec)
                if self._learning:
                    self.timeline.append((when, self.q_pred))
                    self._timeline_times.append(when)
            else:  # arrival (kind == 0)
                self.processed_arrivals += 1
                if _redeem(self._out_credits, rec.fp):
                    self.q_pred += rec.size
                    self._added[rec.fp] = self._added.get(rec.fp, 0) + 1
                    if self._learning:
                        self.timeline.append((when, self.q_pred))
                        self._timeline_times.append(when)
                else:
                    congestive = self.q_pred + rec.size > self.queue_limit
                    confidence = 0.0
                    if not congestive:
                        confidence = single_loss_confidence(
                            self.queue_limit, self.q_pred, rec.size,
                            self.mu, self.sigma,
                        )
                    verdicts.append(DropVerdict(
                        record=rec, q_pred=self.q_pred,
                        congestive=congestive, confidence=confidence,
                    ))
        return verdicts

    def q_pred_at(self, when: float) -> float:
        if len(self._timeline_times) != len(self.timeline):
            # External code appended to ``timeline`` directly; resync.
            self._timeline_times = [t for t, _ in self.timeline]
        idx = bisect_right(self._timeline_times, when) - 1
        if idx < 0:
            return 0.0
        return self.timeline[idx][1]

    def calibrate(self, truth_samples: Sequence[Tuple[float, int]],
                  min_sigma: float = 1.0) -> Tuple[float, float]:
        """Fit (µ, σ) of X = q_act − q_pred from a trusted learning run.

        This ends the learning period: the q_pred timeline is released
        and no longer recorded, so a later call has nothing to fit and
        returns the current (µ, σ).
        """
        errors = [occ - self.q_pred_at(t) for t, occ in truth_samples]
        self._learning = False
        self.timeline = []
        self._timeline_times = []
        if not errors:
            return (self.mu, self.sigma)
        mu = sum(errors) / len(errors)
        var = sum((e - mu) ** 2 for e in errors) / max(1, len(errors) - 1)
        sigma = max(math.sqrt(var), min_sigma)
        self.mu, self.sigma = mu, sigma
        return (mu, sigma)


class REDQueueValidator:
    """Probabilistic traffic validation for a RED queue (§6.5.2).

    Replays the RED average-queue dynamics from the records (using the
    same EWMA and idle-decay rules as :class:`repro.net.queues.REDQueue`)
    to recover the drop probability every packet faced, then tests the
    observed drop pattern against it.
    """

    def __init__(self, queue_limit: int, bandwidth: float,
                 params: REDParams) -> None:
        # Validated once, as REDQueue does; the replay then takes the
        # unchecked per-packet probability.
        params.validate()
        self.queue_limit = queue_limit
        self.params = params
        self.max_wait = queue_limit / bandwidth + WAIT_SLACK
        self.occupancy = 0.0
        self.avg = 0.0
        self.count = -1
        self._idle_since: Optional[float] = 0.0
        self._pending_in: List[TrafficRecord] = []
        self._pending_out: List[TrafficRecord] = []
        self._out_credits: Dict[int, int] = {}
        self._added: Dict[int, int] = {}
        self.unmatched_out = 0
        self.unmatched_records: List[TrafficRecord] = []
        # per-advance accumulators
        self.arrival_probs: List[Tuple[TrafficRecord, float, bool]] = []

    def feed(self, records_in: Iterable[TrafficRecord],
             records_out: Iterable[TrafficRecord]) -> None:
        new_out = list(records_out)
        self._pending_in.extend(records_in)
        self._pending_out.extend(new_out)
        for r in new_out:
            self._out_credits[r.fp] = self._out_credits.get(r.fp, 0) + 1

    def _update_average(self, now: float) -> None:
        w = self.params.weight
        if self.occupancy == 0 and self._idle_since is not None:
            idle = max(0.0, now - self._idle_since)
            m = idle / 0.001
            self.avg *= (1.0 - w) ** min(m, 10_000.0)
            self._idle_since = now
        self.avg = (1.0 - w) * self.avg + w * self.occupancy

    def advance(self, watermark: float) -> List[DropVerdict]:
        horizon = watermark - self.max_wait
        ready_in = [r for r in self._pending_in if r.time <= horizon]
        ready_out = [r for r in self._pending_out if r.time <= horizon]
        self._pending_in = [r for r in self._pending_in if r.time > horizon]
        self._pending_out = [r for r in self._pending_out if r.time > horizon]
        events: List[Tuple[float, int, TrafficRecord]] = []
        for rec in ready_in:
            events.append((rec.time, 0, rec))  # arrivals first on ties
        for rec in ready_out:
            events.append((rec.time, 1, rec))
        events.sort(key=_EVENT_ORDER)

        verdicts: List[DropVerdict] = []
        for when, kind, rec in events:
            if kind == 1:
                if _redeem(self._added, rec.fp):
                    self.occupancy = max(0.0, self.occupancy - rec.size)
                else:
                    self.unmatched_out += 1
                    self.unmatched_records.append(rec)
                if self.occupancy == 0:
                    self._idle_since = when
                continue
            self._update_average(when)
            prob = red_packet_drop_probability_unchecked(
                self.avg, self.params, self.count, rec.size)
            if _redeem(self._out_credits, rec.fp):  # transmitted
                if prob > 0.0:
                    self.count += 1
                else:
                    self.count = -1
                self.occupancy += rec.size
                self._added[rec.fp] = self._added.get(rec.fp, 0) + 1
                self._idle_since = None
                self.arrival_probs.append((rec, prob, False))
            else:
                forced = (self.occupancy + rec.size > self.queue_limit
                          or prob >= 1.0)
                self.count = 0 if not forced else -1
                effective = 1.0 if forced else prob
                self.arrival_probs.append((rec, effective, True))
                verdicts.append(DropVerdict(
                    record=rec, q_pred=self.occupancy,
                    congestive=forced,
                    confidence=max(0.0, 1.0 - effective),
                    red_drop_prob=effective,
                ))
        return verdicts

    def drain_arrival_probs(self) -> List[Tuple[TrafficRecord, float, bool]]:
        out = self.arrival_probs
        self.arrival_probs = []
        return out


def red_aggregate_confidence(
    arrival_probs: Sequence[Tuple[TrafficRecord, float, bool]]
) -> float:
    """Poisson-binomial Z-test: observed vs expected RED drops."""
    expected = sum(p for _, p, _ in arrival_probs)
    variance = sum(p * (1 - p) for _, p, _ in arrival_probs)
    observed = sum(1 for _, _, dropped in arrival_probs if dropped)
    if variance <= 0:
        return 1.0 if observed > expected else 0.0
    z = (observed - expected) / math.sqrt(variance)
    return _phi(z)


def red_flow_confidences(
    arrival_probs: Sequence[Tuple[TrafficRecord, float, bool]],
    min_arrivals: int = MIN_FLOW_ARRIVALS,
    key=None,
) -> Dict[str, Tuple[float, float, float]]:
    """Per-flow drop-count Z-tests for flow-selective attacks.

    Returns flow -> (confidence, observed drops, expected drops).  The
    caller combines the confidence with an effect-size floor: a z-score
    alone would fire on chance excursions when many (flow, round) cells
    are tested.  A continuity correction (−0.5) keeps the normal
    approximation honest at small counts.
    """
    if key is None:
        key = lambda rec: rec.flow_id
    by_flow: Dict[str, List[Tuple[float, bool]]] = {}
    for rec, p, dropped in arrival_probs:
        by_flow.setdefault(key(rec), []).append((p, dropped))
    return _group_confidences(by_flow, min_arrivals)


def _group_confidences(
    by_group: Dict[str, List[Tuple[float, bool]]],
    min_arrivals: int = MIN_FLOW_ARRIVALS,
) -> Dict[str, Tuple[float, float, float]]:
    """:func:`red_flow_confidences` over arrivals already grouped:
    group -> its ``(drop probability, dropped)`` pairs in arrival order."""
    out: Dict[str, Tuple[float, float, float]] = {}
    for flow, entries in by_group.items():
        if len(entries) < min_arrivals:
            continue
        expected = sum(p for p, _ in entries)
        variance = sum(p * (1 - p) for p, _ in entries)
        observed = sum(1 for _, dropped in entries if dropped)
        if variance <= 0:
            conf = 1.0 if observed > expected else 0.0
        else:
            conf = _phi((observed - 0.5 - expected) / math.sqrt(variance))
        out[flow] = (conf, float(observed), expected)
    return out


class ProtocolChi(RoundDetector):
    """Distributed χ over a simulated network.

    ``targets`` lists the monitored output interfaces as (router,
    downstream) pairs; each gets a :class:`QueueTap` and a validator at
    the downstream router that follows its queue's discipline (§6.2): a
    :class:`REDQueueValidator` with the queue's own parameters for a
    :class:`~repro.net.REDQueue`, a :class:`QueueValidator` otherwise.
    Per round, the downstream router evaluates the queue and — on alarm
    — floods a signed suspicion of the 2-segment ⟨r, r_d⟩ (χ is accurate
    with precision 2, §6.3.1).

    Live state is proportional to the packets in flight, not to the
    length of the run: records move from tap to validator every round,
    credits live while their packet is in flight, and truth samples and
    the q_pred timeline only during learning.  ``findings`` (and the
    cumulative tests' evidence) are kept for the whole run.
    """

    def __init__(
        self,
        network: Network,
        oracle: PathOracle,
        schedule: RoundSchedule,
        targets: Sequence[Tuple[str, str]],
        keys: Optional[KeyInfrastructure] = None,
        reporters: Optional[Dict[str, Callable[[List[TrafficRecord]], List[TrafficRecord]]]] = None,
    ) -> None:
        super().__init__(network, schedule, SETTLE_DELAY)
        self.oracle = oracle
        self.keys = keys or KeyInfrastructure()
        self.reporters = reporters or {}
        self.taps: Dict[Tuple[str, str], QueueTap] = {}
        self.validators: Dict[Tuple[str, str], object] = {}
        self.findings: List[RoundFinding] = []
        self._flow_streak: Dict[Tuple[Tuple[str, str], str], int] = {}
        # (target, flow) -> [cum_obs, cum_exp, cum_var]
        self._flow_cum: Dict[Tuple[Tuple[str, str], str], List[float]] = {}
        self._agg_cum: Dict[Tuple[str, str], List[float]] = {}
        self._red_single_count: Dict[Tuple[str, str], int] = {}
        # target -> accumulated droptail candidate drops (q_pred, size):
        # sustained low-rate attacks are caught by the Z-test over the
        # whole accumulated set (benign congestive margins have
        # non-positive expectation, so the statistic only drifts up
        # under malice).
        self._candidate_cum: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
        for router, downstream in targets:
            tap = QueueTap(network, oracle, router, downstream)
            link = network.topology.link(router, downstream)
            queue = network.routers[router].interfaces[downstream].queue
            if isinstance(queue, REDQueue):
                validator: object = REDQueueValidator(
                    link.queue_limit, link.bandwidth, queue.params)
                tap.stop_sampling()  # RED is never calibrated
            else:
                validator = QueueValidator(link.queue_limit, link.bandwidth)
            network.add_tap(tap)
            key = (router, downstream)
            self.taps[key] = tap
            self.validators[key] = validator

    # -- calibration -------------------------------------------------------------
    def calibrate(self, target: Tuple[str, str],
                  min_sigma: float = 500.0) -> Tuple[float, float]:
        """Learning period (§6.2.1): fit (µ, σ) from the trace so far.

        Must be run on attack-free traffic; uses trusted occupancy
        telemetry from the monitored router.  Only meaningful for
        droptail validators.  The learning period ends here: the tap
        stops sampling occupancy and both the samples and the
        validator's q_pred timeline are released.
        """
        tap = self.taps[target]
        validator = self.validators[target]
        if not isinstance(validator, QueueValidator):
            raise TypeError("calibration applies to droptail validation")
        self._feed(target)
        validator.advance(self.network.sim.now)
        fitted = validator.calibrate(tap.truth_occupancy, min_sigma=min_sigma)
        tap.stop_sampling()
        return fitted

    # -- rounds -----------------------------------------------------------------
    def _feed(self, target: Tuple[str, str]) -> None:
        tap = self.taps[target]
        validator = self.validators[target]
        # Take the tap's records: from here on the validator holds them
        # until they are processed.
        new_in, tap.records_in = tap.records_in, []
        new_out, tap.records_out = tap.records_out, []
        # Protocol-faulty neighbours may misreport their Tinfo.
        if self.reporters:
            filtered = []
            for rec in new_in:
                reporter = self.reporters.get(rec.reporter)
                if reporter is None:
                    filtered.append(rec)
                else:
                    filtered.extend(reporter([rec]))
            new_in = filtered
        validator.feed(new_in, new_out)

    def evaluate_round(self, round_index: int) -> List[RoundFinding]:
        out: List[RoundFinding] = []
        for target in self.taps:
            finding = self._evaluate_target(target, round_index)
            self.findings.append(finding)
            out.append(finding)
            if finding.alarmed:
                self._alarm(target, round_index, finding)
        return out

    def _evaluate_target(self, target: Tuple[str, str],
                         round_index: int) -> RoundFinding:
        validator = self.validators[target]
        self._feed(target)
        watermark = self.network.sim.now
        verdicts = validator.advance(watermark)
        finding = RoundFinding(round_index=round_index, target=target,
                               drops=verdicts)
        finding.unmatched_out = validator.unmatched_out
        self._attribute_unmatched(target, finding, validator)
        if isinstance(validator, REDQueueValidator):
            arrivals = validator.drain_arrival_probs()
            finding.arrivals = len(arrivals)
            definite = [v for v in verdicts
                        if not v.congestive and v.red_drop_prob == 0.0]
            finding.definite_alarm = bool(definite)
            finding.max_single_confidence = max(
                (v.confidence for v in verdicts), default=0.0
            )
            # Single-packet test, RED flavour: a drop whose RED probability
            # was negligible (e.g. a 40-byte SYN in byte mode) is near-proof
            # of malice; require a couple of them to guard the tail.
            near_impossible = [v for v in verdicts
                               if not v.congestive
                               and v.confidence >= TH_SINGLE]
            self._red_single_count[target] = (
                self._red_single_count.get(target, 0) + len(near_impossible)
            )
            finding.single_alarm = (
                self._red_single_count[target] >= RED_SINGLE_MIN_COUNT
                and bool(near_impossible)
            )
            finding.combined_confidence = red_aggregate_confidence(arrivals)
            finding.combined_alarm = (
                finding.combined_confidence >= TH_COMBINED
                and any(dropped for _, _, dropped in arrivals)
            )
            # Group the per-round selective test two ways: by transport
            # flow (selected-flow attacks) and by destination (victim-host
            # attacks such as SYN dropping, where each connection is a new
            # flow id but the victim destination accumulates the damage).
            groups = self._groups_of(arrivals)
            by_flow: Dict[str, List[Tuple[float, bool]]] = {}
            by_dst: Dict[str, List[Tuple[float, bool]]] = {}
            for (_, p, dropped), (flow, dst) in zip(arrivals, groups):
                entry = (p, dropped)
                by_flow.setdefault(flow, []).append(entry)
                by_dst.setdefault(dst, []).append(entry)
            suspicious: List[str] = []
            for by_group in (by_flow, by_dst):
                flow_conf = _group_confidences(by_group)
                n_groups = max(1, len(flow_conf))
                bonferroni = 1.0 - (1.0 - TH_COMBINED) / n_groups
                for group, (conf, observed, expected) in flow_conf.items():
                    excess = observed - expected
                    key = (target, group)
                    if (conf >= bonferroni
                            and excess >= FLOW_EFFECT_FLOOR
                            and excess >= FLOW_EXCESS_FRACTION * expected):
                        self._flow_streak[key] = self._flow_streak.get(key, 0) + 1
                        if self._flow_streak[key] >= FLOW_PERSISTENCE:
                            suspicious.append(group)
                    else:
                        self._flow_streak[key] = 0
            finding.suspicious_flows = suspicious
            finding.flow_alarm = bool(suspicious)
            self._apply_cumulative(target, finding, arrivals, groups)
        else:
            finding.arrivals = validator.processed_arrivals
            candidates = [v for v in verdicts if not v.congestive]
            finding.max_single_confidence = max(
                (v.confidence for v in candidates), default=0.0
            )
            finding.single_alarm = any(
                v.confidence >= TH_SINGLE for v in candidates
            )
            if len(candidates) > 1 and not finding.single_alarm:
                finding.combined_confidence = combined_loss_confidence(
                    validator.queue_limit,
                    [v.q_pred for v in candidates],
                    [v.record.size for v in candidates],
                    validator.mu, validator.sigma,
                )
                finding.combined_alarm = (
                    finding.combined_confidence >= TH_COMBINED
                )
            cum = self._candidate_cum.setdefault(target, [])
            cum.extend((v.q_pred, v.record.size) for v in candidates)
            # Only (re)raise the cumulative alarm when this round added
            # evidence; a latched alarm on drop-free rounds is noise.
            if len(cum) >= 3 and candidates:
                cum_conf = combined_loss_confidence(
                    validator.queue_limit,
                    [q for q, _ in cum], [s for _, s in cum],
                    validator.mu, validator.sigma,
                )
                finding.cumulative_alarm = cum_conf >= TH_CUMULATIVE
                if finding.cumulative_alarm:
                    finding.combined_confidence = max(
                        finding.combined_confidence, cum_conf
                    )
        return finding

    def _groups_of(self, arrivals) -> List[Tuple[str, str]]:
        """Each arrival's two group keys: its flow and its destination."""
        return [(rec.flow_id, "dst:" + rec.dst) for rec, _, _ in arrivals]

    def _apply_cumulative(self, target: Tuple[str, str],
                          finding: RoundFinding, arrivals,
                          groups: List[Tuple[str, str]]) -> None:
        """Accumulate obs/exp/var since monitoring began (RED targets);
        ``groups`` holds each arrival's :meth:`_groups_of` keys."""
        agg = self._agg_cum.setdefault(target, [0.0, 0.0, 0.0])
        for (_, p, dropped), pair in zip(arrivals, groups):
            agg[0] += 1.0 if dropped else 0.0
            agg[1] += p
            agg[2] += p * (1 - p)
            for group in pair:
                cum = self._flow_cum.setdefault((target, group),
                                                [0.0, 0.0, 0.0])
                cum[0] += 1.0 if dropped else 0.0
                cum[1] += p
                cum[2] += p * (1 - p)
        flagged: List[str] = []
        keys = [k for k in self._flow_cum if k[0] == target]
        n_flows = max(1, len(keys))
        th = 1.0 - (1.0 - TH_CUMULATIVE) / n_flows
        for key in keys:
            obs, exp, var = self._flow_cum[key]
            if var <= 0:
                continue
            conf = _phi((obs - 0.5 - exp) / math.sqrt(var))
            if conf >= th and (obs - exp) >= CUM_EFFECT_FLOOR:
                flagged.append(key[1])
        finding.cumulative_flows = flagged
        agg_alarm = False
        if agg[2] > 0:
            agg_conf = _phi((agg[0] - 0.5 - agg[1]) / math.sqrt(agg[2]))
            agg_alarm = (agg_conf >= TH_CUMULATIVE
                         and (agg[0] - agg[1]) >= CUM_EFFECT_FLOOR)
        dropped_this_round = any(dropped for _, _, dropped in arrivals)
        finding.cumulative_alarm = ((bool(flagged) or agg_alarm)
                                    and dropped_this_round)

    def _attribute_unmatched(self, target: Tuple[str, str],
                             finding: RoundFinding, validator) -> None:
        """§6.2.2: classify departures nobody claimed to have sent.

        * If the packet's routed path really does cross this queue, the
          upstream neighbour on that path under-reported its Tinfo — name
          it protocol faulty (past a threshold).
        * If the packet should never have left on this interface at all,
          the monitored router misrouted or fabricated it — evidence
          against the router itself, never against a neighbour.
        """
        router, downstream = target
        fresh = validator.unmatched_records
        validator.unmatched_records = []
        by_reporter: Dict[str, int] = {}
        misrouted = 0
        for rec in fresh:
            path = self.oracle.path(rec.src, rec.dst)
            if path is None or router not in path[:-1]:
                misrouted += 1  # not even r's transit traffic
                continue
            idx = path.index(router)
            if path[idx + 1] != downstream:
                misrouted += 1  # r's traffic, but for a different interface
                continue
            if idx == 0:
                continue  # originated at the monitored router itself
            expected = path[idx - 1]
            by_reporter[expected] = by_reporter.get(expected, 0) + 1
        finding.misreporting_neighbors = [
            nbr for nbr, count in sorted(by_reporter.items())
            if count > MISREPORT_THRESHOLD
        ]
        finding.misrouted_or_fabricated = misrouted
        finding.misroute_alarm = misrouted > MISREPORT_THRESHOLD

    def _alarm(self, target: Tuple[str, str], round_index: int,
               finding: RoundFinding) -> None:
        router, downstream = target
        interval = self.schedule.interval(round_index)
        reasons = []
        if finding.definite_alarm:
            reasons.append("definite RED-impossible drop")
        if finding.single_alarm:
            reasons.append(
                f"single-loss confidence {finding.max_single_confidence:.4f}"
            )
        if finding.combined_alarm:
            reasons.append(
                f"combined confidence {finding.combined_confidence:.4f}"
            )
        if finding.flow_alarm:
            reasons.append(f"flow-selective: {finding.suspicious_flows}")
        if finding.cumulative_alarm:
            reasons.append(
                f"cumulative excess (flows: {finding.cumulative_flows})"
            )
        if finding.misreporting_neighbors:
            reasons.append(
                f"under-reporting neighbours: {finding.misreporting_neighbors}"
            )
        if finding.misroute_alarm:
            reasons.append(
                f"{finding.misrouted_or_fabricated} misrouted/fabricated "
                f"departures"
            )
        segments = []
        if (finding.single_alarm or finding.combined_alarm
                or finding.flow_alarm or finding.definite_alarm
                or finding.cumulative_alarm or finding.misroute_alarm):
            segments.append((router, downstream))
        for neighbor in finding.misreporting_neighbors:
            segments.append((neighbor, router))
        for segment in segments:
            self.announce(Suspicion(
                segment=segment, interval=interval,
                suspected_by=downstream,
                reason="; ".join(reasons),
                confidence=max(finding.max_single_confidence,
                               finding.combined_confidence, 0.0),
            ), (downstream,))

