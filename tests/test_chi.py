"""Tests for Protocol χ: queue validators, confidence tests, protocol."""


from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chi import (
    DropVerdict,
    ProtocolChi,
    QueueValidator,
    REDQueueValidator,
    TrafficRecord,
    combined_loss_confidence,
    red_aggregate_confidence,
    red_flow_confidences,
    single_loss_confidence,
)
from repro.core.summaries import PathOracle
from repro.dist.sync import RoundSchedule
from repro.eval.experiments import TESTBED_ROWS, run_testbed
from repro.net.adversary import DropFlowAttack
from repro.net.queues import REDParams, red_packet_drop_probability
from repro.net.router import Network
from repro.net.routing import install_static_routes
from repro.net.tcp import TCPFlow
from repro.net.topology import MBPS, Topology


def rec(fp, size=1000, time=0.0, flow="f", dst="d"):
    return TrafficRecord(fp=fp, size=size, time=time, flow_id=flow, dst=dst)


class TestConfidenceFunctions:
    def test_single_confidence_high_when_queue_empty(self):
        c = single_loss_confidence(q_limit=30_000, q_pred=0,
                                   packet_size=1000, mu=0, sigma=1000)
        assert c > 0.999

    def test_single_confidence_low_when_queue_full(self):
        c = single_loss_confidence(q_limit=30_000, q_pred=29_500,
                                   packet_size=1000, mu=0, sigma=1000)
        assert c < 0.5

    def test_single_confidence_monotone_in_margin(self):
        confidences = [
            single_loss_confidence(30_000, q, 1000, 0, 1000)
            for q in range(0, 30_000, 3_000)
        ]
        assert confidences == sorted(confidences, reverse=True)

    def test_mu_shifts_the_curve(self):
        base = single_loss_confidence(30_000, 25_000, 1000, 0, 1000)
        biased = single_loss_confidence(30_000, 25_000, 1000, -2000, 1000)
        assert biased > base

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            single_loss_confidence(1, 0, 1, 0, 0)

    def test_combined_sharpens_with_n(self):
        # individually ambiguous drops, jointly damning
        single = combined_loss_confidence(30_000, [27_000], [1000], 0, 2000)
        many = combined_loss_confidence(30_000, [27_000] * 16, [1000] * 16,
                                        0, 2000)
        assert many > single

    def test_combined_empty(self):
        assert combined_loss_confidence(1000, [], [], 0, 1) == 0.0


class TestQueueValidator:
    def test_exact_simulation_no_losses(self):
        v = QueueValidator(queue_limit=10_000, bandwidth=1 * MBPS)
        ins = [rec(i, time=i * 0.001) for i in range(5)]
        outs = [rec(i, time=0.05 + i * 0.008) for i in range(5)]
        v.feed(ins, outs)
        verdicts = v.advance(10.0)
        assert verdicts == []
        assert v.q_pred == 0.0

    def test_q_pred_tracks_occupancy(self):
        v = QueueValidator(queue_limit=10_000, bandwidth=1 * MBPS)
        ins = [rec(1, time=0.0), rec(2, time=0.001)]
        outs = [rec(1, time=5.0), rec(2, time=5.008)]
        v.feed(ins, outs)
        v.advance(1.0)  # both arrivals processed, departures still pending
        assert v.q_pred == 2000.0
        v.advance(20.0)
        assert v.q_pred == 0.0

    def test_missing_packet_with_room_is_candidate(self):
        v = QueueValidator(queue_limit=10_000, bandwidth=1 * MBPS,
                           mu=0.0, sigma=100.0)
        ins = [rec(1, time=0.0), rec(2, time=0.001)]
        outs = [rec(1, time=0.05)]
        v.feed(ins, outs)
        verdicts = v.advance(10.0)
        assert len(verdicts) == 1
        assert not verdicts[0].congestive
        assert verdicts[0].confidence > 0.999

    def test_missing_packet_when_full_is_congestive(self):
        v = QueueValidator(queue_limit=3_000, bandwidth=1 * MBPS)
        ins = [rec(i, time=i * 1e-4) for i in range(4)]
        outs = [rec(i, time=1.0 + 0.008 * i) for i in range(3)]
        v.feed(ins, outs)
        verdicts = v.advance(10.0)
        assert len(verdicts) == 1
        assert verdicts[0].congestive

    def test_unmatched_departure_counted(self):
        v = QueueValidator(queue_limit=10_000, bandwidth=1 * MBPS)
        v.feed([], [rec(99, time=0.5)])
        v.advance(10.0)
        assert v.unmatched_out == 1
        assert v.q_pred == 0.0  # never negative

    def test_pending_events_held_back(self):
        v = QueueValidator(queue_limit=10_000, bandwidth=1 * MBPS)
        ins = [rec(1, time=5.0)]
        v.feed(ins, [])
        assert v.advance(5.01) == []  # inside the max-wait window
        verdicts = v.advance(5.0 + v.max_wait + 0.01)
        assert len(verdicts) == 1

    def test_calibration_fits_truth(self):
        v = QueueValidator(queue_limit=10_000, bandwidth=1 * MBPS)
        ins = [rec(i, time=0.01 * i) for i in range(10)]
        outs = [rec(i, time=0.01 * i + 0.5) for i in range(10)]
        v.feed(ins, outs)
        v.advance(10.0)
        # Truth says occupancy was always 500 bytes above the prediction.
        samples = [(0.01 * i + 0.001, int(v.q_pred_at(0.01 * i + 0.001)) + 500)
                   for i in range(10)]
        mu, sigma = v.calibrate(samples, min_sigma=1.0)
        assert mu == pytest.approx(500.0)

    def test_q_pred_at_interpolates_steps(self):
        v = QueueValidator(queue_limit=10_000, bandwidth=1 * MBPS)
        v.feed([rec(1, time=1.0)], [rec(1, time=2.0)])
        v.advance(10.0)
        assert v.q_pred_at(0.5) == 0.0
        assert v.q_pred_at(1.5) == 1000.0
        assert v.q_pred_at(2.5) == 0.0


class TestREDValidator:
    def params(self):
        return REDParams(min_th=2_000, max_th=6_000, max_p=0.5,
                         weight=0.5, byte_mode=False)

    def test_drop_below_min_th_has_probability_zero(self):
        v = REDQueueValidator(10_000, 1 * MBPS, self.params())
        # single arrival, never transmitted, average starts at 0
        v.feed([rec(1, time=0.0)], [])
        verdicts = v.advance(10.0)
        assert len(verdicts) == 1
        assert verdicts[0].red_drop_prob == 0.0
        assert verdicts[0].confidence == 1.0  # definite malice

    def test_params_are_validated_at_construction(self):
        bad = REDParams(min_th=6_000, max_th=2_000)
        with pytest.raises(ValueError, match="min_th < max_th"):
            REDQueueValidator(10_000, 1 * MBPS, bad)

    def test_forced_drop_when_over_limit(self):
        v = REDQueueValidator(2_500, 1 * MBPS, self.params())
        ins = [rec(i, time=i * 1e-5) for i in range(4)]
        outs = [rec(i, time=1.0 + 0.008 * i) for i in range(2)]
        v.feed(ins, outs)
        verdicts = v.advance(10.0)
        forced = [v_ for v_ in verdicts if v_.congestive]
        assert forced

    def test_aggregate_confidence_balanced_when_consistent(self):
        probs = [(rec(i), 0.5, i % 2 == 0) for i in range(100)]
        conf = red_aggregate_confidence(probs)
        assert 0.1 < conf < 0.9

    def test_aggregate_confidence_high_when_excess_drops(self):
        probs = [(rec(i), 0.1, True) for i in range(50)]
        assert red_aggregate_confidence(probs) > 0.999

    def test_flow_confidences_continuity_correction(self):
        probs = [(rec(i, flow="a"), 0.2, False) for i in range(30)]
        conf = red_flow_confidences(probs)
        assert conf["a"][0] < 0.5  # no drops at all: below expectation

    def test_flow_confidences_min_arrivals(self):
        probs = [(rec(i, flow="tiny"), 0.2, True) for i in range(5)]
        assert red_flow_confidences(probs, min_arrivals=20) == {}

    def test_flow_grouping_by_key(self):
        probs = ([(rec(i, flow="a", dst="v"), 0.1, True) for i in range(30)]
                 + [(rec(i + 100, flow="b", dst="w"), 0.1, False)
                    for i in range(30)])
        by_dst = red_flow_confidences(probs, key=lambda r: r.dst)
        assert by_dst["v"][0] > by_dst["w"][0]


def build_chi_network(tau=2.0):
    topo = Topology("chi-test")
    for s in ("s1", "s2", "s3"):
        topo.add_link(s, "r", bandwidth=80 * MBPS, delay=0.002)
    topo.add_link("r", "rd", bandwidth=1 * MBPS, delay=0.005,
                  queue_limit=60_000)
    topo.add_link("rd", "sink", bandwidth=80 * MBPS, delay=0.002)
    net = Network(topo, proc_jitter=0.0004)
    paths = install_static_routes(net)
    chi = ProtocolChi(net, PathOracle(paths), RoundSchedule(tau=tau),
                      targets=[("r", "rd")])
    return net, chi


class TestProtocolChiEndToEnd:
    def test_silent_under_pure_congestion(self):
        net, chi = build_chi_network()
        flows = [TCPFlow(net, s, "sink", f"tcp{i}", start=0.1 * i)
                 for i, s in enumerate(("s1", "s2", "s3"))]
        net.run(16.0)
        chi.calibrate(("r", "rd"))
        chi.schedule_rounds(8, 24)
        net.run(52.0)
        assert all(not f.alarmed for f in chi.findings)
        assert sum(f.congestive_drops for f in chi.findings) > 0

    def test_detects_selective_dropper_and_floods_suspicion(self):
        net, chi = build_chi_network()
        flows = [TCPFlow(net, s, "sink", f"tcp{i}", start=0.1 * i)
                 for i, s in enumerate(("s1", "s2", "s3"))]
        net.run(16.0)
        chi.calibrate(("r", "rd"))
        chi.schedule_rounds(8, 24)
        net.run(20.0)
        net.routers["r"].compromise = DropFlowAttack(["tcp1"], fraction=0.3,
                                                     seed=3)
        net.run(52.0)
        assert any(f.alarmed for f in chi.findings)
        # The suspicion names the monitored link with precision 2 and was
        # flooded to every correct router.
        for name in ("s1", "rd", "sink"):
            segments = chi.states[name].suspected_segments()
            assert ("r", "rd") in segments

    def test_misreporting_neighbour_named_protocol_faulty(self):
        """§6.2.2: an upstream hiding its Tinfo leaves departures nobody
        claimed; the oracle attributes them and the neighbour's link is
        suspected."""
        net, chi = build_chi_network()
        chi.reporters["s1"] = lambda recs: []  # claims it sent nothing
        flows = [TCPFlow(net, s, "sink", f"tcp{i}", start=0.1 * i)
                 for i, s in enumerate(("s1", "s2", "s3"))]
        chi.schedule_rounds(1, 10)
        net.run(24.0)
        validator = chi.validators[("r", "rd")]
        assert validator.unmatched_out > 0
        flagged = [f for f in chi.findings if f.misreporting_neighbors]
        assert flagged
        assert all(f.misreporting_neighbors == ["s1"] for f in flagged)
        # The suspicion names the (s1, r) link, precision 2, flooded.
        assert ("s1", "r") in chi.states["sink"].suspected_segments()

    def test_honest_neighbours_not_flagged(self):
        net, chi = build_chi_network()
        flows = [TCPFlow(net, s, "sink", f"tcp{i}", start=0.1 * i)
                 for i, s in enumerate(("s1", "s2", "s3"))]
        chi.schedule_rounds(1, 10)
        net.run(24.0)
        assert all(not f.misreporting_neighbors for f in chi.findings)


class TestMisrouteDetection:
    """§2.2.1: misrouting = loss at the right queue + fabrication at the
    wrong one.  χ monitoring both queues sees both signatures and never
    frames the honest upstream neighbour."""

    def build(self):
        from repro.net.adversary import MisrouteAttack
        topo = Topology("misroute")
        topo.add_link("s1", "r", bandwidth=80 * MBPS, delay=0.002)
        topo.add_link("r", "rd1", bandwidth=5 * MBPS, delay=0.005)
        topo.add_link("r", "rd2", bandwidth=5 * MBPS, delay=0.005)
        topo.add_link("rd1", "sink1", bandwidth=80 * MBPS, delay=0.002)
        topo.add_link("rd2", "sink2", bandwidth=80 * MBPS, delay=0.002)
        net = Network(topo)
        paths = install_static_routes(net)
        chi = ProtocolChi(net, PathOracle(paths), RoundSchedule(tau=1.0),
                          targets=[("r", "rd1"), ("r", "rd2")])
        return net, chi

    def test_misroute_flags_both_queues_not_the_neighbor(self):
        from repro.net.adversary import MisrouteAttack
        from repro.net.traffic import CBRSource
        net, chi = self.build()
        chi.schedule_rounds(0, 5)
        CBRSource(net, "s1", "sink1", "f", rate_bps=400_000, duration=5.0)
        net.routers["r"].compromise = MisrouteAttack(wrong_nbr="rd2",
                                                     flows=["f"],
                                                     fraction=0.5, seed=1)
        net.run(8.0)
        findings1 = [f for f in chi.findings if f.target == ("r", "rd1")]
        findings2 = [f for f in chi.findings if f.target == ("r", "rd2")]
        # Loss signature at the correct queue...
        assert any(f.candidate_drops > 0 for f in findings1)
        assert any(f.alarmed for f in findings1)
        # ...fabrication/misroute signature at the wrong queue...
        assert any(f.misroute_alarm for f in findings2)
        # ...and no honest neighbour is named protocol faulty.
        assert all(not f.misreporting_neighbors
                   for f in findings1 + findings2)
        # Both suspicions name the misbehaving router's links.
        suspected = chi.states["sink1"].suspected_segments()
        assert ("r", "rd1") in suspected
        assert ("r", "rd2") in suspected

    def test_clean_dual_queue_silent(self):
        from repro.net.traffic import CBRSource
        net, chi = self.build()
        chi.schedule_rounds(0, 5)
        CBRSource(net, "s1", "sink1", "f", rate_bps=400_000, duration=5.0)
        CBRSource(net, "s1", "sink2", "g", rate_bps=400_000, duration=5.0)
        net.run(8.0)
        assert all(not f.alarmed for f in chi.findings)


class TestPerTargetDiscipline:
    """§6.2: each queue is validated against its own discipline, so one
    χ watches a droptail and a RED interface at the same time."""

    RED = REDParams(min_th=20_000, max_th=60_000, max_p=0.1, weight=0.01)

    def build(self):
        from repro.net.queues import DropTailQueue, REDQueue
        topo = Topology("mixed")
        topo.add_link("s1", "r", bandwidth=80 * MBPS, delay=0.002)
        topo.add_link("r", "rd1", bandwidth=5 * MBPS, delay=0.005)
        topo.add_link("r", "rd2", bandwidth=5 * MBPS, delay=0.005)
        topo.add_link("rd1", "sink1", bandwidth=80 * MBPS, delay=0.002)
        topo.add_link("rd2", "sink2", bandwidth=80 * MBPS, delay=0.002)

        def queues(link):
            if (link.src, link.dst) == ("r", "rd2"):
                return REDQueue(link.queue_limit, params=self.RED)
            return DropTailQueue(link.queue_limit)

        net = Network(topo, queue_factory=queues)
        chi = ProtocolChi(net, PathOracle(install_static_routes(net)),
                          RoundSchedule(tau=1.0),
                          targets=[("r", "rd1"), ("r", "rd2")])
        return net, chi

    def test_each_target_gets_its_queues_validator(self):
        net, chi = self.build()
        assert type(chi.validators[("r", "rd1")]) is QueueValidator
        red = chi.validators[("r", "rd2")]
        assert type(red) is REDQueueValidator
        assert red.params is self.RED
        assert red.params is net.routers["r"].interfaces["rd2"].queue.params

    def test_taps_are_called_only_at_their_queues(self):
        net, chi = self.build()
        r = net.routers["r"]
        droptail, red = chi.taps[("r", "rd1")], chi.taps[("r", "rd2")]
        in_link = net.routers["s1"].interfaces["r"]
        assert in_link.transmit_taps == [droptail._record_in,
                                         red._record_in]
        assert net.routers["rd1"].receive_taps["r"] == [droptail._record_out]
        assert net.routers["rd2"].receive_taps["r"] == [red._record_out]
        # Truth is sampled at the droptail queue until calibration, and
        # never at the RED one.
        assert r.interfaces["rd1"].enqueue_taps == [droptail._sample]
        assert r.interfaces["rd2"].enqueue_taps == []
        assert net.on_transmit == net.on_receive == net.on_enqueue == []
        chi.calibrate(("r", "rd1"))
        assert r.interfaces["rd1"].enqueue_taps == []
        assert droptail.truth_occupancy == []

    def test_mixed_targets_run_side_by_side(self):
        from repro.net.traffic import CBRSource
        net, chi = self.build()
        CBRSource(net, "s1", "sink1", "f", rate_bps=400_000, duration=6.0)
        CBRSource(net, "s1", "sink2", "g", rate_bps=400_000, duration=6.0)
        net.run(3.0)
        chi.calibrate(("r", "rd1"))
        with pytest.raises(TypeError):
            chi.calibrate(("r", "rd2"))
        chi.schedule_rounds(3, 6)
        net.run(9.0)
        by_target = {}
        for finding in chi.findings:
            by_target.setdefault(finding.target, []).append(finding)
        assert sorted(by_target) == [("r", "rd1"), ("r", "rd2")]
        assert all(f.arrivals > 0 for f in chi.findings[:2])
        assert all(not f.alarmed for f in chi.findings)


# -- bounded state -------------------------------------------------------------

def live_state(chi) -> int:
    """Entries χ holds for its taps and validators (findings excluded)."""
    size = 0
    for target, tap in chi.taps.items():
        v = chi.validators[target]
        size += (len(tap.records_in) + len(tap.records_out)
                 + len(tap.truth_occupancy)
                 + len(v._pending_in) + len(v._pending_out)
                 + len(v._out_credits) + len(v._added)
                 + len(v.unmatched_records)
                 + len(getattr(v, "timeline", ()))
                 + len(getattr(v, "arrival_probs", ())))
    return size


class TestBoundedState:
    """χ's live state follows the packets in flight, not the run length."""

    @pytest.mark.parametrize("name", ["chi", "adversary_heavy"])
    def test_state_is_bounded_by_packets_in_flight(self, name, monkeypatch):
        row = next(r for r in TESTBED_ROWS if r.name == name)
        sizes: List[int] = []
        in_flight: List[int] = []
        calibrated: List[Tuple[str, str]] = []
        evaluate_round, calibrate = (ProtocolChi.evaluate_round,
                                     ProtocolChi.calibrate)

        def check_calibrated(chi):
            for target in calibrated:
                assert chi.taps[target].truth_occupancy == []
                assert chi.validators[target].timeline == []

        def calibrate_and_check(chi, target, *args, **kwargs):
            fitted = calibrate(chi, target, *args, **kwargs)
            calibrated.append(target)
            check_calibrated(chi)
            return fitted

        def evaluate_and_check(chi, round_index):
            findings = evaluate_round(chi, round_index)
            for target, tap in chi.taps.items():
                v = chi.validators[target]
                # Everything the tap recorded has been handed over.
                assert tap.records_in == [] and tap.records_out == []
                if isinstance(v, REDQueueValidator):
                    assert tap.truth_occupancy == []
                # One credit unit per departure fed and not yet redeemed,
                # and no entry sits at zero: so neither dict is larger
                # than the pending departures plus the unmatched ones.
                counts = list(v._out_credits.values()) + list(v._added.values())
                assert all(c > 0 for c in counts)
                assert sum(counts) == len(v._pending_out) + v.unmatched_out
                in_flight.append(len(v._pending_in) + len(v._pending_out))
            check_calibrated(chi)
            sizes.append(live_state(chi))
            return findings

        monkeypatch.setattr(ProtocolChi, "calibrate", calibrate_and_check)
        monkeypatch.setattr(ProtocolChi, "evaluate_round", evaluate_and_check)
        result = run_testbed(row.label, row.spec)

        assert result.detected and len(sizes) > 30
        assert calibrated == ([] if name == "adversary_heavy" else [("r", "rd")])
        slack = 2 * max(in_flight)
        for n in range(1, len(sizes) // 2 + 1):
            assert sizes[2 * n - 1] <= sizes[n - 1] + slack, (n, sizes)


# -- the validators against the count-keeping reference ------------------------

class ReferenceQueueValidator(QueueValidator):
    """``advance`` as it was before counts were deleted at zero."""

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
        events.sort(key=lambda e: (e[0], e[1]))

        verdicts: List[DropVerdict] = []
        for when, kind, rec in events:
            if kind == 1:  # departure
                if self._added.get(rec.fp, 0) > 0:
                    self._added[rec.fp] -= 1
                    self.q_pred = max(0.0, self.q_pred - rec.size)
                else:
                    self.unmatched_out += 1
                    self.unmatched_records.append(rec)
                self.timeline.append((when, self.q_pred))
                self._timeline_times.append(when)
            else:  # arrival (kind == 0)
                self.processed_arrivals += 1
                if self._out_credits.get(rec.fp, 0) > 0:
                    self._out_credits[rec.fp] -= 1
                    self.q_pred += rec.size
                    self._added[rec.fp] = self._added.get(rec.fp, 0) + 1
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


class ReferenceREDQueueValidator(REDQueueValidator):
    """``advance`` as it was before counts were deleted at zero."""

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
        events.sort(key=lambda e: (e[0], e[1]))

        verdicts: List[DropVerdict] = []
        for when, kind, rec in events:
            if kind == 1:
                if self._added.get(rec.fp, 0) > 0:
                    self._added[rec.fp] -= 1
                    self.occupancy = max(0.0, self.occupancy - rec.size)
                else:
                    self.unmatched_out += 1
                    self.unmatched_records.append(rec)
                if self.occupancy == 0:
                    self._idle_since = when
                continue
            self._update_average(when)
            prob = red_packet_drop_probability(self.avg, self.params,
                                               self.count, rec.size)
            transmitted = self._out_credits.get(rec.fp, 0) > 0
            if transmitted:
                self._out_credits[rec.fp] -= 1
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


@st.composite
def chunked_record_streams(draw):
    """One queue's Tinfo cut into round-sized chunks.

    Few fingerprints, so packets repeat (diverted and returned); some
    arrivals never depart, some departures were never claimed; times sit
    on a 10 ms grid, so arrivals and departures tie.  Returns
    ``[(records_in, records_out, watermark), ...]``; the last watermark
    flushes every pending record.
    """
    ins: List[TrafficRecord] = []
    outs: List[TrafficRecord] = []
    for _ in range(draw(st.integers(0, 40))):
        fp = draw(st.integers(0, 5))
        size = draw(st.sampled_from((40, 576, 1000, 1500)))
        flow = draw(st.sampled_from(("a", "b")))
        enter = draw(st.integers(0, 60))
        shape = draw(st.sampled_from(("forwarded", "forwarded", "lost",
                                      "unclaimed")))
        if shape != "unclaimed":
            ins.append(TrafficRecord(fp=fp, size=size, time=enter / 100,
                                     flow_id=flow, dst="d" + flow))
        if shape != "lost":
            leave = enter + draw(st.integers(0, 8))
            outs.append(TrafficRecord(fp=fp, size=size, time=leave / 100,
                                      flow_id=flow, dst="d" + flow))
    ins.sort(key=lambda r: r.time)
    outs.sort(key=lambda r: r.time)
    n_rounds = draw(st.integers(1, 6))

    def cuts(records):
        inner = sorted(draw(st.lists(st.integers(0, len(records)),
                                     min_size=n_rounds - 1,
                                     max_size=n_rounds - 1)))
        edges = [0] + inner + [len(records)]
        return [records[a:b] for a, b in zip(edges, edges[1:])]

    marks = sorted(draw(st.lists(st.integers(0, 100), min_size=n_rounds - 1,
                                 max_size=n_rounds - 1)))
    watermarks = [m / 100 for m in marks] + [10.0]
    return list(zip(cuts(ins), cuts(outs), watermarks))


def positive_counts(counts):
    return {fp: n for fp, n in counts.items() if n > 0}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(chunked_record_streams())
def test_validators_match_count_keeping_reference(rounds):
    red = REDParams(min_th=1_000, max_th=4_000, max_p=0.5, weight=0.5,
                    byte_mode=False)
    pairs = [
        (QueueValidator(4_000, 1 * MBPS, mu=0.0, sigma=500.0),
         ReferenceQueueValidator(4_000, 1 * MBPS, mu=0.0, sigma=500.0)),
        (REDQueueValidator(4_000, 1 * MBPS, red),
         ReferenceREDQueueValidator(4_000, 1 * MBPS, red)),
    ]
    for new, ref in pairs:
        for records_in, records_out, watermark in rounds:
            for v in (new, ref):
                v.feed(records_in, records_out)
            assert new.advance(watermark) == ref.advance(watermark)
            assert new.unmatched_out == ref.unmatched_out
            assert new.unmatched_records == ref.unmatched_records
            assert new._out_credits == positive_counts(ref._out_credits)
            assert new._added == positive_counts(ref._added)
            if isinstance(new, REDQueueValidator):
                assert ((new.occupancy, new.avg, new.count, new._idle_since)
                        == (ref.occupancy, ref.avg, ref.count,
                            ref._idle_since))
                assert new.drain_arrival_probs() == ref.drain_arrival_probs()
            else:
                assert new.q_pred == ref.q_pred
                assert new.processed_arrivals == ref.processed_arrivals
                assert new.timeline == ref.timeline
        assert not new._pending_in and not new._pending_out
