"""Verdict forensics: timelines, TP/FP/FN/TN classification, latency.

One real traced attack sweep exercises the full manifest-join path;
hand-written traces pin down the classification matrix and the latency
arithmetic exactly.
"""

import json
import os
import shutil
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.obs import explain_router, explain_sweep, flow_timeline
from repro.obs.forensics import (
    EVIDENCE_EVENTS,
    ground_truth_for_trace,
    ground_truth_from_record,
    load_manifest,
    trace_run_records,
)
from repro.obs.query import TraceReader, trace_files


@pytest.fixture(scope="module")
def drop_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("forensics") / "drop"
    assert main(["sweep", "attack_matrix", "--seeds", "1", "--jobs", "1",
                 "--no-cache", "--trace", "--out", str(out),
                 "--param", "placement.strategy=fixed",
                 "--param", "placement.router=Denver",
                 "--param", "adversary.behavior=drop",
                 "--param", "adversary.rate=0.5"]) == 0
    return str(out)


@pytest.fixture(scope="module")
def drop_trace(drop_sweep):
    traces = trace_files(drop_sweep)
    assert len(traces) == 1
    return traces[0]


def write_trace(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return str(path)


def ground_truth_record(router="R2", attack_at=1.0):
    return {"event": "scenario.ground_truth", "t": 0.0,
            "topology": "toy", "behavior": "drop", "rate": 0.5,
            "placement": "fixed", "seed": 0, "router": router,
            "attack_at": attack_at, "flows": {"f1": ["R1", "R2", "R3"]}}


def suspect_record(t, segment, interval, by="R1", reason="alpha"):
    return {"event": "detector.suspect", "t": t, "by": by,
            "segment": segment, "segment_id": ">".join(segment),
            "interval": interval, "reason": reason, "confidence": 1.0}


def drop_record(t, router="R2"):
    return {"event": "net.drop", "t": t, "router": router,
            "out_nbr": "R3", "flow": "f1", "src": "R1", "dst": "R3",
            "reason": "malicious"}


class TestFlowTimeline:
    def test_ordered_by_virtual_time_with_stable_ties(self, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl", [
            {"event": "net.drop", "t": 2.0, "flow": "f1", "router": "B",
             "out_nbr": "C", "src": "A", "dst": "C", "reason": "x"},
            {"event": "net.flow_hop", "t": 0.5, "flow": "f1",
             "router": "A", "out_nbr": "B", "src": "A", "dst": "C"},
            {"event": "net.flow_hop", "t": 0.5, "flow": "f1",
             "router": "B", "out_nbr": "C", "src": "A", "dst": "C"},
            {"event": "net.flow_hop", "t": 0.5, "flow": "f2",
             "router": "A", "out_nbr": "B", "src": "A", "dst": "C"},
        ])
        timeline = flow_timeline(trace, "f1")
        assert [e.t for e in timeline] == [0.5, 0.5, 2.0]
        # Emission order breaks the t=0.5 tie deterministically.
        assert [e.get("router") for e in timeline] == ["A", "B", "B"]
        assert all(e.flow == "f1" for e in timeline)

    def test_real_flow_ends_at_the_adversary(self, drop_trace):
        timeline = flow_timeline(drop_trace, "f1")
        assert timeline, "traced runs must record flow f1"
        kinds = {e.event for e in timeline}
        assert "net.flow_hop" in kinds
        times = [e.t for e in timeline if e.t is not None]
        assert times == sorted(times)


class TestGroundTruth:
    def test_trace_event_is_authoritative(self, drop_trace):
        truth = ground_truth_for_trace(drop_trace)
        assert truth["router"] == "Denver"
        assert truth["behavior"] == "drop"
        assert truth["attack_at"] == pytest.approx(1.0)

    def test_record_fallback_rederives_the_same_router(self, drop_sweep,
                                                       drop_trace,
                                                       tmp_path):
        records = trace_run_records(drop_sweep)
        record = records[os.path.basename(drop_trace)]
        assert record["experiment"] == "attack_matrix"
        derived = ground_truth_from_record(record)
        recorded = ground_truth_for_trace(drop_trace)
        assert derived["router"] == recorded["router"] == "Denver"
        assert derived["attack_at"] == recorded["attack_at"]
        # A trace stripped of its ground-truth event (the pre-event
        # format) resolves through the record instead.
        stripped = tmp_path / "stripped.jsonl"
        with open(drop_trace) as src, open(stripped, "w") as dst:
            for line in src:
                if json.loads(line)["event"] != "scenario.ground_truth":
                    dst.write(line)
        assert ground_truth_for_trace(str(stripped)) is None
        via_record = ground_truth_for_trace(str(stripped), record)
        assert via_record["router"] == "Denver"

    def test_non_attack_records_have_no_truth(self):
        assert ground_truth_from_record({"experiment": "chi"}) is None

    def test_load_manifest_accepts_dir_or_file(self, drop_sweep):
        via_dir = load_manifest(drop_sweep)
        via_file = load_manifest(os.path.join(drop_sweep, "sweep.json"))
        assert via_dir == via_file
        assert via_dir["schema"] == "repro.sweep/v4"
        assert load_manifest(os.path.join(drop_sweep, "nope")) is None


class TestClassification:
    def test_true_positive_with_latency(self, tmp_path):
        trace = write_trace(tmp_path / "tp.jsonl", [
            ground_truth_record(router="R2", attack_at=1.0),
            drop_record(1.2), drop_record(1.4), drop_record(2.5),
            suspect_record(1.0, ["R1", "R2"], [0.0, 1.0]),  # pre-attack
            suspect_record(3.0, ["R2", "R3"], [2.0, 3.0]),
            suspect_record(2.0, ["R2", "R3"], [1.0, 2.0]),
        ])
        explanation = explain_router(trace)  # defaults to the adversary
        assert explanation.router == "R2"
        assert explanation.classification == "tp"
        # First covering window ends at 2.0; attack started at 1.0.
        assert explanation.detection_latency == pytest.approx(1.0)
        assert explanation.total_suspicions == 3
        assert len(explanation.verdicts) == 3
        by_window = {v.interval: v for v in explanation.verdicts}
        # The pre-attack window [0, 1) cannot witness the attack.
        assert not by_window[(0.0, 1.0)].true_positive
        assert by_window[(1.0, 2.0)].true_positive
        assert by_window[(2.0, 3.0)].true_positive
        # Evidence joins count only drops inside each (segment, window).
        assert by_window[(1.0, 2.0)].evidence == {"net.drop": 2}
        assert by_window[(2.0, 3.0)].evidence == {"net.drop": 1}
        assert by_window[(0.0, 1.0)].evidence == {}

    def test_false_negative_when_adversary_never_named(self, tmp_path):
        trace = write_trace(tmp_path / "fn.jsonl", [
            ground_truth_record(router="R2", attack_at=1.0),
            suspect_record(2.0, ["R3", "R4"], [1.0, 2.0]),
        ])
        explanation = explain_router(trace)
        assert explanation.classification == "fn"
        assert explanation.detection_latency is None
        assert explanation.verdicts == []
        assert explanation.total_suspicions == 1

    def test_false_positive_for_a_blamed_bystander(self, tmp_path):
        trace = write_trace(tmp_path / "fp.jsonl", [
            ground_truth_record(router="R2", attack_at=1.0),
            suspect_record(2.0, ["R3", "R4"], [1.0, 2.0]),
        ])
        explanation = explain_router(trace, router="R3")
        assert explanation.classification == "fp"
        assert explanation.detection_latency is None
        assert len(explanation.verdicts) == 1
        assert not explanation.verdicts[0].true_positive

    def test_true_negative_for_an_unblamed_bystander(self, tmp_path):
        trace = write_trace(tmp_path / "tn.jsonl", [
            ground_truth_record(router="R2", attack_at=1.0),
            suspect_record(2.0, ["R2", "R3"], [1.0, 2.0]),
        ])
        explanation = explain_router(trace, router="R9")
        assert explanation.classification == "tn"
        assert explanation.verdicts == []

    def test_evidence_events_are_the_faulty_trio(self):
        assert EVIDENCE_EVENTS == ("net.drop", "net.fabricate",
                                   "net.misroute")


def reference_counts(evidence, segment, interval):
    """The loop ``explain_router`` ran once per verdict before it indexed
    the evidence (O(verdicts x evidence)), kept as the reference."""
    lo, hi = interval
    counts = {}
    for event in evidence:
        if event.t is None or not lo <= event.t < hi:
            continue
        if event.fields.get("router") not in segment:
            continue
        counts[event.event] = counts.get(event.event, 0) + 1
    return counts


def explain_checked(trace, router):
    """``explain_router`` with every verdict's evidence compared against
    the brute-force reference."""
    evidence = [event
                for event in TraceReader(trace).events(use_index=False)
                if event.event in EVIDENCE_EVENTS]
    explanation = explain_router(trace, router)
    for verdict in explanation.verdicts:
        assert verdict.evidence == reference_counts(
            evidence, verdict.segment, verdict.interval), verdict
    return explanation


ROUTERS = ("R1", "R2", "R3", "R4")
NAN = float("nan")
ABSENT = object()  # a field the record does not carry at all
#: Half-steps over [0, 4]: ties and hits exactly on a window edge are
#: the common case, not the rare one.
grid_times = st.integers(0, 8).map(lambda i: i / 2)


def mostly(strategy, *odd):
    """Three draws in four from *strategy*, else one of the *odd* values."""
    return st.one_of(strategy, strategy, strategy, st.sampled_from(odd))


def without_absent(record):
    return {k: v for k, v in record.items() if v is not ABSENT}


evidence_records = st.fixed_dictionaries({
    "event": st.sampled_from(EVIDENCE_EVENTS),
    "t": mostly(grid_times, None, NAN, ABSENT),
    # Odd ones: outside every segment, not a name at all, missing.
    "router": mostly(st.sampled_from(ROUTERS), "Rx", 7, ["R1"], ABSENT),
}).map(without_absent)

#: [lo, lo + width) with a positive width, as a detector's round is.
round_windows = st.tuples(grid_times, st.integers(1, 4)).map(
    lambda pair: [pair[0], pair[0] + pair[1] / 2])
#: Any two edges: lo >= hi and NaN edges are empty windows.
odd_windows = st.tuples(mostly(grid_times, NAN),
                        mostly(grid_times, NAN)).map(list)

suspect_records = st.fixed_dictionaries({
    "event": st.just("detector.suspect"), "t": grid_times,
    "by": st.sampled_from(ROUTERS),
    # Repeats allowed: a router named twice must not count twice.
    "segment": st.lists(st.sampled_from(ROUTERS), min_size=1, max_size=4),
    # No interval at all is the zero-width window [t, t).
    "interval": st.one_of(round_windows, round_windows, round_windows,
                          odd_windows, st.just(ABSENT)),
}).map(without_absent)


class TestEvidenceJoin:
    """The indexed, memoised join against its brute-force reference."""

    def test_real_sweep_adversary_bystander_and_stranger(self, drop_trace):
        suspects = TraceReader(drop_trace).events(use_index=False)
        bystander = next(
            name for event in suspects if event.event == "detector.suspect"
            for name in event.get("segment") if name != "Denver")
        adversary = explain_checked(drop_trace, "Denver")
        assert any(v.evidence for v in adversary.verdicts)
        assert explain_checked(drop_trace, bystander).verdicts
        assert explain_checked(drop_trace, "Nowhere").verdicts == []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(evidence=st.lists(evidence_records, min_size=8, max_size=30),
           suspicions=st.lists(suspect_records, min_size=1, max_size=8),
           in_time_order=st.booleans())
    def test_synthetic_traces(self, evidence, suspicions, in_time_order):
        if in_time_order:  # what a real run emits; else hand-written
            def timed(record):
                return record.get("t") is not None \
                    and record["t"] == record["t"]
            evidence = sorted(evidence, key=lambda r: (
                not timed(r), r["t"] if timed(r) else 0.0))
        with tempfile.TemporaryDirectory() as tmp:
            trace = write_trace(
                os.path.join(tmp, "t.jsonl"),
                [ground_truth_record()] + evidence + suspicions)
            for router in ROUTERS:
                explain_checked(trace, router)

    def test_shared_window_gives_equal_but_distinct_dicts(self, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl", [
            ground_truth_record(), drop_record(1.2),
            *[suspect_record(2.0, ["R2", "R3"], [1.0, 2.0], by=f"R{i}")
              for i in range(11)]])
        verdicts = explain_checked(trace, "R2").verdicts
        assert [v.evidence for v in verdicts] == [{"net.drop": 1}] * 11
        assert len({id(v.evidence) for v in verdicts}) == 11
        verdicts[0].evidence["net.drop"] += 1  # a caller's own copy
        assert verdicts[1].evidence == {"net.drop": 1}

    def test_join_does_not_rescan_evidence_per_verdict(self, tmp_path):
        # 5,000 distinct windows over 50,000 evidence events: 250 M loop
        # steps for the per-verdict rescan (11 s where bisection takes
        # 0.45 s).  The bound sits several times away from both; it is
        # a complexity guard, not a stopwatch race.
        records = [ground_truth_record()]
        records += [drop_record(i / 10, router=ROUTERS[i % 4])
                    for i in range(50_000)]
        records += [suspect_record(k + 1.0, ["R2", "R3"], [k, k + 1.0])
                    for k in range(5_000)]
        trace = write_trace(tmp_path / "big.jsonl", records)
        started = time.perf_counter()
        explanation = explain_router(trace, "R2")
        elapsed = time.perf_counter() - started
        assert len(explanation.verdicts) == 5_000
        assert all(v.evidence == {"net.drop": 5}
                   for v in explanation.verdicts)
        assert elapsed < 3.0, f"explain took {elapsed:.1f} s"


class TestRealSweep:
    def test_planted_adversary_is_a_tp_with_finite_latency(self,
                                                           drop_sweep):
        explanations = explain_sweep(drop_sweep)
        assert len(explanations) == 1
        explanation = explanations[0]
        assert explanation.router == "Denver"
        assert explanation.classification == "tp"
        assert explanation.detection_latency is not None
        assert explanation.detection_latency >= 0.0
        assert any(v.true_positive and v.evidence.get("net.drop", 0) > 0
                   for v in explanation.verdicts), \
            "TP verdicts must join against recorded drop evidence"

    def test_to_dict_is_json_ready_and_sorted(self, drop_sweep):
        explanation = explain_sweep(drop_sweep)[0]
        payload = explanation.to_dict()
        json.dumps(payload)
        for verdict in payload["verdicts"]:
            assert list(verdict["evidence"]) == sorted(verdict["evidence"])


class TestForensicsCli:
    def test_explain_text_reports_tp(self, drop_sweep, capsys):
        assert main(["obs", "explain", "Denver", drop_sweep]) == 0
        text = capsys.readouterr().out
        assert "router Denver -> TP" in text
        assert "ground truth: adversary=Denver behavior=drop" in text
        assert "latency" in text

    def test_explain_json(self, drop_sweep, capsys):
        assert main(["obs", "explain", "Denver", "--format", "json",
                     drop_sweep]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["classification"] == "tp"
        assert payload[0]["detection_latency"] is not None

    def test_flow_text_and_json(self, drop_sweep, capsys):
        assert main(["obs", "flow", "f1", drop_sweep]) == 0
        text = capsys.readouterr().out
        assert "flow f1" in text and "net.flow_hop" in text
        assert main(["obs", "flow", "f1", "--format", "json",
                     drop_sweep]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload and payload[0]["events"]

    def test_missing_traces_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["obs", "flow", "f1", str(empty)]) == 2
        assert main(["obs", "explain", "Denver", str(empty)]) == 2
        assert "no trace files" in capsys.readouterr().err


class TestDamagedTraces:
    """One policy for every ``obs`` reader: a torn tail is skipped with a
    warning, any other unparsable line is a one-line error and exit 2."""

    COMMANDS = (
        ["obs", "query", "--event", "net.drop", "--count"],
        ["obs", "query", "--count", "--no-index"],
        ["obs", "summarize"],
        ["obs", "explain", "Denver"],
        ["obs", "flow", "f1"],
    )

    @staticmethod
    def _damaged_copy(drop_sweep, tmp_path, damage):
        copy = tmp_path / "damaged"
        shutil.copytree(drop_sweep, copy,
                        ignore=shutil.ignore_patterns("*.idx.json"))
        trace, = trace_files(str(copy))
        with open(trace, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        with open(trace, "wb") as fh:
            fh.writelines(damage(lines))
        return str(copy), trace

    def test_torn_final_line_warns_and_keeps_the_count(self, drop_sweep,
                                                       tmp_path, capsys):
        # What a SIGKILLed worker leaves: the last record cut mid-line.
        damaged, trace = self._damaged_copy(
            drop_sweep, tmp_path,
            lambda lines: lines[:-1] + [lines[-1][:len(lines[-1]) // 2]])
        assert main(["obs", "query", "--event", "net.drop", "--count",
                     drop_sweep]) == 0
        intact_drops = capsys.readouterr().out
        for argv in self.COMMANDS:
            assert main(argv + [damaged]) == 0, argv
            captured = capsys.readouterr()
            assert captured.err == (
                f"warning: {trace}: ignored torn final line\n"), argv
            if "net.drop" in argv:
                assert captured.out == intact_drops
        # The torn line was the obs.metrics flush, so the metrics differ:
        # diff says so through its normal exit status, after the warning.
        assert main(["obs", "diff", drop_sweep, damaged]) == 1
        assert capsys.readouterr().err == (
            f"warning: {trace}: ignored torn final line\n")

    def test_unterminated_but_valid_final_line_is_not_torn(self, drop_sweep,
                                                           tmp_path, capsys):
        damaged, _ = self._damaged_copy(
            drop_sweep, tmp_path,
            lambda lines: lines[:-1] + [lines[-1].rstrip(b"\n")])
        assert main(["obs", "diff", drop_sweep, damaged]) == 0
        assert capsys.readouterr().err == ""

    def test_corrupt_middle_line_is_a_one_line_error(self, drop_sweep,
                                                     tmp_path, capsys):
        damaged, trace = self._damaged_copy(
            drop_sweep, tmp_path,
            lambda lines: lines[:9] + [lines[9][:15] + b"\n"] + lines[10:])
        for argv in self.COMMANDS:
            assert main(argv + [damaged]) == 2, argv
            captured = capsys.readouterr()
            assert captured.err == (
                f"error: {trace}:10: not valid JSON\n"), argv
        assert main(["obs", "diff", drop_sweep, damaged]) == 2
        assert "not valid JSON" in capsys.readouterr().err
