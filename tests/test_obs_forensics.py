"""Verdict forensics: timelines, TP/FP/FN/TN classification, latency.

One real traced attack sweep exercises the full manifest-join path;
hand-written traces pin down the classification matrix and the latency
arithmetic exactly.
"""

import json
import os
import shutil

import pytest

from repro.__main__ import main
from repro.obs import explain_router, explain_sweep, flow_timeline
from repro.obs.forensics import (
    EVIDENCE_EVENTS,
    ground_truth_for_trace,
    ground_truth_from_record,
    load_manifest,
    trace_run_records,
)
from repro.obs.query import trace_files


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
