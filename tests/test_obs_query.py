"""The trace query engine: typed events, filters, index sidecars.

Fixture sweeps run the real ``attack_matrix`` experiment with each
traffic-faulty behavior traced, so the schema test exercises every
event kind the instrumentation can emit; unit tests for the filter and
index layers use small synthetic traces.
"""

import hashlib
import json
import os
import sys

import pytest

from repro.__main__ import main
from repro.obs import (QueryFilter, TraceEvent, TraceReader, explain_router,
                       trace_files)
from repro.obs.query import (
    INDEX_VERSION,
    build_index,
    index_path,
    scan,
)

query_module = sys.modules[build_index.__module__]

BEHAVIORS = ("drop", "misroute", "fabricate")


@pytest.fixture(scope="module")
def attack_sweeps(tmp_path_factory):
    """Behavior -> traced single-cell attack_matrix sweep directory."""
    root = tmp_path_factory.mktemp("attack-sweeps")
    sweeps = {}
    for behavior in BEHAVIORS:
        out = root / behavior
        assert main(["sweep", "attack_matrix", "--seeds", "1",
                     "--jobs", "1", "--no-cache", "--trace",
                     "--out", str(out),
                     "--param", "placement.strategy=fixed",
                     "--param", "placement.router=Denver",
                     "--param", f"adversary.behavior={behavior}",
                     "--param", "adversary.rate=0.5"]) == 0
        sweeps[behavior] = str(out)
    return sweeps


@pytest.fixture(scope="module")
def drop_trace(attack_sweeps):
    traces = trace_files(attack_sweeps["drop"])
    assert len(traces) == 1
    return traces[0]


def write_trace(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return str(path)


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.blake2b(fh.read(), digest_size=16).hexdigest()


def read_sidecar(trace):
    with open(index_path(trace)) as fh:
        return json.load(fh)


@pytest.fixture
def parse_calls(monkeypatch):
    """Raw lines handed to ``_parse_line`` while the test runs."""
    calls = []
    parse = query_module._parse_line

    def counting(raw):
        calls.append(raw)
        return parse(raw)

    monkeypatch.setattr(query_module, "_parse_line", counting)
    return calls


SYNTHETIC = [
    {"event": "net.flow_hop", "t": 0.5, "flow": "f1", "router": "A",
     "out_nbr": "B", "src": "A", "dst": "C"},
    {"event": "net.drop", "t": 1.0, "flow": "f1", "router": "B",
     "out_nbr": "C", "src": "A", "dst": "C", "reason": "malicious"},
    {"event": "detector.suspect", "t": 2.0, "by": "A",
     "segment": ["B", "C"], "segment_id": "B>C",
     "interval": [1.0, 2.0], "reason": "alpha", "confidence": 1.0},
    {"event": "obs.metrics", "t": None, "metrics": {}, "events": 3},
]


class TestTraceEvent:
    def test_parse_round_trip(self, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl", SYNTHETIC)
        events = list(TraceReader(trace).events())
        assert [e.to_dict() for e in events] == SYNTHETIC
        assert events[0].flow == "f1"
        assert events[0].get("out_nbr") == "B"

    def test_routers_collects_all_naming_fields(self):
        event = TraceEvent(event="detector.suspect", t=2.0,
                           fields={"by": "A", "segment": ["B", "C"]})
        assert event.routers == ("A", "B", "C")
        hop = TraceEvent(event="net.flow_hop", t=0.5,
                         fields={"router": "A", "out_nbr": "B"})
        assert hop.routers == ("A", "B")

    def test_untimestamped_event_keeps_none(self, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl", SYNTHETIC)
        final = list(TraceReader(trace).events())[-1]
        assert final.event == "obs.metrics" and final.t is None


class TestQueryFilter:
    def _events(self):
        return [TraceEvent(event=r["event"],
                           t=r["t"],
                           fields={k: v for k, v in r.items()
                                   if k not in ("event", "t")})
                for r in SYNTHETIC]

    def test_event_kind(self):
        query = QueryFilter(events=("net.drop",))
        assert [e.event for e in self._events() if query.matches(e)] \
            == ["net.drop"]

    def test_time_window_half_open(self):
        query = QueryFilter(t0=0.5, t1=1.0)
        matched = [e for e in self._events() if query.matches(e)]
        assert [e.t for e in matched] == [0.5]  # t1 exclusive

    def test_time_window_never_matches_untimestamped(self):
        query = QueryFilter(t0=0.0)
        assert not query.matches(
            TraceEvent(event="obs.metrics", t=None, fields={}))
        assert QueryFilter().matches(
            TraceEvent(event="obs.metrics", t=None, fields={}))

    def test_router_matches_segment_members(self):
        query = QueryFilter(router="C")
        matched = [e.event for e in self._events() if query.matches(e)]
        assert matched == ["net.drop", "detector.suspect"]

    def test_conjunction(self):
        query = QueryFilter(events=("net.drop", "net.flow_hop"),
                            flow="f1", router="B", t0=1.0, t1=10.0)
        matched = [e.event for e in self._events() if query.matches(e)]
        assert matched == ["net.drop"]  # hop at t=0.5 cut by the window


class TestIndex:
    def test_sidecar_built_on_first_indexed_query(self, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl", SYNTHETIC)
        sidecar = index_path(trace)
        assert sidecar == str(tmp_path / "t.idx.json")
        assert not os.path.exists(sidecar)
        reader = TraceReader(trace)
        drops = list(reader.events(QueryFilter(events=("net.drop",))))
        assert len(drops) == 1
        assert os.path.isfile(sidecar)
        with open(sidecar) as fh:
            index = json.load(fh)
        assert index["version"] == INDEX_VERSION == 2
        assert index["trace_bytes"] == os.path.getsize(trace)
        assert index["trace_digest"] == file_digest(trace)
        assert sorted(index["events"]) == sorted(
            {r["event"] for r in SYNTHETIC})
        assert index["flows"] == {"f1": [0, index["events"]["net.drop"][0]]}

    def test_fresh_sidecar_reused(self, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl", SYNTHETIC)
        reader = TraceReader(trace)
        list(reader.events(QueryFilter(events=("net.drop",))))
        sidecar = index_path(trace)
        # Poison the sidecar's pools while keeping it "fresh"; a reader
        # that trusts it will see no candidates.  That proves reuse.
        with open(sidecar) as fh:
            index = json.load(fh)
        index["events"] = {}
        index["flows"] = {}
        index["routers"] = {}
        with open(sidecar, "w") as fh:
            json.dump(index, fh)
        assert list(TraceReader(trace).events(
            QueryFilter(events=("net.drop",)))) == []

    def test_stale_sidecar_rebuilt_on_size_change(self, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl", SYNTHETIC[:2])
        list(TraceReader(trace).events(QueryFilter(flow="f1")))
        write_trace(tmp_path / "t.jsonl", SYNTHETIC)  # grows the file
        reader = TraceReader(trace)
        matched = list(reader.events(QueryFilter(events=("net.drop",))))
        assert len(matched) == 1
        with open(index_path(trace)) as fh:
            assert json.load(fh)["trace_bytes"] == os.path.getsize(trace)

    def test_same_length_rewrite_is_not_served_stale(self, tmp_path):
        hop, drop = SYNTHETIC[:2]
        swapped = [dict(hop, event="net.drop"),
                   dict(drop, event="net.flow_hop")]
        trace = write_trace(tmp_path / "t.jsonl", [hop, drop])
        query = QueryFilter(events=("net.drop",))
        assert [e.t for e in TraceReader(trace).events(query)] == [1.0]
        size = os.path.getsize(trace)
        write_trace(tmp_path / "t.jsonl", swapped)
        assert os.path.getsize(trace) == size  # only the digest can tell
        assert [e.t for e in TraceReader(trace).events(query)] == [0.5]
        assert read_sidecar(trace)["trace_digest"] == file_digest(trace)

    def test_v1_sidecar_is_ignored_and_replaced(self, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl", SYNTHETIC)
        with open(index_path(trace), "w") as fh:
            json.dump({"version": 1,
                       "trace_bytes": os.path.getsize(trace),
                       "events": {}, "flows": {}, "routers": {}}, fh)
        drops = list(TraceReader(trace).events(
            QueryFilter(events=("net.drop",))))
        assert len(drops) == 1
        assert read_sidecar(trace) == build_index(trace)

    @pytest.mark.parametrize("content", ["[1, 2]", "{", ""])
    def test_sidecar_that_is_not_an_index_is_rebuilt(self, tmp_path,
                                                     content):
        trace = write_trace(tmp_path / "t.jsonl", SYNTHETIC)
        with open(index_path(trace), "w") as fh:
            fh.write(content)
        assert TraceReader(trace).event_counts()["net.drop"] == 1
        assert read_sidecar(trace) == build_index(trace)

    def test_unwritable_sidecar_degrades_to_in_memory(self, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl", SYNTHETIC)
        # A directory squatting the sidecar path makes the write raise
        # OSError regardless of privileges (chmod is no barrier to root).
        os.mkdir(index_path(trace))
        reader = TraceReader(trace)
        drops = list(reader.events(QueryFilter(events=("net.drop",))))
        assert len(drops) == 1
        assert os.path.isdir(index_path(trace))  # still not a file
        # ... and the failed atomic write removed its temp file.
        assert sorted(os.listdir(tmp_path)) == ["t.idx.json", "t.jsonl"]

    def test_sidecar_write_leaves_no_temp_file(self, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl", SYNTHETIC)
        TraceReader(trace).index()
        assert sorted(os.listdir(tmp_path)) == ["t.idx.json", "t.jsonl"]

    def test_reader_summaries_come_from_index(self, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl", SYNTHETIC)
        reader = TraceReader(trace)
        assert reader.flows() == ["f1"]
        assert reader.routers() == ["A", "B", "C"]
        assert reader.event_counts() == {
            "detector.suspect": 1, "net.drop": 1, "net.flow_hop": 1,
            "obs.metrics": 1}


class TestIndexedVsScan:
    @pytest.mark.parametrize("query", [
        QueryFilter(events=("net.drop",)),
        QueryFilter(events=("net.drop", "detector.suspect")),
        QueryFilter(flow="f1"),
        QueryFilter(router="Denver"),
        QueryFilter(router="Denver", events=("net.drop",),
                    t0=1.0, t1=2.0),
        QueryFilter(),
    ])
    def test_same_events_same_order(self, drop_trace, query):
        if os.path.exists(index_path(drop_trace)):
            os.remove(index_path(drop_trace))
        # Cold: the pass that builds the index answers the query.
        cold = list(TraceReader(drop_trace).events(query))
        assert os.path.isfile(index_path(drop_trace))
        # Warm: a new reader seeks through the sidecar just written.
        warm = list(TraceReader(drop_trace).events(query))
        scanned = list(TraceReader(drop_trace).events(query,
                                                      use_index=False))
        assert cold == warm == scanned
        assert scanned, "fixture queries must all be non-empty"


class TestReadPathWork:
    """Host-independent work counts: each line and each sidecar is
    touched once per command."""

    DROPS = QueryFilter(events=("net.drop",))

    def test_cold_indexed_query_parses_each_line_once(self, drop_trace,
                                                      tmp_path,
                                                      parse_calls):
        trace = str(tmp_path / "t.jsonl")
        with open(drop_trace, "rb") as src, open(trace, "wb") as dst:
            lines = src.readlines()
            dst.writelines(lines)
        drops = list(TraceReader(trace).events(self.DROPS))
        assert drops and len(drops) < len(lines)
        assert len(parse_calls) == len(lines)  # not lines + matches
        assert read_sidecar(trace) == build_index(trace)

    def test_early_stop_leaves_no_sidecar(self, tmp_path):
        records = [dict(SYNTHETIC[1], t=float(i)) for i in range(8)]
        trace = write_trace(tmp_path / "t.jsonl", records)
        events = TraceReader(trace).events(self.DROPS)
        assert [next(events).t for _ in range(3)] == [0.0, 1.0, 2.0]
        events.close()
        assert not os.path.exists(index_path(trace))
        # The next query that runs to the end writes a correct one.
        assert len(list(TraceReader(trace).events(self.DROPS))) == 8
        assert read_sidecar(trace) == build_index(trace)

    def test_explain_reads_what_it_joins_and_one_sidecar(self, drop_trace,
                                                         parse_calls,
                                                         monkeypatch):
        counts = TraceReader(drop_trace).event_counts()  # sidecar present
        loads = []
        load = json.load
        monkeypatch.setattr(
            query_module.json, "load",
            lambda fh, **kw: loads.append(fh.name) or load(fh, **kw))
        parse_calls.clear()
        explanation = explain_router(drop_trace, "Denver")
        assert explanation.verdicts
        joined = sum(counts.get(kind, 0) for kind in (
            "detector.suspect", "net.drop", "net.fabricate", "net.misroute"))
        assert len(parse_calls) == joined + 1  # + scenario.ground_truth
        assert loads == [index_path(drop_trace)]


class TestDamagedTracesColdAndWarm:
    """The damaged-line policy is the same whichever loop meets the line:
    the sequential pass (cold, no sidecar) or the seek loop (warm)."""

    RECORDS = [dict(SYNTHETIC[1], t=float(i)) for i in range(6)]
    ARGV = ["obs", "query", "--event", "net.drop", "--count"]

    def test_torn_tail_warns_once_on_both_paths(self, tmp_path, capsys):
        trace = write_trace(tmp_path / "t.jsonl", self.RECORDS)
        with open(trace, "rb+") as fh:
            fh.truncate(os.path.getsize(trace) - 20)
        for sidecar_before in (False, True):  # cold, then warm
            assert os.path.exists(index_path(trace)) == sidecar_before
            assert main(self.ARGV + [trace]) == 0
            captured = capsys.readouterr()
            assert captured.out == "5\n"
            assert captured.err == (
                f"warning: {trace}: ignored torn final line\n")

    def test_corrupt_middle_line_errors_on_both_paths(self, tmp_path,
                                                      capsys):
        trace = write_trace(tmp_path / "t.jsonl", self.RECORDS)
        index = build_index(trace)
        # Same length, so the intact trace's offsets still name line 4.
        with open(trace, "rb+") as fh:
            fh.seek(index["events"]["net.drop"][3])
            fh.write(b"#")
        expected = f"error: {trace}:4: not valid JSON\n"
        # Cold: the indexing pass meets the line and writes no sidecar.
        assert main(self.ARGV + [trace]) == 2
        assert capsys.readouterr().err == expected
        assert not os.path.exists(index_path(trace))
        # Warm: plant a sidecar that is fresh for the damaged bytes, so
        # it is the seek loop that meets the line.
        index["trace_digest"] = file_digest(trace)
        with open(index_path(trace), "w") as fh:
            json.dump(index, fh)
        assert main(self.ARGV + [trace]) == 2
        assert capsys.readouterr().err == expected
        assert read_sidecar(trace) == index  # it was reused, not rebuilt


class TestScan:
    def test_scan_labels_events_with_their_trace(self, attack_sweeps):
        pairs = list(scan([attack_sweeps["drop"]],
                          QueryFilter(events=("scenario.ground_truth",))))
        assert len(pairs) == 1
        trace, event = pairs[0]
        assert trace == trace_files(attack_sweeps["drop"])[0]
        assert event.get("router") == "Denver"


class TestQueryCli:
    def test_count(self, attack_sweeps, capsys):
        assert main(["obs", "query", attack_sweeps["drop"],
                     "--event", "scenario.ground_truth",
                     "--count"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_jsonl_output_and_limit(self, attack_sweeps, capsys):
        assert main(["obs", "query", attack_sweeps["drop"],
                     "--event", "net.drop", "--router", "Denver",
                     "--limit", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)
            assert record["event"] == "net.drop"
            assert record["router"] == "Denver"

    def test_no_index_builds_no_sidecar(self, tmp_path, capsys):
        trace = write_trace(tmp_path / "t.jsonl", SYNTHETIC)
        assert main(["obs", "query", trace, "--event", "net.drop",
                     "--no-index", "--count"]) == 0
        assert capsys.readouterr().out.strip() == "1"
        assert not os.path.exists(index_path(trace))


class TestEventSchema:
    """Every emittable event kind matches the checked-in schema fixture."""

    FIXTURE = os.path.join(os.path.dirname(__file__), "goldens",
                           "trace_event_schema.json")

    def _observed(self, attack_sweeps):
        observed = {}
        for behavior in BEHAVIORS:
            for trace in trace_files(attack_sweeps[behavior]):
                for event in TraceReader(trace).events(use_index=False):
                    entry = observed.setdefault(
                        event.event, {"fields": set(), "timestamped": set()})
                    entry["fields"].add(frozenset(event.fields))
                    entry["timestamped"].add(event.t is not None)
        return observed

    def test_all_kinds_covered_with_exact_fields(self, attack_sweeps):
        with open(self.FIXTURE) as fh:
            schema = json.load(fh)
        observed = self._observed(attack_sweeps)
        assert sorted(observed) == sorted(schema), \
            "event catalogue drifted; update trace_event_schema.json " \
            "and the docs together"
        for kind, spec in schema.items():
            entry = observed[kind]
            assert entry["fields"] == {frozenset(spec["required"])}, \
                f"{kind} fields diverge from the schema fixture"
            assert entry["timestamped"] == {spec["timestamped"]}, \
                f"{kind} timestamped flag diverges from the fixture"
