"""CLI surface of the observability subsystem.

``repro sweep --trace --profile``, ``repro run --trace --profile``, and
the ``repro obs summarize`` aggregator.
"""

import glob
import json
import random

import pytest

from repro.__main__ import main
from repro.eval import registry
from repro.eval.registry import ExperimentSpec
from repro.obs.cli import summarize_paths, trace_files
from repro.obs.profile import PROFILE_SCHEMA, profile_call

TOY = "toy-obs-cli-test"


def toy_experiment(scale: float = 1.0, seed: int = 0):
    rng = random.Random(seed)
    return {"value": scale * rng.random(), "seed": seed}


@pytest.fixture
def toy_registered():
    registry.register(ExperimentSpec(TOY, toy_experiment,
                                     lambda r: [str(r)]))
    yield TOY
    registry.unregister(TOY)


class TestSweepFlags:
    def test_trace_and_profile_artifacts(self, toy_registered, tmp_path,
                                         capsys):
        out = tmp_path / "out"
        assert main(["sweep", TOY, "--seeds", "2", "--jobs", "1",
                     "--no-cache", "--trace", "--profile",
                     "--out", str(out)]) == 0
        traces = sorted(glob.glob(str(out / "traces" / "*.jsonl")))
        assert len(traces) == 2
        with open(out / "profile.json") as fh:
            profile = json.load(fh)
        assert profile["schema"] == PROFILE_SCHEMA
        assert profile["rows"], "profile must list hot functions"
        with open(out / "sweep.json") as fh:
            manifest = json.load(fh)
        assert manifest["schema"] == "repro.sweep/v4"
        assert manifest["telemetry"]["runs"]["total"] == 2
        captured = capsys.readouterr().out
        assert "profile" in captured

    def test_flags_off_by_default(self, toy_registered, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", TOY, "--seeds", "1", "--jobs", "1",
                     "--no-cache", "--out", str(out)]) == 0
        assert not (out / "traces").exists()
        assert not (out / "profile.json").exists()


class TestRunFlags:
    def test_run_trace_and_profile(self, toy_registered, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        assert main(["run", TOY, "--trace", str(trace_dir),
                     "--profile", "--profile-out", str(tmp_path)]) == 0
        trace_path = trace_dir / f"{TOY}.jsonl"
        assert trace_path.is_file()
        final = json.loads(trace_path.read_text().splitlines()[-1])
        assert final["event"] == "obs.metrics"
        with open(tmp_path / f"profile-{TOY}.json") as fh:
            assert json.load(fh)["schema"] == PROFILE_SCHEMA
        assert "by cumulative" in capsys.readouterr().out


class TestObsCommands:
    def _traced_sweep(self, tmp_path):
        out = tmp_path / "swept"
        assert main(["sweep", TOY, "--seeds", "2", "--jobs", "1",
                     "--no-cache", "--trace", "--out", str(out)]) == 0
        return out

    def test_summarize_text(self, toy_registered, tmp_path, capsys):
        out = self._traced_sweep(tmp_path)
        capsys.readouterr()
        assert main(["obs", "summarize", str(out)]) == 0
        text = capsys.readouterr().out
        assert "traces: 2 file(s)" in text
        assert "telemetry:" in text and "workers:" in text

    def test_summarize_json(self, toy_registered, tmp_path, capsys):
        out = self._traced_sweep(tmp_path)
        capsys.readouterr()
        assert main(["obs", "summarize", "--format", "json",
                     str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["traces"] == 2
        assert summary["telemetry"]["runs"]["total"] == 2

    def test_trace_files_resolution(self, toy_registered, tmp_path):
        out = self._traced_sweep(tmp_path)
        via_sweep_dir = trace_files(str(out))
        via_trace_dir = trace_files(str(out / "traces"))
        assert via_sweep_dir == via_trace_dir and len(via_sweep_dir) == 2
        assert trace_files(via_sweep_dir[0]) == [via_sweep_dir[0]]
        assert trace_files(str(tmp_path / "nowhere")) == []

    def test_summarize_merges_across_paths(self, toy_registered, tmp_path):
        out = self._traced_sweep(tmp_path)
        single = summarize_paths([str(out)])
        doubled = summarize_paths([str(out), str(out)])
        assert doubled["traces"] == 2 * single["traces"]
        assert doubled["records"] == 2 * single["records"]

    def test_summarize_finds_sharded_layouts(self, tmp_path):
        """A dispatched sweep: traces and telemetry live per shard."""
        from repro.obs.telemetry import build_telemetry

        out = tmp_path / "dispatched"
        for shard, wall_s in (("shard-0", 2.0), ("shard-1", 3.0)):
            traces = out / "shards" / shard / "traces"
            traces.mkdir(parents=True)
            (traces / f"{shard}.jsonl").write_text(json.dumps(
                {"event": "net.drop", "t": 1.0, "router": "A",
                 "out_nbr": "B", "flow": "f1", "src": "A", "dst": "B",
                 "reason": "x"}) + "\n")
            telemetry = build_telemetry(
                wall_s=wall_s, jobs=1,
                records=[{"status": "ok", "elapsed_s": wall_s,
                          "attempts": 1}])
            (out / "shards" / shard / "sweep.json").write_text(
                json.dumps({"telemetry": telemetry}))
        summary = summarize_paths([str(out)])
        assert summary["traces"] == 2
        assert summary["events"] == {"net.drop": 2}
        # Telemetry sums across the per-shard manifests.
        assert summary["telemetry"]["runs"]["total"] == 2
        assert summary["telemetry"]["wall_s"] == pytest.approx(5.0)

    @pytest.mark.parametrize("command", [
        ["obs", "summarize"], ["obs", "query"], ["obs", "query", "--count"],
        ["obs", "flow", "f1"], ["obs", "explain", "r"]],
        ids=["summarize", "query", "query-count", "flow", "explain"])
    def test_missing_path_exits_2(self, tmp_path, capsys, command):
        missing = str(tmp_path / "nowhere")
        assert main(command + [missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: no such sweep or trace file: {missing}\n")

    def test_diff_missing_path_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nowhere")
        assert main(["obs", "diff", missing, missing]) == 2
        assert "no such sweep or trace file" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--count"]],
                             ids=["events", "count"])
    def test_query_without_traces_exits_2(self, tmp_path, capsys, extra):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["obs", "query", *extra, str(empty)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no trace files under" in captured.err


class TestDamagedManifest:
    """``forensics.load_manifest`` is the one obs-side ``sweep.json``
    reader: a manifest that is not a JSON object is one ``error:`` line
    and exit 2 from every command that reads it; a trace file is never
    mistaken for one."""

    DAMAGE = {"torn": '{"schema": "repro.sweep/v4", "runs": [',
              "non-object": "[1,2]",
              "empty": ""}

    @pytest.fixture
    def swept(self, toy_registered, tmp_path):
        out = tmp_path / "swept"
        assert main(["sweep", TOY, "--seeds", "2", "--jobs", "1",
                     "--no-cache", "--trace", "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    @pytest.mark.parametrize("command", ["explain", "diff", "summarize"])
    def test_exit_2_with_one_error_line(self, swept, capsys, command,
                                        damage):
        (swept / "sweep.json").write_text(self.DAMAGE[damage])
        argv = {"explain": ["obs", "explain", "r3", str(swept)],
                "diff": ["obs", "diff", str(swept), str(swept)],
                "summarize": ["obs", "summarize", str(swept)]}[command]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(
            f"error: {swept / 'sweep.json'}: not a sweep manifest (")

    def test_a_trace_file_is_not_a_manifest(self, tmp_path, capsys):
        trace = str(tmp_path / "x.jsonl")
        with open(trace, "w") as fh:
            for t in (1.0, 2.0):
                fh.write(json.dumps(
                    {"event": "net.drop", "t": t, "router": "r3",
                     "out_nbr": "r4", "flow": "f1", "src": "r1",
                     "dst": "r6", "reason": "x"}) + "\n")
        assert main(["obs", "explain", "r3", trace]) == 0
        assert main(["obs", "diff", trace, trace]) == 0
        assert main(["obs", "summarize", trace]) == 0
        assert capsys.readouterr().err == ""


class TestProfileCall:
    def test_returns_result_and_schema(self):
        result, stats = profile_call(sorted, [3, 1, 2])
        assert result == [1, 2, 3]
        assert stats["schema"] == PROFILE_SCHEMA
        assert stats["top"] >= 1 and stats["total_calls"] >= 1
        for row in stats["rows"]:
            assert {"function", "cumtime_s", "ncalls"} <= set(row)
