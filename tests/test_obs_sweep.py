"""Sweep-level observability: telemetry, trace artifacts, v4 merging.

The load-bearing properties:

* tracing a sweep never changes its results — ``aggregate.csv`` is
  byte-identical with tracing on and off;
* every ``repro.sweep/v4`` manifest carries a wall-domain ``telemetry``
  section, cached runs produce no trace files, and merged sweeps sum
  their shards' telemetry;
* v3 (and v2) manifests still merge — they just contribute no
  telemetry — while *mixed* schemas fail with the offending shard named.
"""

import glob
import json
import os
import random

import pytest

from repro.eval import registry
from repro.eval.registry import ExperimentSpec
from repro.obs.telemetry import TELEMETRY_SCHEMA, merge_telemetry
from repro.sweep.artifacts import write_sweep_artifacts
from repro.sweep.merge import MergeError, merge_sweeps
from repro.sweep.runner import MANIFEST_SCHEMA, SweepConfig, run_sweep

TOY = "toy-obs-test"


def toy_experiment(scale: float = 1.0, seed: int = 0):
    rng = random.Random(seed)
    return {"value": scale * rng.random(), "seed": seed}


@pytest.fixture
def toy_registered():
    registry.register(ExperimentSpec(TOY, toy_experiment,
                                     lambda r: [str(r)]))
    yield TOY
    registry.unregister(TOY)


def sweep_to_dir(out_dir, **settings):
    sweep = run_sweep(TOY, SweepConfig(**settings))
    write_sweep_artifacts(sweep, str(out_dir))
    return sweep


def aggregate_bytes(out_dir):
    with open(os.path.join(str(out_dir), "aggregate.csv"), "rb") as fh:
        return fh.read()


def trace_paths(out_dir):
    return sorted(glob.glob(os.path.join(str(out_dir), "traces",
                                         "*.jsonl")))


class TestTracedSweeps:
    def test_trace_on_off_bit_identity(self, toy_registered, tmp_path):
        plain = tmp_path / "plain"
        traced = tmp_path / "traced"
        sweep_to_dir(plain, seeds=3, jobs=1, cache_dir=None)
        sweep = sweep_to_dir(traced, seeds=3, jobs=1, cache_dir=None,
                             trace_dir=str(traced / "traces"))
        assert aggregate_bytes(traced) == aggregate_bytes(plain)
        paths = trace_paths(traced)
        assert len(paths) == 3
        names = {os.path.basename(p) for p in paths}
        assert {r["trace"] for r in sweep.records} == names
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                final = json.loads(fh.readlines()[-1])
            assert final["event"] == "obs.metrics"

    def test_trace_filenames_deterministic(self, toy_registered, tmp_path):
        first = sweep_to_dir(tmp_path / "a", seeds=2, cache_dir=None,
                             trace_dir=str(tmp_path / "a" / "traces"))
        second = sweep_to_dir(tmp_path / "b", seeds=2, cache_dir=None,
                              trace_dir=str(tmp_path / "b" / "traces"))
        assert [r["trace"] for r in first.records] == \
            [r["trace"] for r in second.records]

    def test_cached_runs_write_no_traces(self, toy_registered, tmp_path):
        cache = str(tmp_path / "cache")
        sweep_to_dir(tmp_path / "warm", seeds=2, cache_dir=cache)
        sweep = sweep_to_dir(tmp_path / "hit", seeds=2, cache_dir=cache,
                             trace_dir=str(tmp_path / "hit" / "traces"))
        assert all(r["cached"] for r in sweep.records)
        assert trace_paths(tmp_path / "hit") == []


class TestManifestTelemetry:
    def test_v4_manifest_has_telemetry(self, toy_registered, tmp_path):
        sweep = run_sweep(TOY, SweepConfig(seeds=3, jobs=1,
                                           cache_dir=None))
        manifest = sweep.manifest()
        assert manifest["schema"] == MANIFEST_SCHEMA == "repro.sweep/v4"
        telemetry = manifest["telemetry"]
        assert telemetry["schema"] == TELEMETRY_SCHEMA
        assert telemetry["runs"] == {"total": 3, "ok": 3, "failed": 0,
                                     "cached": 0, "executed": 3}
        assert telemetry["wall_s"] > 0
        assert telemetry["workers"]["jobs"] == 1
        assert telemetry["attempts"]["total"] == 3
        assert telemetry["run_wall"]["total_s"] >= 0

    def test_cache_stats_in_telemetry(self, toy_registered, tmp_path):
        cache = str(tmp_path / "cache")
        cold = run_sweep(TOY, SweepConfig(seeds=2, cache_dir=cache))
        warm = run_sweep(TOY, SweepConfig(seeds=2, cache_dir=cache))
        assert cold.telemetry["cache"]["hits"] == 0
        assert cold.telemetry["cache"]["misses"] == 2
        assert cold.telemetry["cache"]["stores"] == 2
        assert warm.telemetry["cache"] == {
            "hits": 2, "misses": 0, "hit_rate": 1.0, "stores": 0}
        assert warm.telemetry["runs"]["cached"] == 2


def _shard_dirs(tmp_path, toy, *, rewrite=None):
    """Two shard sweeps on disk; optionally rewrite each manifest."""
    dirs = []
    for index in range(2):
        out = tmp_path / f"shard-{index}"
        sweep = run_sweep(toy, SweepConfig(seeds=4, cache_dir=None,
                                           shard=(index, 2)))
        write_sweep_artifacts(sweep, str(out))
        if rewrite is not None:
            path = out / "sweep.json"
            manifest = json.loads(path.read_text())
            rewrite(index, manifest)
            path.write_text(json.dumps(manifest))
        dirs.append(str(out))
    return dirs


class TestMergeCompatibility:
    def test_v4_shards_merge_with_summed_telemetry(self, toy_registered,
                                                   tmp_path):
        dirs = _shard_dirs(tmp_path, toy_registered)
        merged = merge_sweeps(dirs)
        assert merged.n_runs == 4
        assert merged.telemetry["runs"]["total"] == 4
        assert merged.telemetry["schema"] == TELEMETRY_SCHEMA
        assert merged.telemetry["dispatch"] is None

    def test_mixed_schemas_name_the_offending_shard(self, toy_registered,
                                                    tmp_path):
        def downgrade_second(index, manifest):
            if index == 1:
                manifest["schema"] = "repro.sweep/v3"
                del manifest["telemetry"]

        dirs = _shard_dirs(tmp_path, toy_registered,
                           rewrite=downgrade_second)
        with pytest.raises(MergeError) as excinfo:
            merge_sweeps(dirs)
        message = str(excinfo.value)
        assert "not mergeable" in message
        assert "shard-1" in message  # which shard diverged...
        assert "repro.sweep/v3" in message  # ...and what it carried
        assert "repro.sweep/v4" in message  # ...and what is expected


class TestMergeTelemetry:
    def test_none_when_no_section_present(self):
        assert merge_telemetry([]) is None
        assert merge_telemetry([None, None]) is None

    def test_counters_add_and_rates_recompute(self):
        def section(wall_s, hits, misses):
            return {
                "schema": TELEMETRY_SCHEMA, "wall_s": wall_s,
                "runs": {"total": 2, "ok": 2, "failed": 0, "cached": 0,
                         "executed": 2},
                "attempts": {"total": 2, "retried_runs": 0, "retries": 0},
                "errors": {"timeout": 1},
                "run_wall": {"total_s": wall_s, "mean_s": wall_s / 2,
                             "max_s": wall_s / 2},
                "workers": {"jobs": 2, "utilization": 0.5},
                # A section written before the LRU went: its
                # ``evictions`` counter is read past, not summed.
                "cache": {"hits": hits, "misses": misses,
                          "hit_rate": 0.0, "stores": 0, "evictions": 0},
                "dispatch": {"executor": "local"},
            }

        merged = merge_telemetry([section(1.0, 1, 1), None,
                                  section(3.0, 0, 2)])
        assert merged["wall_s"] == 4.0
        assert merged["runs"]["total"] == 4
        assert merged["errors"] == {"timeout": 2}
        assert merged["cache"]["hits"] == 1
        assert merged["cache"]["hit_rate"] == 0.25
        assert "evictions" not in merged["cache"]
        assert merged["run_wall"]["max_s"] == 1.5
        assert merged["workers"]["jobs"] == 2
        assert merged["dispatch"] is None  # the merger owns dispatch
