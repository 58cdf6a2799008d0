"""Sweep orchestration: parallel/serial identity, aggregation, artifacts."""

import csv
import json
import random

import pytest

from repro.eval import registry
from repro.eval.registry import ExperimentSpec
from repro.eval.results import serialize_result
from repro.sweep.aggregate import aggregate_records, flatten_numeric, summarize
from repro.sweep.artifacts import write_sweep_artifacts
from repro.sweep.runner import SweepConfig
from repro.sweep.runner import run_sweep as _run_sweep

TOY = "toy-runner-test"


def run_sweep(experiment, **settings):
    """Keyword-style helper: every sweep here goes through SweepConfig."""
    return _run_sweep(experiment, SweepConfig(**settings))


def toy_experiment(scale: float = 1.0, seed: int = 0):
    rng = random.Random(seed)
    return {"value": scale * rng.random(), "seed": seed,
            "nested": {"flag": seed % 2 == 0}}


def report_toy(result):
    return [str(result)]


@pytest.fixture
def toy_registered():
    registry.register(ExperimentSpec(TOY, toy_experiment, report_toy))
    yield TOY
    registry.unregister(TOY)


class TestValidation:
    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(KeyError):
            run_sweep("no-such-experiment", cache_dir=str(tmp_path))

    def test_unknown_parameter(self, tmp_path, toy_registered):
        with pytest.raises(ValueError):
            run_sweep(toy_registered, params={"bogus": 1},
                      cache_dir=str(tmp_path))

    def test_seed_cannot_be_a_param(self, tmp_path, toy_registered):
        with pytest.raises(ValueError):
            run_sweep(toy_registered, params={"seed": 1},
                      cache_dir=str(tmp_path))

    def test_param_grid_overlap(self, tmp_path, toy_registered):
        with pytest.raises(ValueError):
            run_sweep(toy_registered, params={"scale": 1},
                      grid={"scale": [1, 2]}, cache_dir=str(tmp_path))


class TestExecution:
    def test_records_follow_spec_order(self, tmp_path, toy_registered):
        sweep = run_sweep(toy_registered, seeds=3, jobs=1,
                          cache_dir=str(tmp_path))
        assert [r["seed"] for r in sweep.records] == \
            [s.seed for s in sweep.specs]
        assert all(r["result"]["seed"] == r["seed"] for r in sweep.records)

    def test_grid_times_seeds(self, tmp_path, toy_registered):
        sweep = run_sweep(toy_registered, seeds=2,
                          grid={"scale": [1.0, 2.0, 3.0]}, jobs=1,
                          cache_dir=str(tmp_path))
        assert sweep.n_runs == 6

    def test_seedless_experiment_single_run(self, tmp_path):
        sweep = run_sweep("baselines", seeds=5, jobs=1,
                          cache_dir=str(tmp_path))
        assert sweep.n_runs == 1
        assert sweep.records[0]["seed"] is None

    def test_parallel_identical_to_serial(self, tmp_path):
        # Real experiment, real process pool: results must be
        # byte-identical to the inline path at the same root seed.
        serial = run_sweep("modeling", seeds=2, jobs=1, root_seed=11,
                           cache_dir=str(tmp_path / "serial"))
        parallel = run_sweep("modeling", seeds=2, jobs=2, root_seed=11,
                             cache_dir=str(tmp_path / "parallel"))
        assert ([r["result"] for r in serial.records]
                == [r["result"] for r in parallel.records])
        assert json.dumps(serial.aggregate, sort_keys=True) \
            == json.dumps(parallel.aggregate, sort_keys=True)


class TestAggregate:
    def test_summarize_basics(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats["n"] == 3
        assert stats["mean"] == pytest.approx(2.0)
        assert stats["median"] == pytest.approx(2.0)
        assert stats["std"] == pytest.approx(1.0)
        assert stats["min"] == 1.0 and stats["max"] == 3.0
        assert stats["ci95"] == pytest.approx(1.96 / 3 ** 0.5)

    def test_single_value_has_zero_ci(self):
        stats = summarize([5.0])
        assert stats["std"] == 0.0 and stats["ci95"] == 0.0

    def test_flatten_numeric(self):
        flat = flatten_numeric({"a": 1, "b": {"c": 2.5, "d": True},
                                "s": "skip", "l": [1, 2], "n": None})
        assert flat == {"a": 1.0, "b.c": 2.5, "b.d": 1.0}

    def test_aggregate_ragged_records(self):
        agg = aggregate_records([{"x": 1.0}, {"x": 3.0, "y": 7.0}])
        assert agg["x"]["n"] == 2 and agg["x"]["mean"] == pytest.approx(2.0)
        assert agg["y"]["n"] == 1

    def test_sweep_aggregate_matches_records(self, tmp_path, toy_registered):
        sweep = run_sweep(toy_registered, seeds=5, jobs=1,
                          cache_dir=str(tmp_path))
        values = [r["result"]["value"] for r in sweep.records]
        assert sweep.aggregate["value"]["mean"] == \
            pytest.approx(sum(values) / len(values))
        assert sweep.aggregate["value"]["n"] == 5


class TestArtifacts:
    def test_serialize_result_fallbacks(self):
        import dataclasses

        @dataclasses.dataclass
        class Plain:
            x: int
            items: tuple

        out = serialize_result({"p": Plain(1, (2, 3)), "s": {4}})
        assert out == {"p": {"x": 1, "items": [2, 3]}, "s": [4]}

    def test_write_sweep_artifacts(self, tmp_path, toy_registered):
        sweep = run_sweep(toy_registered, seeds=3, jobs=1,
                          cache_dir=str(tmp_path / "cache"))
        out_dir = tmp_path / "out"
        paths = write_sweep_artifacts(sweep, str(out_dir))
        assert set(paths) == {"sweep.json", "runs.csv", "aggregate.csv"}

        with open(paths["sweep.json"]) as handle:
            manifest = json.load(handle)
        assert manifest["schema"] == "repro.sweep/v4"
        assert manifest["experiment"] == toy_registered
        assert manifest["n_runs"] == 3
        assert len(manifest["runs"]) == 3
        assert "value" in manifest["aggregate"]

        with open(paths["runs.csv"]) as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 4  # header + 3 runs
        assert "value" in rows[0]

        with open(paths["aggregate.csv"]) as handle:
            rows = list(csv.reader(handle))
        fields = {row[0] for row in rows[1:]}
        assert "value" in fields

    def test_interrupted_write_leaves_no_manifest_and_no_torn_file(
            self, tmp_path, toy_registered):
        # sweep.json is a supervisor's "shard done" marker: it is
        # written last, and every file appears whole or not at all.
        sweep = run_sweep(toy_registered, seeds=2, jobs=1, cache_dir=None)
        out_dir = tmp_path / "out"
        before = write_sweep_artifacts(sweep, str(out_dir))
        old = {name: (out_dir / name).read_bytes() for name in before}

        sweep.aggregate["value"].pop("ci95")  # aggregate.csv dies mid-row
        with pytest.raises(KeyError):
            write_sweep_artifacts(sweep, str(out_dir))
        # The interrupted files are still the old, whole ones.
        for name in ("aggregate.csv", "sweep.json"):
            assert (out_dir / name).read_bytes() == old[name]
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(old)

        fresh = tmp_path / "fresh"
        with pytest.raises(KeyError):
            write_sweep_artifacts(sweep, str(fresh))
        assert [p.name for p in fresh.iterdir()] == ["runs.csv"]
