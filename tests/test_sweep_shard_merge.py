"""Sharded sweep execution and manifest merging.

The load-bearing property: ``--shard 0/2`` + ``--shard 1/2`` +
``repro merge`` must reproduce the unsharded run *exactly* —
identical record order, identical ``aggregate.csv`` bytes.
"""

import json
import random

import pytest

from repro.__main__ import main
from repro.eval import registry
from repro.eval.registry import ExperimentSpec
from repro.sweep.artifacts import write_sweep_artifacts
from repro.sweep.grid import expand_grid, parse_shard, shard_specs
from repro.sweep.merge import (
    MergeError,
    load_manifest,
    merge_manifests,
    merge_sweeps,
)
from repro.sweep.runner import SweepConfig
from repro.sweep.runner import run_sweep as _run_sweep

TOY = "toy-shard-test"


def run_sweep(experiment, **settings):
    """Keyword-style helper: every sweep here goes through SweepConfig."""
    return _run_sweep(experiment, SweepConfig(**settings))


def toy_experiment(scale: float = 1.0, seed: int = 0):
    rng = random.Random(seed)
    return {"value": scale * rng.random(), "seed": seed}


@pytest.fixture
def toy_registered():
    registry.register(ExperimentSpec(TOY, toy_experiment,
                                     lambda r: [str(r)]))
    yield TOY
    registry.unregister(TOY)


class TestShardSpecs:
    def test_partition_is_disjoint_and_complete(self):
        specs = expand_grid("exp", {}, {"a": [1, 2, 3]}, 4, 0)
        shards = [shard_specs(specs, i, 3) for i in range(3)]
        flat = [spec for shard in shards for spec in shard]
        assert sorted(s.run_key for s in flat) == \
            sorted(s.run_key for s in specs)
        keys = [set(s.run_key for s in shard) for shard in shards]
        assert not (keys[0] & keys[1] or keys[0] & keys[2]
                    or keys[1] & keys[2])

    def test_partition_is_deterministic(self):
        specs = expand_grid("exp", {}, {"a": [1, 2]}, 3, 7)
        assert shard_specs(specs, 1, 2) == shard_specs(specs, 1, 2)

    def test_single_shard_is_identity(self):
        specs = expand_grid("exp", {}, {}, 5, 0)
        assert shard_specs(specs, 0, 1) == specs

    def test_bad_shard_indices_rejected(self):
        specs = expand_grid("exp", {}, {}, 2, 0)
        with pytest.raises(ValueError):
            shard_specs(specs, 2, 2)
        with pytest.raises(ValueError):
            shard_specs(specs, 0, 0)

    def test_parse_shard(self):
        assert parse_shard("0/4") == (0, 4)
        assert parse_shard("3/4") == (3, 4)
        for bad in ("4/4", "-1/4", "1", "a/b", "1/0"):
            with pytest.raises(ValueError):
                parse_shard(bad)


def _run_shards(name, tmp_path, count, **kwargs):
    dirs = []
    for index in range(count):
        sweep = run_sweep(name, shard=(index, count),
                          cache_dir=str(tmp_path / f"cache{index}"),
                          **kwargs)
        out = tmp_path / f"shard{index}"
        write_sweep_artifacts(sweep, str(out))
        dirs.append(str(out))
    return dirs


class TestMergeIdentity:
    def test_sharded_merge_equals_unsharded(self, tmp_path, toy_registered):
        kwargs = dict(seeds=3, jobs=1, grid={"scale": [1.0, 2.0]},
                      root_seed=5)
        full = run_sweep(toy_registered,
                         cache_dir=str(tmp_path / "cache-full"), **kwargs)
        full_dir = tmp_path / "full"
        write_sweep_artifacts(full, str(full_dir))

        dirs = _run_shards(toy_registered, tmp_path, 2, **kwargs)
        merged = merge_sweeps(dirs)
        merged_dir = tmp_path / "merged"
        write_sweep_artifacts(merged, str(merged_dir))

        # Record order and content match the unsharded run...
        assert [r["seed"] for r in merged.records] == \
            [r["seed"] for r in full.records]
        assert [r["result"] for r in merged.records] == \
            [r["result"] for r in full.records]
        # ...and aggregate.csv matches byte for byte.
        assert (merged_dir / "aggregate.csv").read_bytes() == \
            (full_dir / "aggregate.csv").read_bytes()
        assert merged.manifest()["aggregate"] == full.manifest()["aggregate"]

    def test_three_way_shard(self, tmp_path, toy_registered):
        kwargs = dict(seeds=4, jobs=1)
        full = run_sweep(toy_registered,
                         cache_dir=str(tmp_path / "cache-full"), **kwargs)
        dirs = _run_shards(toy_registered, tmp_path, 3, **kwargs)
        merged = merge_sweeps(dirs)
        assert merged.aggregate == full.aggregate
        assert merged.n_runs == full.n_runs

    def test_merge_order_independent(self, tmp_path, toy_registered):
        kwargs = dict(seeds=4, jobs=1)
        dirs = _run_shards(toy_registered, tmp_path, 2, **kwargs)
        forward = merge_sweeps(dirs)
        backward = merge_sweeps(list(reversed(dirs)))
        assert [r["seed"] for r in forward.records] == \
            [r["seed"] for r in backward.records]
        assert forward.aggregate == backward.aggregate

    def test_merged_manifest_is_unsharded(self, tmp_path, toy_registered):
        dirs = _run_shards(toy_registered, tmp_path, 2, seeds=2, jobs=1)
        manifest = merge_sweeps(dirs).manifest()
        assert manifest["shard"] is None
        assert manifest["n_runs"] == manifest["n_total"] == 2


def _drop_params(manifest):
    del manifest["runs"][0]["params"]


def _params_not_object(manifest):
    manifest["runs"][0]["params"] = [1, 2]


#: (rewrite of a valid manifest, what the MergeError must say): the
#: inputs that once crashed ``repro merge`` with a traceback.
MALFORMED = [
    (lambda m: m.update(runs=5), "runs is not a list"),
    (lambda m: m.update(runs=[7]), "runs[0] is not an object"),
    (_drop_params, "runs[0] is missing params"),
    (_params_not_object, "runs[0].params is not an object"),
    (lambda m: m.update(cache=3), "cache is not an object"),
]


def _malformed_manifest(directory, experiment, damage):
    """A one-run sweep written to ``directory``, then damaged."""
    sweep = run_sweep(experiment, seeds=1, cache_dir=None)
    write_sweep_artifacts(sweep, str(directory))
    manifest = json.loads((directory / "sweep.json").read_text())
    damage(manifest)
    (directory / "sweep.json").write_text(json.dumps(manifest))


class TestMergeValidation:
    def test_overlapping_shards_rejected(self, tmp_path, toy_registered):
        dirs = _run_shards(toy_registered, tmp_path, 2, seeds=2, jobs=1)
        with pytest.raises(MergeError, match="not disjoint"):
            merge_sweeps([dirs[0], dirs[0], dirs[1]])

    def test_missing_cells_rejected(self, tmp_path, toy_registered):
        dirs = _run_shards(toy_registered, tmp_path, 2, seeds=4, jobs=1)
        with pytest.raises(MergeError, match="missing"):
            merge_sweeps([dirs[0]])

    def test_mismatched_coordinates_rejected(self, tmp_path,
                                             toy_registered):
        a = _run_shards(toy_registered, tmp_path / "a", 2, seeds=2,
                        jobs=1, root_seed=0)
        b = _run_shards(toy_registered, tmp_path / "b", 2, seeds=2,
                        jobs=1, root_seed=9)
        with pytest.raises(MergeError, match="root_seed"):
            merge_sweeps([a[0], b[1]])

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(MergeError, match="no sweep.json"):
            load_manifest(str(tmp_path))

    def test_corrupt_manifest_rejected(self, tmp_path):
        (tmp_path / "sweep.json").write_text("{ nope")
        with pytest.raises(MergeError, match="unreadable"):
            load_manifest(str(tmp_path))

    def test_old_schema_rejected(self, tmp_path):
        (tmp_path / "sweep.json").write_text(
            json.dumps({"schema": "repro.sweep/v1"}))
        with pytest.raises(MergeError, match="not.*mergeable"):
            load_manifest(str(tmp_path))

    def test_non_object_manifest_rejected(self, tmp_path):
        (tmp_path / "sweep.json").write_text("[1, 2]")
        with pytest.raises(MergeError, match="not mergeable"):
            load_manifest(str(tmp_path))

    @pytest.mark.parametrize("dropped", ["experiment", "grid", "runs"])
    def test_manifest_missing_a_key_rejected(self, tmp_path, toy_registered,
                                             dropped):
        sweep = run_sweep(toy_registered, seeds=1, cache_dir=None)
        write_sweep_artifacts(sweep, str(tmp_path))
        manifest = json.loads((tmp_path / "sweep.json").read_text())
        del manifest[dropped]
        (tmp_path / "sweep.json").write_text(json.dumps(manifest))
        with pytest.raises(MergeError, match=f"missing {dropped}"):
            load_manifest(str(tmp_path))

    @pytest.mark.parametrize("damage, says", MALFORMED,
                             ids=[says for _, says in MALFORMED])
    def test_malformed_runs_or_cache_rejected(self, tmp_path,
                                              toy_registered, damage, says):
        _malformed_manifest(tmp_path, toy_registered, damage)
        with pytest.raises(MergeError) as raised:
            load_manifest(str(tmp_path))
        assert str(raised.value).startswith(
            f"{tmp_path / 'sweep.json'}: ")
        assert says in str(raised.value)

    def test_empty_merge_rejected(self):
        with pytest.raises(MergeError, match="nothing to merge"):
            merge_manifests([])


class TestMergeCli:
    def test_shard_and_merge_via_cli(self, tmp_path, capsys):
        # "baselines" is seedless and fast: one deterministic run.
        base = ["--seeds", "1", "--jobs", "1", "--quiet",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(["sweep", "baselines", "--shard", "0/1",
                     "--out", str(tmp_path / "s0")] + base) == 0
        assert main(["merge", str(tmp_path / "s0"),
                     "--out", str(tmp_path / "merged")]) == 0
        out = capsys.readouterr().out
        assert "shard 0/1" in out
        with open(tmp_path / "merged" / "sweep.json") as handle:
            manifest = json.load(handle)
        assert manifest["shard"] is None
        assert manifest["n_runs"] == 1

    def test_bad_shard_argument_exits_2(self, tmp_path, capsys):
        assert main(["sweep", "baselines", "--shard", "2/2",
                     "--out", str(tmp_path / "out"),
                     "--cache-dir", str(tmp_path / "cache")]) == 2
        assert "bad --shard" in capsys.readouterr().err

    def test_merge_incompatible_dirs_exits_2(self, tmp_path, capsys):
        assert main(["merge", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "merged")]) == 2
        assert "merge failed" in capsys.readouterr().err

    @pytest.mark.parametrize("damage, says", MALFORMED,
                             ids=[says for _, says in MALFORMED])
    def test_merge_malformed_manifest_exits_2(self, tmp_path, capsys,
                                              toy_registered, damage, says):
        _malformed_manifest(tmp_path / "s", toy_registered, damage)
        assert main(["merge", str(tmp_path / "s"),
                     "--out", str(tmp_path / "merged")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"merge failed: {tmp_path / 's' / 'sweep.json'}: {says}")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_merge_non_object_manifest_exits_2(self, tmp_path, capsys):
        (tmp_path / "sweep.json").write_text("[1, 2]")
        assert main(["merge", str(tmp_path),
                     "--out", str(tmp_path / "merged")]) == 2
        assert (f"merge failed: {tmp_path / 'sweep.json'}: "
                in capsys.readouterr().err)
