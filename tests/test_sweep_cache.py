"""Result-cache behavior: hits, invalidation, corruption tolerance,
concurrent writers."""

import json
import os
import random
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.eval import registry
from repro.eval.registry import ExperimentSpec
from repro.sweep.cache import ResultCache, code_version
from repro.sweep.grid import RunSpec, canonical_params, expand_grid
from repro.sweep.runner import SweepConfig
from repro.sweep.runner import run_sweep as _run_sweep

TOY = "toy-cache-test"


def run_sweep(experiment, **settings):
    """Keyword-style helper: every sweep here goes through SweepConfig."""
    return _run_sweep(experiment, SweepConfig(**settings))


def toy_experiment(scale: float = 1.0, seed: int = 0):
    rng = random.Random(seed)
    return {"value": scale * rng.random(), "seed": seed}


def report_toy(result):
    return [str(result)]


@pytest.fixture
def toy_registered():
    registry.register(ExperimentSpec(TOY, toy_experiment, report_toy))
    yield TOY
    registry.unregister(TOY)


def spec_for(seed=1, **params):
    return RunSpec("exp", canonical_params(params), 0, seed)


def ok_record(**result):
    """The smallest record a cache hit may return."""
    return {"status": "ok", "result": result}


class TestResultCacheUnit:
    def test_miss_on_empty(self, tmp_path):
        cache = ResultCache(str(tmp_path), version="v1")
        assert cache.load(spec_for()) is None

    def test_store_load_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path), version="v1")
        spec = spec_for(a=1)
        cache.store(spec, ok_record(x=2.0))
        assert cache.load(spec) == ok_record(x=2.0)

    def test_key_changes_with_parameter(self, tmp_path):
        cache = ResultCache(str(tmp_path), version="v1")
        assert cache.key(spec_for(a=1)) != cache.key(spec_for(a=2))

    def test_key_changes_with_seed(self, tmp_path):
        cache = ResultCache(str(tmp_path), version="v1")
        assert cache.key(spec_for(seed=1)) != cache.key(spec_for(seed=2))

    def test_key_changes_with_code_version(self, tmp_path):
        old = ResultCache(str(tmp_path), version="v1")
        new = ResultCache(str(tmp_path), version="v2")
        spec = spec_for()
        old.store(spec, ok_record())
        assert old.load(spec) == ok_record()
        assert new.load(spec) is None

    def test_corrupted_entry_discarded_not_crashed(self, tmp_path):
        cache = ResultCache(str(tmp_path), version="v1")
        spec = spec_for()
        cache.store(spec, ok_record())
        with open(cache.path(spec), "w") as handle:
            handle.write("{ not json !!!")
        assert cache.load(spec) is None
        assert not os.path.exists(cache.path(spec))  # removed, will refill

    def test_wrong_schema_discarded(self, tmp_path):
        cache = ResultCache(str(tmp_path), version="v1")
        spec = spec_for()
        path = cache.path(spec)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"schema": "something-else", "record": {}}, handle)
        assert cache.load(spec) is None

    @pytest.mark.parametrize("dropped", ["status", "result"])
    def test_record_without_status_or_result_discarded(self, tmp_path,
                                                       dropped):
        cache = ResultCache(str(tmp_path), version="v1")
        spec = spec_for()
        record = ok_record(x=1.0)
        del record[dropped]
        cache.store(spec, record)
        assert cache.load(spec) is None
        assert not os.path.exists(cache.path(spec))  # removed, will refill

    def test_disabled_cache_never_stores(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = ResultCache(None, version="v1")
        spec = spec_for()
        cache.store(spec, ok_record())
        assert cache.load(spec) is None
        assert os.listdir(tmp_path) == []

    def test_code_version_is_stable_hex(self):
        assert code_version() == code_version()
        int(code_version(), 16)


class TestSweepCaching:
    def test_second_sweep_all_hits(self, tmp_path, toy_registered):
        kwargs = dict(seeds=4, jobs=1, cache_dir=str(tmp_path))
        first = run_sweep(toy_registered, **kwargs)
        assert (first.cache_hits, first.cache_misses) == (0, 4)
        second = run_sweep(toy_registered, **kwargs)
        assert (second.cache_hits, second.cache_misses) == (4, 0)
        assert ([r["result"] for r in first.records]
                == [r["result"] for r in second.records])
        assert all(r["cached"] for r in second.records)

    def test_changed_parameter_misses(self, tmp_path, toy_registered):
        kwargs = dict(seeds=2, jobs=1, cache_dir=str(tmp_path))
        run_sweep(toy_registered, **kwargs)
        changed = run_sweep(toy_registered, params={"scale": 2.0}, **kwargs)
        assert changed.cache_hits == 0

    def test_changed_root_seed_misses(self, tmp_path, toy_registered):
        kwargs = dict(seeds=2, jobs=1, cache_dir=str(tmp_path))
        run_sweep(toy_registered, **kwargs)
        changed = run_sweep(toy_registered, root_seed=99, **kwargs)
        assert changed.cache_hits == 0

    def test_changed_code_version_misses(self, tmp_path, toy_registered):
        kwargs = dict(seeds=2, jobs=1)
        run_sweep(toy_registered,
                  cache=ResultCache(str(tmp_path), version="v1"), **kwargs)
        changed = run_sweep(
            toy_registered,
            cache=ResultCache(str(tmp_path), version="v2"), **kwargs)
        assert changed.cache_hits == 0

    def test_corrupted_entry_recomputed(self, tmp_path, toy_registered):
        cache = ResultCache(str(tmp_path), version="v1")
        kwargs = dict(seeds=2, jobs=1, cache=cache)
        first = run_sweep(toy_registered, **kwargs)
        victim = first.specs[0]
        with open(cache.path(victim), "w") as handle:
            handle.write("garbage")
        second = run_sweep(toy_registered, **kwargs)
        assert (second.cache_hits, second.cache_misses) == (1, 1)
        assert ([r["result"] for r in second.records]
                == [r["result"] for r in first.records])

    def test_malformed_record_recomputed_by_the_cli(self, tmp_path,
                                                    toy_registered, capsys):
        """A schema-valid entry whose record lacks ``result`` is a miss:
        the sweep exits 0 with the clean run's aggregate."""
        from repro.__main__ import main

        def sweep(out):
            return main(["sweep", toy_registered, "--seeds", "2",
                         "--jobs", "1", "--quiet",
                         "--cache-dir", str(tmp_path / "cache"),
                         "--out", str(tmp_path / out)])

        assert sweep("clean") == 0
        cache = ResultCache(str(tmp_path / "cache"))
        victim = expand_grid(toy_registered, {}, {}, 2, 0)[0]
        with open(cache.path(victim)) as handle:
            entry = json.load(handle)
        del entry["record"]["result"]
        with open(cache.path(victim), "w") as handle:
            json.dump(entry, handle)
        assert sweep("again") == 0
        assert "cache: 1 hits, 1 misses" in capsys.readouterr().out
        assert ((tmp_path / "again" / "aggregate.csv").read_bytes()
                == (tmp_path / "clean" / "aggregate.csv").read_bytes())

    def test_no_cache_mode(self, tmp_path, toy_registered, monkeypatch):
        monkeypatch.chdir(tmp_path)
        kwargs = dict(seeds=2, jobs=1, cache_dir=None)
        run_sweep(toy_registered, **kwargs)
        again = run_sweep(toy_registered, **kwargs)
        assert again.cache_hits == 0
        assert again.cache_dir is None
        assert os.listdir(tmp_path) == []


def _hammer(args):
    """One writer process: store then load ``count`` entries."""
    root, worker, count = args
    cache = ResultCache(root, version="v")
    for i in range(count):
        n = worker * 1000 + i
        cache.store(spec_for(n=n), ok_record(n=n, pad="x" * 512))
        cache.load(spec_for(n=n))
    return worker


class TestConcurrentWriters:
    def test_parallel_stores_leave_no_torn_entry(self, tmp_path):
        root = str(tmp_path / "c")
        jobs = [(root, worker, 20) for worker in range(4)]
        with ProcessPoolExecutor(max_workers=4) as pool:
            assert sorted(pool.map(_hammer, jobs)) == [0, 1, 2, 3]
        reader = ResultCache(root, version="v")
        for worker in range(4):
            for n in range(worker * 1000, worker * 1000 + 20):
                assert reader.load(spec_for(n=n)) == \
                    ok_record(n=n, pad="x" * 512)
        leftovers = [name for _, _, names in os.walk(root)
                     for name in names if not name.endswith(".json")]
        assert leftovers == []  # no temp file outlives its writer
