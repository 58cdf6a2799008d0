"""LRU size-capped eviction and concurrent safety of ResultCache."""

import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.sweep.cache import ResultCache
from repro.sweep.grid import RunSpec

PAD = "x" * 512


def make_spec(i: int) -> RunSpec:
    # Fixed-width param value keeps every entry file the same size.
    return RunSpec("exp", (("i", f"{i:05d}"),), 0, 1)


def make_record(i: int) -> dict:
    return {"status": "ok", "result": {"i": f"{i:05d}"}, "pad": PAD}


def entry_size(tmp_path) -> int:
    probe = ResultCache(str(tmp_path / "probe"), version="v")
    probe.store(make_spec(99999), make_record(99999))
    return probe.size_bytes()


class TestCapValidation:
    def test_zero_or_negative_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(str(tmp_path), max_bytes=0)
        with pytest.raises(ValueError):
            ResultCache(str(tmp_path), max_bytes=-1)

    def test_none_means_unbounded(self, tmp_path):
        cache = ResultCache(str(tmp_path), version="v")
        for i in range(10):
            cache.store(make_spec(i), make_record(i))
        assert all(cache.load(make_spec(i)) is not None for i in range(10))
        assert cache.evict() == []


class TestLruEviction:
    def test_oldest_entries_evicted_first(self, tmp_path):
        size = entry_size(tmp_path)
        cache = ResultCache(str(tmp_path / "c"), version="v",
                            max_bytes=3 * size)
        for i in range(5):
            cache.store(make_spec(i), make_record(i))
            time.sleep(0.01)
        assert cache.load(make_spec(0)) is None
        assert cache.load(make_spec(1)) is None
        for i in (2, 3, 4):
            assert cache.load(make_spec(i)) is not None
        assert cache.size_bytes() <= 3 * size

    def test_load_bumps_recency(self, tmp_path):
        size = entry_size(tmp_path)
        cache = ResultCache(str(tmp_path / "c"), version="v",
                            max_bytes=3 * size)
        for i in range(3):
            cache.store(make_spec(i), make_record(i))
            time.sleep(0.01)
        assert cache.load(make_spec(0)) is not None  # 0 is now freshest
        time.sleep(0.01)
        cache.store(make_spec(3), make_record(3))
        assert cache.load(make_spec(1)) is None  # LRU victim
        for i in (0, 2, 3):
            assert cache.load(make_spec(i)) is not None

    def test_cap_below_one_entry_retains_nothing(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"), version="v", max_bytes=16)
        cache.store(make_spec(0), make_record(0))
        assert cache.load(make_spec(0)) is None
        assert cache.size_bytes() == 0

    def test_explicit_evict_on_existing_cache(self, tmp_path):
        root = str(tmp_path / "c")
        size = entry_size(tmp_path)
        unbounded = ResultCache(root, version="v")
        for i in range(4):
            unbounded.store(make_spec(i), make_record(i))
            time.sleep(0.01)
        capped = ResultCache(root, version="v", max_bytes=2 * size)
        evicted = capped.evict()
        assert len(evicted) == 2
        assert capped.load(make_spec(0)) is None
        assert capped.load(make_spec(3)) is not None
        assert capped.size_bytes() <= 2 * size


def _hammer(args):
    root, worker, count, max_bytes = args
    cache = ResultCache(root, version="v", max_bytes=max_bytes)
    for i in range(count):
        n = worker * 1000 + i
        cache.store(make_spec(n), make_record(n))
        cache.load(make_spec(n))
    return worker


class TestConcurrentWriters:
    def test_parallel_stores_keep_index_valid_and_capped(self, tmp_path):
        root = str(tmp_path / "c")
        size = entry_size(tmp_path)
        cap = 8 * size
        jobs = [(root, worker, 20, cap) for worker in range(4)]
        with ProcessPoolExecutor(max_workers=4) as pool:
            assert sorted(pool.map(_hammer, jobs)) == [0, 1, 2, 3]
        cache = ResultCache(root, version="v", max_bytes=cap)
        # One entry of slack: a writer may land between the final
        # eviction and the end of the race.
        assert cache.size_bytes() <= cap + size
        # No torn or half-evicted survivors: every entry left loads
        # (through an uncapped handle, so loading evicts nothing).
        reader = ResultCache(root, version="v")
        survivors = [n for worker in range(4)
                     for n in range(worker * 1000, worker * 1000 + 20)
                     if os.path.exists(reader.path(make_spec(n)))]
        assert survivors
        for n in survivors:
            assert reader.load(make_spec(n)) == make_record(n)
