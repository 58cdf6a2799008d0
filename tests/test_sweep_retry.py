"""Sweep fault tolerance: retry/backoff, timeouts, worker-crash recovery."""

import os
import signal
import time

import pytest

from repro.eval import registry
from repro.eval.registry import ExperimentSpec
from repro.sweep.retry import (
    KIND_CRASH,
    KIND_EXCEPTION,
    KIND_TIMEOUT,
    RetryPolicy,
    RunTimeoutError,
    SweepError,
    classify_error,
    run_deadline,
)
from repro.sweep import retry
from repro.sweep.cells import _execute_cell
from repro.sweep.runner import SweepConfig
from repro.sweep.runner import run_sweep as _run_sweep


def run_sweep(experiment, **settings):
    """Keyword-style helper: every sweep here goes through SweepConfig."""
    return _run_sweep(experiment, SweepConfig(**settings))


def flaky_experiment(counter_path: str = "", fail_times: int = 2,
                     seed: int = 0):
    """Fails its first ``fail_times`` attempts, then succeeds.

    Attempt count survives process boundaries via a file, so the fake
    works identically inline and on a process pool.
    """
    attempt = 0
    if os.path.exists(counter_path):
        with open(counter_path) as handle:
            attempt = int(handle.read() or 0)
    with open(counter_path, "w") as handle:
        handle.write(str(attempt + 1))
    if attempt < fail_times:
        raise RuntimeError(f"flaky failure #{attempt + 1}")
    return {"attempt": attempt + 1, "seed": seed}


def crashing_experiment(cell: int = 0, seed: int = 0):
    """SIGKILLs its own worker for one grid cell — an OOM stand-in."""
    if cell == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return {"cell": cell, "ok": True}


def sleepy_experiment(seed: int = 0):
    time.sleep(30.0)
    return {"ok": True}


def report(result):
    return [str(result)]


@pytest.fixture
def flaky():
    registry.register(ExperimentSpec("flaky-test", flaky_experiment, report))
    yield "flaky-test"
    registry.unregister("flaky-test")


@pytest.fixture
def crashing():
    registry.register(
        ExperimentSpec("crash-test", crashing_experiment, report))
    yield "crash-test"
    registry.unregister("crash-test")


@pytest.fixture
def sleepy():
    registry.register(ExperimentSpec("sleep-test", sleepy_experiment, report))
    yield "sleep-test"
    registry.unregister("sleep-test")


@pytest.fixture
def fast_backoff(monkeypatch):
    """Retry rounds 10 ms apart (capped at 50 ms), not 0.5 s."""
    monkeypatch.setattr(retry, "BACKOFF_S", 0.01)
    monkeypatch.setattr(retry, "MAX_BACKOFF_S", 0.05)


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy()
        assert policy.backoff_delay(0) == 0.0
        assert policy.backoff_delay(1) == pytest.approx(0.5)
        assert policy.backoff_delay(2) == pytest.approx(1.0)
        assert policy.backoff_delay(3) == pytest.approx(2.0)
        assert policy.backoff_delay(4) == pytest.approx(4.0)
        assert policy.backoff_delay(5) == pytest.approx(5.0)  # capped
        assert policy.backoff_delay(10) == pytest.approx(5.0)

    def test_allows_retry_counts_all_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows_retry(1) and policy.allows_retry(2)
        assert not policy.allows_retry(3)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0)

    def test_classify(self):
        from concurrent.futures.process import BrokenProcessPool

        assert classify_error(RunTimeoutError()) == KIND_TIMEOUT
        assert classify_error(BrokenProcessPool("x")) == KIND_CRASH
        assert classify_error(ValueError("x")) == KIND_EXCEPTION


class TestRunDeadline:
    def test_expires(self):
        with pytest.raises(RunTimeoutError):
            with run_deadline(0.05):
                time.sleep(1.0)

    def test_no_timeout_is_noop(self):
        with run_deadline(None):
            pass

    def test_completes_under_deadline(self):
        with run_deadline(5.0):
            value = 1 + 1
        assert value == 2


@pytest.mark.usefixtures("fast_backoff")
class TestFlakyRetry:
    def test_flaky_run_succeeds_after_retries(self, tmp_path, flaky):
        counter = str(tmp_path / "counter")
        sweep = run_sweep(
            flaky, seeds=1, jobs=1, cache_dir=str(tmp_path / "cache"),
            params={"counter_path": counter, "fail_times": 2},
            retry=RetryPolicy(max_attempts=3))
        record = sweep.records[0]
        assert record["status"] == "ok"
        assert record["attempts"] == 3
        assert sweep.n_failed == 0

    def test_attempts_exhausted_marks_failed(self, tmp_path, flaky):
        counter = str(tmp_path / "counter")
        sweep = run_sweep(
            flaky, seeds=1, jobs=1, cache_dir=str(tmp_path / "cache"),
            params={"counter_path": counter, "fail_times": 10},
            retry=RetryPolicy(max_attempts=2))
        record = sweep.records[0]
        assert record["status"] == "failed"
        assert record["attempts"] == 2
        assert record["error"]["kind"] == KIND_EXCEPTION
        assert "flaky failure" in record["error"]["message"]
        assert record["result"] is None
        assert sweep.n_failed == 1

    def test_failed_runs_excluded_from_aggregate(self, tmp_path, flaky):
        sweep = run_sweep(
            flaky, seeds=1, jobs=1, cache_dir=str(tmp_path / "cache"),
            params={"counter_path": str(tmp_path / "counter")},
            grid={"fail_times": [0, 10]},
            retry=RetryPolicy(max_attempts=1))
        assert sweep.n_failed == 1
        # Only the successful cell contributes to the aggregate.
        assert sweep.aggregate["attempt"]["n"] == 1

    def test_failed_runs_are_not_cached(self, tmp_path, flaky):
        counter = str(tmp_path / "counter")
        kwargs = dict(seeds=1, jobs=1, cache_dir=str(tmp_path / "cache"),
                      params={"counter_path": counter, "fail_times": 1},
                      retry=RetryPolicy(max_attempts=1))
        first = run_sweep(flaky, **kwargs)
        assert first.records[0]["status"] == "failed"
        # Second sweep must re-attempt (now past the flake) — a failure
        # must never be served from cache.
        second = run_sweep(flaky, **kwargs)
        assert second.cache_hits == 0
        assert second.records[0]["status"] == "ok"

    def test_strict_mode_raises_immediately(self, tmp_path, flaky):
        counter = str(tmp_path / "counter")
        with pytest.raises(SweepError, match="flaky failure"):
            run_sweep(
                flaky, seeds=1, jobs=1, cache_dir=str(tmp_path / "cache"),
                params={"counter_path": counter, "fail_times": 5},
                strict=True,
                retry=RetryPolicy(max_attempts=5))
        # Fail-fast: exactly one attempt was made despite retries allowed.
        with open(counter) as handle:
            assert handle.read() == "1"


@pytest.mark.usefixtures("fast_backoff")
class TestWorkerCrashRecovery:
    def test_sigkilled_worker_yields_completed_sweep(self, tmp_path,
                                                     crashing):
        sweep = run_sweep(
            crashing, seeds=1, jobs=2, grid={"cell": [0, 1, 2]},
            cache_dir=str(tmp_path / "cache"),
            retry=RetryPolicy(max_attempts=2))
        by_cell = {record["params"]["cell"]: record
                   for record in sweep.records}
        assert by_cell[1]["status"] == "failed"
        assert by_cell[1]["error"]["kind"] == KIND_CRASH
        assert by_cell[0]["status"] == "ok"
        assert by_cell[2]["status"] == "ok"
        assert sweep.n_failed == 1
        # Survivors aggregate normally.
        assert sweep.aggregate["ok"]["n"] == 2

    def test_crash_with_strict_raises(self, tmp_path, crashing):
        with pytest.raises(SweepError, match="crash"):
            run_sweep(
                crashing, seeds=1, jobs=2, grid={"cell": [1]},
                cache_dir=str(tmp_path / "cache"), strict=True,
                retry=RetryPolicy(max_attempts=3))


@pytest.mark.usefixtures("fast_backoff")
class TestTimeout:
    def test_run_past_timeout_marked_failed(self, tmp_path, sleepy):
        started = time.monotonic()
        sweep = run_sweep(
            sleepy, seeds=1, jobs=1, cache_dir=str(tmp_path / "cache"),
            retry=RetryPolicy(max_attempts=1, timeout_s=0.3))
        assert time.monotonic() - started < 10.0
        record = sweep.records[0]
        assert record["status"] == "failed"
        assert record["error"]["kind"] == KIND_TIMEOUT

    def test_pool_run_past_timeout_marked_failed(self, tmp_path, sleepy):
        sweep = run_sweep(
            sleepy, seeds=2, jobs=2, cache_dir=str(tmp_path / "cache"),
            retry=RetryPolicy(max_attempts=1, timeout_s=0.3))
        assert all(r["status"] == "failed" for r in sweep.records)
        assert all(r["error"]["kind"] == KIND_TIMEOUT
                   for r in sweep.records)


class TestSeedHandling:
    def test_seed_for_seedless_experiment_warns_not_mutates(self):
        registry.register(ExperimentSpec(
            "seedless-test", seedless_experiment, report))
        try:
            payload = {"experiment": "seedless-test",
                       "params": [["x", 3]], "seed_index": 0, "seed": 42}
            with pytest.warns(RuntimeWarning, match="takes no seed"):
                record = _execute_cell(payload)
            assert record["status"] == "ok"
            assert record["result"] == {"x": 3}
        finally:
            registry.unregister("seedless-test")


def seedless_experiment(x: int = 0):
    return {"x": x}
