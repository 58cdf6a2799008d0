"""Fault-tolerance policy for sweep cells: timeouts, retries, backoff.

A sweep cell can fail three ways — the experiment raises, the run
exceeds its per-run timeout, or the worker process dies outright
(SIGKILL, OOM).  :class:`RetryPolicy` says how many attempts each cell
gets and how long to back off between retry rounds; the runner consults
it and, when attempts are exhausted, marks the cell ``failed`` instead
of sinking the whole sweep.  All delays are deterministic (pure
exponential, no jitter) so sweep behavior is reproducible in tests.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass

#: Error kinds recorded on a failed cell.
KIND_EXCEPTION = "exception"  # the experiment function raised
KIND_TIMEOUT = "timeout"      # the per-run timeout expired
KIND_CRASH = "crash"          # the worker process died (SIGKILL/OOM)


class RunTimeoutError(Exception):
    """A sweep cell exceeded its per-run timeout."""


class SweepError(RuntimeError):
    """The sweep as a whole must abort: a cell failed under
    ``strict=True``, or a dispatched shard failed deterministically /
    ran out of dispatch attempts."""


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the runner tries before giving up on one cell.

    ``max_attempts`` counts every try, including the first (so 1 means
    no retries).  Between retry rounds the runner sleeps
    ``backoff_s * backoff_factor ** (round - 1)`` seconds, capped at
    ``max_backoff_s``.  ``timeout_s=None`` disables the per-run timeout.
    """

    max_attempts: int = 3
    timeout_s: float = None  # type: ignore[assignment]
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.backoff_s < 0 or self.backoff_factor < 1:
            raise ValueError("backoff_s must be >= 0 and "
                             "backoff_factor >= 1")

    def backoff_delay(self, retry_round: int) -> float:
        """Seconds to sleep before retry round ``retry_round`` (1-based)."""
        if retry_round < 1:
            return 0.0
        delay = self.backoff_s * self.backoff_factor ** (retry_round - 1)
        return min(delay, self.max_backoff_s)

    def allows_retry(self, attempts_used: int) -> bool:
        return attempts_used < self.max_attempts


NO_RETRY = RetryPolicy(max_attempts=1)


@dataclass(frozen=True)
class ShardRetryPolicy:
    """How the dispatch driver supervises *shards* (not cells).

    A shard is one ``--shard i/n`` slice run as a child by the
    :class:`~repro.sweep.executors.SupervisedChildExecutor`.  When a
    shard is ``lost`` — its process killed, its heartbeat stale, its
    timeout exceeded — the driver re-dispatches it up to
    ``max_attempts`` total dispatches; cells the lost attempt already
    finished are answered from the result cache on the retry.  A shard
    that *fails* (exit 1 or 2 from a config error or ``--strict``) is
    never re-dispatched: retrying a deterministic failure cannot help.
    ``poll_interval_s`` paces the driver's supervision loop.
    """

    max_attempts: int = 2
    poll_interval_s: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")

    def allows_retry(self, attempts_used: int) -> bool:
        return attempts_used < self.max_attempts


def classify_error(error: BaseException) -> str:
    """Map an exception from a cell to one of the error kinds."""
    from concurrent.futures.process import BrokenProcessPool

    if isinstance(error, RunTimeoutError):
        return KIND_TIMEOUT
    if isinstance(error, BrokenProcessPool):
        return KIND_CRASH
    return KIND_EXCEPTION


def error_summary(error: BaseException) -> dict:
    """A JSON-safe description of a cell failure for the run record."""
    return {
        "kind": classify_error(error),
        "type": type(error).__name__,
        "message": str(error),
    }


@contextmanager
def run_deadline(timeout_s):
    """Raise :class:`RunTimeoutError` if the body runs past ``timeout_s``.

    Implemented with ``SIGALRM``, which interrupts even CPU-bound pure
    Python — exactly the shape of a wedged simulation run.  On platforms
    without ``SIGALRM`` (or off the main thread) this is a no-op; the
    runner still completes, just without timeout enforcement there.
    """
    usable = (
        timeout_s is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _expired(signum, frame):
        raise RunTimeoutError(f"run exceeded timeout of {timeout_s} s")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
