"""Fault-tolerance policy for sweep cells: timeouts, retries, backoff.

A sweep cell can fail three ways — the experiment raises, the run
exceeds its per-run timeout, or the worker process dies outright
(SIGKILL, OOM).  :class:`RetryPolicy` says how many attempts each cell
gets and how long one run may take; the runner consults it and, when
attempts are exhausted, marks the cell ``failed`` instead of sinking the
whole sweep.  The backoff between retry rounds is deterministic (pure
exponential, no jitter) so sweep behavior is reproducible in tests.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

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


#: Backoff between cell retry rounds: ``BACKOFF_S * BACKOFF_FACTOR **
#: (round - 1)`` seconds, capped at ``MAX_BACKOFF_S``.  Fixed because no
#: caller ever tuned it; tests shorten it through these names.
BACKOFF_S = 0.5
BACKOFF_FACTOR = 2.0
MAX_BACKOFF_S = 5.0


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the runner tries before giving up on one cell.

    ``max_attempts`` counts every try, including the first (so 1 means
    no retries).  ``timeout_s=None`` disables the per-run timeout.
    """

    max_attempts: int = 3
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")

    @staticmethod
    def backoff_delay(retry_round: int) -> float:
        """Seconds to sleep before retry round ``retry_round`` (1-based)."""
        if retry_round < 1:
            return 0.0
        return min(BACKOFF_S * BACKOFF_FACTOR ** (retry_round - 1),
                   MAX_BACKOFF_S)

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
