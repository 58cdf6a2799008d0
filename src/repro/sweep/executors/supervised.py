"""Shard dispatch: the shard types and the executor that supervises them.

A dispatched sweep is split into ``n`` deterministic ``--shard i/n``
slices (the same partition :func:`repro.sweep.grid.shard_specs`
computes everywhere).  Each slice becomes a :class:`ShardSpec`;
:class:`SupervisedChildExecutor` runs it as a ``python -m repro sweep
--shard i/n`` child process on this machine and reports on it through a
:class:`ShardHandle`:

* ``submit(spec, attempts=) -> ShardHandle`` — start one shard's child
  without waiting for it;
* ``poll() -> [ShardHandle]`` — supervise every running child and
  return every shard's latest handle (``running`` / ``ok`` / ``failed``
  / ``lost``);
* ``resubmit(handle)`` — start a lost shard again, one attempt later;
* ``collect() -> [artifact dir]`` — the ``ok`` shards' artifact
  directories, in shard-index order;
* ``cancel()`` — kill every child still running.

Supervision is, on each ``poll()``: exit status, then
``shard_timeout_s``, then heartbeat age against
``heartbeat_timeout_s``.  The exit-status policy:

* exit 0 **and** ``sweep.json`` present -> ``ok``;
* exit 1 or 2 -> ``failed`` (the only codes ``cmd_sweep`` returns for a
  bad config, a ``--strict`` abort or a ``SweepError``), never re-run;
* death by signal, any other status, timeout, stale heartbeat, or exit
  0 without a manifest -> ``lost``: the process died, and the driver
  may re-dispatch it.

Shards on several machines are run by hand: ``--shard i/n`` on each,
then ``repro merge`` (EXPERIMENTS.md, "Dispatched sweeps").
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sweep.runner import SweepConfig

#: Shard lifecycle states recorded in the ``repro.sweep/v4`` manifest.
SHARD_RUNNING = "running"
SHARD_OK = "ok"
SHARD_FAILED = "failed"  # deterministic failure; never re-dispatched
SHARD_LOST = "lost"      # the child died; eligible for re-dispatch


@dataclass(frozen=True)
class ShardSpec:
    """One dispatchable slice of a sweep: shard ``index`` of ``count``.

    ``config`` is the child's :class:`~repro.sweep.runner.SweepConfig`
    (shard-free — the shard slice lives here); ``out_dir`` is where the
    child writes the shard's artifacts; ``heartbeat`` names a file the
    child keeps touching so a supervisor can tell a wedged shard from a
    slow one (None disables the heartbeat).
    """

    experiment: str
    config: "SweepConfig"
    index: int
    count: int
    out_dir: str
    heartbeat: Optional[str] = None

    def command(self) -> List[str]:
        """The ``python -m repro sweep`` argv that runs this shard."""
        cfg = self.config
        argv = [sys.executable, "-m", "repro", "sweep", self.experiment,
                "--seeds", str(cfg.seeds),
                "--jobs", str(cfg.jobs),
                "--root-seed", str(cfg.root_seed),
                "--shard", f"{self.index}/{self.count}",
                "--out", self.out_dir,
                "--quiet"]
        for key, value in sorted((cfg.params or {}).items()):
            argv += ["--param", f"{key}={_cli_value(key, value)}"]
        for key, values in sorted((cfg.grid or {}).items()):
            argv += ["--grid", f"{key}=" + ",".join(
                _cli_value(key, value) for value in values)]
        retry = cfg.retry
        if retry is not None:
            argv += ["--retries", str(retry.max_attempts - 1),
                     "--retry-backoff", str(retry.backoff_s)]
            if retry.timeout_s is not None:
                argv += ["--timeout", str(retry.timeout_s)]
        if cfg.strict:
            argv += ["--strict"]
        if cfg.trace_dir is not None:
            # Bare flag: the child traces into its own <out>/traces.
            argv += ["--trace"]
        if not cfg.use_cache:
            argv += ["--no-cache"]
        else:
            argv += ["--cache-dir", cfg.cache_dir]
            if cfg.cache_max_bytes is not None:
                argv += ["--cache-max-mb",
                         str(cfg.cache_max_bytes / (1024 * 1024))]
        if self.heartbeat:
            argv += ["--heartbeat", self.heartbeat]
        return argv


def _cli_value(key: str, value: object) -> str:
    """Render one parameter value so the shard CLI re-parses it exactly."""
    text = str(value)
    if "," in text or "=" in text or "\n" in text or text != text.strip():
        raise ValueError(
            f"parameter {key}={value!r} cannot be round-tripped on a "
            f"shard command line (contains ',', '=', or edge whitespace)")
    return text


@dataclass
class ShardHandle:
    """The driver's view of one dispatched shard attempt."""

    spec: ShardSpec
    status: str = SHARD_RUNNING
    attempts: int = 1
    pid: Optional[int] = None
    error: Optional[str] = None
    #: Wall-clock seconds of the attempt (telemetry).
    wall_s: Optional[float] = None
    #: The supervised child process and its start time.
    worker: Any = field(default=None, repr=False, compare=False)

    @property
    def index(self) -> int:
        return self.spec.index

    def describe(self) -> dict:
        """The manifest row for this shard (``repro.sweep/v4``)."""
        return {
            "index": self.index,
            "status": self.status,
            "attempts": self.attempts,
            "host": "localhost",
            "error": self.error,
            "wall_s": self.wall_s,
        }


class SupervisedChildExecutor:
    """Run every shard as a supervised child process on this machine.

    All ``shards`` children run at once, each writing straight into its
    shard's ``out_dir``.  The executor keeps the latest handle per shard
    index; :meth:`_spawn` is the one place a child is started.
    """

    #: Backend name recorded in the manifest's ``dispatch`` section.
    name = "subprocess"

    def __init__(self, shards: int = 2, *,
                 shard_timeout_s: Optional[float] = None,
                 heartbeat_timeout_s: Optional[float] = None) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if shard_timeout_s is not None and shard_timeout_s <= 0:
            raise ValueError("shard_timeout_s must be positive")
        if heartbeat_timeout_s is not None and heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be positive")
        self.n_shards = shards
        self.shard_timeout_s = shard_timeout_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self._handles: Dict[int, ShardHandle] = {}

    @property
    def handles(self) -> List[ShardHandle]:
        """The latest handle of every shard, in shard-index order."""
        return [self._handles[index] for index in sorted(self._handles)]

    def _spawn(self, argv: List[str], log_path: str) -> subprocess.Popen:
        """Start ``argv`` with no stdin, its output appended to
        ``log_path``, and return without waiting."""
        with open(log_path, "ab") as log:  # the child keeps its own copy
            return subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=subprocess.STDOUT)

    def submit(self, spec: ShardSpec, *, attempts: int = 1) -> ShardHandle:
        """Start ``spec``'s child; the handle is tracked before it runs."""
        handle = self._handles[spec.index] = ShardHandle(
            spec, attempts=attempts)
        os.makedirs(spec.out_dir, exist_ok=True)
        # A killed attempt's manifest must not pass for this one's, nor
        # its last heartbeat count against this one.
        for stale in (os.path.join(spec.out_dir, "sweep.json"),
                      spec.heartbeat):
            if stale and os.path.exists(stale):
                os.unlink(stale)
        started = time.monotonic()
        try:
            process = self._spawn(spec.command(),
                                  os.path.join(spec.out_dir, "shard.log"))
        except OSError as error:
            handle.status = SHARD_LOST
            handle.error = f"cannot start shard: {error}"
            return handle
        handle.pid = process.pid
        handle.worker = (process, started)
        return handle

    def resubmit(self, handle: ShardHandle) -> ShardHandle:
        """Start a lost shard again, one attempt later."""
        return self.submit(handle.spec, attempts=handle.attempts + 1)

    def poll(self) -> List[ShardHandle]:
        for handle in self.handles:
            if handle.status == SHARD_RUNNING:
                self._check(handle)
        return self.handles

    def _check(self, handle: ShardHandle) -> None:
        process, started = handle.worker
        returncode = process.poll()
        if returncode is None:
            stale = self._stale_reason(handle, started)
            if stale:
                self._kill(handle, stale)
            return
        # The exit-status policy (see the module docstring).
        out_dir = handle.spec.out_dir
        handle.wall_s = time.monotonic() - started
        handle.status = SHARD_LOST
        if returncode == 0:
            if os.path.exists(os.path.join(out_dir, "sweep.json")):
                handle.status = SHARD_OK
            else:
                handle.error = "shard exited 0 without a sweep.json"
        elif returncode in (1, 2):
            log_path = os.path.join(out_dir, "shard.log")
            with open(log_path, errors="replace") as log:
                tail = log.read().strip().splitlines()[-1:] or [""]
            handle.status = SHARD_FAILED
            handle.error = (f"shard exited {returncode}: {tail[0]} "
                            f"(see {log_path})")
        elif returncode < 0:
            handle.error = f"shard killed by signal {-returncode}"
        else:
            handle.error = f"shard exited with status {returncode}"

    def _stale_reason(self, handle: ShardHandle,
                      started: float) -> Optional[str]:
        now = time.monotonic()
        if self.shard_timeout_s is not None \
                and now - started > self.shard_timeout_s:
            return (f"shard exceeded timeout of "
                    f"{self.shard_timeout_s} s")
        if self.heartbeat_timeout_s is None or not handle.spec.heartbeat:
            return None
        try:
            age = time.time() - os.path.getmtime(handle.spec.heartbeat)
        except OSError:
            # No heartbeat yet: measure from process start so a child
            # that wedges before its first beat is still caught.
            age = now - started
        if age > self.heartbeat_timeout_s:
            return (f"shard heartbeat stale for {age:.1f} s "
                    f"(limit {self.heartbeat_timeout_s} s)")
        return None

    def _kill(self, handle: ShardHandle, reason: str) -> None:
        """Kill a shard's child and mark the shard lost."""
        process, started = handle.worker
        process.kill()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover
            pass
        handle.wall_s = time.monotonic() - started
        handle.status, handle.error = SHARD_LOST, reason

    def collect(self) -> List[str]:
        """The ``ok`` shards' artifact directories, in index order."""
        return [handle.spec.out_dir for handle in self.handles
                if handle.status == SHARD_OK]

    def cancel(self) -> None:
        """Kill every child still running."""
        for handle in self.handles:
            if handle.status == SHARD_RUNNING:
                self._kill(handle, "cancelled")
