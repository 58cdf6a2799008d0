"""The executor protocol: how a sweep's shards are dispatched and tracked.

A dispatched sweep is split into ``n`` deterministic ``--shard i/n``
slices (the same partition :func:`repro.sweep.grid.shard_specs`
computes everywhere).  Each slice becomes a :class:`ShardSpec`; an
:class:`Executor` turns specs into running shards and reports on them
through :class:`ShardHandle` objects:

* ``submit(spec, attempts=, excluded_hosts=) -> ShardHandle`` — start
  one shard (may block for in-process executors, must not for child
  processes); the handle is complete before anything is launched;
* ``poll() -> [ShardHandle]`` — refresh and return every live handle's
  status (``running`` / ``ok`` / ``failed`` / ``lost``);
* ``collect() -> [artifact dir]`` — the per-shard artifact directories,
  in shard-index order, once every shard is ``ok``;
* ``cancel()`` — best-effort teardown of everything still running.

``failed`` means the shard exited deterministically (bad config,
``--strict`` abort) and re-dispatching it cannot help; ``lost`` means
the shard's process or host died (SIGKILL, OOM, network, stale
heartbeat) and the driver may re-dispatch it via :meth:`Executor.
resubmit` — on a different host when the executor has one.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sweep.runner import SweepConfig

#: Shard lifecycle states recorded in the ``repro.sweep/v4`` manifest.
SHARD_RUNNING = "running"
SHARD_OK = "ok"
SHARD_FAILED = "failed"  # deterministic failure; never re-dispatched
SHARD_LOST = "lost"      # process/host death; eligible for re-dispatch


@dataclass(frozen=True)
class ShardSpec:
    """One dispatchable slice of a sweep: shard ``index`` of ``count``.

    ``config`` is the child's :class:`~repro.sweep.runner.SweepConfig`
    (shard-free — the shard slice lives here); ``out_dir`` is where the
    shard's artifacts must end up on *this* host; ``heartbeat`` names a
    file the shard process keeps touching so a supervisor can tell a
    wedged shard from a slow one (None disables the heartbeat).
    """

    experiment: str
    config: "SweepConfig"
    index: int
    count: int
    out_dir: str
    heartbeat: Optional[str] = None

    def command(self, python: str = sys.executable, *,
                out_dir: Optional[str] = None) -> List[str]:
        """The ``python -m repro sweep`` argv that runs this shard.

        ``out_dir`` overrides the spec's local path for a shard that
        runs in a workdir (ssh) and is fetched back afterwards.
        """
        cfg = self.config
        argv = [python, "-m", "repro", "sweep", self.experiment,
                "--seeds", str(cfg.seeds),
                "--jobs", str(cfg.jobs),
                "--root-seed", str(cfg.root_seed),
                "--shard", f"{self.index}/{self.count}",
                "--out", out_dir or self.out_dir,
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
            # Bare flag: the child traces into its own <out>/traces, so
            # remote shard traces come back with the artifact fetch.
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
    host: str = "local"
    pid: Optional[int] = None
    error: Optional[str] = None
    #: Hosts that already lost this shard; resubmit avoids them.
    excluded_hosts: Tuple[str, ...] = ()
    #: Wall-clock seconds of the successful attempt (telemetry).
    wall_s: Optional[float] = None
    #: Executor-private worker state: the supervised child process and
    #: its start time, None while the shard waits for a host slot.
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
            "host": self.host,
            "error": self.error,
            "wall_s": self.wall_s,
        }


class Executor:
    """Pluggable shard dispatch backend (see module docstring).

    The base class keeps the latest handle per shard index.  A backend
    implements ``submit`` (registering its handle with ``_track``) and,
    when its shards outlive ``submit``, ``poll`` and ``cancel``.
    """

    #: Backend name recorded in the manifest's ``dispatch`` section.
    name = "abstract"
    #: Whether shards should maintain a heartbeat file for supervision.
    wants_heartbeat = False

    def __init__(self, shards: int = 1) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.n_shards = shards
        self._handles: Dict[int, ShardHandle] = {}

    @property
    def handles(self) -> List[ShardHandle]:
        """The latest handle of every shard, in shard-index order."""
        return [self._handles[index] for index in sorted(self._handles)]

    def _track(self, handle: ShardHandle) -> ShardHandle:
        self._handles[handle.index] = handle
        return handle

    def submit(self, spec: ShardSpec, *, attempts: int = 1,
               excluded_hosts: Tuple[str, ...] = ()) -> ShardHandle:
        raise NotImplementedError

    def poll(self) -> List[ShardHandle]:
        return self.handles

    def collect(self) -> List[str]:
        return [handle.spec.out_dir for handle in self.handles
                if handle.status == SHARD_OK]

    def cancel(self) -> None:
        """Nothing asynchronous to stop unless a backend says so."""

    def resubmit(self, handle: ShardHandle) -> ShardHandle:
        """Re-dispatch a lost shard, avoiding hosts that lost it before."""
        return self.submit(
            handle.spec, attempts=handle.attempts + 1,
            excluded_hosts=handle.excluded_hosts + (handle.host,))
