"""Shard dispatch: one sweep run as supervised ``--shard i/n`` children.

:func:`~repro.sweep.runner.run_sweep` hands a config with ``shards=N``
to :func:`dispatch_sweep`, the only way in.  It splits the sweep into
``N`` deterministic slices (the partition
:func:`repro.sweep.grid.shard_specs` computes everywhere), runs each as
a ``python -m repro sweep --shard i/N`` child on this machine,
supervises the children until every shard is ``ok``, and merges their
artifact directories through the validated merge path, so the result's
``aggregate.csv`` is bit-identical to an undispatched run.

Supervision, on every pass of the driver loop, is the child's exit
status, then the age of its heartbeat file against
:data:`HEARTBEAT_STALE_S` (a child that has not beaten yet is aged from
its start).  A run that never ends is the per-run ``--timeout``'s job,
and every shard inherits that.  The exit-status policy:

* exit 0 **and** ``sweep.json`` present -> ``ok``;
* exit 1 or 2 -> ``failed`` (the only codes ``cmd_sweep`` returns for a
  bad config, a ``--strict`` abort or a ``SweepError``): the sweep
  aborts, because retrying a deterministic failure cannot help;
* death by signal, any other status, a stale heartbeat, or exit 0
  without a manifest -> ``lost``: the process died, so the shard is
  re-dispatched, up to :data:`SHARD_ATTEMPTS` dispatches in all.  The
  retry answers the cells the lost attempt finished from the result
  cache.

Any error in the driver kills every child still running.  Shards on
several machines are run by hand: ``--shard i/n`` on each, then
``repro merge`` (EXPERIMENTS.md, "Dispatched sweeps").
"""

from __future__ import annotations

import contextlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Any, List, Optional, Tuple

from repro.sweep.merge import merge_sweeps
from repro.sweep.retry import SweepError
from repro.sweep.runner import (Progress, SweepConfig, SweepResult,
                                _validated_inputs)

#: A child whose heartbeat file is older than this is wedged: 120 beats
#: of the child's 0.5 s heartbeat (``cli._start_heartbeat``).
HEARTBEAT_STALE_S = 60.0
#: Dispatches per shard, the first included, before a lost shard fails
#: the sweep.
SHARD_ATTEMPTS = 2
#: Pace of the driver's supervision loop.
POLL_INTERVAL_S = 0.1

#: Shard lifecycle states recorded in the ``repro.sweep/v4`` manifest.
SHARD_RUNNING = "running"
SHARD_OK = "ok"
SHARD_FAILED = "failed"  # deterministic failure; never re-dispatched
SHARD_LOST = "lost"      # the child died; eligible for re-dispatch


@dataclass
class _Shard:
    """The driver's view of one shard: its latest dispatch attempt."""

    index: int
    out_dir: str
    heartbeat: str
    argv: List[str]
    attempts: int = 0
    status: str = SHARD_RUNNING
    error: Optional[str] = None
    #: Wall-clock seconds of the attempt (telemetry).
    wall_s: Optional[float] = None
    #: The attempt's ``subprocess.Popen`` (None before the first).
    process: Any = field(default=None, repr=False)
    started: float = 0.0

    def row(self) -> dict:
        """The manifest row for this shard (``repro.sweep/v4``)."""
        return {
            "index": self.index,
            "status": self.status,
            "attempts": self.attempts,
            "host": "localhost",
            "error": self.error,
            "wall_s": self.wall_s,
        }


def shard_command(experiment: str, config: SweepConfig, index: int,
                  count: int, out_dir: str, heartbeat: str) -> List[str]:
    """The ``python -m repro sweep`` argv that runs shard ``index`` of
    ``count``; ``config`` is the shard-free config of the whole sweep."""
    argv = [sys.executable, "-m", "repro", "sweep", experiment,
            "--seeds", str(config.seeds),
            "--jobs", str(config.jobs),
            "--root-seed", str(config.root_seed),
            "--shard", f"{index}/{count}",
            "--out", out_dir,
            "--quiet"]
    for key, value in sorted((config.params or {}).items()):
        argv += ["--param", f"{key}={_cli_value(key, value)}"]
    for key, values in sorted((config.grid or {}).items()):
        argv += ["--grid", f"{key}=" + ",".join(
            _cli_value(key, value) for value in values)]
    retry = config.retry
    if retry is not None:
        argv += ["--retries", str(retry.max_attempts - 1)]
        if retry.timeout_s is not None:
            argv += ["--timeout", str(retry.timeout_s)]
    if config.strict:
        argv += ["--strict"]
    if config.trace_dir is not None:
        # Bare flag: the child traces into its own <out>/traces.
        argv += ["--trace"]
    if config.cache_dir is None:
        argv += ["--no-cache"]
    else:
        argv += ["--cache-dir", config.cache_dir]
    return argv + ["--heartbeat", heartbeat]


def _cli_value(key: str, value: object) -> str:
    """Render one parameter value so the shard CLI re-parses it exactly."""
    text = str(value)
    if "," in text or "=" in text or "\n" in text or text != text.strip():
        raise ValueError(
            f"parameter {key}={value!r} cannot be round-tripped on a "
            f"shard command line (contains ',', '=', or edge whitespace)")
    return text


def _spawn(argv: List[str], log_path: str) -> subprocess.Popen:
    """Start ``argv`` with no stdin, its output appended to ``log_path``,
    and return without waiting: the one place a child is started."""
    with open(log_path, "ab") as log:  # the child keeps its own copy
        return subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)


def _start(shard: _Shard) -> None:
    """Dispatch ``shard`` once more: a fresh attempt of its child."""
    shard.attempts += 1
    shard.status, shard.error, shard.wall_s = SHARD_RUNNING, None, None
    os.makedirs(shard.out_dir, exist_ok=True)
    # A killed attempt's manifest must not pass for this one's, nor its
    # last heartbeat count against this one.
    for stale in (os.path.join(shard.out_dir, "sweep.json"),
                  shard.heartbeat):
        if os.path.exists(stale):
            os.unlink(stale)
    shard.started = time.monotonic()
    try:
        shard.process = _spawn(shard.argv,
                               os.path.join(shard.out_dir, "shard.log"))
    except OSError as error:
        shard.status = SHARD_LOST
        shard.error = f"cannot start shard: {error}"


def _exit_status(returncode: int,
                 out_dir: str) -> Tuple[str, Optional[str]]:
    """``(status, error)`` of a child that exited with ``returncode``:
    the exit-status policy of the module docstring."""
    if returncode == 0:
        if os.path.exists(os.path.join(out_dir, "sweep.json")):
            return SHARD_OK, None
        return SHARD_LOST, "shard exited 0 without a sweep.json"
    if returncode in (1, 2):
        log_path = os.path.join(out_dir, "shard.log")
        with open(log_path, errors="replace") as log:
            tail = log.read().strip().splitlines()[-1:] or [""]
        return SHARD_FAILED, (f"shard exited {returncode}: {tail[0]} "
                              f"(see {log_path})")
    if returncode < 0:
        return SHARD_LOST, f"shard killed by signal {-returncode}"
    return SHARD_LOST, f"shard exited with status {returncode}"


def _check(shard: _Shard) -> None:
    """Supervise one running shard: exit status, then heartbeat age."""
    returncode = shard.process.poll()
    if returncode is not None:
        shard.wall_s = time.monotonic() - shard.started
        shard.status, shard.error = _exit_status(returncode, shard.out_dir)
        return
    try:
        age = time.time() - os.path.getmtime(shard.heartbeat)
    except OSError:
        # No heartbeat yet: measure from process start so a child that
        # wedges before its first beat is still caught.
        age = time.monotonic() - shard.started
    if age > HEARTBEAT_STALE_S:
        _kill(shard, f"shard heartbeat stale for {age:.1f} s "
                     f"(limit {HEARTBEAT_STALE_S} s)")


def _kill(shard: _Shard, reason: str) -> None:
    """Kill a shard's child and mark the shard lost."""
    shard.process.kill()
    with contextlib.suppress(subprocess.TimeoutExpired):
        shard.process.wait(timeout=10)
    shard.wall_s = time.monotonic() - shard.started
    shard.status, shard.error = SHARD_LOST, reason


def _supervise(shards: List[_Shard], progress: Progress) -> None:
    """Poll every shard until all are ``ok``; re-dispatch lost ones."""
    count = len(shards)
    while True:
        busy = False
        for shard in shards:
            if shard.status == SHARD_RUNNING:
                _check(shard)
            if shard.status == SHARD_LOST:
                if shard.attempts >= SHARD_ATTEMPTS:
                    raise SweepError(
                        f"shard {shard.index}/{count} lost after "
                        f"{shard.attempts} dispatch attempt(s): "
                        f"{shard.error}")
                if progress is not None:
                    progress(f"shard {shard.index}/{count} lost "
                             f"({shard.error}); re-dispatching (attempt "
                             f"{shard.attempts + 1}/{SHARD_ATTEMPTS})")
                _start(shard)
            elif shard.status == SHARD_FAILED:
                raise SweepError(
                    f"shard {shard.index}/{count} failed: {shard.error}")
            busy = busy or shard.status != SHARD_OK
        if not busy:
            return
        time.sleep(POLL_INTERVAL_S)


def dispatch_sweep(experiment: str, config: SweepConfig, count: int,
                   progress: Progress) -> SweepResult:
    """Split the sweep into ``count`` (``config.shards``) shards,
    supervise them, merge the artifacts."""
    # Validate everything up front so a typo fails here, not inside a
    # child process; children re-coerce identically.
    params, grid, _n_seeds, all_specs = _validated_inputs(
        experiment, config, progress=progress)
    started = time.perf_counter()

    cleanup = config.shard_dir is None
    workdir = config.shard_dir or tempfile.mkdtemp(
        prefix="repro-sweep-dispatch-")
    if progress is not None:
        progress(f"dispatching {len(all_specs)} runs as {count} shard(s) "
                 f"via subprocess")

    # Children re-derive their slice from the same coordinates, so the
    # child config is shard-free and must not inherit process-local
    # state (a live cache object, dispatch settings).
    child = replace(config, params=params, grid=grid, cache=None,
                    shards=None, shard_dir=None)
    shards: List[_Shard] = []
    try:
        os.makedirs(workdir, exist_ok=True)
        submit_started = time.perf_counter()
        for index in range(count):
            out_dir = os.path.join(workdir, f"shard-{index}")
            heartbeat = os.path.join(workdir, f"shard-{index}.heartbeat")
            shards.append(_Shard(index, out_dir, heartbeat, shard_command(
                experiment, child, index, count, out_dir, heartbeat)))
            _start(shards[-1])
        submit_s = time.perf_counter() - submit_started
        _supervise(shards, progress)
        collect_started = time.perf_counter()
        merged = merge_sweeps([shard.out_dir for shard in shards])
        collect_s = time.perf_counter() - collect_started
    except BaseException:
        for shard in shards:
            if shard.status == SHARD_RUNNING and shard.process is not None:
                _kill(shard, "cancelled")
        raise
    finally:
        if cleanup:
            shutil.rmtree(workdir, ignore_errors=True)

    merged.jobs = config.jobs
    merged.elapsed_s = time.perf_counter() - started  # wall clock
    merged.dispatch = {
        "executor": "subprocess",
        "n_shards": count,
        "shards": [shard.row() for shard in shards],
    }
    if merged.telemetry is not None:
        # Shard telemetry was merged from the surviving attempts'
        # manifests (a lost attempt left no manifest, so its partial
        # telemetry is naturally discarded); add the dispatch-level
        # wall measurements only the driver can see.
        merged.telemetry["dispatch"] = {
            "executor": "subprocess",
            "n_shards": count,
            "wall_s": merged.elapsed_s,
            "submit_s": submit_s,
            "collect_s": collect_s,
            "shards": [shard.row() for shard in shards],
        }
    if progress is not None:
        for shard in shards:
            progress(f"shard {shard.index}/{count}: {shard.status} after "
                     f"{shard.attempts} attempt(s)")
    return merged
