"""The supervised-child shard executor, its hosts and its transports.

:class:`SupervisedChildExecutor` is the only code that starts, watches,
classifies, kills or collects a shard child process.  It is built from
:class:`Host` entries and a :class:`CommandTransport`, in two
configurations:

* ``--executor subprocess`` (:meth:`SupervisedChildExecutor.on_localhost`):
  one implicit ``localhost`` host with ``shards`` slots over
  :class:`LocalCommandTransport`, children writing straight into their
  artifact directories;
* ``--executor ssh``: the given hosts over :class:`SSHCommandTransport`,
  each shard run in a per-dispatch remote workdir and fetched back on a
  clean exit.  ``--transport local`` swaps in
  :class:`LocalCommandTransport` — the whole remote path (preflight,
  workdir, fetch, cleanup, multi-host scheduling) with no sshd.

Hosts come from ``--hosts host1,host2:8`` (``name:slots``) or a TOML
hostfile (format: EXPERIMENTS.md, "Distributed sweeps").

Supervision is the same for every transport, on each ``poll()``: exit
status, then ``shard_timeout_s``, then — when the transport shares this
filesystem, so the shard's heartbeat file is visible — heartbeat age
against ``heartbeat_timeout_s``.  The exit-status policy:

* exit 0 **and** ``sweep.json`` present -> ``ok``;
* exit 1 or 2 -> ``failed`` (the only codes ``cmd_sweep`` returns for a
  bad config, a ``--strict`` abort or a ``SweepError``), never re-run;
* death by signal, any other status, transport error, timeout, stale
  heartbeat, or exit 0 without a manifest after the fetch -> ``lost``,
  re-dispatched by the driver on a host that has not lost it before.

Known trade: a remote shard's ``fetch`` runs inline in ``poll()``, so
sibling fetches do not overlap.
"""

from __future__ import annotations

import os
import posixpath
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sweep.executors.base import (
    SHARD_FAILED,
    SHARD_LOST,
    SHARD_OK,
    SHARD_RUNNING,
    Executor,
    ShardHandle,
    ShardSpec,
)


@dataclass(frozen=True)
class Host:
    """One dispatch target: an ssh-reachable name plus its capacity."""

    name: str
    slots: int = 1
    python: str = "python3"
    cwd: Optional[str] = None
    env: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("host name must be non-empty")
        if self.slots < 1:
            raise ValueError(f"host {self.name!r}: slots must be >= 1")


def parse_hosts(text: str, python: str = "python3") -> List[Host]:
    """Parse ``--hosts host1,host2:8`` into :class:`Host` entries."""
    hosts: List[Host] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, sep, slots_text = chunk.partition(":")
        try:
            slots = int(slots_text) if sep else 1
        except ValueError:
            raise ValueError(
                f"bad host {chunk!r}; expected name or name:slots") from None
        hosts.append(Host(name, slots, python=python))
    if not hosts:
        raise ValueError(f"no hosts in {text!r}")
    return hosts


def load_hostfile(path: str) -> List[Host]:
    """Read a TOML hostfile (format: EXPERIMENTS.md, "Distributed sweeps")."""
    try:
        import tomllib
    except ImportError:  # pragma: no cover - Python < 3.11
        raise ValueError(
            "TOML hostfiles need Python >= 3.11 (tomllib); "
            "use --hosts name:slots,... instead") from None
    with open(path, "rb") as handle:
        data = tomllib.load(handle)
    default_python = data.get("python", "python3")
    default_cwd = data.get("cwd")
    hosts = []
    for entry in data.get("hosts", []):
        if "name" not in entry:
            raise ValueError(f"{path}: [[hosts]] entry without a name")
        hosts.append(Host(
            entry["name"],
            entry.get("slots", 1),
            python=entry.get("python", default_python),
            cwd=entry.get("cwd", default_cwd),
            env=tuple(sorted(entry.get("env", {}).items())),
        ))
    if not hosts:
        raise ValueError(f"{path}: no [[hosts]] entries")
    return hosts


class TransportError(RuntimeError):
    """The transport could not reach the host or move artifacts."""


class CommandTransport:
    """How shard commands start on a host and artifacts come back."""

    #: Whether a path named to the host is the same file here — if so
    #: the executor can watch the shard's heartbeat file.
    shares_filesystem = False

    def launch(self, host: Host, argv: Sequence[str],
               log_path: str) -> subprocess.Popen:
        """Start ``argv`` for ``host`` without waiting; return the local
        child, whose combined output is appended to ``log_path``."""
        raise NotImplementedError

    def run(self, host: Host, argv: Sequence[str],
            timeout: Optional[float] = None) -> Tuple[int, str]:
        """Launch ``argv`` and wait: (returncode, combined output)."""
        with tempfile.NamedTemporaryFile(suffix=".log") as log:
            process = self.launch(host, argv, log.name)
            try:
                returncode = process.wait(timeout)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                raise TransportError(
                    f"command on {host.name} timed out after {timeout} s"
                ) from None
            return returncode, log.read().decode(errors="replace")

    def fetch(self, host: Host, remote_dir: str, local_dir: str) -> None:
        """Copy a remote directory's contents to a local directory."""
        raise NotImplementedError

    def remove(self, host: Host, remote_dir: str) -> None:
        """Best-effort cleanup of a remote workdir."""

    @staticmethod
    def _spawn(command: Sequence[str], log_path: str,
               **popen_kwargs) -> subprocess.Popen:
        """``Popen`` with output appended to ``log_path`` and no stdin."""
        with open(log_path, "ab") as log:  # the child keeps its own copy
            try:
                return subprocess.Popen(
                    list(command), stdin=subprocess.DEVNULL, stdout=log,
                    stderr=subprocess.STDOUT, **popen_kwargs)
            except OSError as error:
                raise TransportError(
                    f"cannot run {command[0]}: {error}") from error


class SSHCommandTransport(CommandTransport):
    """The real thing: ``ssh`` to run, ``scp -r`` to fetch."""

    def __init__(self, ssh_options: Sequence[str] = ("-o", "BatchMode=yes"),
                 connect_timeout_s: float = 10.0) -> None:
        self.ssh_options = list(ssh_options) + [
            "-o", f"ConnectTimeout={int(connect_timeout_s)}"]

    def _shell_line(self, host: Host, argv: Sequence[str]) -> str:
        parts = []
        if host.cwd:
            parts.append(f"cd {shlex.quote(host.cwd)} &&")
        if host.env:
            parts.append("env " + " ".join(
                f"{key}={shlex.quote(value)}" for key, value in host.env))
        parts.append(" ".join(shlex.quote(arg) for arg in argv))
        return " ".join(parts)

    def launch(self, host: Host, argv: Sequence[str],
               log_path: str) -> subprocess.Popen:
        # ssh's own failures exit 255, which the executor's policy
        # already classes as lost (and preflight as a bad host).
        return self._spawn(
            ["ssh"] + self.ssh_options
            + [host.name, self._shell_line(host, argv)], log_path)

    def fetch(self, host: Host, remote_dir: str, local_dir: str) -> None:
        os.makedirs(local_dir, exist_ok=True)
        source = f"{host.name}:{posixpath.join(remote_dir, '*')}"
        command = ["scp", "-q", "-r"] + self.ssh_options + [
            source, local_dir]
        proc = subprocess.run(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, errors="replace")
        if proc.returncode != 0:
            raise TransportError(
                f"scp from {host.name}:{remote_dir} failed: "
                f"{proc.stdout.strip()}")

    def remove(self, host: Host, remote_dir: str) -> None:
        # The workdir is a token-named directory this dispatch created;
        # quote it and ignore failures — cleanup must never sink a sweep.
        try:
            self.run(host, ["rm", "-rf", remote_dir], timeout=30)
        except TransportError:
            pass


class LocalCommandTransport(CommandTransport):
    """Run shard commands as local children — also the ssh stand-in.

    ``host.name`` is ignored for execution (everything runs on this
    machine) but kept for status display, so ``--hosts a,b --transport
    local`` exercises multi-host scheduling, exclusion and retry logic
    with real subprocesses and no sshd.  This interpreter replaces the
    command's, so ``Host`` entries written for remote machines still
    run here.
    """

    shares_filesystem = True

    def launch(self, host: Host, argv: Sequence[str],
               log_path: str) -> subprocess.Popen:
        return self._spawn(
            [sys.executable] + list(argv[1:]), log_path,
            cwd=host.cwd, env={**os.environ, **dict(host.env)})

    def fetch(self, host: Host, remote_dir: str, local_dir: str) -> None:
        if not os.path.isdir(remote_dir):
            raise TransportError(f"no artifacts at {remote_dir}")
        shutil.copytree(remote_dir, local_dir, dirs_exist_ok=True)

    def remove(self, host: Host, remote_dir: str) -> None:
        shutil.rmtree(remote_dir, ignore_errors=True)


class SupervisedChildExecutor(Executor):
    """Dispatch shards as supervised children through a transport.

    Every launched shard takes one slot on its host (a host with
    ``slots=8`` runs up to 8 shards concurrently); a shard submitted to
    a full host stays queued (``handle.worker is None``) and is launched
    from ``poll()`` when a slot frees.  ``shards`` defaults to the total
    slot count — one busy slot per shard at full fan-out.
    """

    name = "ssh"

    def __init__(self, hosts: Sequence[Host],
                 transport: Optional[CommandTransport] = None,
                 shards: Optional[int] = None,
                 shard_timeout_s: Optional[float] = None,
                 heartbeat_timeout_s: Optional[float] = None,
                 remote_root: Optional[str] = None,
                 preflight: bool = True,
                 preflight_timeout_s: float = 30.0) -> None:
        if not hosts:
            raise ValueError("the executor needs at least one host")
        names = [host.name for host in hosts]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate host names: {', '.join(names)}")
        if heartbeat_timeout_s is not None and heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be positive")
        if shard_timeout_s is not None and shard_timeout_s <= 0:
            raise ValueError("shard_timeout_s must be positive")
        super().__init__(shards if shards is not None
                         else sum(host.slots for host in hosts))
        self.hosts = list(hosts)
        self._hosts = {host.name: host for host in hosts}
        self.transport = transport or SSHCommandTransport()
        self.wants_heartbeat = self.transport.shares_filesystem
        self.shard_timeout_s = shard_timeout_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        #: Per-dispatch workdir on each host, fetched from after a clean
        #: exit; None means children write straight into their shard's
        #: ``out_dir`` (nothing to fetch or remove).
        self.remote_root: Optional[str] = remote_root or posixpath.join(
            ".repro-sweep-remote",
            f"dispatch-{os.getpid()}-{os.urandom(4).hex()}")
        self.preflight_timeout_s = preflight_timeout_s
        #: Hosts dropped by the preflight check, name -> reason.
        self.preflight_failures: Dict[str, str] = {}
        self._preflight_done = not preflight

    @classmethod
    def on_localhost(cls, shards: int = 2,
                     transport: Optional[CommandTransport] = None,
                     heartbeat_timeout_s: Optional[float] = None,
                     shard_timeout_s: Optional[float] = None,
                     ) -> "SupervisedChildExecutor":
        """The ``--executor subprocess`` configuration: ``shards`` slots
        on this machine and interpreter.  No preflight (the running
        interpreter has already imported ``repro``) and no workdir, so
        exactly ``shards`` child processes and no artifact copy."""
        slots = max(1, shards)  # __init__ rejects shards < 1 by name
        executor = cls(
            [Host("localhost", slots, python=sys.executable)],
            transport or LocalCommandTransport(), shards=shards,
            shard_timeout_s=shard_timeout_s,
            heartbeat_timeout_s=heartbeat_timeout_s, preflight=False)
        executor.name = "subprocess"
        executor.remote_root = None
        return executor

    def _check_host(self, host: Host) -> Optional[str]:
        """One host's preflight; returns a failure reason or None."""
        try:
            code, output = self.transport.run(
                host, [host.python, "-V"],
                timeout=self.preflight_timeout_s)
            if code != 0:
                return (f"{host.python} -V exited {code}: "
                        f"{output.strip() or '(no output)'}")
            code, output = self.transport.run(
                host, [host.python, "-c", "import repro"],
                timeout=self.preflight_timeout_s)
            if code != 0:
                tail = output.strip().splitlines()[-1:] or ["(no output)"]
                return (f"cannot import repro with {host.python} "
                        f"(set cwd/env in the hostfile?): {tail[0]}")
        except TransportError as error:
            return str(error)
        return None

    def _ensure_preflight(self) -> None:
        """Check every host's python + repro import before dispatching.

        A host that fails is dropped from the rotation (the shard goes
        elsewhere); only when *no* host survives does the sweep itself
        fail, with every host's reason in the message.
        """
        if self._preflight_done:
            return
        for host in self.hosts:
            reason = self._check_host(host)
            if reason is not None:
                self.preflight_failures[host.name] = reason
        usable = [host for host in self.hosts
                  if host.name not in self.preflight_failures]
        if not usable:
            details = "; ".join(
                f"{name}: {reason}" for name, reason
                in sorted(self.preflight_failures.items()))
            raise TransportError(
                f"preflight failed on all "
                f"{len(self.hosts)} host(s) — {details}")
        self.hosts = usable
        self._preflight_done = True

    def _load(self, host: Host, launched_only: bool = False) -> int:
        """Unfinished shards on ``host``: its busy slots, plus the
        queued ones unless ``launched_only``."""
        return sum(1 for handle in self.handles
                   if handle.host == host.name
                   and handle.status == SHARD_RUNNING
                   and not (launched_only and handle.worker is None))

    def submit(self, spec: ShardSpec, *, attempts: int = 1,
               excluded_hosts=()) -> ShardHandle:
        self._ensure_preflight()
        usable = [host for host in self.hosts
                  if host.name not in excluded_hosts]
        if not usable:  # every host lost this shard once: start over
            usable = self.hosts
        # Least load relative to capacity keeps wide hosts busy.
        host = min(usable, key=lambda host: self._load(host) / host.slots)
        handle = self._track(ShardHandle(
            spec, attempts=attempts, host=host.name,
            excluded_hosts=tuple(excluded_hosts)))
        self._start_queued()
        return handle

    def _start_queued(self) -> None:
        for handle in self.handles:
            host = self._hosts[handle.host]
            if handle.status == SHARD_RUNNING and handle.worker is None \
                    and self._load(host, launched_only=True) < host.slots:
                self._launch(handle, host)

    def _workdir(self, handle: ShardHandle) -> str:
        """Where the attempt writes: a directory no earlier attempt
        used, or the shard's own ``out_dir`` when there is no workdir."""
        if self.remote_root is None:
            return handle.spec.out_dir
        return posixpath.join(
            self.remote_root, f"shard-{handle.index}-try{handle.attempts}")

    def _launch(self, handle: ShardHandle, host: Host) -> None:
        spec = handle.spec
        os.makedirs(spec.out_dir, exist_ok=True)
        # A killed attempt's manifest must not pass for this one's, nor
        # its last heartbeat count against this one.
        for stale in (os.path.join(spec.out_dir, "sweep.json"),
                      spec.heartbeat):
            if stale and os.path.exists(stale):
                os.unlink(stale)
        argv = spec.command(host.python, out_dir=self._workdir(handle))
        started = time.monotonic()
        try:
            process = self.transport.launch(
                host, argv, os.path.join(spec.out_dir, "shard.log"))
        except TransportError as error:
            handle.status, handle.error = SHARD_LOST, str(error)
            return
        handle.pid = process.pid
        handle.worker = (process, started)

    def poll(self) -> List[ShardHandle]:
        for handle in self.handles:
            if handle.status == SHARD_RUNNING and handle.worker is not None:
                self._check(handle)
        self._start_queued()
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
        spec, where = handle.spec, f"shard on {handle.host}"
        handle.wall_s = time.monotonic() - started
        handle.status = SHARD_LOST
        if returncode == 0:
            try:
                if self.remote_root is not None:
                    self.transport.fetch(self._hosts[handle.host],
                                         self._workdir(handle), spec.out_dir)
            except TransportError as error:
                handle.error = str(error)
            else:
                if os.path.exists(os.path.join(spec.out_dir, "sweep.json")):
                    handle.status = SHARD_OK
                else:
                    handle.error = f"{where} exited 0 without a sweep.json"
        elif returncode in (1, 2):
            log_path = os.path.join(spec.out_dir, "shard.log")
            with open(log_path, errors="replace") as log:
                tail = log.read().strip().splitlines()[-1:] or [""]
            handle.status = SHARD_FAILED
            handle.error = (f"{where} exited {returncode}: {tail[0]} "
                            f"(see {log_path})")
        elif returncode < 0:
            handle.error = f"{where} killed by signal {-returncode}"
        else:
            handle.error = f"{where} exited with status {returncode}"

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
        """Kill a launched shard's child and mark the shard lost."""
        process, started = handle.worker
        process.kill()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover
            pass
        handle.wall_s = time.monotonic() - started
        handle.status, handle.error = SHARD_LOST, reason

    def collect(self) -> List[str]:
        if self.remote_root is not None \
                and all(handle.status == SHARD_OK for handle in self.handles):
            # Dispatch is over: drop the workdir on every host it used.
            for name in sorted({handle.host for handle in self.handles}):
                self.transport.remove(self._hosts[name], self.remote_root)
        return super().collect()

    def cancel(self) -> None:
        """Kill every in-flight child (for ssh: the ``ssh`` client)."""
        for handle in self.handles:
            if handle.status != SHARD_RUNNING:
                continue
            if handle.worker is None:  # still queued for a slot
                handle.status, handle.error = SHARD_LOST, "cancelled"
            else:
                self._kill(handle, "cancelled")
