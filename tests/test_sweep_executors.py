"""Shard-dispatch executors: equivalence, supervision, re-dispatch.

The load-bearing properties:

* every executor configuration (in-process, ``subprocess``, ``ssh`` over
  the local transport) produces an ``aggregate.csv`` byte-identical to
  an undispatched run of the same sweep;
* one class supervises every shard child, so the supervision suite runs
  once per configuration: a SIGKILLed shard is re-dispatched, a wedged
  one (SIGSTOP) is caught through its stale heartbeat, ``shard_timeout_s``
  kills an overlong one, deterministic failures abort the sweep, and
  ``cancel()`` leaves no child alive;
* the exit-status policy is one table (0+manifest ok, 1/2 failed,
  everything else lost).

Shards run real ``python -m repro sweep`` children; the test experiments
reach them via the ``REPRO_PLUGINS`` registry hook.  Fake transports
swap the launched command for a ``python -c`` stub (see ``_stub``).
"""

import os
import pickle
import signal
import sys
import threading
import time

import pytest

from repro.eval import registry
from repro.sweep.executors import (
    LocalCommandTransport,
    LocalPoolExecutor,
    SupervisedChildExecutor,
    load_hostfile,
    parse_hosts,
)
from repro.sweep.executors.ssh import TransportError
from repro.sweep.executors.base import (
    SHARD_FAILED,
    SHARD_LOST,
    SHARD_OK,
    SHARD_RUNNING,
    ShardSpec,
    _cli_value,
)
from repro.sweep.executors.local import (
    _cell_delta,
    _payload_from,
    _shared_context,
)
from repro.sweep.artifacts import write_sweep_artifacts
from repro.sweep.grid import expand_grid
from repro.sweep.merge import merge_sweeps
from repro.sweep.retry import ShardRetryPolicy, SweepError
from repro.sweep.runner import SweepConfig, run_sweep

TOY = "exec-toy-test"
SLOW = "exec-slow-test"

PLUGIN_MODULE = "repro_exec_test_plugin"
PLUGIN_SOURCE = '''
"""Registry plugin with the experiments the executor tests dispatch."""

import os
import random
import time

from repro.eval import registry
from repro.eval.registry import ExperimentSpec


def exec_toy(scale: float = 1.0, seed: int = 0):
    rng = random.Random(seed)
    return {"value": scale * rng.random(), "seed": seed}


def exec_slow(flag: str = "", marker_dir: str = "", seed: int = 0):
    """Write a started marker, then wait (bounded) for the flag file."""
    if marker_dir:
        path = os.path.join(marker_dir, "started-%d" % seed)
        with open(path, "w"):
            pass
    for _ in range(1200):
        if flag and os.path.exists(flag):
            break
        time.sleep(0.05)
    return {"seed": seed, "done": 1}


for _spec in (
    ExperimentSpec("exec-toy-test", exec_toy, lambda r: [str(r)]),
    ExperimentSpec("exec-slow-test", exec_slow, lambda r: [str(r)]),
):
    registry.register(_spec)
'''


@pytest.fixture
def plugin(tmp_path, monkeypatch):
    """Register the test experiments here AND in shard child processes."""
    root = tmp_path / "plugin"
    root.mkdir()
    (root / f"{PLUGIN_MODULE}.py").write_text(PLUGIN_SOURCE)
    # Absolutize inherited entries (the suite runs with PYTHONPATH=src)
    # so shard children started from another cwd still import repro.
    inherited = [os.path.abspath(entry) for entry
                 in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if entry]
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join([str(root)] + inherited))
    monkeypatch.setenv("REPRO_PLUGINS", PLUGIN_MODULE)
    monkeypatch.syspath_prepend(str(root))
    __import__(PLUGIN_MODULE)
    yield
    registry.unregister(TOY)
    registry.unregister(SLOW)
    sys.modules.pop(PLUGIN_MODULE, None)


def _aggregate_bytes(sweep, out_dir):
    paths = write_sweep_artifacts(sweep, str(out_dir))
    with open(paths["aggregate.csv"], "rb") as handle:
        return handle.read()


def _stub(code, output="", touch=None):
    """``python -c`` argv tail for a stand-in child: print ``output``,
    optionally create the file ``touch``, then exit with ``code`` (or,
    for a negative ``code``, die by that signal)."""
    lines = ["import os, sys", f"print({output!r})"]
    if touch:
        lines += [f"os.makedirs(os.path.dirname({touch!r}), exist_ok=True)",
                  f"open({touch!r}, 'w').close()"]
    lines.append(f"os.kill(os.getpid(), {-code})" if code < 0
                 else f"sys.exit({code})")
    return ["-c", "\n".join(lines)]


def _is_shard(argv):
    """A shard launch, as opposed to a preflight probe."""
    return list(argv[1:4]) == ["-m", "repro", "sweep"]


def _out_dir(argv):
    return argv[argv.index("--out") + 1]


def _poll_until(executor, done, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline and not done():
        executor.poll()
        time.sleep(0.05)
    assert done(), "condition not reached while polling"


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _ssh_local(tmp_path, hosts, **kwargs):
    """The ``--executor ssh --transport local`` configuration."""
    kwargs.setdefault("transport", LocalCommandTransport())
    return SupervisedChildExecutor(
        parse_hosts(hosts), remote_root=str(tmp_path / "remote"), **kwargs)


class TestExecutorEquivalence:
    def test_all_executors_bit_identical_to_direct_run(self, plugin,
                                                       tmp_path):
        def config(**extra):
            return SweepConfig(seeds=4, jobs=1, root_seed=3,
                               grid={"scale": [1.0, 2.0]},
                               use_cache=False, **extra)

        direct = run_sweep(TOY, config())
        reference = _aggregate_bytes(direct, tmp_path / "direct")
        assert direct.n_runs == 8

        executors = {
            "local": LocalPoolExecutor(shards=2),
            "subprocess": SupervisedChildExecutor.on_localhost(shards=2),
            "ssh": _ssh_local(tmp_path, "alpha,beta"),
        }
        for name, executor in executors.items():
            shard_dir = tmp_path / f"{name}-shards"
            merged = run_sweep(TOY, config(shard_dir=str(shard_dir)),
                               executor=executor)
            assert merged.dispatch["executor"] == name
            assert merged.dispatch["n_shards"] == 2
            assert all(row["status"] == SHARD_OK
                       for row in merged.dispatch["shards"])
            assert merged.manifest()["schema"] == "repro.sweep/v4"
            assert _aggregate_bytes(merged, tmp_path / name) == reference
            expected = {"sweep.json", "runs.csv", "aggregate.csv"}
            if name != "local":  # every child shard keeps its output
                expected.add("shard.log")
            for index in range(2):
                assert set(os.listdir(shard_dir / f"shard-{index}")) \
                    == expected

    def test_shard_artifacts_kept_in_shard_dir(self, plugin, tmp_path):
        shard_dir = tmp_path / "shards"
        run_sweep(TOY, SweepConfig(seeds=2, use_cache=False,
                                   shard_dir=str(shard_dir)),
                  executor=LocalPoolExecutor(shards=2))
        assert (shard_dir / "shard-0" / "sweep.json").is_file()
        assert (shard_dir / "shard-1" / "sweep.json").is_file()


class TestSubprocessSupervision:
    """The supervision suite against ``--executor subprocess``.

    :class:`TestSSHLocalSupervision` re-runs every test here against
    ``--executor ssh --transport local`` — same class, other
    configuration.
    """

    @staticmethod
    def make_executor(tmp_path, shards=1, **kwargs):
        return SupervisedChildExecutor.on_localhost(shards=shards, **kwargs)

    @staticmethod
    def slow_spec(tmp_path, **kwargs):
        """One never-finishing shard (until ``flag`` appears)."""
        return ShardSpec(
            SLOW,
            SweepConfig(seeds=1, jobs=1, use_cache=False,
                        params={"flag": str(tmp_path / "flag")}),
            index=0, count=1, out_dir=str(tmp_path / "out"), **kwargs)

    def test_sigkilled_shard_is_redispatched(self, plugin, tmp_path):
        flag = tmp_path / "flag"
        markers = tmp_path / "markers"
        markers.mkdir()
        executor = self.make_executor(tmp_path, shards=2)
        config = SweepConfig(
            seeds=2, jobs=1,
            params={"flag": str(flag), "marker_dir": str(markers)},
            cache_dir=str(tmp_path / "cache"),
            shard_retry=ShardRetryPolicy(max_attempts=2,
                                         poll_interval_s=0.05),
            shard_dir=str(tmp_path / "shards"))

        killed = []

        def assassin():
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and not list(markers.iterdir()):
                time.sleep(0.05)
            for handle in executor.handles:
                if handle.status == "running" and handle.pid:
                    os.kill(handle.pid, signal.SIGKILL)
                    killed.append(handle.index)
                    break
            flag.touch()  # unblock every surviving (and re-run) cell

        thread = threading.Thread(target=assassin, daemon=True)
        thread.start()
        merged = run_sweep(SLOW, config, executor=executor)
        thread.join(timeout=60)

        assert killed, "assassin never found a running shard"
        rows = {row["index"]: row for row in merged.dispatch["shards"]}
        assert all(row["status"] == SHARD_OK for row in rows.values())
        assert rows[killed[0]]["attempts"] == 2
        assert merged.n_runs == 2 and merged.n_failed == 0
        assert merged.manifest()["schema"] == "repro.sweep/v4"
        # The SIGKILLed attempt died before writing a manifest, so its
        # partial telemetry is discarded; only the surviving shard and
        # the successful retry contribute to the merged section.
        telemetry = merged.manifest()["telemetry"]
        assert telemetry["runs"] == {"total": 2, "ok": 2, "failed": 0,
                                     "cached": 0, "executed": 2}
        assert telemetry["wall_s"] > 0
        wall_times = [row["wall_s"] for row in merged.dispatch["shards"]]
        assert all(w is not None and w > 0 for w in wall_times)

    def test_lost_shard_exhausts_attempts(self, plugin, tmp_path):
        markers = tmp_path / "markers"
        markers.mkdir()
        executor = self.make_executor(tmp_path)
        config = SweepConfig(
            seeds=1, jobs=1,
            params={"flag": str(tmp_path / "never"),
                    "marker_dir": str(markers)},
            use_cache=False,
            shard_retry=ShardRetryPolicy(max_attempts=1,
                                         poll_interval_s=0.05),
            shard_dir=str(tmp_path / "shards"))

        def assassin():
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and not list(markers.iterdir()):
                time.sleep(0.05)
            for handle in executor.handles:
                if handle.pid:
                    os.kill(handle.pid, signal.SIGKILL)

        thread = threading.Thread(target=assassin, daemon=True)
        thread.start()
        with pytest.raises(SweepError, match="lost after 1"):
            run_sweep(SLOW, config, executor=executor)
        thread.join(timeout=60)

    def test_stale_heartbeat_marks_shard_lost(self, plugin, tmp_path):
        executor = self.make_executor(tmp_path, heartbeat_timeout_s=1.0)
        heartbeat = tmp_path / "heartbeat"
        handle = executor.submit(
            self.slow_spec(tmp_path, heartbeat=str(heartbeat)))
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and not heartbeat.exists():
                time.sleep(0.05)
            assert heartbeat.exists(), "shard never started its heartbeat"
            os.kill(handle.pid, signal.SIGSTOP)
            _poll_until(executor, lambda: handle.status == SHARD_LOST)
        finally:
            executor.cancel()
        assert "heartbeat stale" in handle.error
        assert not _pid_alive(handle.pid)

    def test_lost_attempts_heartbeat_does_not_count_against_retry(
            self, plugin, tmp_path):
        # What a heartbeat-killed attempt leaves behind: a beat far
        # older than the limit.  The retry must start with a clean file.
        heartbeat = tmp_path / "heartbeat"
        heartbeat.touch()
        os.utime(heartbeat, (time.time() - 1000, time.time() - 1000))
        executor = self.make_executor(tmp_path, heartbeat_timeout_s=60.0)
        handle = executor.submit(
            self.slow_spec(tmp_path, heartbeat=str(heartbeat)))
        try:
            executor.poll()
            assert handle.status == SHARD_RUNNING, handle.error
        finally:
            executor.cancel()

    def test_shard_timeout_marks_shard_lost(self, plugin, tmp_path):
        executor = self.make_executor(tmp_path, shard_timeout_s=0.5)
        handle = executor.submit(self.slow_spec(tmp_path))
        try:
            _poll_until(executor, lambda: handle.status != SHARD_RUNNING)
        finally:
            executor.cancel()
        assert handle.status == SHARD_LOST
        assert "exceeded timeout" in handle.error
        assert not _pid_alive(handle.pid)

    def test_deterministic_failure_aborts_without_redispatch(
            self, plugin, tmp_path):
        executor = self.make_executor(tmp_path)
        config = SweepConfig(seeds=1, jobs=1, strict=True,
                             params={"marker_dir": str(tmp_path / "gone")},
                             use_cache=False,
                             shard_dir=str(tmp_path / "shards"))
        # marker_dir doesn't exist -> the run raises -> --strict exits 1.
        with pytest.raises(SweepError, match="failed.*sweep aborted"):
            run_sweep(SLOW, config, executor=executor)
        assert executor.handles[0].attempts == 1

    def test_cancel_leaves_no_live_child(self, plugin, tmp_path):
        executor = self.make_executor(tmp_path, shards=2)
        config = SweepConfig(seeds=2, jobs=1, use_cache=False,
                             params={"flag": str(tmp_path / "never")})
        handles = [executor.submit(ShardSpec(
            SLOW, config, index=index, count=2,
            out_dir=str(tmp_path / f"out-{index}"))) for index in range(2)]
        pids = [handle.pid for handle in handles]
        assert all(pids) and all(_pid_alive(pid) for pid in pids)
        executor.cancel()
        assert not any(_pid_alive(pid) for pid in pids)
        assert [handle.status for handle in handles] == [SHARD_LOST] * 2
        assert [handle.error for handle in handles] == ["cancelled"] * 2

    @pytest.mark.parametrize("code, manifest, expected", [
        (0, True, SHARD_OK),
        (0, False, SHARD_LOST),
        (1, False, SHARD_FAILED),
        (2, False, SHARD_FAILED),
        (3, False, SHARD_LOST),
        (137, False, SHARD_LOST),
        (-9, False, SHARD_LOST),
    ])
    def test_exit_status_policy(self, tmp_path, code, manifest, expected):
        class ExitsWith(LocalCommandTransport):
            def launch(self, host, argv, log_path):
                if _is_shard(argv):
                    touch = (os.path.join(_out_dir(argv), "sweep.json")
                             if manifest else None)
                    argv = [argv[0]] + _stub(code, "bye", touch=touch)
                return super().launch(host, argv, log_path)

        executor = self.make_executor(tmp_path, transport=ExitsWith())
        handle = executor.submit(self.slow_spec(tmp_path))
        _poll_until(executor, lambda: handle.status != SHARD_RUNNING)
        assert handle.status == expected, handle.error
        assert (handle.error is None) == (expected == SHARD_OK)
        assert handle.wall_s > 0
        with open(tmp_path / "out" / "shard.log") as log:
            assert "bye" in log.read()


class TestSSHLocalSupervision(TestSubprocessSupervision):
    """The same suite against ``--executor ssh --transport local``."""

    @staticmethod
    def make_executor(tmp_path, shards=1, **kwargs):
        return _ssh_local(tmp_path, f"alpha:{shards}", shards=shards,
                          **kwargs)


class TestSubprocessConfiguration:
    def test_clean_sweep_launches_exactly_n_shards_children(self, plugin,
                                                            tmp_path):
        calls = []

        class Counting(LocalCommandTransport):
            def launch(self, host, argv, log_path):
                calls.append(("launch", _is_shard(argv)))
                return super().launch(host, argv, log_path)

            def fetch(self, host, remote_dir, local_dir):
                calls.append(("fetch", remote_dir))

            def remove(self, host, remote_dir):
                calls.append(("remove", remote_dir))

        executor = SupervisedChildExecutor.on_localhost(
            shards=3, transport=Counting())
        merged = run_sweep(
            TOY, SweepConfig(seeds=3, jobs=1, use_cache=False,
                             shard_dir=str(tmp_path / "shards")),
            executor=executor)
        assert merged.n_runs == 3
        # No preflight probe, no fetch, no cleanup: one child per shard.
        assert calls == [("launch", True)] * 3
        assert {row["host"] for row in merged.dispatch["shards"]} \
            == {"localhost"}
        assert merged.dispatch["executor"] == "subprocess"


class TestSSHExecutor:
    def _config(self, tmp_path, seeds=1):
        return SweepConfig(
            seeds=seeds, jobs=1, use_cache=False,
            shard_retry=ShardRetryPolicy(max_attempts=2,
                                         poll_interval_s=0.05),
            shard_dir=str(tmp_path / "shards"))

    def test_lost_shard_retries_on_other_host(self, plugin, tmp_path):
        calls = []

        class FlakyTransport(LocalCommandTransport):
            def launch(self, host, argv, log_path):
                calls.append(host.name)
                if len(calls) == 1:  # first dispatch: killed remotely
                    argv = [argv[0]] + _stub(-9)
                return super().launch(host, argv, log_path)

        executor = _ssh_local(
            tmp_path, "alpha,beta", transport=FlakyTransport(), shards=1,
            preflight=False)  # FlakyTransport counts raw dispatch calls
        merged = run_sweep(TOY, self._config(tmp_path), executor=executor)
        # Hosts must differ across attempts: the loser is excluded.
        assert len(calls) == 2 and calls[0] != calls[1]
        row = merged.dispatch["shards"][0]
        assert row["status"] == SHARD_OK and row["attempts"] == 2

    def test_redispatch_on_one_host_runs_in_a_fresh_workdir(self, plugin,
                                                            tmp_path):
        workdirs = []

        class DiesMidWrite(LocalCommandTransport):
            def launch(self, host, argv, log_path):
                workdirs.append(_out_dir(argv))
                if len(workdirs) == 1:  # leaves debris, then is killed
                    argv = [argv[0]] + _stub(-9, touch=os.path.join(
                        workdirs[0], "debris"))
                return super().launch(host, argv, log_path)

        executor = _ssh_local(tmp_path, "alpha", shards=1, preflight=False,
                              transport=DiesMidWrite())
        merged = run_sweep(TOY, self._config(tmp_path), executor=executor)
        assert merged.dispatch["shards"][0]["attempts"] == 2
        # The attempt number was on the handle before the child started,
        # so the retry got its own directory and fetched none of the
        # lost attempt's files.
        assert len(set(workdirs)) == 2
        assert workdirs[1].endswith("shard-0-try2")
        assert not (tmp_path / "shards" / "shard-0" / "debris").exists()

    def test_oversubscribed_host_runs_one_shard_per_slot(self, plugin,
                                                         tmp_path):
        children = []
        concurrent = []

        class Watching(LocalCommandTransport):
            def launch(self, host, argv, log_path):
                concurrent.append(
                    sum(1 for child in children if child.poll() is None))
                children.append(super().launch(host, argv, log_path))
                return children[-1]

        executor = _ssh_local(tmp_path, "alpha:1", shards=3,
                              preflight=False, transport=Watching())
        merged = run_sweep(
            TOY, self._config(tmp_path, seeds=3), executor=executor)
        assert merged.n_runs == 3
        # The queued shards started from poll(), each into a free slot.
        assert concurrent == [0, 0, 0]


FAKE_SSH = """#!/bin/sh
# ssh [options] HOST LINE: run LINE here; the host "down" is unreachable.
while [ $# -gt 2 ]; do shift; done
if [ "$1" = down ]; then
    echo "ssh: connect to host down port 22: Connection refused" >&2
    exit 255
fi
exec sh -c "$2"
"""

FAKE_SCP = """#!/bin/sh
# scp [options] HOST:DIR/* LOCAL: copy DIR's contents here.
while [ $# -gt 2 ]; do shift; done
cp -r ${1#*:} "$2"
"""


class TestSSHCommandTransport:
    """The real transport's argv, driven through stand-in binaries."""

    def test_sweep_over_ssh_and_scp(self, plugin, tmp_path, monkeypatch):
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        for name, script in (("ssh", FAKE_SSH), ("scp", FAKE_SCP)):
            (bin_dir / name).write_text(script)
            (bin_dir / name).chmod(0o755)
        monkeypatch.setenv(
            "PATH", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")

        config = SweepConfig(seeds=2, jobs=1, use_cache=False)
        reference = _aggregate_bytes(run_sweep(TOY, config),
                                     tmp_path / "direct")
        remote = tmp_path / "remote"
        executor = SupervisedChildExecutor(
            parse_hosts("up:2,down", python=sys.executable), shards=2,
            remote_root=str(remote))
        merged = run_sweep(
            TOY, SweepConfig(seeds=2, jobs=1, use_cache=False,
                             shard_dir=str(tmp_path / "shards")),
            executor=executor)
        assert _aggregate_bytes(merged, tmp_path / "merged") == reference
        # ssh's own failure (255) drops the host at preflight, with
        # ssh's message as the reason.
        assert "Connection refused" in executor.preflight_failures["down"]
        assert {row["host"] for row in merged.dispatch["shards"]} == {"up"}
        assert (tmp_path / "shards" / "shard-0" / "shard.log").is_file()
        assert not remote.exists()  # fetched, then removed over ssh


class TestDispatchedTracing:
    def test_shard_children_trace_and_telemetry_merges(self, plugin,
                                                       tmp_path, capsys):
        from repro.__main__ import main
        from repro.obs.cli import summarize_paths

        out = tmp_path / "out"
        assert main(["sweep", TOY, "--seeds", "2", "--jobs", "1",
                     "--no-cache", "--executor", "subprocess",
                     "--shards", "2", "--trace",
                     "--out", str(out)]) == 0
        summary = summarize_paths([str(out)])
        # Each shard child traced its own run; collect() brought the
        # per-shard trace dirs back under <out>/shards/.
        assert summary["traces"] == 2
        telemetry = summary["telemetry"]
        assert telemetry["runs"]["total"] == 2
        dispatch = telemetry["dispatch"]
        assert dispatch["executor"] == "subprocess"
        assert dispatch["n_shards"] == 2
        assert dispatch["submit_s"] >= 0 and dispatch["collect_s"] >= 0


class TestSSHPreflight:
    """The preflight checks: a bad host fails, not the sweep."""

    def _spec(self, tmp_path):
        return ShardSpec(
            TOY, SweepConfig(seeds=1, jobs=1, use_cache=False),
            index=0, count=1, out_dir=str(tmp_path / "out"))

    def test_bad_host_dropped_sweep_completes(self, plugin, tmp_path):
        class NoPythonOnAlpha(LocalCommandTransport):
            def launch(self, host, argv, log_path):
                if host.name == "alpha" and list(argv[1:2]) == ["-V"]:
                    argv = [argv[0]] + _stub(
                        127, "sh: python: command not found")
                return super().launch(host, argv, log_path)

        executor = _ssh_local(tmp_path, "alpha,beta", shards=2,
                              transport=NoPythonOnAlpha())
        merged = run_sweep(
            TOY, SweepConfig(seeds=2, jobs=1, use_cache=False,
                             shard_dir=str(tmp_path / "shards")),
            executor=executor)
        assert merged.n_runs == 2 and merged.n_failed == 0
        assert "exited 127" in executor.preflight_failures["alpha"]
        assert [host.name for host in executor.hosts] == ["beta"]
        assert all(row["host"] == "beta"
                   for row in merged.dispatch["shards"])
        # The dropped host is recorded in the dispatch section so a
        # merged manifest explains why one machine did no work.
        assert "alpha" in merged.dispatch["preflight_failures"]

    def test_unimportable_repro_reported(self, plugin, tmp_path):
        class NoRepro(LocalCommandTransport):
            def launch(self, host, argv, log_path):
                if list(argv[1:2]) == ["-c"]:
                    argv = [argv[0]] + _stub(
                        1, "Traceback (most recent call last):\n"
                           "ModuleNotFoundError: No module named 'repro'")
                return super().launch(host, argv, log_path)

        executor = _ssh_local(tmp_path, "alpha", shards=1,
                              transport=NoRepro())
        with pytest.raises(TransportError,
                           match="preflight failed on all 1 host"):
            executor.submit(self._spec(tmp_path))
        reason = executor.preflight_failures["alpha"]
        assert "cannot import repro" in reason
        assert "ModuleNotFoundError" in reason

    def test_all_hosts_failing_aborts_with_every_reason(self, plugin,
                                                        tmp_path):
        class Unreachable(LocalCommandTransport):
            def launch(self, host, argv, log_path):
                raise TransportError(f"ssh to {host.name}: "
                                     f"connection refused")

        executor = _ssh_local(tmp_path, "alpha,beta", shards=1,
                              transport=Unreachable())
        with pytest.raises(TransportError,
                           match="preflight failed on all 2 host"):
            executor.submit(self._spec(tmp_path))
        assert set(executor.preflight_failures) == {"alpha", "beta"}

    def test_preflight_runs_once_and_can_be_disabled(self, plugin,
                                                     tmp_path):
        calls = []

        class Counting(LocalCommandTransport):
            def launch(self, host, argv, log_path):
                calls.append(list(argv[1:2]))
                return super().launch(host, argv, log_path)

        def dispatch(executor, name):
            return run_sweep(
                TOY, SweepConfig(seeds=2, jobs=1, use_cache=False,
                                 shard_dir=str(tmp_path / name)),
                executor=executor)

        merged = dispatch(_ssh_local(
            tmp_path / "r1", "alpha", transport=Counting(), shards=2),
            "checked")
        assert merged.n_runs == 2
        # One -V and one import probe for the host, not one per shard.
        assert calls.count(["-V"]) == 1 and calls.count(["-c"]) == 1
        assert "preflight_failures" not in merged.dispatch

        calls.clear()
        dispatch(_ssh_local(
            tmp_path / "r2", "alpha", transport=Counting(), shards=2,
            preflight=False), "unchecked")
        assert ["-V"] not in calls and ["-c"] not in calls


class TestHosts:
    def test_parse_hosts(self):
        hosts = parse_hosts("alpha, beta:8")
        assert [(h.name, h.slots) for h in hosts] == \
            [("alpha", 1), ("beta", 8)]
        with pytest.raises(ValueError):
            parse_hosts("alpha:lots")
        with pytest.raises(ValueError):
            parse_hosts(",")

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="TOML hostfiles need tomllib (Python 3.11)")
    def test_load_hostfile(self, tmp_path):
        hostfile = tmp_path / "hosts.toml"
        hostfile.write_text(
            'python = "/usr/bin/python3"\n'
            'cwd = "/srv/repro"\n'
            '[[hosts]]\n'
            'name = "fast"\n'
            'slots = 8\n'
            '[[hosts]]\n'
            'name = "spare"\n'
            'python = "/opt/py/bin/python"\n'
            'env = { PYTHONPATH = "src" }\n')
        hosts = load_hostfile(str(hostfile))
        assert hosts[0].name == "fast" and hosts[0].slots == 8
        assert hosts[0].python == "/usr/bin/python3"
        assert hosts[0].cwd == "/srv/repro"
        assert hosts[1].slots == 1
        assert hosts[1].python == "/opt/py/bin/python"
        assert hosts[1].env == (("PYTHONPATH", "src"),)

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="TOML hostfiles need tomllib (Python 3.11)")
    def test_load_hostfile_requires_entries(self, tmp_path):
        empty = tmp_path / "empty.toml"
        empty.write_text("python = 'python3'\n")
        with pytest.raises(ValueError, match=r"no \[\[hosts\]\]"):
            load_hostfile(str(empty))


class TestShardCommand:
    def test_command_round_trips_through_cli_parsing(self):
        from repro.sweep.grid import (
            parse_grid_assignments,
            parse_param_assignments,
        )

        config = SweepConfig(seeds=3, jobs=2, root_seed=7,
                             params={"scale": 2.5},
                             grid={"mode": [1, 2]})
        spec = ShardSpec(TOY, config, index=1, count=3, out_dir="/tmp/o")
        argv = spec.command("python3")
        assert argv[:5] == ["python3", "-m", "repro", "sweep", TOY]
        assert "--shard" in argv and argv[argv.index("--shard") + 1] == "1/3"
        param_args = [argv[i + 1] for i, a in enumerate(argv)
                      if a == "--param"]
        grid_args = [argv[i + 1] for i, a in enumerate(argv)
                     if a == "--grid"]
        assert parse_param_assignments(param_args) == {"scale": 2.5}
        assert parse_grid_assignments(grid_args) == {"mode": [1, 2]}

    def test_unroundtrippable_value_rejected(self):
        config = SweepConfig(params={"label": "a,b"})
        spec = ShardSpec(TOY, config, index=0, count=1, out_dir="/tmp/o")
        with pytest.raises(ValueError, match="label"):
            spec.command()
        assert _cli_value("x", 1.5) == "1.5"
        with pytest.raises(ValueError):
            _cli_value("x", " padded ")


class TestWorkerPayloads:
    def test_delta_excludes_invariant_params(self):
        blob = "x" * 20000
        specs = expand_grid("exp", {"blob": blob}, {"k": [1, 2]}, 3, 0)
        context = _shared_context(specs, None)
        assert len(pickle.dumps(context)) > 20000
        for spec in specs:
            delta = _cell_delta(spec, context)
            # The 20 kB invariant blob must not ride along per cell.
            assert len(pickle.dumps(delta)) < 500
            payload = _payload_from(context, delta)
            expected = spec.payload()
            assert payload["experiment"] == expected["experiment"]
            assert payload["seed_index"] == expected["seed_index"]
            assert payload["seed"] == expected["seed"]
            assert {k: v for k, v in payload["params"]} == \
                {k: v for k, v in expected["params"]}

    def test_timeout_travels_in_context(self):
        specs = expand_grid("exp", {}, {}, 2, 0)
        context = _shared_context(specs, 1.5)
        payload = _payload_from(context, _cell_delta(specs[0], context))
        assert payload["timeout_s"] == 1.5


class TestShardRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShardRetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            ShardRetryPolicy(poll_interval_s=0)

    def test_allows_retry(self):
        policy = ShardRetryPolicy(max_attempts=2)
        assert policy.allows_retry(1)
        assert not policy.allows_retry(2)


class TestConfigOnlyApi:
    def test_legacy_kwargs_rejected(self, tmp_path):
        # The PR 3 keyword shim has been expired: settings travel only
        # in a SweepConfig now, and stray kwargs fail fast.
        with pytest.raises(TypeError):
            run_sweep("baselines", seeds=1, cache_dir=str(tmp_path))

    def test_config_path_works(self, tmp_path):
        sweep = run_sweep("baselines",
                          SweepConfig(seeds=1, cache_dir=str(tmp_path)))
        assert sweep.n_runs == 1

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError):
            run_sweep("baselines", bogus=1)

    def test_shard_and_executor_mutually_exclusive(self):
        with pytest.raises(ValueError, match="cannot be combined"):
            run_sweep("baselines", SweepConfig(shard=(0, 2)),
                      executor=LocalPoolExecutor())


class TestManifestCompat:
    def test_merge_sweeps_writes_merged_artifacts(self, plugin, tmp_path):
        dirs = []
        for index in range(2):
            sweep = run_sweep(TOY, SweepConfig(
                seeds=4, shard=(index, 2), use_cache=False))
            out = tmp_path / f"shard{index}"
            write_sweep_artifacts(sweep, str(out))
            dirs.append(str(out))
        merged = merge_sweeps(dirs, out_dir=str(tmp_path / "merged"))
        assert merged.n_runs == 4
        assert (tmp_path / "merged" / "aggregate.csv").is_file()

    def test_mixed_schemas_rejected(self, plugin, tmp_path):
        import json

        from repro.sweep.merge import MergeError, merge_sweep_dirs

        dirs = []
        for index in range(2):
            sweep = run_sweep(TOY, SweepConfig(
                seeds=2, shard=(index, 2), use_cache=False))
            out = tmp_path / f"shard{index}"
            write_sweep_artifacts(sweep, str(out))
            dirs.append(str(out))
        manifest = json.loads((tmp_path / "shard0" / "sweep.json")
                              .read_text())
        manifest["schema"] = "repro.sweep/v2"
        (tmp_path / "shard0" / "sweep.json").write_text(
            json.dumps(manifest))
        with pytest.raises(MergeError, match="schema"):
            merge_sweep_dirs(dirs)


class TestCliDispatch:
    def test_subprocess_executor_via_cli(self, plugin, tmp_path,
                                         monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", TOY, "--seeds", "2", "--jobs", "1",
                     "--executor", "subprocess", "--shards", "2",
                     "--no-cache", "--quiet", "--out", str(out)]) == 0
        import json
        manifest = json.loads((out / "sweep.json").read_text())
        assert manifest["schema"] == "repro.sweep/v4"
        assert manifest["dispatch"]["executor"] == "subprocess"
        assert manifest["n_runs"] == 2

    def test_dispatch_flags_need_executor(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["sweep", "baselines", "--shards", "2",
                     "--out", str(tmp_path)]) == 2
        assert "--executor" in capsys.readouterr().err

    def test_shard_worker_flag_conflicts_with_executor(self, tmp_path,
                                                       capsys):
        from repro.__main__ import main

        assert main(["sweep", "baselines", "--shard", "0/2",
                     "--executor", "local", "--out", str(tmp_path)]) == 2
        assert "cannot be combined" in capsys.readouterr().err
