"""Shard dispatch: equivalence, supervision, re-dispatch.

The load-bearing properties:

* a sweep dispatched as supervised shard children produces an
  ``aggregate.csv`` byte-identical to an undispatched run of the same
  sweep;
* supervision: a SIGKILLed shard is re-dispatched, a wedged one
  (SIGSTOP) is caught through its stale heartbeat, ``shard_timeout_s``
  kills an overlong one, deterministic failures abort the sweep, and
  ``cancel()`` leaves no child alive;
* the exit-status policy is one table (0+manifest ok, 1/2 failed,
  everything else lost).

Shards run real ``python -m repro sweep`` children; the test experiments
reach them via the ``REPRO_PLUGINS`` registry hook.  Subclasses override
the executor's ``_spawn`` to swap the launched command for a
``python -c`` stub (see ``_stub``).
"""

import os
import pickle
import signal
import sys
import threading
import time

import pytest

from repro.eval import registry
from repro.sweep.executors.supervised import (
    SHARD_FAILED,
    SHARD_LOST,
    SHARD_OK,
    SHARD_RUNNING,
    ShardSpec,
    SupervisedChildExecutor,
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
from repro.sweep.retry import RetryPolicy, ShardRetryPolicy, SweepError
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

        shard_dir = tmp_path / "shards"
        merged = run_sweep(TOY, config(shard_dir=str(shard_dir)),
                           executor=SupervisedChildExecutor(shards=2))
        assert merged.dispatch["executor"] == "subprocess"
        assert merged.dispatch["n_shards"] == 2
        assert all(row["status"] == SHARD_OK
                   for row in merged.dispatch["shards"])
        assert merged.manifest()["schema"] == "repro.sweep/v4"
        assert _aggregate_bytes(merged, tmp_path / "merged") == reference
        for index in range(2):  # every child shard keeps its output
            assert set(os.listdir(shard_dir / f"shard-{index}")) == {
                "sweep.json", "runs.csv", "aggregate.csv", "shard.log"}

    def test_shard_artifacts_kept_in_shard_dir(self, plugin, tmp_path):
        shard_dir = tmp_path / "shards"
        run_sweep(TOY, SweepConfig(seeds=2, use_cache=False,
                                   shard_dir=str(shard_dir)),
                  executor=SupervisedChildExecutor(shards=2))
        assert (shard_dir / "shard-0" / "sweep.json").is_file()
        assert (shard_dir / "shard-1" / "sweep.json").is_file()


class TestSubprocessSupervision:
    """The supervision suite against ``--executor subprocess``."""

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
        executor = SupervisedChildExecutor(shards=2)
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
        executor = SupervisedChildExecutor(shards=1)
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
        executor = SupervisedChildExecutor(shards=1, heartbeat_timeout_s=1.0)
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
        executor = SupervisedChildExecutor(shards=1, heartbeat_timeout_s=60.0)
        handle = executor.submit(
            self.slow_spec(tmp_path, heartbeat=str(heartbeat)))
        try:
            executor.poll()
            assert handle.status == SHARD_RUNNING, handle.error
        finally:
            executor.cancel()

    def test_shard_timeout_marks_shard_lost(self, plugin, tmp_path):
        executor = SupervisedChildExecutor(shards=1, shard_timeout_s=0.5)
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
        executor = SupervisedChildExecutor(shards=1)
        config = SweepConfig(seeds=1, jobs=1, strict=True,
                             params={"marker_dir": str(tmp_path / "gone")},
                             use_cache=False,
                             shard_dir=str(tmp_path / "shards"))
        # marker_dir doesn't exist -> the run raises -> --strict exits 1.
        with pytest.raises(SweepError, match="failed.*sweep aborted"):
            run_sweep(SLOW, config, executor=executor)
        assert executor.handles[0].attempts == 1

    def test_cancel_leaves_no_live_child(self, plugin, tmp_path):
        executor = SupervisedChildExecutor(shards=2)
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
        class ExitsWith(SupervisedChildExecutor):
            def _spawn(self, argv, log_path):
                touch = (os.path.join(_out_dir(argv), "sweep.json")
                         if manifest else None)
                return super()._spawn(
                    [argv[0]] + _stub(code, "bye", touch=touch), log_path)

        executor = ExitsWith(shards=1)
        handle = executor.submit(self.slow_spec(tmp_path))
        _poll_until(executor, lambda: handle.status != SHARD_RUNNING)
        assert handle.status == expected, handle.error
        assert (handle.error is None) == (expected == SHARD_OK)
        assert handle.wall_s > 0
        with open(tmp_path / "out" / "shard.log") as log:
            assert "bye" in log.read()


class TestSubprocessConfiguration:
    def test_clean_sweep_launches_exactly_n_shards_children(self, plugin,
                                                            tmp_path):
        launched = []

        class Counting(SupervisedChildExecutor):
            def _spawn(self, argv, log_path):
                launched.append(argv[1:4])
                return super()._spawn(argv, log_path)

        merged = run_sweep(
            TOY, SweepConfig(seeds=3, jobs=1, use_cache=False,
                             shard_dir=str(tmp_path / "shards")),
            executor=Counting(shards=3))
        assert merged.n_runs == 3
        # No probe and no copy: one shard child per shard, writing in place.
        assert launched == [["-m", "repro", "sweep"]] * 3
        assert {row["host"] for row in merged.dispatch["shards"]} \
            == {"localhost"}
        assert merged.dispatch["executor"] == "subprocess"


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
        # Each shard child traced its own run into its shard dir under
        # <out>/shards/.
        assert summary["traces"] == 2
        telemetry = summary["telemetry"]
        assert telemetry["runs"]["total"] == 2
        dispatch = telemetry["dispatch"]
        assert dispatch["executor"] == "subprocess"
        assert dispatch["n_shards"] == 2
        assert dispatch["submit_s"] >= 0 and dispatch["collect_s"] >= 0


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
        argv = spec.command()
        assert argv[:5] == [sys.executable, "-m", "repro", "sweep", TOY]
        assert "--shard" in argv and argv[argv.index("--shard") + 1] == "1/3"
        param_args = [argv[i + 1] for i, a in enumerate(argv)
                      if a == "--param"]
        grid_args = [argv[i + 1] for i, a in enumerate(argv)
                     if a == "--grid"]
        assert parse_param_assignments(param_args) == {"scale": 2.5}
        assert parse_grid_assignments(grid_args) == {"mode": [1, 2]}

    def test_command_is_pinned(self):
        # The shard child's argv is an interface: the dispatched legs of
        # CI and the ledger run exactly this command line.
        config = SweepConfig(
            seeds=3, jobs=2, root_seed=7,
            params={"scale": 2.5, "label": "x"}, grid={"mode": [1, 2]},
            retry=RetryPolicy(max_attempts=3, timeout_s=1.5, backoff_s=0.25),
            trace_dir="/tmp/o/traces", cache_dir="/tmp/cache",
            cache_max_bytes=3 * 1024 * 1024)
        spec = ShardSpec(TOY, config, index=1, count=3, out_dir="/tmp/o",
                         heartbeat="/tmp/shard-1.heartbeat")
        assert spec.command() == [
            sys.executable, "-m", "repro", "sweep", TOY,
            "--seeds", "3", "--jobs", "2", "--root-seed", "7",
            "--shard", "1/3", "--out", "/tmp/o", "--quiet",
            "--param", "label=x", "--param", "scale=2.5",
            "--grid", "mode=1,2",
            "--retries", "2", "--retry-backoff", "0.25", "--timeout", "1.5",
            "--trace", "--cache-dir", "/tmp/cache", "--cache-max-mb", "3.0",
            "--heartbeat", "/tmp/shard-1.heartbeat"]

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
                      executor=SupervisedChildExecutor())


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
                     "--executor", "subprocess",
                     "--out", str(tmp_path)]) == 2
        assert "cannot be combined" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--executor", "subprocess", "--hosts", "a"],
        ["--executor", "subprocess", "--hostfile", "x"],
        ["--executor", "subprocess", "--transport", "local"],
        ["--executor", "ssh"],
        ["--executor", "local"],
        ["--executor", "subprocess", "--shards", "0"],
    ], ids=["hosts", "hostfile", "transport", "ssh", "local", "shards-0"])
    def test_removed_or_bad_dispatch_options_exit_2(self, tmp_path, capsys,
                                                    flags):
        from repro.__main__ import main

        try:
            code = main(["sweep", "baselines", "--out", str(tmp_path),
                         *flags])
        except SystemExit as stop:  # argparse rejects the flag itself
            code = stop.code
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        # One error line (argparse puts its usage block before it).
        assert len([line for line in err.splitlines()
                    if line and not line.startswith(("usage:", " "))]) == 1

    def test_sweep_help_names_one_executor(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as stop:
            main(["sweep", "--help"])
        assert stop.value.code == 0
        text = capsys.readouterr().out.lower()
        assert "--executor {subprocess}" in text
        for word in ("ssh", "host", "transport"):
            assert word not in text
