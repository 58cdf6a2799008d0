"""Shard-dispatch executors: equivalence, supervision, re-dispatch.

The load-bearing properties:

* every executor (in-process, subprocess, ssh-with-fake-transport)
  produces an ``aggregate.csv`` byte-identical to an undispatched run
  of the same sweep;
* a shard whose process is SIGKILLed mid-run is re-dispatched and the
  sweep still completes, with the ``repro.sweep/v4`` manifest recording
  the extra attempt;
* a wedged shard (SIGSTOP) is detected through its stale heartbeat,
  killed, and marked ``lost``;
* deterministic shard failures abort the sweep instead of being
  re-dispatched.

Subprocess/ssh shards run real ``python -m repro sweep`` children; the
test experiments reach them via the ``REPRO_PLUGINS`` registry hook.
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
    SSHExecutor,
    SubprocessShardExecutor,
    load_hostfile,
    parse_hosts,
)
from repro.sweep.executors.ssh import TransportError
from repro.sweep.executors.base import (
    SHARD_LOST,
    SHARD_OK,
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
            "subprocess": SubprocessShardExecutor(shards=2),
            "ssh": SSHExecutor(
                parse_hosts("alpha,beta"),
                transport=LocalCommandTransport(),
                remote_root=str(tmp_path / "remote")),
        }
        for name, executor in executors.items():
            merged = run_sweep(
                TOY, config(shard_dir=str(tmp_path / f"{name}-shards")),
                executor=executor)
            assert merged.dispatch["executor"] == name
            assert merged.dispatch["n_shards"] == 2
            assert all(row["status"] == SHARD_OK
                       for row in merged.dispatch["shards"])
            assert merged.manifest()["schema"] == "repro.sweep/v4"
            assert _aggregate_bytes(merged, tmp_path / name) == reference

    def test_shard_artifacts_kept_in_shard_dir(self, plugin, tmp_path):
        shard_dir = tmp_path / "shards"
        run_sweep(TOY, SweepConfig(seeds=2, use_cache=False,
                                   shard_dir=str(shard_dir)),
                  executor=LocalPoolExecutor(shards=2))
        assert (shard_dir / "shard-0" / "sweep.json").is_file()
        assert (shard_dir / "shard-1" / "sweep.json").is_file()


class TestSubprocessSupervision:
    def test_sigkilled_shard_is_redispatched(self, plugin, tmp_path):
        flag = tmp_path / "flag"
        markers = tmp_path / "markers"
        markers.mkdir()
        executor = SubprocessShardExecutor(shards=2)
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
        executor = SubprocessShardExecutor(shards=1)
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
        executor = SubprocessShardExecutor(shards=1,
                                           heartbeat_timeout_s=1.0)
        heartbeat = tmp_path / "heartbeat"
        spec = ShardSpec(
            SLOW,
            SweepConfig(seeds=1, jobs=1, use_cache=False,
                        params={"flag": str(tmp_path / "never")}),
            index=0, count=1, out_dir=str(tmp_path / "out"),
            heartbeat=str(heartbeat))
        handle = executor.submit(spec)
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and not heartbeat.exists():
                time.sleep(0.05)
            assert heartbeat.exists(), "shard never started its heartbeat"
            os.kill(handle.pid, signal.SIGSTOP)
            while time.monotonic() < deadline \
                    and handle.status != SHARD_LOST:
                executor.poll()
                time.sleep(0.1)
        finally:
            executor.cancel()
        assert handle.status == SHARD_LOST
        assert "heartbeat stale" in handle.error

    def test_deterministic_failure_aborts_without_redispatch(
            self, plugin, tmp_path):
        executor = SubprocessShardExecutor(shards=1)
        config = SweepConfig(seeds=1, jobs=1, strict=True,
                             params={"marker_dir": str(tmp_path / "gone")},
                             use_cache=False,
                             shard_dir=str(tmp_path / "shards"))
        # marker_dir doesn't exist -> the run raises -> --strict exits 1.
        with pytest.raises(SweepError, match="failed"):
            run_sweep(SLOW, config, executor=executor)
        assert executor.handles[0].attempts == 1


class TestSSHExecutor:
    def test_lost_shard_retries_on_other_host(self, plugin, tmp_path):
        calls = []

        class FlakyTransport(LocalCommandTransport):
            def run(self, host, argv, timeout=None):
                calls.append(host.name)
                if len(calls) == 1:
                    return -9, ""  # first dispatch: killed remotely
                return super().run(host, argv, timeout)

        executor = SSHExecutor(
            parse_hosts("alpha,beta"), transport=FlakyTransport(),
            shards=1, remote_root=str(tmp_path / "remote"),
            preflight=False)  # FlakyTransport counts raw dispatch calls
        merged = run_sweep(
            SLOW,
            SweepConfig(seeds=1, jobs=1, use_cache=False,
                        params={"flag": str(tmp_path / "flag.missing")},
                        shard_retry=ShardRetryPolicy(max_attempts=2,
                                                     poll_interval_s=0.05),
                        shard_dir=str(tmp_path / "shards")),
            executor=executor)
        # Hosts must differ across attempts: the loser is excluded.
        assert len(calls) == 2 and calls[0] != calls[1]
        row = merged.dispatch["shards"][0]
        assert row["status"] == SHARD_OK and row["attempts"] == 2


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
            def run(self, host, argv, timeout=None):
                if host.name == "alpha" and list(argv[1:2]) == ["-V"]:
                    return 127, "sh: python: command not found"
                return super().run(host, argv, timeout)

        executor = SSHExecutor(
            parse_hosts("alpha,beta"), transport=NoPythonOnAlpha(),
            shards=2, remote_root=str(tmp_path / "remote"))
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
            def run(self, host, argv, timeout=None):
                if list(argv[1:2]) == ["-c"]:
                    return 1, ("Traceback (most recent call last):\n"
                               "ModuleNotFoundError: "
                               "No module named 'repro'")
                return super().run(host, argv, timeout)

        executor = SSHExecutor(
            parse_hosts("alpha"), transport=NoRepro(), shards=1,
            remote_root=str(tmp_path / "remote"))
        with pytest.raises(TransportError,
                           match="preflight failed on all 1 host"):
            executor.submit(self._spec(tmp_path))
        reason = executor.preflight_failures["alpha"]
        assert "cannot import repro" in reason
        assert "ModuleNotFoundError" in reason

    def test_all_hosts_failing_aborts_with_every_reason(self, plugin,
                                                        tmp_path):
        class Unreachable(LocalCommandTransport):
            def run(self, host, argv, timeout=None):
                raise TransportError(f"ssh to {host.name}: "
                                     f"connection refused")

        executor = SSHExecutor(
            parse_hosts("alpha,beta"), transport=Unreachable(), shards=1,
            remote_root=str(tmp_path / "remote"))
        with pytest.raises(TransportError,
                           match="preflight failed on all 2 host"):
            executor.submit(self._spec(tmp_path))
        assert set(executor.preflight_failures) == {"alpha", "beta"}

    def test_preflight_runs_once_and_can_be_disabled(self, plugin,
                                                     tmp_path):
        calls = []

        class Counting(LocalCommandTransport):
            def run(self, host, argv, timeout=None):
                calls.append(list(argv[1:2]))
                return super().run(host, argv, timeout)

        def dispatch(executor, name):
            return run_sweep(
                TOY, SweepConfig(seeds=2, jobs=1, use_cache=False,
                                 shard_dir=str(tmp_path / name)),
                executor=executor)

        merged = dispatch(SSHExecutor(
            parse_hosts("alpha"), transport=Counting(), shards=2,
            remote_root=str(tmp_path / "r1")), "checked")
        assert merged.n_runs == 2
        # One -V and one import probe for the host, not one per shard.
        assert calls.count(["-V"]) == 1 and calls.count(["-c"]) == 1
        assert "preflight_failures" not in merged.dispatch

        calls.clear()
        dispatch(SSHExecutor(
            parse_hosts("alpha"), transport=Counting(), shards=2,
            remote_root=str(tmp_path / "r2"), preflight=False),
            "unchecked")
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
