"""Shard dispatch: equivalence, supervision, re-dispatch.

The load-bearing properties:

* a sweep dispatched as supervised shard children produces an
  ``aggregate.csv`` byte-identical to an undispatched run of the same
  sweep;
* supervision: a SIGKILLed shard is re-dispatched until its attempts
  run out, a wedged one (SIGSTOP) is caught through its stale
  heartbeat, a deterministic failure aborts the sweep without a
  re-dispatch, and an aborted sweep leaves no child alive;
* the exit-status policy is one table (0+manifest ok, 1/2 failed,
  everything else lost).

Shards run real ``python -m repro sweep`` children; the test experiments
reach them through a ``sitecustomize`` module on their ``PYTHONPATH``
that imports the plugin at interpreter start.  Tests monkeypatch
``dispatch._spawn``, the one place a child starts, to watch the children
or to swap one for a ``python -c`` stub (see ``_stub``).
"""

import os
import signal
import sys
import threading
import time

import pytest

from repro.eval import registry
from repro.sweep import dispatch
from repro.sweep.artifacts import write_sweep_artifacts
from repro.sweep.cells import _payload
from repro.sweep.dispatch import (
    SHARD_FAILED,
    SHARD_LOST,
    SHARD_OK,
    SHARD_RUNNING,
    _cli_value,
    shard_command,
)
from repro.sweep.grid import expand_grid
from repro.sweep.merge import merge_sweeps
from repro.sweep.retry import RetryPolicy, SweepError
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
    """Register the test experiments here AND in shard child processes.

    The children start with ``root`` on ``PYTHONPATH``, so Python's
    ``site`` imports ``root/sitecustomize.py`` and with it the plugin.
    """
    root = tmp_path / "plugin"
    root.mkdir()
    (root / f"{PLUGIN_MODULE}.py").write_text(PLUGIN_SOURCE)
    (root / "sitecustomize.py").write_text(f"import {PLUGIN_MODULE}\n")
    # Absolutize inherited entries (the suite runs with PYTHONPATH=src)
    # so shard children started from another cwd still import repro.
    inherited = [os.path.abspath(entry) for entry
                 in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if entry]
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join([str(root)] + inherited))
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


def _shard_index(argv):
    return int(argv[argv.index("--shard") + 1].split("/")[0])


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _wait_for(done, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline and not done():
        time.sleep(0.05)
    assert done(), "condition not reached while waiting"


class _Children(list):
    """Every child ``dispatch._spawn`` started, as ``(argv, process)``."""

    def __init__(self):
        super().__init__()
        #: shard index -> the stub argv tail (``_stub``) its children run.
        self.replace = {}

    def pids(self, index=None):
        return [process.pid for argv, process in self
                if index is None or _shard_index(argv) == index]


@pytest.fixture
def spawned(monkeypatch):
    """Watch (and optionally stub) every shard child the driver starts."""
    children = _Children()
    real = dispatch._spawn

    def spawn(argv, log_path):
        stub = children.replace.get(_shard_index(argv))
        process = real([argv[0]] + stub if stub else argv, log_path)
        children.append((argv, process))
        return process

    monkeypatch.setattr(dispatch, "_spawn", spawn)
    return children


def _config(tmp_path, **settings):
    """A dispatched sweep's config, shard directories under tmp_path."""
    settings.setdefault("cache_dir", None)
    return SweepConfig(jobs=1, shard_dir=str(tmp_path / "shards"),
                       **settings)


class TestExecutorEquivalence:
    def test_all_executors_bit_identical_to_direct_run(self, plugin,
                                                       tmp_path):
        def config(**extra):
            return SweepConfig(seeds=4, jobs=1, root_seed=3,
                               grid={"scale": [1.0, 2.0]},
                               cache_dir=None, **extra)

        direct = run_sweep(TOY, config())
        reference = _aggregate_bytes(direct, tmp_path / "direct")
        assert direct.n_runs == 8

        shard_dir = tmp_path / "shards"
        merged = run_sweep(TOY, config(shards=2, shard_dir=str(shard_dir)))
        assert merged.dispatch["executor"] == "subprocess"
        assert merged.dispatch["n_shards"] == 2
        assert all(row["status"] == SHARD_OK
                   for row in merged.dispatch["shards"])
        assert list(merged.dispatch["shards"][0]) == [
            "index", "status", "attempts", "host", "error", "wall_s"]
        assert merged.manifest()["schema"] == "repro.sweep/v4"
        assert _aggregate_bytes(merged, tmp_path / "merged") == reference
        for index in range(2):  # every child shard keeps its output
            assert set(os.listdir(shard_dir / f"shard-{index}")) == {
                "sweep.json", "runs.csv", "aggregate.csv", "shard.log"}

    def test_shard_artifacts_kept_in_shard_dir(self, plugin, tmp_path):
        shard_dir = tmp_path / "shards"
        run_sweep(TOY, SweepConfig(seeds=2, cache_dir=None, shards=2,
                                   shard_dir=str(shard_dir)))
        assert (shard_dir / "shard-0" / "sweep.json").is_file()
        assert (shard_dir / "shard-1" / "sweep.json").is_file()


class TestSubprocessSupervision:
    """Supervision, through ``run_sweep`` with ``shards`` set."""

    def test_sigkilled_shard_is_redispatched(self, plugin, tmp_path,
                                             spawned):
        flag = tmp_path / "flag"
        markers = tmp_path / "markers"
        markers.mkdir()
        config = _config(
            tmp_path, seeds=2, shards=2,
            params={"flag": str(flag), "marker_dir": str(markers)},
            cache_dir=str(tmp_path / "cache"))
        killed = []

        def assassin():
            _wait_for(lambda: list(markers.iterdir()))
            argv, process = spawned[0]
            os.kill(process.pid, signal.SIGKILL)
            killed.append(_shard_index(argv))
            flag.touch()  # unblock every surviving (and re-run) cell

        thread = threading.Thread(target=assassin, daemon=True)
        thread.start()
        merged = run_sweep(SLOW, config)
        thread.join(timeout=60)

        assert killed, "assassin never found a running shard"
        rows = {row["index"]: row for row in merged.dispatch["shards"]}
        assert all(row["status"] == SHARD_OK for row in rows.values())
        assert rows[killed[0]]["attempts"] == 2
        assert rows[1 - killed[0]]["attempts"] == 1
        assert len(spawned) == 3
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

    def test_lost_shard_exhausts_attempts(self, plugin, tmp_path, spawned):
        spawned.replace[0] = _stub(-signal.SIGKILL, "doomed")
        with pytest.raises(SweepError, match="shard 0/1 lost after 2 "
                           "dispatch attempt.*killed by signal 9"):
            run_sweep(TOY, _config(tmp_path, seeds=1, shards=1))
        assert len(spawned) == dispatch.SHARD_ATTEMPTS == 2

    def test_stale_heartbeat_marks_shard_lost(self, plugin, tmp_path,
                                              spawned, monkeypatch):
        monkeypatch.setattr(dispatch, "HEARTBEAT_STALE_S", 2.5)
        flag = tmp_path / "flag"
        heartbeat = tmp_path / "shards" / "shard-0.heartbeat"
        lines = []

        def freezer():
            _wait_for(heartbeat.exists)
            wedged = spawned[0][1]
            os.kill(wedged.pid, signal.SIGSTOP)
            deadline = time.monotonic() + 30
            while len(spawned) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
            if len(spawned) < 2:
                wedged.kill()  # supervision missed it: fail, do not hang
            flag.touch()  # the re-dispatched attempt may finish

        thread = threading.Thread(target=freezer, daemon=True)
        thread.start()
        merged = run_sweep(SLOW, _config(tmp_path, seeds=1, shards=1,
                                         params={"flag": str(flag)}),
                           progress=lines.append)
        thread.join(timeout=60)
        assert any("shard 0/1 lost (shard heartbeat stale for" in line
                   for line in lines), lines
        assert merged.dispatch["shards"][0]["attempts"] == 2
        assert not _pid_alive(spawned[0][1].pid)

    def test_lost_attempts_heartbeat_does_not_count_against_retry(
            self, plugin, tmp_path, spawned):
        # What a heartbeat-killed attempt leaves behind: a beat far
        # older than the limit.  The next attempt must start with a
        # clean file, or its first supervision pass would kill it.
        heartbeat = tmp_path / "shards" / "shard-0.heartbeat"
        heartbeat.parent.mkdir()
        heartbeat.touch()
        ancient = time.time() - 10 * dispatch.HEARTBEAT_STALE_S
        os.utime(heartbeat, (ancient, ancient))
        merged = run_sweep(TOY, _config(tmp_path, seeds=1, shards=1))
        assert merged.dispatch["shards"][0]["status"] == SHARD_OK
        assert merged.dispatch["shards"][0]["attempts"] == 1
        assert len(spawned) == 1

    def test_deterministic_failure_aborts_without_redispatch(
            self, plugin, tmp_path, spawned):
        config = _config(tmp_path, seeds=1, shards=1, strict=True,
                         params={"marker_dir": str(tmp_path / "gone")})
        # marker_dir doesn't exist -> the run raises -> --strict exits 1.
        with pytest.raises(SweepError, match="failed.*sweep aborted"):
            run_sweep(SLOW, config)
        assert len(spawned) == 1

    def test_cancel_leaves_no_live_child(self, plugin, tmp_path, spawned):
        # Shard 1 fails at once; shard 0 would run for a minute.  The
        # abort must kill shard 0's child, not wait for it.
        markers = tmp_path / "markers"
        markers.mkdir()
        spawned.replace[1] = _stub(2, "bad config")
        config = _config(tmp_path, seeds=2, shards=2,
                         params={"flag": str(tmp_path / "never"),
                                 "marker_dir": str(markers)})
        started = time.monotonic()
        with pytest.raises(SweepError, match="shard 1/2 failed"):
            run_sweep(SLOW, config)
        assert time.monotonic() - started < 30
        pids = spawned.pids()
        assert len(pids) == 2
        assert not any(_pid_alive(pid) for pid in pids)

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
        out = tmp_path / "out"
        touch = str(out / "sweep.json") if manifest else None
        shard = dispatch._Shard(
            0, str(out), str(tmp_path / "heartbeat"),
            [sys.executable] + _stub(code, "bye", touch=touch))
        dispatch._start(shard)
        _wait_for(lambda: dispatch._check(shard)
                  or shard.status != SHARD_RUNNING)
        assert shard.status == expected, shard.error
        assert (shard.error is None) == (expected == SHARD_OK)
        assert shard.wall_s > 0
        with open(out / "shard.log") as log:
            assert "bye" in log.read()
        if expected == SHARD_FAILED:
            assert f"shard exited {code}: bye (see " in shard.error


class TestSubprocessConfiguration:
    def test_clean_sweep_launches_exactly_n_shards_children(self, plugin,
                                                            tmp_path,
                                                            spawned):
        merged = run_sweep(TOY, _config(tmp_path, seeds=3, shards=3))
        assert merged.n_runs == 3
        # No probe and no copy: one shard child per shard, writing in place.
        assert [argv[1:4] for argv, _ in spawned] == \
            [["-m", "repro", "sweep"]] * 3
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
        dispatch_section = telemetry["dispatch"]
        assert dispatch_section["executor"] == "subprocess"
        assert dispatch_section["n_shards"] == 2
        assert dispatch_section["submit_s"] >= 0
        assert dispatch_section["collect_s"] >= 0


class TestShardCommand:
    def test_command_round_trips_through_cli_parsing(self):
        from repro.sweep.grid import (
            parse_grid_assignments,
            parse_param_assignments,
        )

        config = SweepConfig(seeds=3, jobs=2, root_seed=7,
                             params={"scale": 2.5},
                             grid={"mode": [1, 2]})
        argv = shard_command(TOY, config, 1, 3, "/tmp/o", "/tmp/hb")
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
            retry=RetryPolicy(max_attempts=3, timeout_s=1.5),
            trace_dir="/tmp/o/traces", cache_dir="/tmp/cache")
        assert shard_command(TOY, config, 1, 3, "/tmp/o",
                             "/tmp/shard-1.heartbeat") == [
            sys.executable, "-m", "repro", "sweep", TOY,
            "--seeds", "3", "--jobs", "2", "--root-seed", "7",
            "--shard", "1/3", "--out", "/tmp/o", "--quiet",
            "--param", "label=x", "--param", "scale=2.5",
            "--grid", "mode=1,2",
            "--retries", "2", "--timeout", "1.5",
            "--trace", "--cache-dir", "/tmp/cache",
            "--heartbeat", "/tmp/shard-1.heartbeat"]
        uncached = SweepConfig(seeds=1, cache_dir=None)
        assert shard_command(TOY, uncached, 0, 1, "/o", "/hb")[-3:] == [
            "--no-cache", "--heartbeat", "/hb"]

    def test_unroundtrippable_value_rejected(self):
        config = SweepConfig(params={"label": "a,b"})
        with pytest.raises(ValueError, match="label"):
            shard_command(TOY, config, 0, 1, "/tmp/o", "/tmp/hb")
        assert _cli_value("x", 1.5) == "1.5"
        with pytest.raises(ValueError):
            _cli_value("x", " padded ")


class TestWorkerPayloads:
    def test_timeout_travels_in_context(self):
        spec = expand_grid("exp", {}, {}, 2, 0)[0]
        assert _payload(spec, 1.5, None)["timeout_s"] == 1.5
        assert "timeout_s" not in _payload(spec, None, None)


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
        with pytest.raises(TypeError):  # SweepConfig(shards=) dispatches
            run_sweep("baselines", SweepConfig(), executor=object())

    def test_shard_and_executor_mutually_exclusive(self):
        # A shard worker (shard=) cannot also drive the dispatch of
        # shards (shards=, what --executor sets).
        with pytest.raises(ValueError, match="cannot be combined"):
            SweepConfig(shard=(0, 2), shards=2)
        with pytest.raises(ValueError, match="shards must be >= 1"):
            SweepConfig(shards=0)


class TestManifestCompat:
    def test_merge_sweeps_writes_merged_artifacts(self, plugin, tmp_path):
        dirs = []
        for index in range(2):
            sweep = run_sweep(TOY, SweepConfig(
                seeds=4, shard=(index, 2), cache_dir=None))
            out = tmp_path / f"shard{index}"
            write_sweep_artifacts(sweep, str(out))
            dirs.append(str(out))
        merged = merge_sweeps(dirs, out_dir=str(tmp_path / "merged"))
        assert merged.n_runs == 4
        assert (tmp_path / "merged" / "aggregate.csv").is_file()

    def test_mixed_schemas_rejected(self, plugin, tmp_path):
        import json

        from repro.sweep.merge import MergeError

        dirs = []
        for index in range(2):
            sweep = run_sweep(TOY, SweepConfig(
                seeds=2, shard=(index, 2), cache_dir=None))
            out = tmp_path / f"shard{index}"
            write_sweep_artifacts(sweep, str(out))
            dirs.append(str(out))
        manifest = json.loads((tmp_path / "shard0" / "sweep.json")
                              .read_text())
        manifest["schema"] = "repro.sweep/v2"
        (tmp_path / "shard0" / "sweep.json").write_text(
            json.dumps(manifest))
        with pytest.raises(MergeError, match="schema"):
            merge_sweeps(dirs)


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
        ["--cache-max-mb", "1"],
        ["--retry-backoff", "0.1"],
        ["--executor", "subprocess", "--shard-attempts", "3"],
        ["--executor", "subprocess", "--shard-timeout", "60"],
        ["--executor", "subprocess", "--heartbeat-timeout", "60"],
    ], ids=["hosts", "hostfile", "transport", "ssh", "local", "shards-0",
            "cache-max-mb", "retry-backoff", "shard-attempts",
            "shard-timeout", "heartbeat-timeout"])
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
        for word in ("ssh", "host", "transport", "--cache-max-mb",
                     "--retry-backoff", "--shard-attempts",
                     "--shard-timeout", "--heartbeat-timeout"):
            assert word not in text
