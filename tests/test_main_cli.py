"""Smoke tests for the ``python -m repro`` command-line interface."""

import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.__main__ import COMMANDS, main


class TestList:
    def test_exit_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6_6" in out
        assert "[seeded]" in out


class TestRun:
    def test_unknown_name_exits_2(self, capsys):
        assert main(["run", "definitely-not-an-experiment"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_runs_fast_experiment(self, capsys):
        assert main(["run", "baselines"]) == 0
        assert "watchers-consorting" in capsys.readouterr().out

    def test_seed_ignored_for_seedless(self, capsys):
        assert main(["run", "baselines", "--seed", "7"]) == 0
        assert "takes no seed" in capsys.readouterr().err


class TestSweep:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--seeds" in out and "--jobs" in out and "--out" in out

    def test_unknown_experiment_exits_2(self, tmp_path, capsys):
        assert main(["sweep", "definitely-not-an-experiment",
                     "--out", str(tmp_path / "out"),
                     "--cache-dir", str(tmp_path / "cache")]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_bad_param_exits_2(self, tmp_path, capsys):
        assert main(["sweep", "baselines", "--param", "nope",
                     "--out", str(tmp_path / "out"),
                     "--cache-dir", str(tmp_path / "cache")]) == 2
        assert "bad --param" in capsys.readouterr().err

    def test_tiny_sweep_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["sweep", "baselines", "--seeds", "1", "--jobs", "1",
                     "--out", str(out_dir),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert "cache:" in capsys.readouterr().out
        with open(os.path.join(str(out_dir), "sweep.json")) as handle:
            manifest = json.load(handle)
        assert manifest["schema"] == "repro.sweep/v4"
        assert manifest["n_runs"] == 1

    @pytest.mark.parametrize("flag, value, message", [
        ("--jobs", "0", "--jobs must be >= 1, got 0"),
        ("--jobs", "-2", "--jobs must be >= 1, got -2"),
        ("--retries", "-5", "--retries must be >= 0, got -5"),
        ("--shard-attempts", "0", "--shard-attempts must be >= 1, got 0"),
    ])
    def test_count_below_its_least_exits_2(self, flag, value, message,
                                           tmp_path, capsys):
        # These used to run: --jobs 0 inline with "jobs": 0 in sweep.json,
        # --retries/--shard-attempts clamped to one attempt.
        assert main(["sweep", "baselines", "--seeds", "1", flag, value,
                     "--out", str(tmp_path / "out"),
                     "--cache-dir", str(tmp_path / "cache")]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert os.listdir(str(tmp_path)) == []

    @pytest.mark.parametrize("experiment, seeds", [
        ("overhead", "-3"), ("overhead", "0"), ("baselines", "0")])
    def test_seeds_below_one_exits_2(self, experiment, seeds, tmp_path,
                                     capsys):
        # An unseeded experiment used to run; a seeded one failed in the
        # grid expansion with a message that did not name the flag.
        assert main(["sweep", experiment, "--seeds", seeds,
                     "--out", str(tmp_path / "out"),
                     "--cache-dir", str(tmp_path / "cache")]) == 2
        assert capsys.readouterr().err == (
            f"--seeds must be >= 1, got {seeds}\n")
        assert os.listdir(str(tmp_path)) == []

    @pytest.mark.parametrize("out, cache, culprit", [
        ("file", "cache", "file: not a directory"),
        ("file/sub", "cache", "file/sub: file is not a directory"),
        ("out", "file", "file: not a directory"),
    ])
    def test_unusable_directory_fails_before_any_run(
            self, out, cache, culprit, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("not a directory\n")
        assert main(["sweep", "baselines", "--seeds", "1", "--jobs", "1",
                     "--out", out, "--cache-dir", cache]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {culprit}\n"
        assert captured.out == ""
        # Nothing ran, so neither the cache nor the output was created.
        assert sorted(os.listdir(str(tmp_path))) == ["file"]

    def test_no_cache_ignores_the_cache_dir(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("not a directory\n")
        assert main(["sweep", "baselines", "--seeds", "1", "--jobs", "1",
                     "--no-cache", "--cache-dir", "file", "--out",
                     "out"]) == 0
        assert "cache: 0 hits, 1 misses (disabled)" in capsys.readouterr().out

    def test_merge_into_a_file_exits_2(self, tmp_path, capsys):
        shard = str(tmp_path / "shard")
        assert main(["sweep", "baselines", "--seeds", "1", "--jobs", "1",
                     "--quiet", "--out", shard,
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        capsys.readouterr()
        target = tmp_path / "merged"
        target.write_text("not a directory\n")
        assert main(["merge", shard, "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {target}: not a directory\n"
        assert captured.out == ""


# The six top-level commands and their one-line help, as `python -m repro
# --help` printed them before dispatch became lazy.
HELP_BEFORE_LAZY_DISPATCH = (
    ("list", "list runnable experiments"),
    ("run", "run one or more experiments"),
    ("sweep", "Monte-Carlo sweep an experiment across seeds and parameters"),
    ("merge", "merge sharded sweep outputs into one aggregate"),
    ("lint", "static invariant checks (determinism, public API surface)"),
    ("obs", "inspect, query and diff observability artifacts"),
)


class TestTopLevelSurface:
    """`--help`, the usage line and the unknown-command error list all six
    commands although only the selected one's module is imported."""

    @pytest.fixture
    def eager(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        parser = argparse.ArgumentParser(
            prog="python -m repro",
            description="Regenerate the paper's experiments.")
        sub = parser.add_subparsers(dest="command", required=True)
        for name, text in HELP_BEFORE_LAZY_DISPATCH:
            sub.add_parser(name, help=text)
        return parser

    def test_table_is_the_help_strings(self):
        assert tuple((name, text) for name, (text, _) in COMMANDS.items()) \
            == HELP_BEFORE_LAZY_DISPATCH

    def test_help_lists_every_command(self, eager, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out == eager.format_help()

    @pytest.mark.parametrize("argv", [[], ["nosuch"], ["--", "list"]])
    def test_no_or_unknown_command_exits_2(self, argv, eager, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        ours = capsys.readouterr().err
        with pytest.raises(SystemExit):
            eager.parse_args(argv)
        assert ours == capsys.readouterr().err

    def test_main_twice_in_one_process(self, capsys):
        assert main(["list"]) == 0
        first = capsys.readouterr().out
        assert main(["lint", "--list-rules"]) == 0
        assert "DET001" in capsys.readouterr().out
        assert main(["list"]) == 0
        assert capsys.readouterr().out == first


# -- the import budget ------------------------------------------------------
#
# A command imports its own module, the runtime imports no third-party
# package at all, and within a package, looking an experiment up or reading
# a sweep imports no simulator code.  Each case runs in a fresh interpreter
# and names the packages that must not have been loaded by the time the
# command returns.

SIMULATOR = ("repro.net", "repro.core", "repro.crypto", "repro.dist",
             "repro.baselines")
TRACE_ANALYTICS = ("repro.obs.query", "repro.obs.forensics",
                   "repro.obs.diff")
OBS_BUDGET = ("repro.eval",) + SIMULATOR + (
    "repro.sweep", "repro.analysis", "networkx", "multiprocessing")

_PROBE = """
import json, sys
from repro.__main__ import main
try:
    code = main(sys.argv[1:])
except SystemExit as stop:
    code = stop.code
sys.stdout.flush()
print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)
"""


def _loaded(modules, package):
    return [m for m in modules
            if m == package or m.startswith(package + ".")]


def run_fresh(code, *argv, cwd=None):
    """Run *code* in a new interpreter: (its stdout, what it reports)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(done.stderr.splitlines()[-1])


@pytest.fixture(scope="module")
def artefacts(tmp_path_factory):
    """A tiny traced sweep (twice), two shard dirs and a warm cache."""
    root = tmp_path_factory.mktemp("import-budget")
    assert main(["sweep", "attack_matrix", "--seeds", "1", "--jobs", "1",
                 "--no-cache", "--trace", "--quiet",
                 "--param", "topology=line",
                 "--param", "placement.strategy=fixed",
                 "--param", "placement.router=r2",
                 "--param", "adversary.behavior=drop",
                 "--param", "adversary.rate=0.5",
                 "--out", str(root / "traced")]) == 0
    shutil.copytree(root / "traced", root / "traced-again")
    for shard in ("0", "1"):
        assert main(["sweep", "pik2_bench", "--seeds", "2", "--jobs", "1",
                     "--no-cache", "--quiet", "--shard", f"{shard}/2",
                     "--out", str(root / f"shard-{shard}")]) == 0
    assert main(["sweep", "baselines", "--seeds", "1", "--jobs", "1",
                 "--quiet", "--cache-dir", str(root / "cache"),
                 "--out", str(root / "cold")]) == 0
    return root


def _cases():
    """(argv, packages that must stay unloaded, proof the command ran)."""
    for name, argv, says in (
            ("obs-query-help", ["obs", "query", "--help"], "--no-index"),
            ("obs-query", ["obs", "query", "--event", "detector.suspect",
                           "--limit", "1", "traced"], "detector.suspect"),
            ("obs-explain", ["obs", "explain", "r2", "traced"], "-> TP"),
            ("obs-summarize", ["obs", "summarize", "traced"],
             "traces: 1 file(s)"),
            ("obs-diff", ["obs", "diff", "traced", "traced-again"],
             "no deltas")):
        yield pytest.param(argv, OBS_BUDGET, says, id=name)
    no_pool = SIMULATOR + TRACE_ANALYTICS + (
        "repro.analysis", "networkx", "multiprocessing")
    yield pytest.param(["merge", "shard-0", "shard-1", "--out", "merged"],
                       ("repro.eval",) + no_pool, "shard 1/2, 1 runs",
                       id="merge")
    yield pytest.param(["sweep", "--help"], ("repro.eval",) + no_pool,
                       "--seeds", id="sweep-help")
    warm = ["sweep", "baselines", "--seeds", "1", "--cache-dir", "cache"]
    yield pytest.param(warm + ["--jobs", "2", "--out", "warm"],
                       no_pool, "cache: 1 hits, 0 misses", id="sweep-warm")
    yield pytest.param(warm + ["--jobs", "2", "--shard", "0/2",
                               "--out", "warm-shard"],
                       no_pool, "cache: 1 hits, 0 misses",
                       id="sweep-warm-shard")
    # The driver's own modules: its shard children import what they run.
    yield pytest.param(warm + ["--jobs", "1", "--executor", "subprocess",
                               "--shards", "2", "--out", "dispatched"],
                       no_pool, "dispatched 2 shard(s) via subprocess",
                       id="sweep-dispatch-driver")
    not_run = ("repro.analysis", "repro.sweep", "repro.obs.cli", "networkx")
    yield pytest.param(["list"], not_run + SIMULATOR + TRACE_ANALYTICS,
                       "fig6_6", id="list")
    yield pytest.param(["run", "baselines"], not_run, "watchers-consorting",
                       id="run")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    yield pytest.param(["lint", src],
                       ("repro.eval", "repro.sweep", "repro.obs",
                        "networkx", "multiprocessing",
                        "concurrent.futures"),
                       "0 new, 0 suppressed", id="lint")


@pytest.mark.parametrize("argv, forbidden, says", _cases())
def test_command_imports_only_what_it_runs(argv, forbidden, says,
                                           artefacts):
    out, (code, modules) = run_fresh(_PROBE, *argv, cwd=str(artefacts))
    assert code == 0 and says in out, out
    loaded = {package: _loaded(modules, package) for package in forbidden}
    assert not any(loaded.values()), loaded


def test_run_imports_the_simulator_it_runs():
    out, (code, modules) = run_fresh(_PROBE, "run", "pik2_bench")
    assert code == 0 and "pik2 on r3" in out, out
    for package in ("repro.net", "repro.core", "repro.crypto",
                    "repro.dist"):
        assert _loaded(modules, package), package


_CENTRALITY_CELLS = """
import json, sys
from repro.eval import registry
picks = [registry.get("attack_matrix").run(
             seed=0, topology="abilene",
             **{"placement.strategy": strategy}).adversary_router
         for strategy in ("max-betweenness", "articulation-point")]
print(json.dumps(picks))
print(json.dumps([0, sorted(sys.modules)]), file=sys.stderr)
"""


def test_centrality_placement_imports_no_networkx():
    out, (_, modules) = run_fresh(_CENTRALITY_CELLS)
    assert json.loads(out) == ["KansasCity", "KansasCity"]
    assert not _loaded(modules, "networkx")
