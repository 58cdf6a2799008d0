"""Byte-level determinism across ``PYTHONHASHSEED``.

``repro lint``'s DET rules are syntactic: they can say a set is iterated
unsorted, not whether its order reaches a result.  This is the dynamic
check of the same invariant on real bytes: the same sweep run in fresh
interpreters under different string-hash salts must address the same
cache entries and write identical results and traces.
"""

import filecmp
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

ATTACK_CELL = ["attack_matrix", "--seeds", "1",
               "--param", "topology=abilene",
               "--param", "adversary.behavior=drop",
               "--param", "adversary.rate=0.5",
               "--param", "placement.strategy=max-betweenness"]


def sweep(cwd, hashseed, *argv):
    env = {**os.environ, "PYTHONHASHSEED": hashseed, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", *argv, "--jobs", "1"],
        cwd=str(cwd), env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


@pytest.mark.parametrize("experiment, n_runs", [
    (["pi2_bench", "--seeds", "2"], 2),
    (["pik2_bench", "--seeds", "2"], 2),
    (ATTACK_CELL, 1),
], ids=["pi2_bench", "pik2_bench", "attack_matrix-abilene"])
def test_results_and_traces_do_not_depend_on_hash_seed(tmp_path, experiment,
                                                       n_runs):
    sweep(tmp_path, "1", *experiment, "--trace",
          "--cache-dir", "cache", "--out", "a")
    # The content hash is a pure function of the spec across processes:
    # entries stored under one salt are found under another.
    warm = sweep(tmp_path, "2", *experiment,
                 "--cache-dir", "cache", "--out", "b")
    assert f"cache: {n_runs} hits, 0 misses" in warm
    sweep(tmp_path, "2", *experiment, "--trace", "--no-cache", "--out", "d")

    # No set order and no wall value reaches results or traces.
    assert filecmp.cmp(tmp_path / "a" / "aggregate.csv",
                       tmp_path / "d" / "aggregate.csv", shallow=False)
    traces = sorted(os.listdir(tmp_path / "a" / "traces"))
    assert len(traces) == n_runs
    assert sorted(os.listdir(tmp_path / "d" / "traces")) == traces
    _, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "a" / "traces", tmp_path / "d" / "traces", traces,
        shallow=False)
    assert not mismatch and not errors
