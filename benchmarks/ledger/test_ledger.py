"""Checks on the ledger harness itself.

    python -m pytest benchmarks/ledger -q

Outside tier-1's ``testpaths`` on purpose: it runs the benchmark (about a
minute and a half in all), and tier-1 must not depend on host speed.
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import instruments  # noqa: E402
import run as ledger  # noqa: E402
import spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_ledger(*args):
    return subprocess.run([sys.executable, RUN, *args], capture_output=True,
                          text=True)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger")
    started = time.perf_counter()
    done = run_ledger("--seed", "0", "--quick", "--out", str(out))
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return {"elapsed": elapsed, "stdout": done.stdout,
            "result": ledger.read_json(os.path.join(out, "result.json")),
            "trace": ledger.read_json(os.path.join(out, "trace.json"))}


# -- the catalogue and BENCHMARK.json ----------------------------------------

def test_manifest_is_the_catalogue():
    manifest = ledger.read_json(ledger.MANIFEST)
    assert manifest == spec.benchmark_manifest(
        manifest["command"], manifest["paths"], manifest["run_seconds"])
    assert manifest["paths"] == ["benchmarks/ledger"]
    assert manifest["command"][-1] == "benchmarks/ledger/run.py"


def test_names_units_and_declared_moves():
    end_to_end = {m.name for m in spec.END_TO_END}
    assert "setup_s" in end_to_end
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER]
    names += list(spec.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in spec.END_TO_END:
        assert 0 < metric.bound <= 0.25
    for metric in spec.PER_LAYER:
        assert metric.moves, f"{metric.name} moves nothing"
        for moved, workloads in metric.moves.items():
            assert moved in end_to_end, (metric.name, moved)
            assert workloads and set(workloads) <= set(spec.WORKLOADS)


# -- one quick pass over every workload --------------------------------------

def test_quick_pass_is_under_a_minute(quick):
    # on the reference host, like every other time the ledger reports
    calibrations = [entry["end_to_end"][key]["calibration_s"]
                    for entry in quick["result"]["workloads"].values()
                    for key in ("wall_s", "setup_s")]
    assert instruments.scaled([quick["elapsed"]], calibrations)[0] < 60


def test_every_declared_metric_is_reported(quick):
    workloads = quick["result"]["workloads"]
    assert list(workloads) == list(spec.WORKLOADS)
    seen, entered = set(), set()
    for name, entry in workloads.items():
        assert entry["failed"] == 0, entry["failures"]
        assert entry["per_layer"]["fail_share"]["value"] == 0
        for metric in spec.END_TO_END:
            reported = entry["end_to_end"][metric.name]
            assert reported["unit"] == metric.unit and reported["value"] > 0
        for layer in spec.LAYERS:
            assert f"{layer}.self_s" in entry["per_layer"], (name, layer)
        seen |= {key for key, m in entry["per_layer"].items()
                 if m["value"] is not None}
        entered |= {key for key, m in entry["per_layer"].items()
                    if m["value"]}
    # --quick skips the recorder-overhead repetition; all else must appear
    skipped = {m.name for m in spec.PER_LAYER
               if m.name.startswith("obs.trace.")}
    assert {m.name for m in spec.PER_LAYER} - seen == skipped
    for metric in spec.PER_LAYER:
        # rows of layers that no workload enters are not printed
        if metric.name in seen and (metric.name in entered or not
                                    metric.name.endswith((".self_s",
                                                          ".share"))):
            assert re.search(rf"^  {re.escape(metric.name)} +\S+ "
                             rf"{re.escape(metric.unit)}\b", quick["stdout"],
                             re.M), metric.name
    for name in spec.SIM_WORKLOADS:
        for key in ("detect_latency_sim_s", "false_alarm_share"):
            assert workloads[name]["per_layer"][key]["value"] >= 0


def test_environment_is_recorded(quick):
    env = quick["result"]["env"]
    assert env["seed"] == 0 and env["quick"] is True
    assert env["nproc"] == os.cpu_count()
    assert env["python"] and env["host.calib_s"] > 0
    assert {"commit", "min_reps", "n_setups"} <= set(env)


def test_layer_fold_names_nearly_all_profiled_time(quick):
    for name in spec.SIM_WORKLOADS:
        layers = quick["result"]["workloads"][name]["per_layer"]
        assert layers["other.share"]["value"] <= 0.05, name
        total = sum(layers[f"{layer}.share"]["value"]
                    for layer in spec.LAYERS)
        assert total == pytest.approx(1.0)


def test_layer_shares_keep_their_order(quick):
    def share(workload, layer):
        per_layer = quick["result"]["workloads"][workload]["per_layer"]
        return per_layer[f"{layer}.share"]["value"]
    assert (share("pi2-abilene", "crypto.signatures")
            > share("pi2-abilene", "net.router"))
    assert (share("chi-droptail", "net.router")
            > share("chi-droptail", "crypto.signatures"))
    assert share("sweep-cold", "sweep") > 0.5
    assert share("obs-forensics", "obs") > 0.5


def test_counts_that_must_stay_flat(quick):
    workloads = quick["result"]["workloads"]
    for name in ("chi-droptail", "red-adversary"):
        for key in ("crypto.signatures.signs", "dist.consensus.runs",
                    "core.pi2.rounds"):
            assert workloads[name]["per_layer"][key]["value"] == 0
    assert workloads["sweep-cold"]["per_layer"][
        "sweep.cache.hit_share"]["value"] == 0
    assert workloads["sweep-warm"]["per_layer"][
        "sweep.cache.hit_share"]["value"] == 1


def test_trace_has_a_span_per_harness_call(quick):
    spans = quick["trace"]["spans"]
    by_workload = {}
    for span in spans:
        assert span["end"] >= span["start"]
        assert {"id", "name", "layer", "parent", "workload"} <= set(span)
        by_workload.setdefault(span["workload"], set()).add(span["name"])
    assert set(by_workload) == set(spec.WORKLOADS)
    assert "eval.run_experiment" in by_workload["fatih-abilene"]
    assert {"sweep.cold", "sweep.dispatched"} <= by_workload["sweep-cold"]
    assert "obs.explain_sweep" in by_workload["obs-forensics"]


# -- the instruments ---------------------------------------------------------

def test_fold_sends_builtins_to_their_callers_layer():
    router = ("/x/src/repro/net/router.py", 10, "receive")
    events = ("/x/src/repro/net/events.py", 20, "schedule")
    harness = ("/x/benchmarks/ledger/workloads.py", 5, "body")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    random = ("/usr/lib/python3/random.py", 1, "random")
    stats = {
        harness: (1, 1, 0.5, 10.0, {}),
        router: (5, 5, 2.0, 9.0, {harness: (5, 5, 2.0, 9.0)}),
        events: (9, 9, 1.0, 4.0, {router: (9, 9, 1.0, 4.0)}),
        heappush: (9, 9, 3.0, 3.0, {events: (9, 9, 3.0, 3.0)}),
        random: (4, 4, 1.0, 1.0, {router: (3, 3, 0.75, 0.75),
                                  harness: (1, 1, 0.25, 0.25)}),
    }
    layers = instruments.fold_profile(stats)
    assert layers["net.events"] == pytest.approx(4.0)
    assert layers["net.router"] == pytest.approx(2.75)
    assert layers["other"] == pytest.approx(0.75)
    assert sum(layers.values()) == pytest.approx(7.5)


def test_a_callable_that_is_gone_reads_null(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    assert instruments.ncalls({}, ["repro.net:Router.receive"]) == 0
    assert instruments.ncalls({}, ["repro.net:Router.no_such_method"]) is None
    assert instruments.ncalls({}, ["repro.no_such_package:thing"]) is None


# -- failures and comparisons ------------------------------------------------

def test_a_planted_failing_check_raises_fail_share_and_exit_code(tmp_path):
    expected = ledger.read_json(ledger.EXPECTED)
    assert expected["seed"] == 0
    expected["workloads"]["chi-droptail"]["digest"] = "0" * 64
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(expected))
    done = run_ledger("--workload", "chi-droptail", "--seed", "0",
                      "--seconds", "0", "--trace", "0",
                      "--expected", str(tampered))
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert done.returncode == 1
    assert line["correct"] is False and line["failed"] >= 1
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert "differs from expected.json" in done.stderr


def test_contract_lines_carry_every_declared_metric():
    for trace, declared in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
        done = run_ledger("--workload", "sweep-warm", "--seed", "5",
                          "--seconds", "0", "--quick", "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert line["correct"] is True and line["attempted"] >= 1
        assert list(line["metrics"]) == [m.name for m in declared]
        for metric in declared:
            reported = line["metrics"][metric.name]
            assert reported["unit"] == metric.unit
            assert isinstance(reported["value"], (int, float))


def _document(wall, dispatched):
    def timing(samples):
        return {"value": sorted(samples)[len(samples) // 2], "unit": "s",
                "samples": samples}
    return {"env": {"commit": None, "python": "3", "nproc": 2, "seed": 0,
                    "host.calib_s": 0.3},
            "workloads": {"chi-droptail": {
                "end_to_end": {"wall_s": timing(wall),
                               "setup_s": timing([0.4, 0.4, 0.4]),
                               "peak_rss_mb": timing([50.0])},
                "per_layer": {"net.events.dispatched":
                              {"value": dispatched, "unit": "count"}}}}}


def test_compare_judges_against_the_manifest_bounds(tmp_path, capsys):
    wall = spec.END_TO_END[0]
    steady = {"value": 1.0, "samples": [0.99, 1.0, 1.0, 1.0, 1.01]}
    noisy = {"value": 1.0, "samples": [0.7, 0.9, 1.0, 1.2, 1.4]}
    slower = {"value": 1.5, "samples": [1.49, 1.5, 1.5, 1.5, 1.51]}
    faster = {"value": 0.5, "samples": [0.49, 0.5, 0.5, 0.5, 0.51]}
    assert ledger.judge(wall, steady, steady) == "within-bound"
    assert ledger.judge(wall, steady, slower) == "worse"
    assert ledger.judge(wall, steady, faster) == "better"
    assert ledger.judge(wall, noisy, noisy) == "unresolved"

    paths = {}
    for key, doc in (("base", _document([1.0] * 5, 1000)),
                     ("same", _document([1.01] * 5, 1000)),
                     ("slow", _document([1.5] * 5, 1200))):
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(doc))
    assert ledger.compare(str(paths["base"]), str(paths["same"])) == 0
    assert run_ledger("compare", str(paths["base"]),
                      str(paths["slow"])).returncode == 1
    printed = capsys.readouterr().out
    assert "within-bound" in printed and "equal" in printed
