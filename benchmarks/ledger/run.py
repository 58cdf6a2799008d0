#!/usr/bin/env python3
"""The layered performance ledger: one command, every metric by name.

    python benchmarks/ledger/run.py --seed 0            # all workloads
    python benchmarks/ledger/run.py --seed 0 --sets 2   # twice, self-compared
    python benchmarks/ledger/run.py compare A.json B.json
    python benchmarks/ledger/run.py pin RESULT.json      # rewrite expected.json
    python benchmarks/ledger/run.py --workload chi-droptail --seed 3 \\
        --seconds 10 --trace 0                          # driver contract

Closed loop, one client: this process runs one workload at a time, each in
a fresh child interpreter (``child.py``), repetition *i+1* starting when
*i* finished.  It never imports ``repro``.  See README.md beside this file
for the metric and workload definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from statistics import mean, median, quantiles
from typing import List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from instruments import calibration_s, read_json, scaled  # noqa: E402
from spec import END_TO_END, PER_LAYER, QUALITY, SCHEMA, WORKLOADS  # noqa: E402

MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED = os.path.join(HERE, "expected.json")
WORK_ROOT = os.path.join(ROOT, ".ledger-work")  # git-ignored

MIN_REPS = 4
N_SETUPS = 3
#: --quick: one timed repetition; the traced one is the second, so the
#: repetitions-agree check still has two digests to compare.
QUICK_REPS = 1
#: A child that outlives this is killed with its whole process group.
CHILD_TIMEOUT_S = 170.0


class HarnessError(Exception):
    """The harness itself could not run (not a measured failure)."""


# -- running one workload ----------------------------------------------------

def _kill_group(child: subprocess.Popen) -> None:
    """Kill *child* and, sweep bodies having grandchildren, its group."""
    if child.poll() is None:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()


def _run_child(config: dict, work: str, index: int) -> Tuple[float, float]:
    """Start ``child.py``; return (seconds until READY, calibration).

    Calibrated before the child starts only: after READY the child is
    already measuring (it calibrates first), and a loop here would compete
    with it.
    """
    config_path = os.path.join(work, f"config-{index}.json")
    with open(config_path, "w", encoding="utf-8") as handle:
        json.dump(config, handle)
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    calibration = calibration_s()
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), config_path],
        stdout=subprocess.PIPE, env=env, text=True, start_new_session=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill_group, [child])
    watchdog.start()
    try:
        ready = child.stdout.readline().strip() == "READY"
        setup_s = time.perf_counter() - started
        child.wait()
    finally:
        watchdog.cancel()
        _kill_group(child)  # only still alive if we are being interrupted
        child.stdout.close()
    if not ready or child.returncode != 0:
        raise HarnessError(
            f"{config['workload']}: child exited {child.returncode}"
            + ("" if ready else " before finishing set-up"))
    return setup_s, calibration


def pinned_for(expected: dict, seed: int, quick: bool, name: str) -> dict:
    """What expected.json pins for this run: nothing off its seed or size."""
    if quick or expected.get("seed") != seed:
        return {}
    return expected["workloads"].get(name, {})


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool, n_setups: int, expected: dict) -> dict:
    """Measure one workload; returns its entry of the result document."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        # never fall back to some other installed copy of the program
        raise HarnessError(f"nothing to measure: {ROOT}/src/repro is missing")
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    pinned = pinned_for(expected, seed, quick, name).get("digest")
    try:
        setups, calibrations = [], []
        for index in range(n_setups):
            workdir = os.path.join(work, f"run-{index}")
            os.makedirs(workdir)
            result_path = os.path.join(work, "result.json")
            setup_s, calibration = _run_child({
                "workload": name, "seed": seed, "workdir": workdir,
                "result": result_path, "seconds": seconds,
                "min_reps": QUICK_REPS if quick else MIN_REPS,
                "quick": quick, "trace": trace, "pinned_digest": pinned,
                "setup_only": index < n_setups - 1,
            }, work, index)
            setups.append(setup_s)
            calibrations.append(calibration)
        raw = read_json(result_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(raw["failures"])
    per_layer = dict(raw["quality"])
    per_layer["fail_share"] = failed / raw["attempted"]
    per_layer.update(raw["per_layer"] or {})
    units = {m.name: m.unit for m in PER_LAYER}
    return {
        "why": WORKLOADS[name],
        "end_to_end": {
            "wall_s": _timing(raw["samples_s"], raw["calibrations_s"], mean),
            # the child calibrates right after READY: that loop closes the
            # bracket around the last set-up
            "setup_s": _timing(setups,
                               calibrations + raw["calibrations_s"][:1],
                               median),
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB",
                            "samples": [raw["peak_rss_mb"]]},
        },
        "per_layer": {key: {"value": value, "unit": units[key]}
                      for key, value in per_layer.items()},
        "traced": raw["per_layer"] is not None,
        "attempted": raw["attempted"],
        "failed": failed,
        "failures": raw["failures"],
        "digest": raw["digest"],
        "spans": raw["spans"],
    }


def _timing(samples: List[float], calibrations: List[float], pick) -> dict:
    """A time scaled to the reference host, with what the clock read."""
    if not samples:
        raise HarnessError("no repetition completed")
    on_reference = scaled(samples, calibrations)
    return {"value": pick(on_reference), "unit": "s", "samples": on_reference,
            "unscaled": {"min": min(samples), "median": median(samples),
                         "max": max(samples), "n": len(samples)},
            "calibration_s": mean(calibrations)}


# -- the environment a result was taken in -----------------------------------

def environment(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the driver's checkout is not a git repository
    return {
        "commit": commit,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "min_reps": QUICK_REPS if args.quick else MIN_REPS,
        "n_setups": 1 if args.quick else N_SETUPS,
        "host.calib_s": median(calibration_s() for _ in range(5)),
    }


# -- printing ----------------------------------------------------------------

def _number(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"


def print_workload(name: str, entry: dict, counts_expected: dict) -> None:
    print(f"== {name}: {entry['why']}")
    for key, m in entry["end_to_end"].items():
        note = ""
        if "unscaled" in m:  # what this host's clock read, before scaling
            u = m["unscaled"]
            note = (f"  unscaled: min {_number(u['min'])}  median "
                    f"{_number(u['median'])}  max {_number(u['max'])}  "
                    f"n={u['n']}  calibration {_number(m['calibration_s'])}")
        print(f"  {key:<38} {_number(m['value']):>12} {m['unit']}{note}")
    print(f"  {'operations':<38} {entry['attempted']:>12} count  "
          f"failed {entry['failed']}")
    for failure in entry["failures"]:
        print(f"  FAILED: {failure}")
    header_due = entry["traced"]
    for metric in PER_LAYER:  # catalogue order: quality, layers, counts
        m = entry["per_layer"].get(metric.name)
        if m is None or (metric.name.endswith((".self_s", ".share"))
                         and not m["value"]):
            continue  # does not apply / a layer this workload never enters
        if header_due and metric not in QUALITY:
            print("  -- per layer, from the traced repetition "
                  "(never used for the numbers above) --")
            header_due = False
        note = ""
        pinned = counts_expected.get(metric.name)
        if pinned is not None and pinned != m["value"]:
            note = f"  (expected.json has {_number(pinned)}: work drifted)"
        print(f"  {metric.name:<38} {_number(m['value']):>12} "
              f"{m['unit']}{note}")


# -- comparing two result documents ------------------------------------------

def _spread(samples: List[float]) -> float:
    if len(samples) < 2:
        return 0.0
    q1, _q2, q3 = quantiles(samples, n=4)
    return (q3 - q1) / median(samples)


def judge(metric, a: dict, b: dict) -> str:
    """better / within-bound / worse / unresolved for a bounded metric."""
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    if worse_by > metric.bound:
        return "worse"
    sa, sb = a["samples"], b["samples"]
    if len(sa) > 1 and len(sb) > 1 and (
            max(sb) < min(sa) if sign > 0 else min(sb) > max(sa)):
        return "better"
    spread = max(_spread(sa), _spread(sb))
    if spread > metric.bound:
        return "unresolved"
    return "better" if -worse_by > spread else "within-bound"


def judge_exact(metric, a: float, b: float) -> str:
    if a == b:
        return "equal"
    return "better" if (b < a) == (metric.better == "lower") else "worse"


def compare(path_a: str, path_b: str) -> int:
    """Print one row per (workload, metric); exit status 1 on any worse."""
    doc_a, doc_b = read_json(path_a), read_json(path_b)
    for label, doc in (("A", doc_a), ("B", doc_b)):
        env = doc["env"]
        print(f"{label}: {env['commit']} python {env['python']} "
              f"nproc {env['nproc']} seed {env['seed']} "
              f"host.calib_s {env['host.calib_s']:.4f}")
    if doc_a["env"]["seed"] != doc_b["env"]["seed"]:
        print("note: seeds differ, so exact metrics are expected to differ")
    worse = 0
    print(f"{'workload':<14} {'metric':<36} {'A (base)':>12} {'B':>12} "
          f"{'B/A':>7}  verdict")
    for name in doc_a["workloads"]:
        if name not in doc_b["workloads"]:
            continue
        wa, wb = doc_a["workloads"][name], doc_b["workloads"][name]
        rows = [(m, wa["end_to_end"][m.name], wb["end_to_end"][m.name],
                 judge(m, wa["end_to_end"][m.name], wb["end_to_end"][m.name]))
                for m in END_TO_END]
        for m in PER_LAYER:
            a, b = wa["per_layer"].get(m.name), wb["per_layer"].get(m.name)
            if not a or not b or a["value"] is None or b["value"] is None:
                continue
            if not a["value"] and not b["value"] and m not in QUALITY:
                continue
            rows.append((m, a, b, judge_exact(m, a["value"], b["value"])
                         if m.exact else "info"))
        for m, a, b, verdict in rows:
            base = a["value"]
            against = f"{b['value'] / base:7.3f}" if base else "    n/a"
            if verdict == "within-bound":
                verdict += f" ({m.bound:.0%})"
            print(f"{name:<14} {m.name:<36} {_number(base):>12} "
                  f"{_number(b['value']):>12} {against}  {verdict}")
            worse += verdict == "worse"
    print(f"{worse} worse")
    return 1 if worse else 0


def pin(result_path: str) -> int:
    """Rewrite expected.json from a full-size result document."""
    document = read_json(result_path)
    if document["env"]["quick"]:
        print("pin: refusing a --quick result", file=sys.stderr)
        return 2
    exact = {m.name for m in PER_LAYER if m.exact}
    expected = {"seed": document["env"]["seed"], "workloads": {
        name: {"digest": entry["digest"],
               "counts": {key: m["value"]
                          for key, m in entry["per_layer"].items()
                          if key in exact and m["value"] is not None}}
        for name, entry in document["workloads"].items()}}
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {EXPECTED}")
    return 0


# -- command line ------------------------------------------------------------

def contract_line(entry: dict, trace: bool) -> str:
    """The driver's last-line JSON: end-to-end or per-layer metrics."""
    if trace:
        # A metric that does not apply to the workload reads 0; one whose
        # instrumented callable no longer exists reads -1.  (The result
        # document leaves the first out and keeps null for the second.)
        metrics = {}
        for m in PER_LAYER:
            value = entry["per_layer"].get(m.name, {"value": 0})["value"]
            metrics[m.name] = {"value": -1 if value is None else value,
                               "unit": m.unit}
    else:
        metrics = {key: {"value": m["value"], "unit": m["unit"]}
                   for key, m in entry["end_to_end"].items()}
    return json.dumps({"correct": entry["failed"] == 0,
                       "attempted": entry["attempted"],
                       "failed": entry["failed"], "metrics": metrics})


def measure_all(args, expected: dict, out: str) -> dict:
    document = {"schema": SCHEMA, "env": environment(args), "workloads": {}}
    spans = []
    for name in args.workload or list(WORKLOADS):
        entry = run_workload(name, args.seed, args.seconds, True, args.quick,
                             document["env"]["n_setups"], expected)
        spans.extend(entry.pop("spans"))
        print_workload(name, entry, pinned_for(
            expected, args.seed, args.quick, name).get("counts", {}))
        document["workloads"][name] = entry
    env = document["env"]
    print(f"env: commit {env['commit']} python {env['python']} "
          f"nproc {env['nproc']} seed {env['seed']} "
          f"host.calib_s {env['host.calib_s']:.4f} s")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1)
    with open(os.path.join(out, "trace.json"), "w", encoding="utf-8") as fh:
        json.dump({"schema": SCHEMA, "spans": spans}, fh)
    print(f"wrote {out}/result.json and {out}/trace.json")
    return document


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    if argv[:1] == ["pin"]:
        if len(argv) != 2:
            print("usage: run.py pin RESULT.json", file=sys.stderr)
            return 2
        return pin(argv[1])

    run_seconds = read_json(MANIFEST)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed; bodies use seed, seed+1, ...")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="measure only this workload (repeatable)")
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="timed part per workload, at least "
                             f"{MIN_REPS} repetitions (default {run_seconds})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver contract: print one JSON line with the "
                             "end-to-end (0) or per-layer (1) metrics of "
                             "the one --workload")
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizing: 1 seed, 2 repetitions (one timed, one "
                             "traced), 1 set-up")
    parser.add_argument("--sets", type=int, default=1,
                        help="run the whole benchmark N times and compare "
                             "each set with the one before")
    parser.add_argument("--out", default=os.path.join(WORK_ROOT, "out"),
                        help="directory for result.json and trace.json")
    parser.add_argument("--expected", default=EXPECTED,
                        help="pinned digests and counts for its seed")
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = 0.0
    expected = read_json(args.expected)

    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace needs exactly one --workload")
        entry = run_workload(args.workload[0], args.seed, args.seconds,
                             bool(args.trace), args.quick,
                             1 if args.trace or args.quick else N_SETUPS,
                             expected)
        for failure in entry["failures"]:
            print(f"FAILED: {failure}", file=sys.stderr)
        print(contract_line(entry, bool(args.trace)))
        return 1 if entry["failed"] else 0

    status = 0
    previous = None
    for index in range(args.sets):
        out = (args.out if args.sets == 1
               else os.path.join(args.out, f"set-{index + 1}"))
        document = measure_all(args, expected, out)
        if any(w["failed"] for w in document["workloads"].values()):
            status = 1
        current = os.path.join(out, "result.json")
        if previous is not None:
            status = max(status, compare(previous, current))
        previous = current
    return status


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except HarnessError as error:
        print(f"ledger: {error}", file=sys.stderr)
        sys.exit(2)
