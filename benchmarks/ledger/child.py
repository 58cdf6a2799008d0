"""One workload in one fresh interpreter; started by ``run.py`` only.

``python child.py CONFIG.json`` sets the workload up, prints ``READY`` (the
parent stops its ``setup_s`` clock there), runs the timed repetitions with
every instrument off and the calibration loop between them, reads the peak
RSS, then, if asked, runs one more repetition with spans (and ``cProfile``
for the simulator workloads) on.  The result goes to ``config["result"]``.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback
from statistics import mean

from instruments import (Tally, Tracer, calibration_s, read_json, scaled,
                         timed)
from workloads import WORKLOAD_CLASSES, Outcome


def peak_rss_mb() -> float:
    """High-water RSS of this process or of any child it waited for."""
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def main(config_path: str) -> int:
    config = read_json(config_path)
    name = config["workload"]
    tally = Tally()
    tracer = Tracer(name)
    workload = WORKLOAD_CLASSES[name](
        seed=config["seed"], workdir=config["workdir"],
        quick=config["quick"], tracer=tracer, tally=tally)

    workload.setup()
    print("READY", flush=True)
    if config["setup_only"]:
        return 1 if tally.failures else 0

    samples = []
    outcome: Outcome = None
    digests = set()
    started = time.perf_counter()
    reps = 0
    calibrations = [calibration_s()]
    while (reps < config["min_reps"]
           or time.perf_counter() - started < config["seconds"]):
        reps += 1
        gc.collect()
        try:
            wall_s, raw = timed(workload.body)
            calibrations.append(calibration_s())
            outcome = workload.examine(raw)
        except Exception:  # a body that raises is a failed operation
            tally.record(False, f"{name}: repetition {reps} raised:\n"
                         + traceback.format_exc(limit=6))
            continue
        tally.record(True, "")
        samples.append(wall_s)
        digests.add(outcome.digest)
    result = {
        "workload": name,
        "samples_s": samples,
        "calibrations_s": calibrations,
        "peak_rss_mb": peak_rss_mb(),
        "quality": outcome.quality if outcome else {},
        "per_layer": None,
        "spans": [],
    }

    if config["trace"] and samples:
        # overheads compare times on the reference scale, like wall_s
        untraced_s = mean(scaled(samples, calibrations))
        tracer.enabled = True
        with workload.instruments():
            with tracer.span("body"):
                traced_s, raw = timed(workload.body)
        around = [calibrations[-1], calibration_s()]
        outcome = workload.examine(raw)
        digests.add(outcome.digest)
        metrics = workload.traced_metrics(outcome, untraced_s)
        metrics["trace.overhead_share"] = (
            scaled([traced_s], around)[0] / untraced_s - 1.0)
        tracer.enabled = False
        result["per_layer"] = metrics
        result["spans"] = tracer.spans

    tally.record(len(digests) == 1,
                 f"{name}: repetitions disagree on the result digest: "
                 f"{sorted(digests)}")
    pinned = config["pinned_digest"]
    if pinned is not None and digests:
        tally.record(digests == {pinned},
                     f"{name}: digest {sorted(digests)} differs from "
                     f"expected.json {pinned}")
    result["digest"] = sorted(digests)[0] if digests else None
    result["attempted"] = tally.attempted
    result["failures"] = tally.failures
    with open(config["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
