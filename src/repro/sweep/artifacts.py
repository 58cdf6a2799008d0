"""Structured sweep artifacts: a JSON manifest plus per-run/aggregate CSV.

Artifact schema (``sweep.json``, ``schema: repro.sweep/v4``, the only
one ``repro merge`` reads)::

    {
      "schema": "repro.sweep/v4",
      "experiment": "fig6_6",
      "root_seed": 0,
      "params": {...},            # fixed parameters
      "grid": {...},              # swept axes (name -> values)
      "n_runs": 8, "seeds": 8, "jobs": 4,
      "n_failed": 0,              # cells that exhausted their retries
      "n_total": 8,               # full unsharded run count
      "shard": {"index": 0, "count": 2} | null,
      "code_version": "deadbeef01234567",
      "cache": {"hits": 0, "misses": 8, "dir": ".repro-cache"},
      "elapsed_s": 4.2,
      "dispatch": null | {        # dispatched sweeps (shards=N) only
        "executor": "subprocess", "n_shards": 2,
        "shards": [ {"index", "status": "ok", "attempts", "host",
                     "error", "wall_s"}, ... ]
      },
      "runs": [ {"seed_index", "seed", "params", "elapsed_s", "cached",
                 "status": "ok"|"failed", "attempts",
                 "result_type", "result": {...} | null,
                 "error": {kind, type, message}?} , ... ],
      "aggregate": { "<dotted.field>": {n, mean, median, std,
                                        min, max, ci95}, ... },
      "telemetry": {...}          # wall-clock section, repro.obs.telemetry
    }

``runs.csv`` holds one row per run with the flattened numeric result
fields as columns (blank for failed runs); ``aggregate.csv`` one row per
aggregated field, computed over successful runs only.  Each file is
written whole (temp file + rename) and ``sweep.json`` last, so a
manifest's presence means the directory is complete.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Dict, List

from repro.sweep.aggregate import flatten_numeric
from repro.sweep.cache import _atomic_open


def write_sweep_artifacts(sweep, out_dir: str) -> Dict[str, str]:
    """Write ``sweep.json``, ``runs.csv`` and ``aggregate.csv``.

    ``sweep`` is a :class:`repro.sweep.runner.SweepResult`.  Returns the
    mapping of artifact name to written path.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name)
             for name in ("sweep.json", "runs.csv", "aggregate.csv")}

    flat_runs: List[Dict[str, object]] = []
    numeric_columns: List[str] = []
    for record in sweep.records:
        flat = (flatten_numeric(record.get("result") or {})
                if record.get("status", "ok") == "ok" else {})
        for column in flat:
            if column not in numeric_columns:
                numeric_columns.append(column)
        flat_runs.append(flat)
    with _atomic_open(paths["runs.csv"], newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["experiment", "seed_index", "seed", "params",
                         "cached", "status", "elapsed_s"]
                        + numeric_columns)
        for record, flat in zip(sweep.records, flat_runs):
            writer.writerow(
                [record["experiment"], record["seed_index"], record["seed"],
                 json.dumps(record["params"], sort_keys=True, default=str),
                 int(bool(record.get("cached"))),
                 record.get("status", "ok"),
                 f"{record.get('elapsed_s', 0.0):.4f}"]
                + [flat.get(column, "") for column in numeric_columns])

    with _atomic_open(paths["aggregate.csv"], newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["field", "n", "mean", "median", "std",
                         "min", "max", "ci95"])
        for field, stats in sweep.aggregate.items():
            writer.writerow([field, stats["n"], stats["mean"],
                             stats["median"], stats["std"], stats["min"],
                             stats["max"], stats["ci95"]])

    # Last: supervisors treat sweep.json as the shard's "done" marker.
    with _atomic_open(paths["sweep.json"]) as handle:
        json.dump(sweep.manifest(), handle, indent=2, default=str)
        handle.write("\n")
    return paths
