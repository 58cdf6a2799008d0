"""Union shard ``sweep.json`` manifests into one aggregate sweep.

``python -m repro merge <dir>... --out DIR`` reads the manifest each
shard wrote, validates that the shards describe the *same* sweep
(identical experiment, params, grid, seeds, root seed and code version)
and are *disjoint* (no run claimed twice), re-orders the union into the
canonical unsharded run order, recomputes the aggregate statistics, and
writes artifacts identical to what a single-host run of the whole sweep
would have produced — ``aggregate.csv`` matches bit-for-bit.

Merging needs no experiment registry: the run order is reconstructed by
re-expanding the (grid x seeds) coordinates recorded in the manifest,
which is a pure function shared with the runner.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence

from repro.obs.telemetry import merge_telemetry
from repro.sweep.aggregate import aggregate_records
from repro.sweep.artifacts import write_sweep_artifacts
from repro.sweep.grid import RunSpec, expand_grid
from repro.sweep.runner import MANIFEST_SCHEMA, SweepResult

#: Manifest fields that must agree across every shard of one sweep.
#: The schema version is checked per shard, as each manifest is loaded.
COORDINATE_FIELDS = ("experiment", "root_seed", "seeds",
                     "params", "grid", "n_total", "code_version")
#: Fields of a ``runs`` row the merge reads.
RUN_FIELDS = ("experiment", "params", "seed_index", "seed", "result")


class MergeError(ValueError):
    """Shard manifests that cannot be merged into one sweep."""


def load_manifest(directory: str) -> dict:
    """Read and sanity-check one shard's ``sweep.json``."""
    path = os.path.join(directory, "sweep.json")
    try:
        with open(path, "r") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise MergeError(f"{directory}: no sweep.json found") from None
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
        raise MergeError(f"{path}: unreadable manifest "
                         f"({error})") from None
    schema = manifest.get("schema") if isinstance(manifest, dict) else None
    if schema != MANIFEST_SCHEMA:
        raise MergeError(
            f"{path}: schema {schema!r} is not mergeable; expected "
            f"{MANIFEST_SCHEMA}")
    missing = [name for name in COORDINATE_FIELDS + ("runs",)
               if name not in manifest]
    if missing:
        raise MergeError(
            f"{path}: manifest is missing {', '.join(missing)}")
    # The shapes the merge reads, so a damaged one is a MergeError.
    if not isinstance(manifest.get("cache", {}), dict):
        raise MergeError(f"{path}: cache is not an object")
    runs = manifest["runs"]
    if not isinstance(runs, list):
        raise MergeError(f"{path}: runs is not a list "
                         f"(got {type(runs).__name__})")
    for at, run in enumerate(runs):
        if not isinstance(run, dict):
            raise MergeError(f"{path}: runs[{at}] is not an object")
        missing = [name for name in RUN_FIELDS if name not in run]
        if missing:
            raise MergeError(
                f"{path}: runs[{at}] is missing {', '.join(missing)}")
        if not isinstance(run["params"], dict):
            raise MergeError(f"{path}: runs[{at}].params is not an object")
    manifest["_source"] = path
    return manifest


def _coordinates(manifest: dict) -> dict:
    return {name: manifest.get(name) for name in COORDINATE_FIELDS}


def _record_key(record: dict) -> str:
    """A record's cell identity: its grid point plus seed index."""
    spec = RunSpec(record["experiment"],
                   tuple(sorted(record["params"].items())),
                   record["seed_index"], record["seed"])
    return spec.run_key


def merge_manifests(manifests: Sequence[dict]) -> SweepResult:
    """Union validated shard manifests into one in-order SweepResult."""
    if not manifests:
        raise MergeError("nothing to merge")
    first = manifests[0]
    reference = _coordinates(first)
    for manifest in manifests[1:]:
        coords = _coordinates(manifest)
        if coords != reference:
            diffs = [name for name in COORDINATE_FIELDS
                     if coords[name] != reference[name]]
            raise MergeError(
                f"{manifest['_source']}: sweep coordinates differ from "
                f"{first['_source']} in: {', '.join(diffs)}")

    by_key: Dict[str, dict] = {}
    for manifest in manifests:
        for record in manifest["runs"]:
            key = _record_key(record)
            if key in by_key:
                raise MergeError(
                    f"shards are not disjoint: run "
                    f"(params={record['params']}, "
                    f"seed_index={record['seed_index']}) appears in "
                    f"more than one shard")
            by_key[key] = record

    # Reconstruct the canonical unsharded order from the coordinates.
    accepts_seed = any(record["seed"] is not None
                       for record in by_key.values())
    specs = expand_grid(first["experiment"], first["params"],
                        first["grid"], first["seeds"],
                        first["root_seed"], accepts_seed=accepts_seed)
    missing = [spec for spec in specs if spec.run_key not in by_key]
    if missing:
        cells = ", ".join(
            f"(params={dict(spec.params)}, seed_index={spec.seed_index})"
            for spec in missing[:5])
        raise MergeError(
            f"merged shards cover {len(by_key)}/{len(specs)} runs; "
            f"missing {len(missing)} cell(s), e.g. {cells}")
    extra = len(by_key) - len(specs)
    if extra:
        raise MergeError(
            f"merged shards contain {extra} run(s) outside the sweep's "
            f"own (grid x seeds) expansion")

    records = [by_key[spec.run_key] for spec in specs]
    aggregate = aggregate_records(
        [record["result"] for record in records
         if record.get("status", "ok") == "ok"])
    return SweepResult(
        experiment=first["experiment"],
        root_seed=first["root_seed"],
        seeds=first["seeds"],
        jobs=max(manifest.get("jobs", 1) for manifest in manifests),
        params=dict(first["params"]),
        grid={k: list(v) for k, v in first["grid"].items()},
        specs=specs,
        records=records,
        aggregate=aggregate,
        cache_hits=sum(m.get("cache", {}).get("hits", 0)
                       for m in manifests),
        cache_misses=sum(m.get("cache", {}).get("misses", 0)
                         for m in manifests),
        cache_dir=first.get("cache", {}).get("dir"),
        code_version=first["code_version"],
        elapsed_s=sum(m.get("elapsed_s", 0.0) for m in manifests),
        shard=None,
        n_total=len(specs),
        telemetry=merge_telemetry(
            [m.get("telemetry") for m in manifests]),
    )


def merge_sweeps(directories: Sequence[str],
                 out_dir: Optional[str] = None) -> SweepResult:
    """Union shard directories into one sweep, optionally written out.

    The library-facing twin of ``python -m repro merge``: validates and
    merges each directory's ``sweep.json`` and, when ``out_dir`` is
    given, writes the merged ``sweep.json``/``runs.csv``/
    ``aggregate.csv`` there (paths land in ``result.artifact_paths``).
    """
    if not directories:
        raise MergeError("no sweep directories given")
    merged = merge_manifests([load_manifest(d) for d in directories])
    if out_dir is not None:
        merged.artifact_paths = write_sweep_artifacts(merged, out_dir)
    return merged


def shard_summary(manifests: Sequence[dict]) -> List[str]:
    """One human line per shard, for merge progress output."""
    lines = []
    for manifest in manifests:
        shard = manifest.get("shard")
        label = (f"shard {shard['index']}/{shard['count']}" if shard
                 else "unsharded")
        lines.append(f"{manifest['_source']}: {label}, "
                     f"{manifest.get('n_runs', 0)} runs, "
                     f"{manifest.get('n_failed', 0)} failed")
    return lines
