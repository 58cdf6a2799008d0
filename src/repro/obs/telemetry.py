"""Wall-domain sweep telemetry.

How long real execution took — per-run wall time, cache effectiveness,
retries and crashes, worker utilization, shard dispatch latency — as
the ``telemetry`` section of a ``repro.sweep/v4`` manifest.  The wall
times are measured by ``repro.sweep``; this module only stores and
merges them and, like everything DET003 polices, reads no clock.  None
of it feeds back into simulated behaviour, so determinism of results is
untouched.

Sim-domain quantities (event counts, virtual-time horizons) belong in
:mod:`repro.obs.metrics` / :mod:`repro.obs.trace`, never here.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

#: Schema tag for the manifest ``telemetry`` section.
TELEMETRY_SCHEMA = "repro.obs.telemetry/v1"


def _error_kinds(records: Sequence[dict]) -> Dict[str, int]:
    kinds: Dict[str, int] = {}
    for record in records:
        error = record.get("error")
        if isinstance(error, dict):
            kind = str(error.get("kind", "error"))
            kinds[kind] = kinds.get(kind, 0) + 1
    return {kind: kinds[kind] for kind in sorted(kinds)}


def build_telemetry(
    *,
    wall_s: float,
    records: Sequence[dict],
    jobs: int,
    cache_stats: Optional[Dict[str, int]] = None,
    dispatch: Optional[dict] = None,
) -> dict:
    """Assemble the manifest ``telemetry`` section for one sweep.

    ``records`` are the serialized run records (the manifest ``runs``
    rows); everything here is derived from them plus wall-clock
    measurements the runner took around execution.
    """
    total = len(records)
    ok = sum(1 for r in records if r.get("status", "ok") == "ok")
    cached = sum(1 for r in records if r.get("cached"))
    executed = [r for r in records if not r.get("cached")]
    run_walls = [float(r.get("elapsed_s", 0.0)) for r in executed]
    attempts = [int(r.get("attempts", 1)) for r in executed]
    total_attempts = sum(attempts)
    retried_runs = sum(1 for a in attempts if a > 1)
    run_total = sum(run_walls)
    stats = dict(cache_stats or {})
    hits = int(stats.get("hits", cached))
    misses = int(stats.get("misses", len(executed)))
    lookups = hits + misses
    capacity = jobs * wall_s
    return {
        "schema": TELEMETRY_SCHEMA,
        "wall_s": wall_s,
        "runs": {
            "total": total,
            "ok": ok,
            "failed": total - ok,
            "cached": cached,
            "executed": len(executed),
        },
        "attempts": {
            "total": total_attempts,
            "retried_runs": retried_runs,
            "retries": total_attempts - len(executed),
        },
        "errors": _error_kinds(records),
        "run_wall": {
            "total_s": run_total,
            "mean_s": run_total / len(run_walls) if run_walls else 0.0,
            "max_s": max(run_walls) if run_walls else 0.0,
        },
        "workers": {
            "jobs": jobs,
            "utilization": run_total / capacity if capacity > 0 else 0.0,
        },
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / lookups if lookups else 0.0,
            "stores": int(stats.get("stores", 0)),
        },
        "dispatch": dispatch,
    }


def merge_telemetry(sections: Sequence[Optional[dict]]) -> Optional[dict]:
    """Combine the ``telemetry`` sections of merged sweep manifests.

    Manifests predating v4 (or shards whose telemetry was discarded,
    e.g. a SIGKILLed dispatch attempt) contribute nothing; if no input
    carries telemetry the merge result has none either.  Counters add,
    rates are recomputed from the merged counters, and per-section
    ``dispatch`` details are dropped — the merging caller owns the
    dispatch record for the combined sweep.
    """
    present = [s for s in sections if s]
    if not present:
        return None
    wall_s = sum(float(s.get("wall_s", 0.0)) for s in present)
    runs = {key: sum(int(s.get("runs", {}).get(key, 0)) for s in present)
            for key in ("total", "ok", "failed", "cached", "executed")}
    attempts = {key: sum(int(s.get("attempts", {}).get(key, 0))
                         for s in present)
                for key in ("total", "retried_runs", "retries")}
    errors: Dict[str, int] = {}
    for section in present:
        for kind, count in (section.get("errors") or {}).items():
            errors[kind] = errors.get(kind, 0) + int(count)
    run_total = sum(float(s.get("run_wall", {}).get("total_s", 0.0))
                    for s in present)
    run_max = max((float(s.get("run_wall", {}).get("max_s", 0.0))
                   for s in present), default=0.0)
    jobs = max((int(s.get("workers", {}).get("jobs", 1))
                for s in present), default=1)
    cache = {key: sum(int(s.get("cache", {}).get(key, 0)) for s in present)
             for key in ("hits", "misses", "stores")}
    lookups = cache["hits"] + cache["misses"]
    capacity = jobs * wall_s
    return {
        "schema": TELEMETRY_SCHEMA,
        "wall_s": wall_s,
        "runs": runs,
        "attempts": attempts,
        "errors": {kind: errors[kind] for kind in sorted(errors)},
        "run_wall": {
            "total_s": run_total,
            "mean_s": (run_total / runs["executed"]
                       if runs["executed"] else 0.0),
            "max_s": run_max,
        },
        "workers": {
            "jobs": jobs,
            "utilization": run_total / capacity if capacity > 0 else 0.0,
        },
        "cache": {
            **cache,
            "hit_rate": cache["hits"] / lookups if lookups else 0.0,
        },
        "dispatch": None,
    }

