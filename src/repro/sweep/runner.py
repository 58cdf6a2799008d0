"""Sweep orchestration: configuration, results, and the one entry point.

:func:`run_sweep` expands a (grid x seeds) run list from a
:class:`SweepConfig`, answers what it can from the on-disk cache, and
executes the rest in this process on a ``ProcessPoolExecutor``
(``jobs=1`` runs inline, bit-identical to the pool path since every run
is fully determined by its :class:`RunSpec`), honoring ``config.shard``
so one process can run a single ``--shard i/n`` slice.  The cell-level
fault tolerance (retry with backoff, per-run timeouts, worker-crash
isolation, ``strict`` fail-fast) lives in :mod:`repro.sweep.cells`.

With ``config.shards`` set the sweep is instead *dispatched*
(:mod:`repro.sweep.dispatch`): run as that many supervised shard
children and auto-merged, so the returned :class:`SweepResult`'s
``aggregate.csv`` is bit-identical to an undispatched run.  The merged
manifest (schema ``repro.sweep/v4``) records per-shard
status/attempts/host under ``dispatch`` and wall-domain observability
data under ``telemetry``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.sweep.aggregate import aggregate_records
from repro.sweep.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.sweep.cells import _run_cells
from repro.sweep.grid import RunSpec, expand_grid, shard_specs
from repro.sweep.retry import RetryPolicy
from repro.obs.telemetry import build_telemetry

#: Manifest schema written by this version, and the only one
#: ``repro merge`` reads.
MANIFEST_SCHEMA = "repro.sweep/v4"

Progress = Optional[Callable[[str], None]]


@dataclass(frozen=True)
class SweepConfig:
    """Everything that defines one sweep, minus the experiment name.

    ``run_sweep`` takes this and nothing else.  ``cache_dir=None`` runs
    without a cache; ``cache`` replaces the cache object outright (a
    fake code version in tests).  ``shard`` marks this process as one
    ``i/n`` slice (the shard-worker role); ``shards`` instead dispatches
    the whole sweep as that many shard children, and ``shard_dir`` is
    where their artifact directories and heartbeats live (default: a
    temporary directory removed after the merge).
    """

    seeds: int = 8
    jobs: int = 1
    params: Optional[Mapping[str, object]] = None
    grid: Optional[Mapping[str, Sequence[object]]] = None
    root_seed: int = 0
    cache: Optional[ResultCache] = None
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR
    shard: Optional[Tuple[int, int]] = None
    shards: Optional[int] = None
    retry: Optional[RetryPolicy] = None
    strict: bool = False
    shard_dir: Optional[str] = None
    #: Directory for per-run JSONL trace files (None disables tracing).
    #: Workers enable the global recorder around each run; tracing never
    #: changes results, only observes them.
    trace_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.shards is not None and self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.shards is not None and self.shard is not None:
            raise ValueError(
                "shard (--shard) marks this process as one shard of a "
                "dispatched sweep; it cannot be combined with shards "
                "(--executor)")


@dataclass
class SweepResult:
    """Everything one sweep produced, pre-aggregation included."""

    experiment: str
    root_seed: int
    seeds: int
    jobs: int
    params: Dict[str, object]
    grid: Dict[str, List[object]]
    specs: List[RunSpec]
    records: List[dict]  # same order as specs
    aggregate: Dict[str, Dict[str, float]]
    cache_hits: int
    cache_misses: int
    cache_dir: Optional[str]
    code_version: str
    elapsed_s: float = 0.0
    shard: Optional[Tuple[int, int]] = None  # (index, count) or None
    n_total: int = 0  # full unsharded run count
    artifact_paths: Dict[str, str] = field(default_factory=dict)
    #: Shard-dispatch record (executor name + per-shard status rows),
    #: populated only for executor-dispatched sweeps.  Schema v3.
    dispatch: Optional[dict] = None
    #: Wall-domain telemetry section (schema ``repro.obs.telemetry/v1``),
    #: new in manifest v4.
    telemetry: Optional[dict] = None

    @property
    def n_runs(self) -> int:
        return len(self.records)

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.records if r.get("status") == "failed")

    def manifest(self) -> dict:
        return {
            "schema": MANIFEST_SCHEMA,
            "experiment": self.experiment,
            "root_seed": self.root_seed,
            "seeds": self.seeds,
            "jobs": self.jobs,
            "params": dict(self.params),
            "grid": {k: list(v) for k, v in self.grid.items()},
            "n_runs": self.n_runs,
            "n_failed": self.n_failed,
            "n_total": self.n_total or self.n_runs,
            "shard": ({"index": self.shard[0], "count": self.shard[1]}
                      if self.shard else None),
            "code_version": self.code_version,
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses,
                      "dir": self.cache_dir},
            "elapsed_s": self.elapsed_s,
            "dispatch": self.dispatch,
            "telemetry": self.telemetry,
            "runs": self.records,
            "aggregate": self.aggregate,
        }

    def summary_lines(self) -> List[str]:
        shard = (f" [shard {self.shard[0]}/{self.shard[1]} of "
                 f"{self.n_total or self.n_runs} runs]" if self.shard
                 else "")
        lines = [
            f"sweep {self.experiment}: {self.n_runs} runs "
            f"({self.seeds} seeds x "
            f"{max(1, (self.n_total or self.n_runs) // max(1, self.seeds))} "
            f"grid points), jobs={self.jobs}{shard}",
            f"cache: {self.cache_hits} hits, {self.cache_misses} misses "
            f"({self.cache_dir or 'disabled'})",
            f"elapsed: {self.elapsed_s:.2f} s",
        ]
        if self.dispatch:
            rows = self.dispatch["shards"]
            redispatched = sum(row["attempts"] > 1 for row in rows)
            line = (f"dispatched {len(rows)} shard(s) via "
                    f"{self.dispatch['executor']}: "
                    f"{sum(row['status'] == 'ok' for row in rows)} ok")
            if redispatched:
                line += f", {redispatched} re-dispatched"
            lines.append(line)
        if self.n_failed:
            lines.append(f"FAILED runs: {self.n_failed}/{self.n_runs} "
                         f"(see sweep.json run errors)")
        for path in sorted(self.artifact_paths.values()):
            lines.append(f"wrote {path}")
        return lines


def _validated_inputs(experiment: str, config: SweepConfig, *,
                      progress: Progress):
    """Registry lookup + param/grid coercion + grid expansion."""
    from repro.eval import registry

    spec_entry = registry.get(experiment)  # raises KeyError when unknown
    params = dict(config.params or {})
    grid = {key: list(values) for key, values in (config.grid or {}).items()}
    overlap = set(params) & set(grid)
    if overlap:
        raise ValueError(
            f"parameter(s) {', '.join(sorted(overlap))} appear in both "
            f"--param and --grid")
    if "seed" in params or "seed" in grid:
        raise ValueError("control seeds via --seeds/--root-seed, "
                         "not --param/--grid seed=...")
    # Coerce and validate against the ParamSpec table up front: a typo'd
    # name, type or choice fails here, not minutes later in a worker.
    params = spec_entry.coerce_params(params)
    grid = {key: [spec_entry.param_spec(key).coerce(value,
                                                    experiment=experiment)
                  for value in values]
            for key, values in grid.items()}

    n_seeds = config.seeds if spec_entry.accepts_seed else 1
    if not spec_entry.accepts_seed and config.seeds > 1 \
            and progress is not None:
        progress(f"note: {experiment} takes no seed parameter; "
                 f"running 1 deterministic run per grid point")
    all_specs = expand_grid(experiment, params, grid, n_seeds,
                            config.root_seed,
                            accepts_seed=spec_entry.accepts_seed)
    return params, grid, n_seeds, all_specs


def run_sweep(
    experiment: str,
    config: Optional[SweepConfig] = None,
    *,
    progress: Progress = None,
) -> SweepResult:
    """Run ``experiment`` across (grid x seeds), cached and in parallel.

    Settings travel exclusively in a :class:`SweepConfig`.  With
    ``config.shards`` unset the sweep runs in this process; otherwise it
    is dispatched as shard children and auto-merged (see module
    docstring).
    """
    if config is None:
        config = SweepConfig()
    if config.shards is not None:
        from repro.sweep.dispatch import dispatch_sweep

        return dispatch_sweep(experiment, config, config.shards, progress)

    params, grid, n_seeds, all_specs = _validated_inputs(
        experiment, config, progress=progress)
    policy = config.retry if config.retry is not None else RetryPolicy()
    n_total = len(all_specs)
    shard = config.shard
    specs = (shard_specs(all_specs, *shard) if shard is not None
             else all_specs)
    if shard is not None and progress is not None:
        progress(f"shard {shard[0]}/{shard[1]}: {len(specs)} of "
                 f"{n_total} runs")

    cache = config.cache or ResultCache(config.cache_dir)
    started = time.perf_counter()
    records: List[Optional[dict]] = [None] * len(specs)
    pending: List[int] = []
    hits = 0
    for index, spec in enumerate(specs):
        cached = cache.load(spec)
        if cached is not None:
            records[index] = dict(cached, cached=True)
            hits += 1
        else:
            pending.append(index)
    if progress is not None and hits:
        progress(f"cache: {hits}/{len(specs)} runs already computed")

    if pending:
        executed = _run_cells(specs, pending, jobs=config.jobs,
                              policy=policy, strict=config.strict,
                              cache=cache, progress=progress,
                              trace_dir=config.trace_dir)
        for index in pending:
            records[index] = dict(executed[index], cached=False)

    aggregate = aggregate_records(
        [record["result"] for record in records
         if record.get("status", "ok") == "ok"])
    elapsed = time.perf_counter() - started
    telemetry = build_telemetry(
        wall_s=elapsed,
        records=[record for record in records if record is not None],
        jobs=config.jobs,
        cache_stats={"hits": hits, "misses": len(pending),
                     "stores": cache.stores},
    )
    return SweepResult(
        experiment=experiment,
        root_seed=config.root_seed,
        seeds=n_seeds,
        jobs=config.jobs,
        params=params,
        grid=grid,
        specs=specs,
        records=records,  # type: ignore[arg-type]
        aggregate=aggregate,
        cache_hits=hits,
        cache_misses=len(pending),
        cache_dir=cache.root,
        code_version=cache.version,
        elapsed_s=elapsed,
        shard=shard,
        n_total=n_total,
        telemetry=telemetry,
    )
