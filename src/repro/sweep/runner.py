"""Sweep orchestration: configuration, the classic path, shard dispatch.

:func:`run_sweep` expands a (grid x seeds) run list from a
:class:`SweepConfig`, answers what it can from the on-disk cache, and
executes the rest.  Without an executor that happens in this process on
a ``ProcessPoolExecutor`` (the *classic* path; ``jobs=1`` runs inline,
bit-identical to the pool path since every run is fully determined by
its :class:`RunSpec`), honoring ``config.shard`` so one process can run
a single ``--shard i/n`` slice.

With an ``executor`` (a
:class:`~repro.sweep.executors.SupervisedChildExecutor`) the sweep is
instead *dispatched*: split into ``executor.n_shards`` deterministic
slices, each run as a supervised shard child until every shard reports
``ok`` — a ``lost`` shard (killed process, stale heartbeat, timeout)
is re-dispatched under :class:`~repro.sweep.retry.ShardRetryPolicy`,
reusing cached cells from the lost attempt — and finally auto-merged
through the validated merge path, so the returned
:class:`SweepResult`'s ``aggregate.csv`` is bit-identical to an
undispatched run.  The merged manifest (schema ``repro.sweep/v4``)
records per-shard status/attempts/host under ``dispatch`` and
wall-domain observability data under ``telemetry``.

Cell-level fault tolerance (retry with backoff, per-run timeouts,
worker-crash isolation, ``strict`` fail-fast) is unchanged from the
process-pool engine, which now lives in
:mod:`repro.sweep.executors.local`.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.sweep.aggregate import aggregate_records
from repro.sweep.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.sweep.executors.local import _run_cells
from repro.sweep.executors.supervised import (
    SHARD_FAILED,
    SHARD_LOST,
    SHARD_OK,
    ShardSpec,
    SupervisedChildExecutor,
)
from repro.sweep.grid import RunSpec, expand_grid, shard_specs
from repro.sweep.retry import RetryPolicy, ShardRetryPolicy, SweepError
from repro.obs.telemetry import build_telemetry

#: Manifest schema written by this version, and the only one
#: ``repro merge`` reads.
MANIFEST_SCHEMA = "repro.sweep/v4"

Progress = Optional[Callable[[str], None]]


@dataclass(frozen=True)
class SweepConfig:
    """Everything that defines one sweep, minus the experiment name.

    ``run_sweep`` takes this and nothing else.  ``shard`` marks this
    process as one ``i/n`` slice (the shard-worker role);
    ``shard_retry``/``shard_dir`` only matter when
    an executor dispatches the sweep (``shard_dir`` is where per-shard
    artifact directories and heartbeats live — default: a temporary
    directory removed after the merge).
    """

    seeds: int = 8
    jobs: int = 1
    params: Optional[Mapping[str, object]] = None
    grid: Optional[Mapping[str, Sequence[object]]] = None
    root_seed: int = 0
    cache: Optional[ResultCache] = None
    use_cache: bool = True
    cache_dir: str = DEFAULT_CACHE_DIR
    cache_max_bytes: Optional[int] = None
    shard: Optional[Tuple[int, int]] = None
    retry: Optional[RetryPolicy] = None
    strict: bool = False
    shard_retry: Optional[ShardRetryPolicy] = None
    shard_dir: Optional[str] = None
    #: Directory for per-run JSONL trace files (None disables tracing).
    #: Workers enable the global recorder around each run; tracing never
    #: changes results, only observes them.
    trace_dir: Optional[str] = None



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
            statuses = [row["status"] for row in self.dispatch["shards"]]
            redispatched = sum(1 for row in self.dispatch["shards"]
                               if row["attempts"] > 1)
            line = (f"dispatched {len(statuses)} shard(s) via "
                    f"{self.dispatch['executor']}: "
                    f"{statuses.count('ok')} ok")
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
    executor: Optional[SupervisedChildExecutor] = None,
    progress: Progress = None,
) -> SweepResult:
    """Run ``experiment`` across (grid x seeds), cached and in parallel.

    Settings travel exclusively in a :class:`SweepConfig` (the keyword
    shim that once accepted ``run_sweep(name, seeds=...)`` has been
    removed).  With ``executor=None`` the sweep runs in this process;
    otherwise it is dispatched as shards through the executor and
    auto-merged (see module docstring).
    """
    if config is None:
        config = SweepConfig()
    if executor is not None:
        if config.shard is not None:
            raise ValueError(
                "config.shard marks this process as one shard of a "
                "dispatched sweep; it cannot be combined with an "
                "executor (use the executor's shard count instead)")
        return _run_dispatched(experiment, config, executor, progress)

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

    cache = config.cache
    if cache is None:
        cache = ResultCache(config.cache_dir, enabled=config.use_cache,
                            max_bytes=config.cache_max_bytes)
    started = time.perf_counter()
    records: List[Optional[dict]] = [None] * len(specs)
    pending: List[int] = []
    hits = 0
    for index, spec in enumerate(specs):
        cached = cache.load(spec)
        if cached is not None:
            record = dict(cached)
            record["cached"] = True
            records[index] = record
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
            record = dict(executed[index])
            record["cached"] = False
            records[index] = record

    aggregate = aggregate_records(
        [record["result"] for record in records
         if record.get("status", "ok") == "ok"])
    elapsed = time.perf_counter() - started
    telemetry = build_telemetry(
        wall_s=elapsed,
        records=[record for record in records if record is not None],
        jobs=config.jobs,
        cache_stats={"hits": hits, "misses": len(pending),
                     "stores": cache.stats["stores"],
                     "evictions": cache.stats["evictions"]},
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
        cache_dir=cache.root if cache.enabled else None,
        code_version=cache.version,
        elapsed_s=elapsed,
        shard=shard,
        n_total=n_total,
        telemetry=telemetry,
    )


# ---------------------------------------------------------------------------
# Dispatched execution: supervised shard children, merged at the end
# ---------------------------------------------------------------------------

def _run_dispatched(experiment: str, config: SweepConfig,
                    executor: SupervisedChildExecutor,
                    progress: Progress) -> SweepResult:
    """Split the sweep into shards, supervise them, merge the artifacts."""
    from repro.sweep.merge import merge_sweep_dirs

    # Validate everything up front so a typo fails here, not inside a
    # child process; children re-coerce identically.
    params, grid, _n_seeds, all_specs = _validated_inputs(
        experiment, config, progress=progress)
    count = executor.n_shards
    policy = (config.shard_retry if config.shard_retry is not None
              else ShardRetryPolicy())
    started = time.perf_counter()

    workdir = config.shard_dir
    cleanup = workdir is None
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="repro-sweep-dispatch-")
    os.makedirs(workdir, exist_ok=True)

    # Children re-derive their slice from the same coordinates, so the
    # child config is shard-free and must not inherit process-local
    # state (a live cache object, dispatch settings).
    child_config = replace(config, params=params, grid=grid, shard=None,
                           cache=None, shard_retry=None, shard_dir=None)
    shard_list = [
        ShardSpec(
            experiment=experiment,
            config=child_config,
            index=index,
            count=count,
            out_dir=os.path.join(workdir, f"shard-{index}"),
            heartbeat=os.path.join(workdir, f"shard-{index}.heartbeat"),
        )
        for index in range(count)
    ]
    if progress is not None:
        progress(f"dispatching {len(all_specs)} runs as {count} shard(s) "
                 f"via {executor.name}")

    submit_started = time.perf_counter()
    try:
        for spec in shard_list:
            executor.submit(spec)
        submit_s = time.perf_counter() - submit_started
        while True:
            busy = False
            for handle in executor.poll():
                index = handle.index
                if handle.status == SHARD_OK:
                    continue
                if handle.status == SHARD_LOST:
                    if not policy.allows_retry(handle.attempts):
                        raise SweepError(
                            f"shard {index}/{count} lost after "
                            f"{handle.attempts} dispatch attempt(s): "
                            f"{handle.error}")
                    if progress is not None:
                        progress(
                            f"shard {index}/{count} lost "
                            f"({handle.error}); "
                            f"re-dispatching (attempt "
                            f"{handle.attempts + 1}/{policy.max_attempts})")
                    executor.resubmit(handle)
                    busy = True
                elif handle.status == SHARD_FAILED:
                    raise SweepError(
                        f"shard {index}/{count} failed: {handle.error}")
                else:
                    busy = True
            if not busy:
                break
            time.sleep(policy.poll_interval_s)
    except BaseException:
        executor.cancel()
        raise
    finally:
        if cleanup and len(executor.collect()) < count:
            shutil.rmtree(workdir, ignore_errors=True)

    collect_started = time.perf_counter()
    merged = merge_sweep_dirs(executor.collect())
    collect_s = time.perf_counter() - collect_started
    merged.jobs = config.jobs
    merged.elapsed_s = time.perf_counter() - started  # wall clock
    merged.dispatch = {
        "executor": executor.name,
        "n_shards": count,
        "shards": [handle.describe() for handle in executor.handles],
    }
    if merged.telemetry is not None:
        # Shard telemetry was merged from the surviving attempts'
        # manifests (a lost attempt left no manifest, so its partial
        # telemetry is naturally discarded); add the dispatch-level
        # wall measurements only the driver can see.
        merged.telemetry["dispatch"] = {
            "executor": executor.name,
            "n_shards": count,
            "wall_s": merged.elapsed_s,
            "submit_s": submit_s,
            "collect_s": collect_s,
            "shards": [handle.describe() for handle in executor.handles],
        }
    if progress is not None:
        for handle in executor.handles:
            progress(f"shard {handle.index}/{count}: {handle.status} after "
                     f"{handle.attempts} attempt(s)")
    if cleanup:
        shutil.rmtree(workdir, ignore_errors=True)
    return merged
