"""In-process execution: the cell engine.

:func:`_run_cells` is the round-based retry loop over a
``ProcessPoolExecutor`` that every sweep process runs its cells on — a
plain sweep, a ``--shard i/n`` slice, and so every dispatched shard
child.

Worker payloads are split into an invariant *context* (experiment name,
timeout, the parameters every cell shares) shipped once per worker via
the pool initializer, and a per-cell *delta* (seed, seed index, the
cell's own grid point) pickled per task — so a sweep with megabytes of
fixed parameters no longer re-pickles them for every run.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import Callable, Dict, List, Optional, Sequence

from repro.sweep.cache import ResultCache
from repro.sweep.grid import RunSpec
from repro.sweep.retry import (
    KIND_CRASH,
    RetryPolicy,
    SweepError,
    classify_error,
    error_summary,
    run_deadline,
)

# ---------------------------------------------------------------------------
# Worker-side cell execution
# ---------------------------------------------------------------------------

#: Per-worker invariant context, installed once by the pool initializer.
_WORKER_CONTEXT: dict = {}


def _init_worker(context: dict) -> None:
    _WORKER_CONTEXT.clear()
    _WORKER_CONTEXT.update(context)


def _shared_context(specs: Sequence[RunSpec],
                    timeout_s: Optional[float],
                    trace_dir: Optional[str] = None) -> dict:
    """The invariant payload parts: experiment, timeout, common params."""
    first = specs[0].params
    rest = specs[1:]
    common = tuple(kv for kv in first
                   if all(kv in spec.params for spec in rest))
    return {
        "experiment": specs[0].experiment,
        "timeout_s": timeout_s,
        "trace_dir": trace_dir,
        "common_params": [list(kv) for kv in common],
    }


def _cell_delta(spec: RunSpec, context: dict) -> dict:
    """The per-cell payload: seed coordinates plus non-shared params."""
    common = [tuple(kv) for kv in context["common_params"]]
    return {
        "seed_index": spec.seed_index,
        "seed": spec.seed,
        "params": [list(kv) for kv in spec.params if kv not in common],
    }


def _payload_from(context: dict, delta: dict) -> dict:
    """Reassemble the full cell payload a worker executes."""
    params = {key: value for key, value in context["common_params"]}
    params.update({key: value for key, value in delta["params"]})
    payload = {
        "experiment": context["experiment"],
        "params": sorted(params.items()),
        "seed_index": delta["seed_index"],
        "seed": delta["seed"],
    }
    if context.get("timeout_s") is not None:
        payload["timeout_s"] = context["timeout_s"]
    if context.get("trace_dir") is not None:
        payload["trace_dir"] = context["trace_dir"]
    return payload


def _run_cell(delta: dict) -> dict:
    """Pool task entry point: context comes from the worker initializer."""
    return _execute_cell(_payload_from(_WORKER_CONTEXT, delta))


def _trace_filename(payload: dict) -> str:
    """Deterministic per-cell trace filename (from the cell identity)."""
    import hashlib
    import json as json_module

    digest = hashlib.sha256(json_module.dumps({
        "experiment": payload["experiment"],
        "params": payload["params"],
        "seed_index": payload["seed_index"],
        "seed": payload.get("seed"),
    }, sort_keys=True, default=str).encode()).hexdigest()[:10]
    return (f"{payload['experiment']}-s{payload['seed_index']}"
            f"-{digest}.jsonl")


def _execute_cell(payload: dict) -> dict:
    """Run one sweep cell and return its serialized run record."""
    from repro.eval import registry, result_type_name, serialize_result

    try:
        spec = registry.get(payload["experiment"])
    except KeyError as error:
        # In a shard child the likeliest cause is a plugin module that
        # is not on REPRO_PLUGINS (or failed to import there); say so
        # instead of leaving a bare KeyError traceback in shard.log.
        raise LookupError(
            f"{error.args[0]} (out-of-tree experiments must be "
            f"importable via the REPRO_PLUGINS environment variable in "
            f"every worker/shard process)") from None
    params = {key: value for key, value in payload["params"]}
    call_params = dict(params)
    seed = payload.get("seed")
    if seed is not None:
        if spec.accepts_seed:
            call_params["seed"] = seed
        else:
            warnings.warn(
                f"experiment {payload['experiment']!r} "
                f"(module {spec.fn.__module__}) takes no seed "
                f"parameter; derived seed {seed} ignored (run is "
                f"deterministic)", RuntimeWarning, stacklevel=2)
    trace_name = None
    rec = None
    if payload.get("trace_dir"):
        from repro.obs import JsonlSink, recorder

        rec = recorder()
        if rec.active:
            rec = None  # an outer scope (repro run --trace) owns it
        else:
            trace_name = _trace_filename(payload)
            rec.enable(JsonlSink(
                os.path.join(payload["trace_dir"], trace_name)))
    started = time.perf_counter()
    try:
        with run_deadline(payload.get("timeout_s")):
            result = spec.run(**call_params)
    finally:
        if rec is not None:
            rec.disable()
    elapsed = time.perf_counter() - started
    record = {
        "experiment": payload["experiment"],
        "seed_index": payload["seed_index"],
        "seed": payload["seed"],
        "params": params,
        "elapsed_s": elapsed,
        "status": "ok",
        "result_type": result_type_name(result),
        "result": serialize_result(result),
    }
    if trace_name is not None:
        record["trace"] = trace_name
    return record


def _failed_record(spec: RunSpec, error: BaseException,
                   attempts: int) -> dict:
    """The run record for a cell whose every attempt failed."""
    return {
        "experiment": spec.experiment,
        "seed_index": spec.seed_index,
        "seed": spec.seed,
        "params": dict(spec.params),
        "elapsed_s": 0.0,
        "status": "failed",
        "attempts": attempts,
        "error": error_summary(error),
        "result_type": "",
        "result": None,
    }


# ---------------------------------------------------------------------------
# The round-based retry engine (formerly runner._execute_pending)
# ---------------------------------------------------------------------------

def _run_cells(
    specs: Sequence[RunSpec],
    pending: Sequence[int],
    *,
    jobs: int,
    policy: RetryPolicy,
    strict: bool,
    cache: ResultCache,
    progress: Optional[Callable[[str], None]],
    trace_dir: Optional[str] = None,
) -> Dict[int, dict]:
    """Round-based execution with retry: cell index -> final record."""
    results: Dict[int, dict] = {}
    attempts: Dict[int, int] = {index: 0 for index in pending}
    queue: List[int] = list(pending)
    total = len(pending)
    completed = 0
    retry_round = 0
    isolate = False  # after a crash round: one single-worker pool per cell

    context = _shared_context([specs[index] for index in pending],
                              policy.timeout_s, trace_dir)
    deltas = {index: _cell_delta(specs[index], context)
              for index in pending}

    while queue:
        if retry_round:
            delay = policy.backoff_delay(retry_round)
            if delay:
                time.sleep(delay)
        failures: Dict[int, BaseException] = {}
        fresh: Dict[int, dict] = {}
        if jobs <= 1:
            # Inline: no worker to crash, but also no crash isolation —
            # a cell that kills its process kills the sweep (jobs>=2
            # exists precisely to contain that).
            for index in queue:
                attempts[index] += 1
                try:
                    fresh[index] = _execute_cell(
                        _payload_from(context, deltas[index]))
                except Exception as error:
                    failures[index] = error
        elif isolate:
            # A worker crash breaks its whole pool, failing every cell
            # in flight with it.  Rerun each suspect in its own
            # single-worker pool so a poisoned cell exhausts only its
            # own attempts and collateral cells complete normally.
            from concurrent.futures import ProcessPoolExecutor

            for index in queue:
                attempts[index] += 1
                with ProcessPoolExecutor(
                        max_workers=1, initializer=_init_worker,
                        initargs=(context,)) as pool:
                    try:
                        fresh[index] = pool.submit(
                            _run_cell, deltas[index]).result()
                    except Exception as error:
                        failures[index] = error
        else:
            # One pool per round: a crash poisons the pool, so
            # surviving cells get a clean pool on the retry round.
            from concurrent.futures import ProcessPoolExecutor, as_completed

            with ProcessPoolExecutor(
                    max_workers=min(jobs, len(queue)),
                    initializer=_init_worker,
                    initargs=(context,)) as pool:
                futures = {}
                for index in queue:
                    attempts[index] += 1
                    futures[pool.submit(_run_cell, deltas[index])] = index
                for future in as_completed(futures):
                    index = futures[future]
                    try:
                        fresh[index] = future.result()
                    except Exception as error:
                        failures[index] = error
        isolate = any(classify_error(error) == KIND_CRASH
                      for error in failures.values())

        for index in sorted(fresh):
            record = fresh[index]
            record["attempts"] = attempts[index]
            cache.store(specs[index], record)
            results[index] = record
            completed += 1
            if progress is not None:
                progress(
                    f"run {completed}/{total}: seed_index="
                    f"{specs[index].seed_index} seed={specs[index].seed} "
                    f"({record['elapsed_s']:.2f} s)")

        retry_queue: List[int] = []
        for index in sorted(failures):
            error = failures[index]
            spec = specs[index]
            if strict:
                raise SweepError(
                    f"run seed_index={spec.seed_index} "
                    f"seed={spec.seed} of {spec.experiment!r} failed "
                    f"({error_summary(error)['kind']}): {error}"
                ) from error
            if policy.allows_retry(attempts[index]):
                retry_queue.append(index)
                if progress is not None:
                    progress(
                        f"retrying seed_index={spec.seed_index} "
                        f"seed={spec.seed} (attempt "
                        f"{attempts[index]}/{policy.max_attempts} "
                        f"{error_summary(error)['kind']}: {error})")
            else:
                results[index] = _failed_record(spec, error,
                                                attempts[index])
                completed += 1
                if progress is not None:
                    progress(
                        f"run {completed}/{total}: seed_index="
                        f"{spec.seed_index} seed={spec.seed} FAILED "
                        f"after {attempts[index]} attempt(s) "
                        f"({error_summary(error)['kind']}: {error})")
        queue = retry_queue
        retry_round += 1
    return results
