"""The cell engine: how one sweep process runs its cells.

:func:`_run_cells` is the round-based retry loop over a
``ProcessPoolExecutor`` that every sweep process runs its cells on — a
plain sweep, a ``--shard i/n`` slice, and so every dispatched shard
child.  Each task ships its cell's whole payload (experiment, seed
coordinates, parameters, timeout, trace directory).
"""

from __future__ import annotations

import hashlib
import json
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
    run_deadline,
)

# ---------------------------------------------------------------------------
# Worker-side cell execution
# ---------------------------------------------------------------------------

def _payload(spec: RunSpec, timeout_s: Optional[float],
             trace_dir: Optional[str]) -> dict:
    """The picklable form of one cell, as a worker executes it."""
    payload = {
        "experiment": spec.experiment,
        "params": [list(kv) for kv in spec.params],
        "seed_index": spec.seed_index,
        "seed": spec.seed,
    }
    if timeout_s is not None:
        payload["timeout_s"] = timeout_s
    if trace_dir is not None:
        payload["trace_dir"] = trace_dir
    return payload


def _trace_filename(payload: dict) -> str:
    """Deterministic per-cell trace filename (from the cell identity)."""
    digest = hashlib.sha256(json.dumps({
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
        # In a shard child the likeliest cause is an experiment registered
        # only in the parent; say so instead of leaving a bare KeyError
        # traceback in shard.log.
        raise LookupError(
            f"{error.args[0]} (an experiment must be registered in every "
            f"worker/shard process)") from None
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
        "error": {"kind": classify_error(error),
                  "type": type(error).__name__,
                  "message": str(error)},
        "result_type": "",
        "result": None,
    }


# ---------------------------------------------------------------------------
# The round-based retry engine
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

    payloads = {index: _payload(specs[index], policy.timeout_s, trace_dir)
                for index in pending}

    while queue:
        time.sleep(policy.backoff_delay(retry_round))  # 0 on round 0
        failures: Dict[int, BaseException] = {}
        fresh: Dict[int, dict] = {}
        if jobs <= 1:
            # Inline: no worker to crash, but also no crash isolation —
            # a cell that kills its process kills the sweep (jobs>=2
            # exists precisely to contain that).
            for index in queue:
                attempts[index] += 1
                try:
                    fresh[index] = _execute_cell(payloads[index])
                except Exception as error:
                    failures[index] = error
        else:
            # One pool per round: a crash poisons the pool, so surviving
            # cells get a clean pool on the retry round.  A crash breaks
            # its whole pool, failing every cell in flight with it, so
            # the round after one runs each suspect in its own
            # single-worker pool: a poisoned cell exhausts only its own
            # attempts and collateral cells complete normally.
            from concurrent.futures import ProcessPoolExecutor, as_completed

            for batch in ([[index] for index in queue] if isolate
                          else [queue]):
                with ProcessPoolExecutor(
                        max_workers=min(jobs, len(batch))) as pool:
                    futures = {}
                    for index in batch:
                        attempts[index] += 1
                        futures[pool.submit(_execute_cell,
                                            payloads[index])] = index
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
            kind = classify_error(error)
            if strict:
                raise SweepError(
                    f"run seed_index={spec.seed_index} "
                    f"seed={spec.seed} of {spec.experiment!r} failed "
                    f"({kind}): {error}") from error
            if policy.allows_retry(attempts[index]):
                retry_queue.append(index)
                if progress is not None:
                    progress(
                        f"retrying seed_index={spec.seed_index} "
                        f"seed={spec.seed} (attempt "
                        f"{attempts[index]}/{policy.max_attempts} "
                        f"{kind}: {error})")
            else:
                results[index] = _failed_record(spec, error,
                                                attempts[index])
                completed += 1
                if progress is not None:
                    progress(
                        f"run {completed}/{total}: seed_index="
                        f"{spec.seed_index} seed={spec.seed} FAILED "
                        f"after {attempts[index]} attempt(s) "
                        f"({kind}: {error})")
        queue = retry_queue
        retry_round += 1
    return results
