"""The ``python -m repro sweep`` and ``python -m repro merge`` subcommands."""

from __future__ import annotations

import argparse
import os
import time
from typing import List, Optional

from repro.sweep.artifacts import write_sweep_artifacts
from repro.sweep.cache import DEFAULT_CACHE_DIR
from repro.sweep.executors import SupervisedChildExecutor
from repro.sweep.grid import (
    parse_grid_assignments,
    parse_param_assignments,
    parse_shard,
)
from repro.sweep.retry import RetryPolicy, ShardRetryPolicy, SweepError
from repro.sweep.runner import SweepConfig, run_sweep


def add_sweep_parser(sub: argparse._SubParsersAction,
                     help: str) -> argparse.ArgumentParser:
    parser = sub.add_parser(
        "sweep",
        help=help,
        description=(
            "Fan one experiment across N derived seeds (and an optional "
            "parameter grid) on a process pool, aggregate "
            "mean/median/std/CI statistics, and write JSON/CSV artifacts. "
            "Finished runs are cached under .repro-cache/ and reused "
            "until code or parameters change.  Failed or timed-out runs "
            "are retried with exponential backoff, then marked failed; "
            "--shard i/n runs one deterministic slice of the sweep for "
            "later `repro merge`, and --executor subprocess runs every "
            "shard as a supervised child process and auto-merges them."),
    )
    parser.add_argument("experiment", help="registered experiment name")
    parser.add_argument("--seeds", type=int, default=8, metavar="N",
                        help="Monte-Carlo replicates per grid point "
                             "(default 8)")
    parser.add_argument("--jobs", type=int,
                        default=max(1, os.cpu_count() or 1), metavar="J",
                        help="worker processes (default: CPU count)")
    parser.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="fix an experiment parameter (repeatable; "
                             "dotted keys like adversary.rate address "
                             "nested spec fields)")
    parser.add_argument("--grid", action="append", default=[],
                        metavar="KEY=V1,V2,...",
                        help="sweep an experiment parameter over values "
                             "(repeatable; cartesian product; dotted "
                             "keys like placement.strategy address "
                             "nested spec fields)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="artifact directory "
                             "(default sweeps/<experiment>)")
    parser.add_argument("--root-seed", type=int, default=0, metavar="S",
                        help="root seed all per-run seeds derive from "
                             "(default 0)")
    parser.add_argument("--shard", default=None, metavar="I/N",
                        help="run only shard I of N (deterministic "
                             "partition of the run list; merge shard "
                             "outputs with `repro merge`)")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-run timeout in seconds "
                             "(default: no timeout)")
    parser.add_argument("--retries", type=int, default=2, metavar="R",
                        help="retries per failed run before marking it "
                             "failed (default 2)")
    parser.add_argument("--retry-backoff", type=float, default=0.5,
                        metavar="S",
                        help="base backoff between retry rounds, doubled "
                             "each round (default 0.5 s)")
    parser.add_argument("--strict", action="store_true",
                        help="fail fast: first failed run aborts the "
                             "sweep instead of being retried/recorded")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="DIR",
                        help=f"result cache location "
                             f"(default {DEFAULT_CACHE_DIR})")
    parser.add_argument("--cache-max-mb", type=float, default=None,
                        metavar="MB",
                        help="cap the cache at MB megabytes, evicting "
                             "least-recently-used entries (default: "
                             "unbounded)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every run; do not read or write "
                             "the cache")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-run progress lines")

    obs = parser.add_argument_group(
        "observability",
        "record per-run traces and profile the sweep (see README, "
        "'Observability')")
    obs.add_argument("--trace", action="store_true",
                     help="record a JSONL trace per executed run under "
                          "<out>/traces (sim-domain events + metrics; "
                          "results are byte-identical with or without)")
    obs.add_argument("--profile", action="store_true",
                     help="wrap the sweep in cProfile and write top-N "
                          "cumulative stats to <out>/profile.json")

    dispatch = parser.add_argument_group(
        "shard dispatch",
        "split the sweep into shards, run each as a supervised child "
        "process, and auto-merge the results (see EXPERIMENTS.md, "
        "'Dispatched sweeps')")
    dispatch.add_argument("--executor", default=None,
                          choices=("subprocess",),
                          help="run the shards as supervised child "
                               "processes on this machine")
    dispatch.add_argument("--shards", type=int, default=None, metavar="N",
                          help="shard count (default 2)")
    dispatch.add_argument("--shard-attempts", type=int, default=2,
                          metavar="N",
                          help="dispatch attempts per shard before the "
                               "sweep fails; a lost shard is re-run "
                               "(default 2)")
    dispatch.add_argument("--shard-timeout", type=float, default=None,
                          metavar="S",
                          help="kill a shard running longer than S "
                               "seconds and mark it lost")
    dispatch.add_argument("--heartbeat-timeout", type=float, default=None,
                          metavar="S",
                          help="kill a shard whose heartbeat file is older "
                               "than S seconds and mark it lost")
    # Internal: the executor passes --heartbeat to its shard children; the
    # child touches the file twice a second for liveness supervision.
    dispatch.add_argument("--heartbeat", default=None,
                          help=argparse.SUPPRESS)
    parser.set_defaults(func=cmd_sweep)
    return parser


def add_merge_parser(sub: argparse._SubParsersAction,
                     help: str) -> argparse.ArgumentParser:
    parser = sub.add_parser(
        "merge",
        help=help,
        description=(
            "Union the sweep.json manifests of several --shard runs of "
            "the same sweep (validating that shards are disjoint and "
            "share identical sweep coordinates) and write merged "
            "artifacts identical to an unsharded run."),
    )
    parser.add_argument("dirs", nargs="+", metavar="DIR",
                        help="sweep output directories (each holding a "
                             "sweep.json)")
    parser.add_argument("--out", required=True, metavar="DIR",
                        help="directory for the merged artifacts")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-shard summary lines")
    parser.set_defaults(func=cmd_merge)
    return parser


def _start_heartbeat(path: str) -> None:
    """Touch ``path`` twice a second from a daemon thread, forever."""
    import threading

    def beat() -> None:
        while True:
            try:
                with open(path, "a"):
                    pass
                os.utime(path)
            except OSError:
                pass
            time.sleep(0.5)

    threading.Thread(target=beat, daemon=True,
                     name="sweep-heartbeat").start()


def _check_counts(args: argparse.Namespace) -> None:
    """Reject a count flag below the least value it means anything at."""
    for flag, value, least in (("--seeds", args.seeds, 1),
                               ("--jobs", args.jobs, 1),
                               ("--retries", args.retries, 0),
                               ("--shard-attempts", args.shard_attempts, 1)):
        if value < least:
            raise ValueError(f"{flag} must be >= {least}, got {value}")


def _unusable_dir(paths: List[str]) -> Optional[str]:
    """``"PATH: why"`` for the first path that cannot hold output, or None.

    A path qualifies if it is a directory this process may write into,
    or can be created as one; nothing is created here, so a sweep that
    then fails validation leaves no directory behind.
    """
    for path in paths:
        existing = os.path.normpath(path)
        while existing and not os.path.exists(existing):
            existing = os.path.dirname(existing)
        existing = existing or "."
        if not os.path.isdir(existing):
            if existing == os.path.normpath(path):
                return f"{path}: not a directory"
            return f"{path}: {existing} is not a directory"
        if not os.access(existing, os.W_OK | os.X_OK):
            return f"{path}: permission denied"
    return None


def _build_executor(
        args: argparse.Namespace) -> Optional[SupervisedChildExecutor]:
    """The shard executor for --executor, or None for --shard/plain."""
    if args.executor is None:
        if args.shards is not None:
            raise ValueError("--shards needs --executor")
        return None
    if args.shard is not None:
        raise ValueError(
            "--shard marks this process as one shard of a dispatched "
            "sweep; it cannot be combined with --executor")
    return SupervisedChildExecutor(
        2 if args.shards is None else args.shards,
        shard_timeout_s=args.shard_timeout,
        heartbeat_timeout_s=args.heartbeat_timeout)


def cmd_sweep(args: argparse.Namespace) -> int:
    import sys

    try:
        _check_counts(args)
        params = parse_param_assignments(args.param)
        grid = parse_grid_assignments(args.grid)
        shard = parse_shard(args.shard) if args.shard else None
        retry = RetryPolicy(max_attempts=args.retries + 1,
                            timeout_s=args.timeout,
                            backoff_s=args.retry_backoff)
        executor = _build_executor(args)
        shard_retry = ShardRetryPolicy(max_attempts=args.shard_attempts)
    except (OSError, ValueError) as error:
        print(error, file=sys.stderr)
        return 2
    out_dir = args.out or os.path.join("sweeps", args.experiment)
    unusable = _unusable_dir(
        [out_dir] + ([] if args.no_cache else [args.cache_dir]))
    if unusable:
        print(f"error: {unusable}", file=sys.stderr)
        return 2
    if args.heartbeat:
        _start_heartbeat(args.heartbeat)
    progress = None if args.quiet else (lambda line: print(line, flush=True))
    cache_max_bytes = (int(args.cache_max_mb * 1024 * 1024)
                       if args.cache_max_mb is not None else None)
    config = SweepConfig(
        seeds=args.seeds,
        jobs=args.jobs,
        params=params,
        grid=grid,
        root_seed=args.root_seed,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        cache_max_bytes=cache_max_bytes,
        shard=shard,
        retry=retry,
        strict=args.strict,
        shard_retry=shard_retry,
        # Keep per-shard artifacts next to the merged ones for debugging.
        shard_dir=(os.path.join(out_dir, "shards")
                   if executor is not None else None),
        trace_dir=(os.path.join(out_dir, "traces") if args.trace
                   else None),
    )
    try:
        if args.profile:
            from repro.obs.profile import (format_profile_lines,
                                           profile_call, write_profile)

            sweep, profile_stats = profile_call(
                run_sweep, args.experiment, config, executor=executor,
                progress=progress)
        else:
            sweep = run_sweep(args.experiment, config, executor=executor,
                              progress=progress)
    except SweepError as error:
        print(f"sweep aborted: {error}", file=sys.stderr)
        return 1
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        print(message, file=sys.stderr)
        return 2
    sweep.artifact_paths = write_sweep_artifacts(sweep, out_dir)
    if args.profile:
        profile_path = write_profile(
            profile_stats, os.path.join(out_dir, "profile.json"))
        sweep.artifact_paths["profile"] = profile_path
        if not args.quiet:
            for line in format_profile_lines(profile_stats):
                print(line)
        print(f"wrote {profile_path}")
    for line in sweep.summary_lines():
        print(line)
    headline = _headline_fields(sweep.aggregate)
    if headline:
        print("aggregate (mean ± ci95 over runs):")
        for line in headline:
            print("  " + line)
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    import sys

    from repro.sweep.merge import (
        MergeError,
        load_manifest,
        merge_manifests,
        shard_summary,
    )

    unusable = _unusable_dir([args.out])
    if unusable:
        print(f"error: {unusable}", file=sys.stderr)
        return 2
    try:
        manifests = [load_manifest(d) for d in args.dirs]
        if not args.quiet:
            for line in shard_summary(manifests):
                print(line, flush=True)
        merged = merge_manifests(manifests)
    except MergeError as error:
        print(f"merge failed: {error}", file=sys.stderr)
        return 2
    merged.artifact_paths = write_sweep_artifacts(merged, args.out)
    for line in merged.summary_lines():
        print(line)
    return 0


def _headline_fields(aggregate) -> List[str]:
    """The most readable aggregate slice: top-level and metrics.* fields."""
    lines = []
    for field, stats in aggregate.items():
        segments = field.split(".")
        if len(segments) > 2 or segments[-1].isdigit():
            continue
        lines.append(f"{field}: {stats['mean']:.4g} ± {stats['ci95']:.4g} "
                     f"(median {stats['median']:.4g}, n={stats['n']})")
    return lines
