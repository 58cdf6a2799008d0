"""``python -m repro obs``: inspect, query and diff trace artifacts.

Subcommands:

``obs summarize PATH...``
    Aggregate one or more trace files / sweep directories: per-event
    counts, merged metrics, and the summed telemetry of every sweep
    manifest found (top-level or per-shard).  ``--format json`` emits
    the aggregate as JSON.

``obs query PATH...``
    Stream matching trace events as canonical JSONL, filtered by
    ``--event/--flow/--router/--t0/--t1`` (conjunctive).  Uses the lazy
    ``*.idx.json`` sidecar index when available; ``--no-index`` forces
    a full scan (and builds no sidecars).

``obs flow FLOW PATH``
    Reconstruct one flow's timeline — hops, deliveries, drops,
    fabrications, misroutes — ordered by virtual time.

``obs explain ROUTER PATH``
    Verdict forensics for a router: every suspicion naming it, the
    drop/fabricate/misroute evidence inside each (segment, window),
    TP/FP/FN/TN classification against adversary ground truth, and
    detection latency.

``obs diff A B``
    Compare two sweep outputs (merged trace metrics, manifest
    aggregates, telemetry).  Exit 0 = no gating drift beyond
    ``--threshold``, 1 = regression, 2 = usage error.  Telemetry is
    informational unless ``--gate-telemetry``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Dict, List, Optional

from repro.obs.diff import diff_sweeps, format_diff
from repro.obs.forensics import (
    explain_sweep,
    flow_timeline,
    load_manifest,
)
from repro.obs.metrics import merge_snapshots
from repro.obs.query import (
    QueryFilter,
    TraceFormatError,
    TraceReader,
    has_torn_tail,
    scan,
    trace_files,
)
from repro.obs.sinks import encode_line
from repro.obs.telemetry import merge_telemetry


def collect_telemetry(paths: List[str]) -> Optional[dict]:
    """Summed telemetry across every manifest the paths cover.

    Each path contributes its own sweep.json; a dispatched sweep whose
    top-level manifest is missing (or predates telemetry) falls back to
    summing its per-shard manifests under ``shards/*/sweep.json``.
    Multiple paths sum rather than first-one-wins, so summarizing two
    shard directories together reports their combined telemetry.
    """
    def telemetry_of(path: str) -> Optional[dict]:
        return (load_manifest(path) or {}).get("telemetry")

    sections: List[dict] = []
    for path in paths:
        telemetry = telemetry_of(path)
        if telemetry is None and os.path.isdir(path):
            shard_manifests = sorted(glob.glob(
                os.path.join(path, "shards", "*", "sweep.json")))
            shard_sections = [telemetry_of(p) for p in shard_manifests]
            shard_present = [s for s in shard_sections if s]
            if shard_present:
                sections.extend(shard_present)
                continue
        if telemetry is not None:
            sections.append(telemetry)
    if not sections:
        return None
    if len(sections) == 1:
        return sections[0]
    return merge_telemetry(sections)


def summarize_paths(paths: List[str]) -> dict:
    """Aggregate traces (and any manifest telemetry) across *paths*."""
    files: List[str] = []
    for path in paths:
        files.extend(trace_files(path))
    events: Dict[str, int] = {}
    snapshots: List[dict] = []
    records = 0
    for path in files:
        reader = TraceReader(path)
        for name, count in reader.event_counts().items():
            records += count
            if name != "obs.metrics":
                events[name] = events.get(name, 0) + count
        snapshots.extend(
            event.fields.get("metrics") or {}
            for event in reader.events(
                QueryFilter(events=("obs.metrics",))))
    return {
        "traces": len(files),
        "records": records,
        "events": {name: events[name] for name in sorted(events)},
        "metrics": merge_snapshots(snapshots),
        "telemetry": collect_telemetry(paths),
    }


def format_summary(summary: dict) -> List[str]:
    lines = [f"traces: {summary['traces']} file(s), "
             f"{summary['records']} record(s)"]
    if summary["events"]:
        lines.append("events:")
        for name in sorted(summary["events"]):
            lines.append(f"  {name}: {summary['events'][name]}")
    if summary["metrics"]:
        lines.append("metrics:")
        for name in sorted(summary["metrics"]):
            row = summary["metrics"][name]
            kind = row.get("kind")
            if kind == "counter":
                detail = f"{row['value']}"
            elif kind == "gauge":
                detail = (f"{row['value']} (min {row['min']}, "
                          f"max {row['max']})")
            else:
                detail = (f"count {row['count']}, mean {row['mean']:.3f}, "
                          f"max {row['max']}")
            lines.append(f"  {name} [{kind}]: {detail}")
    telemetry = summary.get("telemetry")
    if telemetry:
        runs = telemetry.get("runs", {})
        cache = telemetry.get("cache", {})
        lines.append(
            f"telemetry: wall {telemetry.get('wall_s', 0.0):.2f} s, "
            f"runs {runs.get('ok', 0)}/{runs.get('total', 0)} ok "
            f"({runs.get('cached', 0)} cached), cache hit rate "
            f"{cache.get('hit_rate', 0.0):.0%}")
        workers = telemetry.get("workers", {})
        lines.append(
            f"workers: jobs={workers.get('jobs', 1)}, utilization "
            f"{workers.get('utilization', 0.0):.0%}")
    return lines


# -- argparse wiring --------------------------------------------------------

def add_obs_parser(subparsers, help: str) -> None:
    parser = subparsers.add_parser("obs", help=help)
    parser.set_defaults(func=cmd_obs)
    obs_sub = parser.add_subparsers(dest="obs_command", required=True)

    summarize = obs_sub.add_parser(
        "summarize", help="aggregate trace files / sweep directories")
    summarize.add_argument("paths", nargs="+", metavar="PATH",
                           help="trace .jsonl file(s) or sweep dir(s)")
    summarize.add_argument("--format", choices=("text", "json"),
                           default="text")
    summarize.set_defaults(obs_func=cmd_summarize)

    query = obs_sub.add_parser(
        "query", help="stream matching trace events as JSONL")
    query.add_argument("paths", nargs="+", metavar="PATH",
                       help="trace .jsonl file(s) or sweep dir(s)")
    query.add_argument("--event", action="append", dest="events",
                       metavar="NAME",
                       help="event kind to match (repeatable)")
    query.add_argument("--flow", help="flow id to match")
    query.add_argument("--router", help="router name to match")
    query.add_argument("--t0", type=float,
                       help="virtual-time window start (inclusive)")
    query.add_argument("--t1", type=float,
                       help="virtual-time window end (exclusive)")
    query.add_argument("--limit", type=int, default=0,
                       help="stop after N matches (0 = unlimited)")
    query.add_argument("--count", action="store_true",
                       help="print only the number of matches")
    query.add_argument("--no-index", action="store_true",
                       help="full scan; build no .idx.json sidecars")
    query.set_defaults(obs_func=cmd_query)

    flow = obs_sub.add_parser(
        "flow", help="reconstruct one flow's virtual-time timeline")
    flow.add_argument("flow", metavar="FLOW", help="flow id (e.g. f1)")
    flow.add_argument("paths", nargs="+", metavar="PATH",
                      help="trace .jsonl file(s) or sweep dir(s)")
    flow.add_argument("--format", choices=("text", "json"),
                      default="text")
    flow.set_defaults(obs_func=cmd_flow)

    explain = obs_sub.add_parser(
        "explain", help="verdict forensics for one router")
    explain.add_argument("router", metavar="ROUTER",
                         help="router name to explain")
    explain.add_argument("paths", nargs="+", metavar="PATH",
                         help="trace .jsonl file(s) or sweep dir(s)")
    explain.add_argument("--format", choices=("text", "json"),
                         default="text")
    explain.set_defaults(obs_func=cmd_explain)

    diff = obs_sub.add_parser(
        "diff", help="compare two sweep outputs (exit 1 on regression)")
    diff.add_argument("a", metavar="SWEEP_A", help="baseline sweep dir")
    diff.add_argument("b", metavar="SWEEP_B", help="candidate sweep dir")
    diff.add_argument("--threshold", type=float, default=0.0,
                      help="relative change tolerated on gating keys "
                           "(e.g. 0.02 = 2%%; default 0 = exact)")
    diff.add_argument("--gate-telemetry", action="store_true",
                      help="let wall-domain telemetry drift gate too")
    diff.add_argument("--format", choices=("text", "json"),
                      default="text")
    diff.set_defaults(obs_func=cmd_diff)


def cmd_obs(args: argparse.Namespace) -> int:
    """Run the selected subcommand under the damaged-trace policy.

    The readers skip a torn final line and raise on any other bad line
    (:mod:`repro.obs.query`); this is where both reach the user, as one
    line each on stderr.
    """
    paths = args.paths if "paths" in args else [args.a, args.b]
    for path in paths:
        for trace in trace_files(path):
            if has_torn_tail(trace):
                print(f"warning: {trace}: ignored torn final line",
                      file=sys.stderr)
    try:
        return args.obs_func(args)
    except TraceFormatError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def cmd_summarize(args: argparse.Namespace) -> int:
    summary = summarize_paths(args.paths)
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        for line in format_summary(summary):
            print(line)
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    query = QueryFilter(
        events=tuple(args.events) if args.events else None,
        flow=args.flow, router=args.router, t0=args.t0, t1=args.t1)
    matched = 0
    for _, event in scan(args.paths, query,
                         use_index=not args.no_index):
        matched += 1
        if not args.count:
            print(encode_line(event.to_dict()))
        if args.limit and matched >= args.limit:
            break
    if args.count:
        print(matched)
    return 0


def _format_event_line(event) -> str:
    extras = " ".join(f"{key}={event.fields[key]}"
                      for key in sorted(event.fields))
    return f"t={event.t:.6f} {event.event} {extras}"


def cmd_flow(args: argparse.Namespace) -> int:
    files: List[str] = []
    for path in args.paths:
        files.extend(trace_files(path))
    if not files:
        print(f"error: no trace files under {', '.join(args.paths)}",
              file=sys.stderr)
        return 2
    payload = []
    for trace in files:
        timeline = flow_timeline(trace, args.flow)
        if not timeline:
            continue
        payload.append({"trace": trace,
                        "events": [e.to_dict() for e in timeline]})
        if args.format == "text":
            print(f"{trace}: flow {args.flow} "
                  f"({len(timeline)} event(s))")
            for event in timeline:
                print(f"  {_format_event_line(event)}")
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif not payload:
        print(f"flow {args.flow}: no events in {len(files)} trace(s)")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    explanations = []
    for path in args.paths:
        explanations.extend(explain_sweep(path, args.router))
    if not explanations:
        print(f"error: no trace files under {', '.join(args.paths)}",
              file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps([e.to_dict() for e in explanations],
                         indent=2, sort_keys=True))
        return 0
    for explanation in explanations:
        latency = (f"{explanation.detection_latency:.3f}s"
                   if explanation.detection_latency is not None
                   else "n/a")
        print(f"{explanation.trace}: router {explanation.router} -> "
              f"{explanation.classification.upper()} "
              f"(latency {latency}, "
              f"{len(explanation.verdicts)}/"
              f"{explanation.total_suspicions} suspicion(s) name it)")
        truth = explanation.ground_truth
        if truth:
            print(f"  ground truth: adversary={truth.get('router')} "
                  f"behavior={truth.get('behavior')} "
                  f"attack_at={truth.get('attack_at')}")
        for verdict in explanation.verdicts:
            evidence = ", ".join(
                f"{kind.split('.')[-1]}={count}"
                for kind, count in sorted(verdict.evidence.items()))
            print(f"  [{'TP' if verdict.true_positive else 'FP'}] "
                  f"{verdict.segment_id} "
                  f"window=[{verdict.interval[0]:g}, "
                  f"{verdict.interval[1]:g}) by {verdict.by} "
                  f"reason={verdict.reason or '-'} "
                  f"evidence: {evidence or 'none in window'}")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    for path in (args.a, args.b):
        if not os.path.isdir(path) and not os.path.isfile(path):
            print(f"error: no such sweep: {path}", file=sys.stderr)
            return 2
    report = diff_sweeps(args.a, args.b, threshold=args.threshold,
                         gate_telemetry=args.gate_telemetry)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for line in format_diff(report):
            print(line)
    return report.exit_code
