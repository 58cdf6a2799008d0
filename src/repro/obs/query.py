"""Streaming query engine over sim-domain trace files.

Trace files are canonical JSONL (:mod:`repro.obs.sinks`): one record per
line, sorted keys, every record carrying its ``event`` name and virtual
timestamp ``t``.  This module reads them back as typed
:class:`TraceEvent` records, filtered by :class:`QueryFilter` predicates
(event kinds, flow id, router, virtual-time window) without ever
materializing a whole file.

For repeated queries against the same trace, :class:`TraceReader`
maintains a *lazy index sidecar* — ``<trace>.idx.json`` next to the
trace — mapping flow ids, router names and event kinds to the byte
offsets of the lines that mention them.  A filtered query seeks straight
to candidate lines instead of scanning.  The sidecar is built on first
indexed query, is keyed to the trace's byte size (traces are
write-once, and size — unlike mtime — never reads a wall clock, keeping
this module inside the sim-domain lint rules), and is rebuilt whenever
the size disagrees.  Unwritable trace directories degrade gracefully to
a full scan.

Damaged traces have one policy, :func:`_reject_line`, run from the
``except`` path of every read loop here (the loops themselves pay
nothing for it): a final line with no newline that does not parse is
what a SIGKILLed writer leaves and is skipped — :func:`has_torn_tail`
lets a front end say so — and any other unparsable line raises
:class:`TraceFormatError`.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

#: Subdirectory of a sweep output dir where per-run traces land.
TRACE_DIRNAME = "traces"

#: Sidecar format version; bump on layout changes to force rebuilds.
INDEX_VERSION = 1


def trace_files(path: str) -> List[str]:
    """Trace files under *path* (a file, sweep dir, or traces dir)."""
    if os.path.isfile(path):
        return [path]
    candidates = []
    if os.path.isdir(path):
        candidates = sorted(glob.glob(os.path.join(path, "*.jsonl")))
        if not candidates:
            # A sweep dir: its own traces/ plus any per-shard traces a
            # dispatched sweep left under shards/shard-*/traces/.
            candidates = sorted(
                glob.glob(os.path.join(path, TRACE_DIRNAME, "*.jsonl"))
                + glob.glob(os.path.join(path, "shards", "*",
                                         TRACE_DIRNAME, "*.jsonl")))
    return candidates


@dataclass(frozen=True)
class TraceEvent:
    """One trace record: event name, virtual time, remaining fields.

    ``t`` is None for the few run-scoped records with no sim timestamp
    (the final ``obs.metrics`` flush); time-window filters never match
    those.
    """

    event: str
    t: Optional[float]
    fields: Dict[str, object]

    def get(self, key: str, default: object = None) -> object:
        return self.fields.get(key, default)

    @property
    def flow(self) -> Optional[str]:
        value = self.fields.get("flow")
        return None if value is None else str(value)

    @property
    def routers(self) -> Tuple[str, ...]:
        """Every router this event names (router/by/segment fields)."""
        return _record_routers(self.fields)

    def to_dict(self) -> dict:
        record = {"event": self.event, "t": self.t}
        record.update(self.fields)
        return record


def _record_routers(fields: Dict[str, object]) -> Tuple[str, ...]:
    names: List[str] = []
    for key in ("router", "by", "expected", "out_nbr"):
        value = fields.get(key)
        if isinstance(value, str) and value not in names:
            names.append(value)
    segment = fields.get("segment")
    if isinstance(segment, (list, tuple)):
        for value in segment:
            if isinstance(value, str) and value not in names:
                names.append(value)
    return tuple(names)


@dataclass(frozen=True)
class QueryFilter:
    """Conjunctive predicates over trace events.

    ``events`` restricts to the named kinds; ``flow`` to events carrying
    that flow id; ``router`` to events *naming* that router anywhere
    (``router``/``by``/``expected``/``out_nbr`` fields or a ``segment``
    member); ``t0``/``t1`` to the half-open virtual-time window
    ``[t0, t1)``.  Unset predicates match everything.
    """

    events: Optional[Tuple[str, ...]] = None
    flow: Optional[str] = None
    router: Optional[str] = None
    t0: Optional[float] = None
    t1: Optional[float] = None

    def matches(self, event: TraceEvent) -> bool:
        if self.events is not None and event.event not in self.events:
            return False
        if (self.t0 is not None or self.t1 is not None) \
                and event.t is None:
            return False
        if self.t0 is not None and event.t < self.t0:
            return False
        if self.t1 is not None and event.t >= self.t1:
            return False
        if self.flow is not None and event.flow != self.flow:
            return False
        if self.router is not None and self.router not in event.routers:
            return False
        return True


class TraceFormatError(ValueError):
    """Damaged ``repro obs`` input: a trace line that is not JSON and is
    not a torn final line, or a ``sweep.json`` that is not a JSON object."""


def _reject_line(path: str, raw: bytes, offset: int) -> None:
    """Decide about the unparsable line *raw* found at byte *offset*.

    Only a file's last line can lack its newline, so returning (skip it)
    ends the caller's loop as well.
    """
    if raw.endswith(b"\n"):
        with open(path, "rb") as fh:
            lineno = fh.read(offset).count(b"\n") + 1
        raise TraceFormatError(
            f"{path}:{lineno}: not valid JSON") from None


def has_torn_tail(path: str) -> bool:
    """Whether *path* ends in a line the readers skip as torn."""
    with open(path, "rb") as fh:
        if not fh.seek(0, os.SEEK_END):
            return False
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) == b"\n":
            return False
        fh.seek(0)
        for raw in fh:
            pass
    try:
        _parse_line(raw)
    except ValueError:
        return True
    return False


def _parse_line(raw: bytes) -> Optional[TraceEvent]:
    line = raw.strip()
    if not line:
        return None
    record = json.loads(line.decode("utf-8"))
    event = str(record.pop("event", "?"))
    t = record.pop("t", None)
    return TraceEvent(event=event,
                      t=None if t is None else float(t),
                      fields=record)


def index_path(trace_path: str) -> str:
    """Sidecar path for *trace_path* (``foo.jsonl`` → ``foo.idx.json``)."""
    stem, ext = os.path.splitext(trace_path)
    return (stem if ext == ".jsonl" else trace_path) + ".idx.json"


def build_index(trace_path: str) -> dict:
    """Scan a trace once, producing its offset index (not yet written)."""
    flows: Dict[str, List[int]] = {}
    routers: Dict[str, List[int]] = {}
    events: Dict[str, List[int]] = {}
    with open(trace_path, "rb") as fh:
        try:
            while True:
                offset = fh.tell()
                raw = fh.readline()
                if not raw:
                    break
                parsed = _parse_line(raw)
                if parsed is None:
                    continue
                events.setdefault(parsed.event, []).append(offset)
                flow = parsed.flow
                if flow is not None:
                    flows.setdefault(flow, []).append(offset)
                for name in parsed.routers:
                    routers.setdefault(name, []).append(offset)
        except ValueError:
            _reject_line(trace_path, raw, offset)
    return {
        "version": INDEX_VERSION,
        "trace_bytes": os.path.getsize(trace_path),
        "events": {k: events[k] for k in sorted(events)},
        "flows": {k: flows[k] for k in sorted(flows)},
        "routers": {k: routers[k] for k in sorted(routers)},
    }


def _candidate_offsets(index: dict, query: QueryFilter) -> Optional[List[int]]:
    """Smallest candidate line set the index offers for *query*.

    Picks the most selective indexed predicate; the full filter is still
    applied to every parsed candidate, so over-approximation is fine.
    Returns None when no indexed predicate is set (full scan needed).
    """
    pools: List[List[int]] = []
    if query.flow is not None:
        pools.append(index["flows"].get(query.flow, []))
    if query.router is not None:
        pools.append(index["routers"].get(query.router, []))
    if query.events is not None:
        merged: List[int] = []
        for name in query.events:
            merged.extend(index["events"].get(name, []))
        pools.append(sorted(set(merged)))
    if not pools:
        return None
    return min(pools, key=len)


class TraceReader:
    """Streaming, optionally indexed reader for one trace file."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._index: Optional[dict] = None

    # -- index management ---------------------------------------------

    def index(self, create: bool = True) -> Optional[dict]:
        """The trace's offset index, loading or (re)building lazily.

        A sidecar is fresh iff its recorded ``trace_bytes`` matches the
        trace's current size (traces are write-once; a size match after
        a rewrite is out of scope).  With ``create`` the rebuilt index
        is persisted best-effort — a read-only trace directory just
        means the next reader rebuilds in memory again.
        """
        if self._index is not None:
            return self._index
        sidecar = index_path(self.path)
        size = os.path.getsize(self.path)
        index = None
        if os.path.isfile(sidecar):
            try:
                with open(sidecar, "r", encoding="utf-8") as fh:
                    candidate = json.load(fh)
                if (candidate.get("version") == INDEX_VERSION
                        and candidate.get("trace_bytes") == size):
                    index = candidate
            except (ValueError, OSError):
                index = None
        if index is None:
            index = build_index(self.path)
            if create:
                try:
                    with open(sidecar, "w", encoding="utf-8") as fh:
                        json.dump(index, fh, sort_keys=True,
                                  separators=(",", ":"))
                except OSError:
                    pass
        self._index = index
        return index

    def flows(self) -> List[str]:
        """Flow ids the trace mentions, sorted."""
        return sorted((self.index() or {}).get("flows", {}))

    def routers(self) -> List[str]:
        """Router names the trace mentions, sorted."""
        return sorted((self.index() or {}).get("routers", {}))

    def event_counts(self) -> Dict[str, int]:
        """Event kind -> occurrence count, from the index."""
        events = (self.index() or {}).get("events", {})
        return {name: len(offsets) for name, offsets in events.items()}

    # -- reading ------------------------------------------------------

    def events(self, query: Optional[QueryFilter] = None,
               use_index: bool = True) -> Iterator[TraceEvent]:
        """Stream matching events in file (= emission) order."""
        offsets: Optional[List[int]] = None
        if query is not None and use_index:
            index = self.index()
            if index is not None:
                offsets = _candidate_offsets(index, query)
        if offsets is None:
            yield from self._scan(query)
        else:
            yield from self._seek(sorted(offsets), query)

    def _scan(self, query: Optional[QueryFilter]) -> Iterator[TraceEvent]:
        with open(self.path, "rb") as fh:
            try:
                for raw in fh:
                    parsed = _parse_line(raw)
                    if parsed is None:
                        continue
                    if query is None or query.matches(parsed):
                        yield parsed
            except ValueError:
                _reject_line(self.path, raw, fh.tell() - len(raw))

    def _seek(self, offsets: Sequence[int],
              query: Optional[QueryFilter]) -> Iterator[TraceEvent]:
        with open(self.path, "rb") as fh:
            try:
                for offset in offsets:
                    fh.seek(offset)
                    raw = fh.readline()
                    parsed = _parse_line(raw)
                    if parsed is None:
                        continue
                    if query is None or query.matches(parsed):
                        yield parsed
            except ValueError:
                _reject_line(self.path, raw, offset)


def scan(paths: Iterable[str], query: Optional[QueryFilter] = None,
         use_index: bool = True) -> Iterator[Tuple[str, TraceEvent]]:
    """Stream (trace path, event) over every trace under *paths*."""
    for path in paths:
        for trace in trace_files(path):
            reader = TraceReader(trace)
            for event in reader.events(query, use_index=use_index):
                yield trace, event
