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
to candidate lines instead of scanning.  The first indexed query builds
the sidecar in the same pass that answers it.  A sidecar is fresh when
its recorded ``trace_bytes`` and ``trace_digest`` (blake2b of the file)
match the trace — content, unlike mtime, never reads a wall clock,
keeping this module inside the sim-domain lint rules — and is rebuilt
otherwise.  It is written temp + ``os.replace``, so a killed or
concurrent writer never leaves a torn one; unwritable trace directories
degrade gracefully to a full scan.

There are two read loops: :func:`_scan_file` reads a trace front to
back (plain scans, and the pass that builds an index), and
:meth:`TraceReader._seek` reads the candidate lines an index names.
Damaged traces have one policy, :func:`_reject_line`, run from the
``except`` path of both (the loops themselves pay nothing for it): a
final line with no newline that does not parse is what a SIGKILLed
writer leaves and is skipped — :func:`has_torn_tail` lets a front end
say so — and any other unparsable line raises
:class:`TraceFormatError`.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass
from hashlib import blake2b
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

#: Subdirectory of a sweep output dir where per-run traces land.
TRACE_DIRNAME = "traces"

#: Sidecar format version; bump on layout changes to force rebuilds.
INDEX_VERSION = 2


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


class _IndexCollector:
    """What one front-to-back pass learns for a trace's index."""

    def __init__(self) -> None:
        self.flows: Dict[str, List[int]] = {}
        self.routers: Dict[str, List[int]] = {}
        self.events: Dict[str, List[int]] = {}
        self.digest = blake2b(digest_size=16)
        #: Set when the pass reaches the end of the file.
        self.trace_bytes = 0

    def add(self, parsed: TraceEvent, offset: int) -> None:
        self.events.setdefault(parsed.event, []).append(offset)
        flow = parsed.flow
        if flow is not None:
            self.flows.setdefault(flow, []).append(offset)
        for name in parsed.routers:
            self.routers.setdefault(name, []).append(offset)

    def index(self) -> dict:
        return {
            "version": INDEX_VERSION,
            "trace_bytes": self.trace_bytes,
            "trace_digest": self.digest.hexdigest(),
            "events": {k: self.events[k] for k in sorted(self.events)},
            "flows": {k: self.flows[k] for k in sorted(self.flows)},
            "routers": {k: self.routers[k] for k in sorted(self.routers)},
        }


def _scan_file(path: str, query: Optional[QueryFilter] = None,
               collector: Optional[_IndexCollector] = None
               ) -> Iterator[TraceEvent]:
    """Read a trace front to back, parsing each line once.

    Yields what matches *query* (everything when None) and tells
    *collector* where every line started.  The only sequential read
    loop: an index build and the query that needed it are one pass.
    """
    offset = 0
    with open(path, "rb") as fh:
        try:
            for raw in fh:
                if collector is not None:
                    collector.digest.update(raw)
                parsed = _parse_line(raw)
                if parsed is not None:
                    if collector is not None:
                        collector.add(parsed, offset)
                    if query is None or query.matches(parsed):
                        yield parsed
                offset += len(raw)
        except ValueError:
            _reject_line(path, raw, offset)
        if collector is not None:
            collector.trace_bytes = fh.tell()


def build_index(trace_path: str) -> dict:
    """Scan a trace once, producing its offset index (not yet written)."""
    collector = _IndexCollector()
    for _ in _scan_file(trace_path, collector=collector):
        pass
    return collector.index()


def _load_sidecar(trace_path: str) -> Optional[dict]:
    """The trace's sidecar index if there is one and it is fresh.

    Fresh means the version, the trace's size and — only when both
    match — a digest of its bytes are what the sidecar recorded, so a
    same-length rewrite is caught too.  Anything else (no sidecar, an
    older version, torn JSON) is None and gets rebuilt silently.
    """
    try:
        with open(index_path(trace_path), "r", encoding="utf-8") as fh:
            index = json.load(fh)
    except (ValueError, OSError):
        return None
    if (not isinstance(index, dict)
            or index.get("version") != INDEX_VERSION
            or index.get("trace_bytes") != os.path.getsize(trace_path)):
        return None
    digest = blake2b(digest_size=16)
    with open(trace_path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return index if index.get("trace_digest") == digest.hexdigest() else None


def _write_sidecar(trace_path: str, index: dict) -> None:
    """Persist *index* atomically, best-effort.

    A read-only trace directory just means the next reader rebuilds in
    memory again.
    """
    sidecar = index_path(trace_path)
    tmp = f"{sidecar}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(index, sort_keys=True,
                                separators=(",", ":")))
        os.replace(tmp, sidecar)
    except OSError:
        try:
            os.remove(tmp)
        except OSError:
            pass


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

        With ``create`` a rebuilt index is persisted as the sidecar
        (see :func:`_load_sidecar` for when one is fresh).
        """
        if self._index is None:
            self._index = _load_sidecar(self.path)
        if self._index is None:
            self._index = build_index(self.path)
            if create:
                _write_sidecar(self.path, self._index)
        return self._index

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
        """Stream matching events in file (= emission) order.

        An indexed query with no fresh sidecar is answered by the pass
        that builds the index, which is adopted and written when that
        pass reaches the end of the trace: a consumer that stops early
        leaves no sidecar behind.
        """
        if query is None or not use_index:
            yield from _scan_file(self.path, query)
            return
        if self._index is None:
            self._index = _load_sidecar(self.path)
        if self._index is None:
            collector = _IndexCollector()
            yield from _scan_file(self.path, query, collector)
            self._index = collector.index()
            _write_sidecar(self.path, self._index)
            return
        offsets = _candidate_offsets(self._index, query)
        if offsets is None:
            yield from _scan_file(self.path, query)
        else:
            yield from self._seek(sorted(offsets), query)

    def _seek(self, offsets: Sequence[int],
              query: QueryFilter) -> Iterator[TraceEvent]:
        with open(self.path, "rb") as fh:
            try:
                for offset in offsets:
                    fh.seek(offset)
                    raw = fh.readline()
                    parsed = _parse_line(raw)
                    if parsed is not None and query.matches(parsed):
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
