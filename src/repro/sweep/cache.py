"""Content-addressed on-disk result cache for sweeps, with LRU eviction.

Entries live under ``.repro-cache/<experiment>/<key>.json`` where the key
is a SHA-256 over (experiment name, grid-point parameters, derived seed,
code version).  The code version is itself a content hash of every
``repro`` source file, so editing any module invalidates all prior
entries without bookkeeping.  A corrupted or mismatched entry is deleted
and treated as a miss — the cache is a pure accelerator, never a source
of truth.

An entry's mtime is its last use (a hit touches the file), so the cache
can be size-capped (``max_bytes``) with no sidecar: when a store pushes
the total over the cap, the entries with the oldest mtimes are deleted
until it fits.  Nothing is locked — entries are written
write-temp-then-rename and eviction only unlinks, so concurrent sweep
processes sharing one cache directory (e.g. two shards on one host) at
worst evict a little more than they had to.  ``max_bytes=None`` (the
default) keeps the cache unbounded.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from typing import Dict, IO, Iterator, List, Optional

from repro.sweep.grid import RunSpec

DEFAULT_CACHE_DIR = ".repro-cache"
ENTRY_SCHEMA = "repro.sweep.cache/v1"

_code_version_memo: Dict[str, str] = {}


def code_version() -> str:
    """Content hash of the installed ``repro`` package's sources."""
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    memo = _code_version_memo.get(root)
    if memo is not None:
        return memo
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    version = digest.hexdigest()[:16]
    _code_version_memo[root] = version
    return version


@contextmanager
def _atomic_open(path: str, newline: Optional[str] = None
                 ) -> Iterator[IO[str]]:
    """Open a temp file beside ``path`` for writing and rename it over
    ``path`` on clean exit: a killed writer never leaves a torn file."""
    tmp_path = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp_path, "x", newline=newline) as handle:
            yield handle
        os.replace(tmp_path, path)
    except BaseException:
        ResultCache._discard(tmp_path)
        raise


class ResultCache:
    """Load/store per-run result records keyed by run content hash."""

    def __init__(self, root: str = DEFAULT_CACHE_DIR,
                 version: Optional[str] = None,
                 enabled: bool = True,
                 max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None)")
        self.root = root
        self.version = version if version is not None else code_version()
        self.enabled = enabled
        self.max_bytes = max_bytes
        #: Wall-domain effectiveness counters for sweep telemetry.
        self.stats: Dict[str, int] = {
            "hits": 0, "misses": 0, "stores": 0, "evictions": 0}

    def key(self, spec: RunSpec) -> str:
        payload = json.dumps({
            "experiment": spec.experiment,
            "params": dict(spec.params),
            "seed": spec.seed,
            "seed_index": spec.seed_index,
            "code_version": self.version,
        }, sort_keys=True, separators=(",", ":"), default=str)
        return hashlib.sha256(payload.encode()).hexdigest()

    def path(self, spec: RunSpec) -> str:
        return os.path.join(self.root, spec.experiment,
                            self.key(spec) + ".json")

    def load(self, spec: RunSpec) -> Optional[dict]:
        """Return the cached record, or None on miss/corruption."""
        if not self.enabled:
            return None
        path = self.path(spec)
        try:
            with open(path, "r") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self.stats["misses"] += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._discard(path)
            self.stats["misses"] += 1
            return None
        if (not isinstance(entry, dict)
                or entry.get("schema") != ENTRY_SCHEMA
                or entry.get("key") != self.key(spec)
                or not isinstance(entry.get("record"), dict)):
            self._discard(path)
            self.stats["misses"] += 1
            return None
        self._record_use(path)
        self.stats["hits"] += 1
        return entry["record"]

    def store(self, spec: RunSpec, record: dict) -> None:
        """Atomically persist one run record (temp file + rename)."""
        if not self.enabled:
            return
        path = self.path(spec)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {
            "schema": ENTRY_SCHEMA,
            "key": self.key(spec),
            "experiment": spec.experiment,
            "params": dict(spec.params),
            "seed": spec.seed,
            "seed_index": spec.seed_index,
            "code_version": self.version,
            "record": record,
        }
        with _atomic_open(path) as handle:
            json.dump(entry, handle, default=str)
        self._record_use(path)
        self.stats["stores"] += 1

    # -- LRU eviction ------------------------------------------------------

    def _record_use(self, path: str) -> None:
        """Make ``path`` the most recently used; evict if over the cap."""
        try:
            os.utime(path)
        except OSError:
            return  # evicted under us by another process
        self.evict()

    def _entries_on_disk(self) -> Dict[str, os.stat_result]:
        entries: Dict[str, os.stat_result] = {}
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for filename in filenames:
                if not filename.endswith(".json"):
                    continue
                path = os.path.join(dirpath, filename)
                try:
                    entries[os.path.relpath(path, self.root)] = os.stat(path)
                except OSError:
                    continue
        return entries

    def evict(self) -> List[str]:
        """Delete least-recently-used entries until the cache fits
        ``max_bytes``; returns the evicted entry paths."""
        if self.max_bytes is None or not self.enabled:
            return []
        on_disk = self._entries_on_disk()
        total = sum(stat.st_size for stat in on_disk.values())
        evicted: List[str] = []
        for rel in sorted(on_disk,
                          key=lambda r: (on_disk[r].st_mtime_ns, r)):
            if total <= self.max_bytes:
                break
            self._discard(os.path.join(self.root, rel))
            total -= on_disk[rel].st_size
            evicted.append(rel)
        self.stats["evictions"] += len(evicted)
        return evicted

    def size_bytes(self) -> int:
        """Total bytes of entry files currently on disk."""
        return sum(stat.st_size
                   for stat in self._entries_on_disk().values())

    @staticmethod
    def _discard(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass
