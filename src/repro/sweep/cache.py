"""Content-addressed on-disk result cache for sweeps.

Entries live under ``.repro-cache/<experiment>/<key>.json`` where the key
is a SHA-256 over (experiment name, grid-point parameters, derived seed,
code version).  The code version is itself a content hash of every
``repro`` source file, so editing any module invalidates all prior
entries without bookkeeping.  A corrupted or mismatched entry, a record
without its ``status`` or ``result`` included, is deleted and treated as
a miss: the cache is a pure accelerator, never a source of truth.

The cache is unbounded (delete the directory to reclaim it).  Nothing is
locked: entries are written write-temp-then-rename, so concurrent sweep
processes sharing one cache directory (e.g. two shards on one host)
never see a torn entry.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from contextlib import contextmanager, suppress
from typing import IO, Iterator, Optional

from repro.sweep.grid import RunSpec

DEFAULT_CACHE_DIR = ".repro-cache"
ENTRY_SCHEMA = "repro.sweep.cache/v1"


def code_version() -> str:
    """Content hash of the installed ``repro`` package's sources."""
    import repro

    return _source_digest(os.path.dirname(os.path.abspath(repro.__file__)))


@functools.lru_cache(maxsize=None)
def _source_digest(root: str) -> str:
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
    return digest.hexdigest()[:16]


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
    """Load/store per-run result records keyed by run content hash.

    ``root=None`` disables the cache: every load misses and nothing is
    stored.
    """

    def __init__(self, root: Optional[str] = DEFAULT_CACHE_DIR,
                 version: Optional[str] = None) -> None:
        self.root = root
        self.version = version if version is not None else code_version()
        #: Entries this handle wrote (sweep telemetry).
        self.stores = 0

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
        assert self.root is not None, "a disabled cache has no entries"
        return os.path.join(self.root, spec.experiment,
                            self.key(spec) + ".json")

    def load(self, spec: RunSpec) -> Optional[dict]:
        """Return the cached record, or None on miss/corruption."""
        if self.root is None:
            return None
        path = self.path(spec)
        try:
            with open(path, "r") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            entry = None
        if (not isinstance(entry, dict)
                or entry.get("schema") != ENTRY_SCHEMA
                or entry.get("key") != self.key(spec)
                or not isinstance(entry.get("record"), dict)
                or not {"status", "result"} <= entry["record"].keys()):
            self._discard(path)
            return None
        return entry["record"]

    def store(self, spec: RunSpec, record: dict) -> None:
        """Atomically persist one run record (temp file + rename)."""
        if self.root is None:
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
        self.stores += 1

    @staticmethod
    def _discard(path: str) -> None:
        with suppress(OSError):
            os.unlink(path)
