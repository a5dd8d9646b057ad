"""Persistent content-hash result store with an in-memory LRU front.

Grown out of the ``RunSpec.content_hash()`` cache pattern in
``experiments/sweep.py``: entries are small pickles named ``<key>.pkl``
in a flat directory, written atomically (tmpfile + rename via
``repro.util.atomics``) so concurrent writers — other processes, other
hosts on a shared filesystem — can race on the same key and readers
still only ever observe complete entries.  ``SweepRunner`` reads and
writes through this class, so a serve store and a sweep cache pointed
at the same directory share results.

On top of the disk layer:

* an **in-memory LRU** (``memory_entries``) absorbs the hot set without
  an open+read per hit.  It holds each entry as the same pickled bytes
  the disk does — a third of the live object's footprint for a service
  response — so a hit is one ``pickle.loads`` and never aliases the
  object an earlier caller got;
* an optional **disk size bound** (``max_entries``) evicts the
  oldest-mtime entries once the directory outgrows it;
* **corrupt/truncated entries** read as misses, are deleted so the next
  writer lands a clean entry, and are counted;
* :class:`StoreStats` tracks hits (memory vs disk), misses, writes,
  evictions, corrupt entries, and the age of disk hits.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional
import os
import pickle
import time

from ..util.atomics import (
    MISSING,
    PICKLE_ERRORS,
    UNPICKLE_ERRORS,
    atomic_write_bytes,
)

__all__ = ["MISSING", "ResultStore", "StoreStats"]


@dataclass
class StoreStats:
    """Running counters over a :class:`ResultStore`'s lifetime."""

    hits: int = 0
    memory_hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    corrupt: int = 0
    hit_age_seconds: float = 0.0

    @property
    def disk_hits(self) -> int:
        return self.hits - self.memory_hits

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def mean_hit_age_seconds(self) -> float:
        return self.hit_age_seconds / self.disk_hits if self.disk_hits else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "hit_rate": self.hit_rate,
            "mean_hit_age_seconds": self.mean_hit_age_seconds,
        }


class ResultStore:
    """Content-keyed persistent store: ``get``/``put`` by hash string.

    Parameters
    ----------
    directory : path-like
        Flat directory of ``<key>.pkl`` entries; created on first write.
    max_entries : int, optional
        Disk size bound.  ``None`` (the default) never evicts — the
        right choice for sweep caches, which are resume journals.  When
        set, a put that pushes the directory past the bound evicts the
        oldest-mtime entries back down to it (approximate under
        concurrent writers, re-synced by a directory scan each sweep).
    memory_entries : int
        In-memory LRU capacity in front of the disk layer; ``0``
        disables it (every hit is a disk read).
    """

    def __init__(self, directory: "str | os.PathLike", *,
                 max_entries: Optional[int] = None,
                 memory_entries: int = 4096) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 or None")
        if memory_entries < 0:
            raise ValueError("memory_entries must be >= 0")
        self.directory = Path(directory)
        self._prefix = os.path.join(os.fspath(directory), "")
        self.max_entries = max_entries
        self.memory_entries = memory_entries
        self.stats = StoreStats()
        self._memory: "OrderedDict[str, bytes]" = OrderedDict()
        self._disk_count: Optional[int] = None

    # -- paths ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    # -- reads ------------------------------------------------------------------
    def get(self, key: str, default: Any = MISSING) -> Any:
        """Fetch ``key``; ``default`` on a miss.

        Memory first, then disk.  A disk entry that fails to unpickle is
        deleted (so a recompute can land a clean entry) and counted in
        ``stats.corrupt``; the call reports a miss.
        """
        data = self._memory.get(key)
        if data is not None:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            self.stats.memory_hits += 1
            return pickle.loads(data)
        path = f"{self._prefix}{key}.pkl"
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            value = pickle.loads(data)
        except OSError:
            self.stats.misses += 1
            return default
        except UNPICKLE_ERRORS:
            # Present but unreadable: torn or corrupt.  Delete it so the
            # recompute's write is not mistaken for still-bad.
            self.stats.corrupt += 1
            self.stats.misses += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return default
        self.stats.hits += 1
        try:
            self.stats.hit_age_seconds += max(
                0.0, time.time() - os.stat(path).st_mtime)
        except OSError:
            pass
        self._remember(key, data)
        return value

    # -- writes -----------------------------------------------------------------
    def put(self, key: str, value: Any) -> bool:
        """Store ``value`` under ``key``; ``True`` when it hit the disk.

        One ``pickle.dumps`` feeds both tiers.  The disk write is
        best-effort (a full disk degrades to memory-only); a value that
        cannot be pickled is not stored at all.
        """
        try:
            data = pickle.dumps(value)
        except PICKLE_ERRORS:
            return False
        self._remember(key, data)
        path = f"{self._prefix}{key}.pkl"
        counting = self.max_entries is not None
        was_new = counting and not os.path.exists(path)
        try:
            atomic_write_bytes(path, data)
        except OSError:
            return False
        self.stats.writes += 1
        if counting:
            if self._disk_count is not None and was_new:
                self._disk_count += 1
            self._maybe_evict()
        return True

    # -- internals --------------------------------------------------------------
    def _remember(self, key: str, data: bytes) -> None:
        if self.memory_entries == 0:
            return
        self._memory[key] = data
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def _maybe_evict(self) -> None:
        """Keep the disk entry count within ``max_entries``.

        The cached count drifts under concurrent writers; every sweep
        re-syncs it from a real directory scan, so the bound holds up to
        one put's worth of slack per process.
        """
        if self._disk_count is None:
            self._disk_count = sum(
                1 for _ in self.directory.glob("*.pkl"))
        if self._disk_count <= self.max_entries:
            return
        entries = []
        for path in self.directory.glob("*.pkl"):
            try:
                entries.append((path.stat().st_mtime, path))
            except OSError:
                continue
        self._disk_count = len(entries)
        if self._disk_count <= self.max_entries:
            return
        entries.sort()
        for _, path in entries[:self._disk_count - self.max_entries]:
            try:
                os.unlink(path)
            except OSError:
                continue
            self.stats.evictions += 1
            self._disk_count -= 1
