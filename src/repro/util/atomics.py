"""Filesystem atomics: write-then-rename persistence and O_EXCL claims.

Exactly one tested implementation of the two idioms every concurrent
on-disk store in this repo relies on:

* **tmpfile + rename** (:func:`atomic_write_bytes`, :func:`atomic_pickle`,
  :func:`load_pickle`) — a reader never observes a torn entry, because
  ``os.replace`` is atomic on POSIX filesystems and the temporary file
  lives in the destination directory (same filesystem, so the rename
  cannot degrade to a copy);
* **O_EXCL claim files** (:func:`try_claim`, :func:`release_claim`,
  :func:`claim_age`) — ``O_CREAT | O_EXCL`` is atomic on POSIX
  filesystems (including NFS v3+), which is all the coordination a
  work-stealing queue or a multi-writer cache needs: no daemon, no
  queue service, just a shared directory.

Both ``SweepRunner`` (``experiments/sweep.py``) and the serving-layer
result store (``serve/store.py``) are built on these primitives.
"""

from __future__ import annotations

import itertools
import os
import pickle
import time
from pathlib import Path
from typing import Any, Optional

#: Sentinel returned by :func:`load_pickle` when an entry is absent or
#: unreadable.  Identity-checked (``value is MISSING``), so any stored
#: value — including ``None`` and ``False`` — round-trips unambiguously.
MISSING = object()


#: Temporary-file naming: a per-process token (distinct across hosts on a
#: shared filesystem), the pid at call time (distinct across forks) and a
#: sequence number (distinct across threads and calls).
_WRITER = os.urandom(4).hex()
_SEQUENCE = itertools.count()
_TMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_CLOEXEC", 0)


def _unlink_quiet(path: "str | os.PathLike") -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def atomic_write_bytes(path: "str | os.PathLike", data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (tmpfile in-dir + rename).

    Concurrent writers to the same path are safe: each writes its own
    temporary file (named after the target, the writer and a per-process
    sequence number, created ``O_EXCL``) and the last rename wins, with
    readers seeing either the old complete entry or the new complete
    entry, never a mix.  The parent directory is created on demand —
    only when the first open says it is missing, so the steady state is
    open, write, close, rename and nothing else.  Raises ``OSError`` on
    failure (full disk, permissions); the partial temporary file is
    removed before the exception propagates.
    """
    target = os.fspath(path)
    tmp = f"{target}.{_WRITER}-{os.getpid()}-{next(_SEQUENCE)}.tmp"
    try:
        fd = os.open(tmp, _TMP_FLAGS, 0o600)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(target) or ".", exist_ok=True)
        fd = os.open(tmp, _TMP_FLAGS, 0o600)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, target)
    except OSError:
        _unlink_quiet(tmp)
        raise


#: What ``pickle.dumps`` raises on a value that cannot be pickled, and
#: what ``pickle.load(s)`` raises on a truncated or garbage entry.
PICKLE_ERRORS = (pickle.PicklingError, TypeError, AttributeError)
UNPICKLE_ERRORS = (pickle.UnpicklingError, EOFError, AttributeError,
                   ImportError, IndexError)


def atomic_pickle(path: "str | os.PathLike", obj: Any) -> bool:
    """Best-effort atomic pickle of ``obj`` to ``path``.

    Returns ``True`` when the entry landed on disk.  Persistence is an
    optimization, never a correctness requirement, so an unpicklable
    object (or a full disk) returns ``False`` instead of failing the
    computation that produced the value.
    """
    try:
        atomic_write_bytes(path, pickle.dumps(obj))
    except PICKLE_ERRORS + (OSError,):
        return False
    return True


def load_pickle(path: "str | os.PathLike", default: Any = MISSING) -> Any:
    """Read a pickled entry; ``default`` when absent, torn, or corrupt.

    A truncated or garbage entry (crashed writer on a non-atomic
    filesystem, bit rot) is indistinguishable from a miss on purpose:
    callers recompute and overwrite, which is always safe because
    entries are content-addressed.
    """
    try:
        with open(path, "rb") as fh:
            return pickle.load(fh)
    except UNPICKLE_ERRORS + (OSError,):
        return default


def try_claim(path: "str | os.PathLike",
              *, ttl: Optional[float] = None,
              payload: Optional[str] = None) -> bool:
    """Atomically claim ``path``; ``False`` when another holder has it.

    With ``ttl`` set, a claim older than ``ttl`` seconds is treated as
    abandoned by a dead worker: it is reaped (unlinked) and claiming is
    retried once.  Two reapers racing on the same stale claim can both
    succeed in unlinking+recreating it — the resulting duplicate compute
    is harmless for content-addressed stores whose writes are atomic and
    idempotent, which is the only context claims are used in.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    if _create_claim(target, payload):
        return True
    if ttl is not None:
        age = claim_age(target)
        if age is not None and age > ttl:
            _unlink_quiet(target)
            return _create_claim(target, payload)
    return False


def _create_claim(path: Path, payload: Optional[str]) -> bool:
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    with os.fdopen(fd, "w") as fh:
        fh.write(payload if payload is not None else f"pid={os.getpid()}\n")
    return True


def release_claim(path: "str | os.PathLike") -> None:
    """Drop a claim.  Idempotent; a vanished claim file is not an error."""
    _unlink_quiet(path)


def claim_age(path: "str | os.PathLike") -> Optional[float]:
    """Seconds since the claim file was created; ``None`` when absent."""
    try:
        mtime = os.stat(path).st_mtime
    except OSError:
        return None
    return max(0.0, time.time() - mtime)
