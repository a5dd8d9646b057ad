"""Filesystem atomics: write-then-rename persistence.

Exactly one tested implementation of the idiom every concurrent on-disk
store in this repo relies on: **tmpfile + rename**
(:func:`atomic_write_bytes`) — a reader never observes a torn entry,
because ``os.replace`` is atomic on POSIX filesystems and the temporary
file lives in the destination directory (same filesystem, so the rename
cannot degrade to a copy).

The result store behind sweep caches and the serving layer
(``serve/store.py``) is built on it.
"""

from __future__ import annotations

import itertools
import os
import pickle

#: Sentinel a store returns when an entry is absent or unreadable.
#: Identity-checked (``value is MISSING``), so any stored value —
#: including ``None`` and ``False`` — round-trips unambiguously.
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
