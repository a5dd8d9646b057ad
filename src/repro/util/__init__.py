"""Shared low-level utilities (filesystem atomics, small helpers)."""

from .atomics import (
    MISSING,
    atomic_pickle,
    atomic_write_bytes,
    load_pickle,
)

__all__ = [
    "MISSING",
    "atomic_pickle",
    "atomic_write_bytes",
    "load_pickle",
]
