"""Shared low-level utilities (filesystem atomics, small helpers)."""

import os

from .atomics import MISSING, atomic_write_bytes

__all__ = [
    "MISSING",
    "atomic_write_bytes",
    "smoke_mode",
]


def smoke_mode() -> bool:
    """True when ``REPRO_BENCH_SMOKE`` is set to anything but ``""``/``0``.

    The one parser of the toggle that caps every benchmark harness
    (bench, scale, serve load generator, dist bench) to CI-smoke sizes.
    """
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
