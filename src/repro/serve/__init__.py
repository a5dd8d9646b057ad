"""Always-on allocation-query serving layer.

``python -m repro serve`` runs a long-lived asyncio service answering
"given this topology and this coupled-CC algorithm, what equilibrium
allocation results?" queries.  Concurrent queries coalesce into single
:func:`~repro.fluid.equilibrium.solve_fixed_point_batch` calls (the
batched solver's K-dimension is free concurrency) and results memoize
through a persistent content-hash store shared with ``SweepRunner``.
"""

from .store import MISSING, ResultStore, StoreStats
from .service import (
    AllocationQuery,
    AllocationService,
    LinkSpec,
    RouteSpec,
    UserSpec,
    run_server,
    solve_query,
)

#: The load harness draws topologies through ``repro.topology`` (and so
#: imports the packet simulator); a server never needs it, so these three
#: names resolve on first use instead of at import.
_LOADGEN = ("LoadGenConfig", "run_loadgen", "write_report")


def __getattr__(name: str):
    if name in _LOADGEN:
        from . import loadgen
        return getattr(loadgen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "MISSING",
    "ResultStore",
    "StoreStats",
    "AllocationQuery",
    "AllocationService",
    "LinkSpec",
    "RouteSpec",
    "UserSpec",
    "run_server",
    "solve_query",
    "LoadGenConfig",
    "run_loadgen",
    "write_report",
]
