"""Distributed sweep fabric: how any grid spans hosts.

:class:`~repro.experiments.sweep.SweepRunner` with ``serve=(host, port)``
(``python -m repro run/scale --serve HOST:PORT``) puts the cache-missing
points of a paper grid on a coordinator here, works them in-process and
lets any number of remote workers lease from the same queue; results
stream back over TCP, so helper hosts need nothing but the address:

* :mod:`repro.dist.protocol` — the newline-delimited-JSON wire protocol
  and the synchronous client connection;
* :mod:`repro.dist.coordinator` — owns the spec manifest, leases point
  batches, reaps dead workers, merges live progress
  (also standalone as ``python -m repro sweep serve``);
* :mod:`repro.dist.worker` — lease/execute/report loop with reconnect
  (``python -m repro sweep work``);
* :mod:`repro.dist.bench` — the end-to-end scaling benchmark behind
  ``BENCH_dist.json`` (``python -m repro sweep bench``).

See docs/ARCHITECTURE.md ("The distributed sweep fabric") for the lease
lifecycle and the safety argument.
"""

from .coordinator import DEFAULT_PORT, CoordinatorThread, SweepCoordinator
from .protocol import (PROTOCOL_VERSION, JsonLineConnection, ProtocolError,
                       decode_payload, encode_payload, parse_hostport)
from .worker import SweepWorker, WorkerSummary

__all__ = [
    "DEFAULT_PORT",
    "PROTOCOL_VERSION",
    "CoordinatorThread",
    "JsonLineConnection",
    "ProtocolError",
    "SweepCoordinator",
    "SweepWorker",
    "WorkerSummary",
    "decode_payload",
    "encode_payload",
    "parse_hostport",
]
