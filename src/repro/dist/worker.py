"""The sweep worker: lease points, execute them, stream results back.

``python -m repro sweep work --connect HOST:PORT`` runs one of these.
A worker owns no state worth preserving — every completed point is
streamed back to the coordinator (which writes it into its cache
through the atomic-rename path) before the worker asks for more, so a
worker killed at any instant strands at most one lease of in-flight
points, which the coordinator requeues.  Workers need nothing but the
coordinator's address: no shared filesystem.

Before computing a leased point the worker re-derives its cache key
(:meth:`RunSpec.content_hash`, which covers the ``repro`` source tree)
and refuses a point whose key differs from the coordinator's: a worker
running a different checkout must not write results under the
coordinator's key.
"""

from __future__ import annotations

import os
import socket
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from ..experiments.runner import RunSpec
from .protocol import (PROTOCOL_VERSION, JsonLineConnection, ProtocolError,
                       decode_payload, encode_payload)

__all__ = ["SweepWorker", "WorkerSummary"]


@dataclass
class WorkerSummary:
    """What one :meth:`SweepWorker.run` call accomplished."""

    name: str
    computed: int = 0
    leases: int = 0
    reconnects: int = 0
    wall_seconds: float = 0.0
    #: ``"done"`` (grid complete), ``"coordinator-gone"`` (reconnect
    #: attempts exhausted before the grid finished), ``"stopped"``, or
    #: the coordinator's in-band error when it rejected a request (or
    #: this worker's refusal of a point keyed by another code revision).
    reason: str = "done"


def _execute_spec(spec: RunSpec) -> Any:
    """Top-level for picklability under ProcessPoolExecutor."""
    return spec.execute()


class SweepWorker:
    """Lease-execute-report loop against one coordinator.

    Parameters
    ----------
    host, port : str, int
        The coordinator (``parse_hostport`` turns ``HOST:PORT`` into
        this pair).
    jobs : int
        Local execution parallelism; ``>1`` fans each lease out over a
        ``ProcessPoolExecutor`` (specs are picklable by construction).
    reconnect_attempts : int
        Connection attempts (initial connect and after each drop)
        before giving up with reason ``"coordinator-gone"``.
    reconnect_delay : float
        Base of the exponential backoff between attempts.
    """

    def __init__(self, host: str, port: int, *,
                 jobs: int = 1,
                 name: Optional[str] = None,
                 reconnect_attempts: int = 5,
                 reconnect_delay: float = 0.5,
                 on_progress: Optional[Callable[[dict], None]] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if reconnect_attempts < 1:
            raise ValueError("reconnect_attempts must be >= 1")
        self.host = host
        self.port = port
        self.jobs = jobs
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.reconnect_attempts = reconnect_attempts
        self.reconnect_delay = reconnect_delay
        self.on_progress = on_progress
        self._stop = False

    def stop(self) -> None:
        """Finish the current point, say goodbye, and return."""
        self._stop = True

    # -- execution --------------------------------------------------------------
    def _execute_points(self, points: List[dict],
                        pool: Optional[ProcessPoolExecutor],
                        ) -> List[Tuple[dict, Any]]:
        """Run a lease's points; (point, value) pairs.

        Raises :class:`ProtocolError` before computing anything when a
        point's key here differs from the coordinator's.
        """
        specs: List[RunSpec] = []
        for point in points:
            spec = decode_payload(point["spec"])
            key = spec.content_hash()
            if key != point["hash"]:
                raise ProtocolError(
                    f"content hash mismatch at point {point['index']}: "
                    f"this worker keys it {key!r}, the coordinator "
                    f"{point['hash']!r} — a different code revision; "
                    "refusing to compute it under the coordinator's key")
            specs.append(spec)
        if pool is not None and len(specs) > 1:
            values = list(pool.map(_execute_spec, specs))
        else:
            values = [spec.execute() for spec in specs]
        return list(zip(points, values))

    # -- the loop ---------------------------------------------------------------
    def run(self) -> WorkerSummary:
        """Work until the grid is done or the coordinator stays gone."""
        summary = WorkerSummary(name=self.name)
        start = time.time()
        pool = (ProcessPoolExecutor(max_workers=self.jobs)
                if self.jobs > 1 else None)
        try:
            while not self._stop:
                conn = self._connect(summary)
                if conn is None:
                    summary.reason = "coordinator-gone"
                    break
                try:
                    done = self._serve_connection(conn, summary, pool)
                except ConnectionError:
                    # Coordinator dropped mid-exchange (killed, or our
                    # worker_id was reaped after a restart): register
                    # afresh.  Our old leases get requeued server-side.
                    continue
                except ProtocolError as exc:
                    # The coordinator is up and said no (wrong grid
                    # revision, result over its line limit), or this
                    # worker refused a point keyed by another revision:
                    # asking again would be leased the same point and
                    # fail the same way.  Closing the connection
                    # requeues the lease.
                    summary.reason = str(exc)
                    break
                if done:
                    summary.reason = "done"
                    break
            else:
                summary.reason = "stopped"
        finally:
            if pool is not None:
                pool.shutdown()
            summary.wall_seconds = time.time() - start
        return summary

    def _connect(self, summary: WorkerSummary,
                 ) -> Optional[JsonLineConnection]:
        """Dial with exponential backoff; count drops as reconnects."""
        for attempt in range(self.reconnect_attempts):
            if attempt:
                time.sleep(self.reconnect_delay * (2 ** (attempt - 1)))
            try:
                return JsonLineConnection(self.host, self.port)
            except OSError:
                summary.reconnects += 1
        return None

    def _serve_connection(self, conn: JsonLineConnection,
                          summary: WorkerSummary,
                          pool: Optional[ProcessPoolExecutor]) -> bool:
        """One connection's lifetime; ``True`` when the grid finished."""
        try:
            hello = conn.request("register", name=self.name,
                                 jobs=self.jobs,
                                 protocol=PROTOCOL_VERSION)
            worker_id = hello["worker_id"]
            heartbeat_interval = float(
                hello.get("heartbeat_interval", 2.0))
            last_beat = time.time()
            while not self._stop:
                lease = conn.request("lease", worker_id=worker_id,
                                     max_points=hello.get("lease_size", 8))
                if lease.get("done"):
                    return True
                points = lease.get("points", [])
                if not points:
                    time.sleep(float(lease.get("retry_after", 1.0)))
                    resp = conn.request("heartbeat", worker_id=worker_id)
                    last_beat = time.time()
                    if resp.get("done"):
                        return True
                    continue
                summary.leases += 1
                done = False
                for point, value in self._execute_points(points, pool):
                    resp = conn.request(
                        "result", worker_id=worker_id,
                        index=point["index"], hash=point["hash"],
                        payload=encode_payload(value))
                    last_beat = time.time()
                    summary.computed += 1
                    if self.on_progress is not None:
                        self.on_progress({"worker": self.name,
                                          "points": summary.computed,
                                          "done": resp.get("done", False)})
                    done = done or bool(resp.get("done"))
                if done:
                    return True
                if time.time() - last_beat > heartbeat_interval:
                    conn.request("heartbeat", worker_id=worker_id)
                    last_beat = time.time()
            try:
                conn.request("goodbye", worker_id=worker_id)
            except Exception:
                pass
            return False
        finally:
            conn.close()
