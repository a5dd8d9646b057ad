"""The sweep worker: lease points, execute them, stream results back.

``python -m repro sweep work --connect HOST:PORT`` runs one of these.
A worker owns no state worth preserving — every completed point is
streamed back to the coordinator (which writes it into the shared cache
through the atomic-rename path) before the worker asks for more, so a
worker killed at any instant strands at most one lease of in-flight
points, which the coordinator requeues.

Two optional fast paths when the worker shares a filesystem with the
coordinator (``--cache-dir`` pointing at the same directory):

* a point already in the cache is sent back as ``from_cache`` without
  recomputation — this is how a worker "re-enters the steal path": the
  cache layout and ``.claim`` files are exactly the single-host
  :class:`~repro.experiments.sweep.SweepRunner` ones, so distributed
  and local runs interleave safely on one cache;
* an ``O_EXCL`` ``.claim`` file (with the coordinator-advertised
  ``claim_ttl``) is taken around each compute, keeping a concurrent
  *local* ``shard="steal"`` runner off points the fabric is executing.

Neither path is required for correctness: leases keep fabric workers
disjoint, and every write is content-addressed + atomic, so the worst
case of any race is one redundant compute of a pure function.
"""

from __future__ import annotations

import os
import socket
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple

from ..experiments.runner import RunSpec
from ..serve.store import MISSING, ResultStore
from ..util.atomics import release_claim, try_claim
from .protocol import (PROTOCOL_VERSION, JsonLineConnection, ProtocolError,
                       decode_payload, encode_payload)

__all__ = ["SweepWorker", "WorkerSummary"]


@dataclass
class WorkerSummary:
    """What one :meth:`SweepWorker.run` call accomplished."""

    name: str
    computed: int = 0
    cache_hits: int = 0
    leases: int = 0
    reconnects: int = 0
    wall_seconds: float = 0.0
    #: ``"done"`` (grid complete), ``"coordinator-gone"`` (reconnect
    #: attempts exhausted before the grid finished), ``"stopped"``, or
    #: the coordinator's in-band error when it rejected a request.
    reason: str = "done"

    @property
    def points(self) -> int:
        return self.computed + self.cache_hits


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
    cache_dir : path-like, optional
        Shared-filesystem fast path (see module docstring).  ``None``
        (the default, and how the bench runs) streams everything over
        TCP — the workers need nothing but the coordinator's address.
    claim_ttl : float, optional
        Overrides the coordinator-advertised TTL for local ``.claim``
        files; only meaningful with ``cache_dir``.
    reconnect_attempts : int
        Connection attempts (initial connect and after each drop)
        before giving up with reason ``"coordinator-gone"``.
    reconnect_delay : float
        Base of the exponential backoff between attempts.
    """

    def __init__(self, host: str, port: int, *,
                 jobs: int = 1,
                 cache_dir=None,
                 claim_ttl: Optional[float] = None,
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
        self.store = (ResultStore(cache_dir, memory_entries=0)
                      if cache_dir is not None else None)
        self.claim_ttl = claim_ttl
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
                        ) -> List[Tuple[dict, Any, bool]]:
        """Run a lease's points; (point, value, from_cache) triples."""
        todo: List[Tuple[dict, RunSpec]] = []
        out: List[Tuple[dict, Any, bool]] = []
        for point in points:
            spec = decode_payload(point["spec"])
            if self.store is not None:
                cached = self.store.get(point["hash"], MISSING)
                if cached is not MISSING:
                    out.append((point, cached, True))
                    continue
            todo.append((point, spec))
        claims: List[Path] = []
        if self.store is not None:
            for point, _spec in todo:
                claim = self.store.directory / f"{point['hash']}.claim"
                if try_claim(claim, ttl=self.claim_ttl,
                             payload=f"dist-worker={self.name}\n"):
                    claims.append(claim)
                # A refused claim means a local steal-mode runner is on
                # this point right now; the lease is still ours, and a
                # duplicate compute of a pure function is harmless, so
                # proceed either way.
        try:
            if pool is not None and len(todo) > 1:
                values = list(pool.map(_execute_spec,
                                       [spec for _, spec in todo]))
            else:
                values = [spec.execute() for _, spec in todo]
        finally:
            for claim in claims:
                release_claim(claim)
        for (point, _spec), value in zip(todo, values):
            if self.store is not None:
                self.store.put(point["hash"], value)
            out.append((point, value, False))
        return out

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
                    # revision, result over its line limit): asking
                    # again would be leased the same point and fail the
                    # same way.
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
            if self.claim_ttl is None:
                self.claim_ttl = hello.get("claim_ttl")
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
                for point, value, from_cache in self._execute_points(
                        points, pool):
                    resp = conn.request(
                        "result", worker_id=worker_id,
                        index=point["index"], hash=point["hash"],
                        payload=encode_payload(value),
                        from_cache=from_cache)
                    last_beat = time.time()
                    if from_cache:
                        summary.cache_hits += 1
                    else:
                        summary.computed += 1
                    if self.on_progress is not None:
                        self.on_progress({"worker": self.name,
                                          "points": summary.points,
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
