"""The sweep coordinator: lease out a grid, reap the dead, merge progress.

``python -m repro sweep serve`` runs one of these, and so does
``SweepRunner(serve=(host, port))`` — the way any paper grid goes
multi-host.  The coordinator owns the spec manifest (an ordered list of
:class:`RunSpec` points and their content hashes) and the ``cache_dir``;
workers own nothing but CPU.  The division of labor keeps every
correctness property in the places that already guarantee it:

* **completion is the cache entry**, not coordinator state: a point is
  done exactly when ``<hash>.pkl`` is on disk (written atomically
  through :class:`~repro.serve.store.ResultStore`), which is the same
  layout a single-host :class:`~repro.experiments.sweep.SweepRunner`
  resumes from — so a killed coordinator restarted on the same
  ``cache_dir`` loses zero completed points, and the final result list
  is read back from the cache in manifest order;
* **leases are an optimization**, not a lock: they keep workers off
  each other's points, but a reassigned point racing its presumed-dead
  original owner is harmless because results are content-addressed and
  written atomically — the late copy is acknowledged as a duplicate;
* **liveness is the connection plus heartbeats**: a worker holds one
  TCP connection for its lifetime, so an EOF requeues its outstanding
  leases immediately (covers ``kill -9`` on the same network), and a
  periodic reaper requeues leases whose worker has not been heard from
  for ``heartbeat_timeout`` seconds (covers vanished hosts and network
  partitions).

The coordinator answers a ``status`` op with the merged live view —
done/total, aggregate and per-worker points/s, an ETA — aggregating the
per-worker progress exactly like :class:`SweepProgress` ticks do for a
single-host run.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

from ..experiments.runner import RunSpec
from ..serve.store import MISSING, ResultStore
from ..util.jsonlines import serve_json_lines
from .protocol import PROTOCOL_VERSION, decode_payload, encode_payload

__all__ = [
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_HEARTBEAT_TIMEOUT",
    "DEFAULT_LEASE_SIZE",
    "DEFAULT_LINGER",
    "DEFAULT_PORT",
    "CoordinatorThread",
    "SweepCoordinator",
]

DEFAULT_PORT = 8653

#: Points handed out per lease.  Big enough to amortize a round trip
#: over sub-100ms points, small enough that a dying worker strands at
#: most a few seconds of work per lease.
DEFAULT_LEASE_SIZE = 8

#: Cadence the coordinator asks workers to report at (it is sent back in
#: the register response; workers also implicitly heartbeat with every
#: lease/result op).
DEFAULT_HEARTBEAT_INTERVAL = 2.0

#: Seconds of silence after which a worker is presumed dead and its
#: leases are requeued.  Must comfortably exceed both the heartbeat
#: interval and the slowest single point (a worker cannot talk while
#: executing one).
DEFAULT_HEARTBEAT_TIMEOUT = 30.0

#: Seconds a finished coordinator stays up so that workers polling for the
#: ``done`` flag get their answer.
DEFAULT_LINGER = 3.0

#: Longest request line the coordinator reads (bytes).  A ``result``
#: line carries one point's whole result as a base64 pickle; a longer
#: one is rejected in-band and the worker stops with that error.
MAX_LINE_BYTES = 1 << 26


@dataclass
class _WorkerState:
    worker_id: str
    name: str
    jobs: int
    connected_at: float
    last_seen: float
    alive: bool = True
    completed: int = 0
    first_result_at: Optional[float] = None
    last_result_at: Optional[float] = None

    def points_per_sec(self) -> Optional[float]:
        if self.completed < 2 or self.first_result_at is None:
            return None
        span = (self.last_result_at or 0.0) - self.first_result_at
        return (self.completed - 1) / span if span > 0 else None


@dataclass
class _Lease:
    lease_id: str
    worker_id: str
    granted_at: float
    outstanding: Set[int] = field(default_factory=set)


class SweepCoordinator:
    """Own a sweep's spec manifest and hand its points out over TCP.

    Parameters
    ----------
    specs : sequence of RunSpec
        The full grid, in result order (the manifest).
    cache_dir : path-like
        Content-hash cache; completed points are written here (atomic
        rename via :class:`ResultStore`) and resumed from here.
    lease_size : int
        Points per lease (workers may ask for fewer).
    heartbeat_timeout : float
        Silence after which a worker's leases are requeued.
    resume : bool
        Scan ``cache_dir`` for already-completed points before serving
        (the default); ``False`` recomputes everything (entries are
        overwritten, never duplicated).
    on_progress : callable, optional
        Called with the :meth:`status` dict roughly once per
        ``progress_interval`` seconds while points complete.
    expected_workers : int, optional
        How many workers the caller started.  A worker whose interpreter
        comes up after the others finished the grid cannot tell
        "finished before I arrived" from "crashed" if the port is
        already closed, so with a count the post-completion linger of
        :meth:`serve` also waits until that many distinct workers have
        registered and been answered ``done: true``.  ``None`` (the
        default) waits for open connections only.
    """

    def __init__(self, specs: Sequence[RunSpec],
                 cache_dir, *,
                 lease_size: int = DEFAULT_LEASE_SIZE,
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
                 heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
                 resume: bool = True,
                 on_progress: Optional[Callable[[dict], None]] = None,
                 progress_interval: float = 5.0,
                 expected_workers: Optional[int] = None) -> None:
        self.specs = list(specs)
        if not self.specs:
            raise ValueError("a coordinator needs at least one spec")
        if expected_workers is not None and expected_workers < 1:
            raise ValueError("expected_workers must be >= 1 or None")
        if lease_size < 1:
            raise ValueError("lease_size must be >= 1")
        if heartbeat_timeout <= heartbeat_interval:
            raise ValueError(
                "heartbeat_timeout must exceed heartbeat_interval "
                f"(got {heartbeat_timeout} <= {heartbeat_interval})")
        self.hashes = [spec.content_hash() for spec in self.specs]
        self.store = ResultStore(cache_dir, memory_entries=0)
        self.lease_size = lease_size
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.on_progress = on_progress
        self.progress_interval = progress_interval
        self.expected_workers = expected_workers

        self._completed: Set[int] = set()
        self._queue: "deque[int]" = deque()
        self._leases: Dict[str, _Lease] = {}
        self._workers: Dict[str, _WorkerState] = {}
        self._told_done: Set[str] = set()   # workers answered done: true
        self._ids = itertools.count(1)
        self._done_event: Optional[asyncio.Event] = None
        self._open_connections = 0
        self.bound_port: Optional[int] = None

        # Stats counters (exposed via stats()/status(), mirrored into
        # BENCH_dist.json by the bench harness).
        self.resumed_points = 0
        self.results_received = 0
        self.duplicate_results = 0
        self.reassigned_points = 0
        self.dead_workers = 0
        self.leases_granted = 0
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

        if resume:
            self._scan_cache()
        self._queue.extend(i for i in range(len(self.specs))
                           if i not in self._completed)

    # -- resume -----------------------------------------------------------------
    def _scan_cache(self) -> None:
        """Mark points whose result already sits in the cache.

        Reading through :meth:`ResultStore.get` gives torn-entry healing
        for free: a truncated/corrupt ``<hash>.pkl`` (a writer that died
        mid-crash on a non-atomic filesystem) reads as a miss, is
        deleted, and the point is simply recomputed.
        """
        for index, key in enumerate(self.hashes):
            if self.store.get(key, MISSING) is not MISSING:
                self._completed.add(index)
        self.resumed_points = len(self._completed)
        if len(self._completed) == len(self.specs):
            self.finished_at = time.time()

    # -- queue/lease bookkeeping ------------------------------------------------
    @property
    def total(self) -> int:
        return len(self.specs)

    @property
    def done(self) -> bool:
        return len(self._completed) == len(self.specs)

    def _requeue(self, lease: _Lease, *, reason: str) -> int:
        """Return a lease's unfinished points to the queue head."""
        stranded = sorted(lease.outstanding - self._completed)
        for index in reversed(stranded):
            self._queue.appendleft(index)
        self.reassigned_points += len(stranded)
        lease.outstanding.clear()
        self._leases.pop(lease.lease_id, None)
        return len(stranded)

    def _drop_worker(self, worker_id: str, *, reason: str) -> int:
        """Requeue every lease a worker holds and mark it gone."""
        stranded = 0
        for lease in [lease for lease in self._leases.values()
                      if lease.worker_id == worker_id]:
            stranded += self._requeue(lease, reason=reason)
        state = self._workers.get(worker_id)
        if state is not None and state.alive:
            state.alive = False
            if reason == "heartbeat-timeout":
                self.dead_workers += 1
        return stranded

    def _mark_complete(self, index: int, worker_id: str) -> None:
        self._completed.add(index)
        for lease in self._leases.values():
            lease.outstanding.discard(index)
        state = self._workers.get(worker_id)
        now = time.time()
        if state is not None:
            state.completed += 1
            if state.first_result_at is None:
                state.first_result_at = now
            state.last_result_at = now
        if self.done:
            self.finished_at = now
            if self._done_event is not None:
                self._done_event.set()

    # -- op handlers ------------------------------------------------------------
    def _op_register(self, payload: dict) -> dict:
        protocol = payload.get("protocol")
        if protocol != PROTOCOL_VERSION:
            raise ValueError(
                f"protocol version mismatch: worker speaks {protocol!r}, "
                f"coordinator speaks {PROTOCOL_VERSION} (mixed checkouts?)")
        worker_id = f"w{next(self._ids)}"
        now = time.time()
        self._workers[worker_id] = _WorkerState(
            worker_id=worker_id,
            name=str(payload.get("name") or worker_id),
            jobs=int(payload.get("jobs", 1)),
            connected_at=now, last_seen=now)
        return {
            "worker_id": worker_id,
            "total": self.total,
            "completed": len(self._completed),
            "lease_size": self.lease_size,
            "heartbeat_interval": self.heartbeat_interval,
            "protocol": PROTOCOL_VERSION,
        }

    def _op_lease(self, payload: dict) -> dict:
        state = self._require_worker(payload)
        if self.done:
            return {"points": [], "done": True}
        limit = min(self.lease_size,
                    int(payload.get("max_points", self.lease_size)))
        indices: List[int] = []
        while self._queue and len(indices) < max(limit, 1):
            index = self._queue.popleft()
            if index not in self._completed:
                indices.append(index)
        if not indices:
            # Everything is leased out: the worker waits for either a
            # reaped lease or the done flag.
            return {"points": [], "done": False,
                    "retry_after": self.heartbeat_interval / 2}
        if self.started_at is None:
            self.started_at = time.time()
        lease = _Lease(lease_id=f"l{next(self._ids)}",
                       worker_id=state.worker_id,
                       granted_at=time.time(),
                       outstanding=set(indices))
        self._leases[lease.lease_id] = lease
        self.leases_granted += 1
        return {
            "lease_id": lease.lease_id,
            "done": False,
            "remaining": self.total - len(self._completed),
            "points": [{"index": index,
                        "hash": self.hashes[index],
                        "spec": encode_payload(self.specs[index])}
                       for index in indices],
        }

    def _op_result(self, payload: dict) -> dict:
        state = self._require_worker(payload)
        index = int(payload["index"])
        if not 0 <= index < self.total:
            raise ValueError(
                f"result index {index} out of range (grid has "
                f"{self.total} points)")
        reported = payload.get("hash")
        if reported != self.hashes[index]:
            raise ValueError(
                f"result hash mismatch at point {index}: worker computed "
                f"{reported!r}, manifest says {self.hashes[index]!r} — "
                "the worker is running a different grid or code revision")
        if index in self._completed:
            # A reassigned point's original owner came back: the result
            # is identical by construction (content-addressed, pure
            # function), so acknowledge and count it.
            self.duplicate_results += 1
            return {"done": self.done, "duplicate": True}
        value = decode_payload(payload["payload"])
        self.store.put(self.hashes[index], value)
        self.results_received += 1
        self._mark_complete(index, state.worker_id)
        return {"done": self.done, "duplicate": False}

    def _op_heartbeat(self, payload: dict) -> dict:
        self._require_worker(payload)
        return {"done": self.done,
                "completed": len(self._completed), "total": self.total}

    def _op_goodbye(self, payload: dict) -> dict:
        state = self._require_worker(payload, touch=False)
        stranded = self._drop_worker(state.worker_id, reason="goodbye")
        return {"requeued": stranded, "done": self.done}

    def _require_worker(self, payload: dict, *,
                        touch: bool = True) -> _WorkerState:
        worker_id = payload.get("worker_id")
        state = self._workers.get(worker_id)
        if state is None:
            raise ValueError(
                f"unknown worker_id {worker_id!r}: register first "
                "(or the coordinator restarted — reconnect)")
        if touch:
            state.last_seen = time.time()
            state.alive = True
        return state

    # -- merged progress view ---------------------------------------------------
    def status(self) -> dict:
        """The merged live progress/ETA view (the ``status`` op)."""
        now = time.time()
        done = len(self._completed)
        leased = len({index for lease in self._leases.values()
                      for index in lease.outstanding})
        rate = None
        if self.started_at is not None and self.results_received > 0:
            end = self.finished_at if self.done else now
            span = end - self.started_at
            rate = self.results_received / span if span > 0 else None
        remaining = self.total - done
        eta = (remaining / rate) if rate and remaining else None
        workers = {
            state.worker_id: {
                "name": state.name,
                "jobs": state.jobs,
                "alive": state.alive,
                "completed": state.completed,
                "points_per_sec": state.points_per_sec(),
                "last_seen_age": round(now - state.last_seen, 3),
            }
            for state in self._workers.values()
        }
        return {
            "total": self.total,
            "completed": done,
            "queued": len(self._queue),
            "leased": leased,
            "done": self.done,
            "points_per_sec": rate,
            "eta_seconds": eta,
            "resumed_points": self.resumed_points,
            "results_received": self.results_received,
            "duplicate_results": self.duplicate_results,
            "reassigned_points": self.reassigned_points,
            "dead_workers": self.dead_workers,
            "leases_granted": self.leases_granted,
            "workers": workers,
        }

    def stats(self) -> dict:
        """Counters for the bench report (superset-free status slice)."""
        status = self.status()
        status["wall_seconds"] = (
            None if self.started_at is None or self.finished_at is None
            else self.finished_at - self.started_at)
        return status

    # -- the server -------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._open_connections += 1
        connection_workers: Set[str] = set()
        handlers = {
            "register": self._op_register,
            "lease": self._op_lease,
            "result": self._op_result,
            "heartbeat": self._op_heartbeat,
            "goodbye": self._op_goodbye,
            "status": lambda _payload: self.status(),
        }

        async def dispatch(payload: dict) -> dict:
            op = payload.get("op")
            handler = handlers.get(op)
            if handler is None:
                raise ValueError(f"unknown op {op!r}")
            response = handler(payload)
            if op == "register":
                connection_workers.add(response["worker_id"])
            elif response.get("done") and "worker_id" in payload:
                self._told_done.add(payload["worker_id"])
            return response

        try:
            await serve_json_lines(reader, writer, dispatch)
        except asyncio.CancelledError:
            pass   # server shutting down with this connection open
        finally:
            self._open_connections -= 1
            # The connection IS the worker's liveness on a healthy
            # network: requeue its leases right away rather than waiting
            # out the heartbeat timeout (which still covers partitions).
            if not self.done:
                for worker_id in connection_workers:
                    self._drop_worker(worker_id, reason="disconnect")

    async def _reap_loop(self) -> None:
        last_progress = 0.0
        while True:
            await asyncio.sleep(
                min(self.heartbeat_interval, self.progress_interval) / 2)
            now = time.time()
            if not self.done:
                # No reaping once the grid is complete: workers idling
                # through the linger window are draining, not dead.
                for state in list(self._workers.values()):
                    if state.alive and \
                            now - state.last_seen > self.heartbeat_timeout:
                        self._drop_worker(state.worker_id,
                                          reason="heartbeat-timeout")
            if self.on_progress is not None and \
                    now - last_progress >= self.progress_interval:
                last_progress = now
                self.on_progress(self.status())

    async def serve(self, host: str = "127.0.0.1",
                    port: int = DEFAULT_PORT, *,
                    ready: Optional[Callable[[int], None]] = None,
                    linger: float = DEFAULT_LINGER) -> dict:
        """Serve the grid until every point is complete; return stats.

        ``ready`` is called with the bound port once listening (``port``
        may be 0 for an ephemeral port — tests and the bench use this).
        After the last result lands the coordinator lingers up to
        ``linger`` seconds so workers polling for the ``done`` flag get
        their answer — connected ones, and with ``expected_workers``
        also the ones still on their way — then closes.
        """
        loop = asyncio.get_running_loop()
        self._done_event = asyncio.Event()
        self._stop_event = asyncio.Event()
        self._loop = loop
        if self.done:
            self._done_event.set()
        server = await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_LINE_BYTES)
        self.bound_port = server.sockets[0].getsockname()[1]
        if ready is not None:
            ready(self.bound_port)
        reaper = asyncio.ensure_future(self._reap_loop())
        try:
            done_wait = asyncio.ensure_future(self._done_event.wait())
            stop_wait = asyncio.ensure_future(self._stop_event.wait())
            await asyncio.wait({done_wait, stop_wait},
                               return_when=asyncio.FIRST_COMPLETED)
            done_wait.cancel()
            stop_wait.cancel()
            if self.done:
                # Grace window: let connected workers observe done=true.
                deadline = loop.time() + linger
                while (self._open_connections or self._workers_missing()) \
                        and loop.time() < deadline \
                        and not self._stop_event.is_set():
                    await asyncio.sleep(0.05)
        finally:
            reaper.cancel()
            server.close()
            await server.wait_closed()
        if self.on_progress is not None:
            self.on_progress(self.status())
        return self.stats()

    def _workers_missing(self) -> bool:
        """Has an expected worker not yet heard that the sweep is over?"""
        return (self.expected_workers is not None
                and len(self._told_done) < self.expected_workers)

    def request_stop(self) -> None:
        """Thread-safe: make :meth:`serve` return (simulates a kill)."""
        loop = getattr(self, "_loop", None)
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._stop_event.set)


class CoordinatorThread:
    """Run a coordinator's asyncio server on a background thread.

    The bench harness and the fault-injection tests drive coordinators
    this way: ``start()`` returns the bound (possibly ephemeral) port,
    ``stop()`` simulates killing the coordinator, ``result()`` joins and
    returns the final stats dict.
    """

    def __init__(self, coordinator: SweepCoordinator,
                 host: str = "127.0.0.1", port: int = 0, *,
                 linger: float = DEFAULT_LINGER) -> None:
        self.coordinator = coordinator
        self.host = host
        self.port = port
        self.linger = linger
        self._stats: Optional[dict] = None
        self._error: Optional[BaseException] = None
        self._thread = None

    def start(self, timeout: float = 10.0) -> int:
        import threading
        ready = threading.Event()
        bound: List[int] = []

        def note_port(port: int) -> None:
            bound.append(port)
            ready.set()

        def main() -> None:
            try:
                self._stats = asyncio.run(self.coordinator.serve(
                    self.host, self.port, ready=note_port,
                    linger=self.linger))
            except BaseException as exc:   # surfaced by result()
                self._error = exc
                ready.set()

        self._thread = threading.Thread(target=main, daemon=True,
                                        name="sweep-coordinator")
        self._thread.start()
        if not ready.wait(timeout) or not bound:
            raise RuntimeError(
                "coordinator failed to start"
                + (f": {self._error}" if self._error else ""))
        self.port = bound[0]
        return self.port

    def stop(self) -> None:
        self.coordinator.request_stop()

    def result(self, timeout: float = 60.0) -> dict:
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("coordinator thread did not stop")
        if self._error is not None:
            raise self._error
        return self._stats
