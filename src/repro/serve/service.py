"""The allocation-query service: admission, batching, dedup, memoization.

A query names a topology (links with loss models, users with a registry
algorithm, routes with RTTs) plus solver parameters, and asks for the
equilibrium allocation — exactly one point of the K-dimension of
:func:`~repro.fluid.equilibrium.solve_fixed_point_batch`.  The service
exploits that:

* queries are **validated at admission** against the algorithm registry
  (unknown algorithm or bad params fail fast, before any batching);
* a query whose content hash is **in the store** returns immediately;
* an identical query already **in flight** shares the same future
  instead of being solved twice;
* the rest **coalesce**: queries with the same *structure* (route
  incidence, loss-model families, solver knobs) accumulate for at most
  ``batch_window`` seconds or ``max_batch`` entries, then solve as one
  ``solve_fixed_point_batch`` call on an executor thread.  Per-user
  algorithms may differ across the batch — a
  :class:`~repro.fluid.equilibrium.PerPointRuleSet` evaluates each
  point's own rule row-wise, keeping every row bitwise identical to a
  standalone ``solve_fixed_point`` call.

``run_server`` wraps the in-process :class:`AllocationService` in a
newline-delimited-JSON TCP protocol for out-of-process clients.
"""

from __future__ import annotations

import asyncio
import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple

from ..core.registry import get_spec
from ..fluid.equilibrium import PerPointRuleSet, solve_fixed_point_batch
from ..fluid.loss import PowerLoss, RedLoss, SharpLoss
from ..fluid.network import FluidNetwork
from ..util.jsonlines import serve_json_lines
from .store import MISSING, ResultStore

__all__ = [
    "SOLVER_VERSION",
    "LinkSpec",
    "UserSpec",
    "RouteSpec",
    "AllocationQuery",
    "AllocationService",
    "solve_query",
    "run_server",
]

_LOSS_MODELS = ("power", "sharp", "red")

#: Which solver the stored answers come from.  It is part of every
#: query's content hash, so entries written by an older solver (the
#: damped iteration was 1) are never served as this one's.
SOLVER_VERSION = 2


@lru_cache(maxsize=1024)
def _cached_rule(algorithm: str, params: Tuple[Tuple[str, Any], ...]):
    """One allocation rule per (algorithm, params) — rules are pure
    functions of ``(p, rtt)``, so sharing them across queries is safe
    and makes same-algorithm batch rows group for vectorization."""
    return get_spec(algorithm).make_allocation(**dict(params))


@dataclass(frozen=True)
class LinkSpec:
    """One link: capacity in packets/s plus a loss-model family."""

    capacity: float
    model: str = "sharp"
    p_at_capacity: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.capacity > 0:
            raise ValueError(f"capacity must be > 0, got {self.capacity}")
        if self.model not in _LOSS_MODELS:
            raise ValueError(
                f"model must be one of {_LOSS_MODELS}, got {self.model!r}")
        if self.p_at_capacity is not None and not self.p_at_capacity > 0:
            raise ValueError("p_at_capacity must be > 0 when given")

    def build(self):
        if self.model == "power":
            if self.p_at_capacity is None:
                return PowerLoss(self.capacity)
            return PowerLoss(self.capacity, p_at_capacity=self.p_at_capacity)
        if self.model == "sharp":
            if self.p_at_capacity is None:
                return SharpLoss(self.capacity)
            return SharpLoss(self.capacity, p_at_capacity=self.p_at_capacity)
        if self.p_at_capacity is None:
            return RedLoss(self.capacity)
        return RedLoss(self.capacity, p_max=self.p_at_capacity)


@dataclass(frozen=True)
class UserSpec:
    """One user: a registry algorithm name plus keyword params."""

    algorithm: str = "tcp"
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        # Canonical key order so two spellings of the same params hash
        # (and therefore dedup/memoize) identically.
        object.__setattr__(
            self, "params", tuple(sorted(tuple(self.params))))


@dataclass(frozen=True)
class RouteSpec:
    """One route: owning user, link ids traversed, round-trip time."""

    user: int
    links: Tuple[int, ...]
    rtt: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", tuple(self.links))
        if not self.links:
            raise ValueError("a route must traverse at least one link")
        if not self.rtt > 0:
            raise ValueError(f"rtt must be > 0, got {self.rtt}")


@dataclass(frozen=True)
class AllocationQuery:
    """A complete equilibrium-allocation question.

    ``content_hash()`` identifies the query exactly (memoization key);
    ``structure_key()`` identifies everything ``solve_fixed_point_batch``
    requires to be shared across a batch — route incidence, loss-model
    families, and solver knobs — while capacities, RTTs, loss knobs,
    and per-user algorithms are free to vary point by point.
    """

    links: Tuple[LinkSpec, ...]
    users: Tuple[UserSpec, ...]
    routes: Tuple[RouteSpec, ...]
    floor_packets: float = 1.0
    damping: float = 0.15
    tol: float = 1e-8
    max_iter: int = 20000

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(self, "users", tuple(self.users))
        object.__setattr__(self, "routes", tuple(self.routes))
        if not self.links or not self.users or not self.routes:
            raise ValueError(
                "a query needs at least one link, user, and route")
        for route in self.routes:
            if not 0 <= route.user < len(self.users):
                raise ValueError(
                    f"route user {route.user} out of range "
                    f"(have {len(self.users)} users)")
            for link in route.links:
                if not 0 <= link < len(self.links):
                    raise ValueError(
                        f"route link {link} out of range "
                        f"(have {len(self.links)} links)")

    # -- identity ---------------------------------------------------------------
    def content_hash(self) -> str:
        flat = (
            SOLVER_VERSION,
            [(link.capacity, link.model, link.p_at_capacity)
             for link in self.links],
            [(user.algorithm, user.params) for user in self.users],
            [(route.user, route.links, route.rtt) for route in self.routes],
            self.floor_packets, self.damping, self.tol, self.max_iter)
        return hashlib.sha256(repr(flat).encode()).hexdigest()

    def structure_key(self) -> Tuple:
        return (
            tuple((r.user, r.links) for r in self.routes),
            tuple(link.model for link in self.links),
            self.floor_packets, self.damping, self.tol, self.max_iter,
        )

    # -- materialization --------------------------------------------------------
    def to_network(self) -> FluidNetwork:
        net = FluidNetwork()
        for link in self.links:
            net.add_link(link.build())
        for user in range(len(self.users)):
            net.add_user()
        for route in self.routes:
            net.add_route(route.user, list(route.links), route.rtt)
        return net

    def user_rules(self) -> List[Any]:
        """Registry admission: one equilibrium rule per user, or raise.

        Rules are shared across queries via :func:`_cached_rule`: two
        users running the same algorithm with the same params get the
        *same* rule object, which is what lets a heterogeneous batch's
        :class:`~repro.fluid.equilibrium.PerPointRuleSet` group their
        rows into one vectorized call instead of K scalar ones.
        """
        return [_cached_rule(user.algorithm, user.params)
                for user in self.users]

    # -- wire format ------------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "AllocationQuery":
        links = tuple(
            LinkSpec(capacity=float(item["capacity"]),
                     model=item.get("model", "sharp"),
                     p_at_capacity=item.get("p_at_capacity"))
            for item in payload["links"])
        users = tuple(
            UserSpec(algorithm=item.get("algorithm", "tcp"),
                     params=tuple((item.get("params") or {}).items()))
            for item in payload["users"])
        routes = tuple(
            RouteSpec(user=int(item["user"]),
                      links=tuple(int(li) for li in item["links"]),
                      rtt=float(item["rtt"]))
            for item in payload["routes"])
        return cls(links=links, users=users, routes=routes,
                   floor_packets=float(payload.get("floor_packets", 1.0)),
                   damping=float(payload.get("damping", 0.15)),
                   tol=float(payload.get("tol", 1e-8)),
                   max_iter=int(payload.get("max_iter", 20000)))


def _solve_batch(entries: List[Tuple[AllocationQuery, List[Any]]]
                 ) -> List[Dict[str, Any]]:
    """Solve one structure-homogeneous batch (runs on an executor).

    One code path for any K, so a batched response is bitwise identical
    to the same query solved alone (the solver keeps rows independent).
    """
    first = entries[0][0]
    rules = {
        user: PerPointRuleSet([entry_rules[user]
                               for _, entry_rules in entries])
        for user in range(len(first.users))
    }
    batch = solve_fixed_point_batch(
        [query.to_network() for query, _ in entries], rules,
        floor_packets=first.floor_packets, damping=first.damping,
        tol=first.tol, max_iter=first.max_iter)
    return [
        {"rates": rates, "user_totals": totals, "route_loss": loss,
         "iterations": iterations, "converged": converged,
         "residual": residual, "exit_reason": reason}
        for rates, totals, loss, iterations, converged, residual, reason
        in zip(batch.rates.tolist(), batch.user_totals().tolist(),
               batch.route_loss.tolist(), batch.iterations.tolist(),
               batch.converged.tolist(), batch.residual.tolist(),
               batch.exit_reason.tolist())]


def solve_query(query: AllocationQuery) -> Dict[str, Any]:
    """Sequential baseline: the query solved alone, as a K=1 batch.

    ``iterations`` counts the map evaluations spent on the query,
    ``residual`` is the one-step residual of the rate map at the answer
    and ``exit_reason`` says how the solver left it (``"newton"``,
    ``"tie"``, ``"fallback"``; ``"stalled"`` / ``"budget"`` come with
    ``converged: false``) — see
    :func:`~repro.fluid.equilibrium.solve_fixed_point_batch`.
    """
    return _solve_batch([(query, query.user_rules())])[0]


@dataclass
class _Pending:
    key: str
    query: AllocationQuery
    rules: List[Any]
    future: "asyncio.Future" = field(repr=False, default=None)


class AllocationService:
    """In-process async facade over the batched equilibrium solver.

    Parameters
    ----------
    store : ResultStore, optional
        Memoization store; ``None`` disables memoization (every query
        solves, subject to in-flight dedup).
    batch_window : float
        Seconds a pending group waits for company before solving.
    max_batch : int
        Batch K cap; a group reaching it solves immediately.
    executor : concurrent.futures.Executor, optional
        Where batch solves run; the service owns a 2-thread pool when
        not given.
    """

    def __init__(self, store: Optional[ResultStore] = None, *,
                 batch_window: float = 0.002, max_batch: int = 128,
                 executor=None) -> None:
        if not batch_window >= 0:
            raise ValueError("batch_window must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.store = store
        self.batch_window = batch_window
        self.max_batch = max_batch
        self._executor = executor or ThreadPoolExecutor(max_workers=2)
        self._own_executor = executor is None
        self._pending: Dict[Tuple, List[_Pending]] = {}
        self._timers: Dict[Tuple, asyncio.TimerHandle] = {}
        self._inflight: Dict[str, asyncio.Future] = {}
        self._tasks: set = set()
        # Counters for the load harness / BENCH_serve report.
        self.admitted = 0
        self.store_hits = 0
        self.dedup_hits = 0
        self.unconverged = 0
        self.batch_histogram: Dict[int, int] = {}

    # -- the query path ---------------------------------------------------------
    async def query(self, query: AllocationQuery) -> Dict[str, Any]:
        """Answer one allocation query (await-able, memoized, batched)."""
        rules = query.user_rules()  # admission: raises on bad algorithm
        key = query.content_hash()
        if self.store is not None:
            value = self.store.get(key, MISSING)
            if value is not MISSING:
                self.store_hits += 1
                return value
        inflight = self._inflight.get(key)
        if inflight is not None:
            self.dedup_hits += 1
            return await asyncio.shield(inflight)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._inflight[key] = future
        self.admitted += 1
        skey = query.structure_key()
        group = self._pending.setdefault(skey, [])
        group.append(_Pending(key, query, rules, future))
        if len(group) >= self.max_batch:
            self._fire(skey)
        elif skey not in self._timers:
            self._timers[skey] = loop.call_later(
                self.batch_window, self._fire, skey)
        return await asyncio.shield(future)

    def _fire(self, skey: Tuple) -> None:
        timer = self._timers.pop(skey, None)
        if timer is not None:
            timer.cancel()
        group = self._pending.pop(skey, None)
        if not group:
            return
        task = asyncio.get_running_loop().create_task(
            self._solve_group(group))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _solve_group(self, group: List[_Pending]) -> None:
        size = len(group)
        self.batch_histogram[size] = self.batch_histogram.get(size, 0) + 1
        loop = asyncio.get_running_loop()
        entries = [(item.query, item.rules) for item in group]
        try:
            results = await loop.run_in_executor(
                self._executor, _solve_batch, entries)
        except Exception as exc:
            for item in group:
                self._inflight.pop(item.key, None)
                if not item.future.done():
                    item.future.set_exception(exc)
            return
        self.unconverged += sum(
            1 for result in results if not result["converged"])
        for item, result in zip(group, results):
            if self.store is not None:
                self.store.put(item.key, result)
            self._inflight.pop(item.key, None)
            if not item.future.done():
                item.future.set_result(result)

    # -- bookkeeping ------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        batches = sum(self.batch_histogram.values())
        solved = sum(size * count
                     for size, count in self.batch_histogram.items())
        return {
            "admitted": self.admitted,
            "store_hits": self.store_hits,
            "dedup_hits": self.dedup_hits,
            "batches": batches,
            "solved": solved,
            "unconverged": self.unconverged,
            "mean_batch_size": solved / batches if batches else 0.0,
            "max_batch_size": max(self.batch_histogram, default=0),
            "batch_histogram": {
                str(size): count
                for size, count in sorted(self.batch_histogram.items())},
        }

    async def drain(self) -> None:
        """Flush pending groups and wait for in-flight solves."""
        for skey in list(self._pending):
            self._fire(skey)
        while self._tasks:
            await asyncio.gather(*list(self._tasks),
                                 return_exceptions=True)

    def close(self) -> None:
        if self._own_executor:
            self._executor.shutdown(wait=False)


# -- TCP front-end ---------------------------------------------------------------
#: Longest request line ``run_server`` reads (bytes).  Queries are small
#: JSON objects; anything near this is a mistake, answered in-band.
MAX_LINE_BYTES = 1 << 20


async def run_server(host: str = "127.0.0.1", port: int = 8642, *,
                     service: Optional[AllocationService] = None,
                     store_dir: "str | None" = None,
                     batch_window: float = 0.002,
                     max_batch: int = 128,
                     ready: Optional["asyncio.Event"] = None) -> None:
    """Serve newline-delimited-JSON allocation queries forever.

    One JSON object per line in (an :meth:`AllocationQuery.from_dict`
    payload, or ``{"op": "stats"}``), one ``{"ok": bool, ...}`` object
    per line out (:func:`~repro.util.jsonlines.serve_json_lines`).
    """
    if service is None:
        store = (ResultStore(store_dir)
                 if store_dir is not None else None)
        service = AllocationService(
            store, batch_window=batch_window, max_batch=max_batch)

    async def dispatch(payload: dict) -> dict:
        if payload.get("op") == "stats":
            return {"result": service.stats()}
        return {"result": await service.query(
            AllocationQuery.from_dict(payload))}

    async def handler(reader, writer):
        await serve_json_lines(reader, writer, dispatch)

    server = await asyncio.start_server(handler, host, port,
                                        limit=MAX_LINE_BYTES)
    if ready is not None:
        ready.set()
    async with server:
        await server.serve_forever()
