"""Seeded load generator: replay ~1M allocation queries, measure serving.

Three measured phases against one persistent store directory:

* **sequential baseline** — a handful of cold queries through plain
  ``solve_fixed_point`` (via :func:`~repro.serve.service.solve_query`),
  giving the un-batched, un-memoized cost per query;
* **cold latency phase** — a stream of *unique* queries at high
  concurrency against a cold store: every query really solves, so the
  measured qps-vs-baseline speedup isolates the K-dimension batching
  win and the p50/p99 reflect the batch window + solve;
* **warm replay** — the identical stream against the now-warm store
  (through a *fresh* :class:`~repro.serve.store.ResultStore`, so hits
  come off disk, proving persistence): the p50 improvement is the
  memoization win;
* **hot-set replay** — the ~1M-query production-shaped stream: a
  small hot set and a bounded cold pool mixed with configurable skew
  (``hot_fraction``), randomized topologies/algorithms drawn through
  :class:`~repro.topology.generator.GeneratorConfig` ranges with the
  full registry algorithm mix (wVegas included), reported as overall
  qps / latency percentiles / hit rate / batch-size histogram.

Everything is seeded: query ``i`` of a phase is a pure function of
``(seed, phase, i)``, which is also what lets the warm phase replay the
cold stream exactly without holding a million query objects in memory.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import random
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.registry import get_spec
from ..topology.generator import GeneratorConfig
from ..units import mbps_to_pps
from .service import (
    AllocationQuery,
    AllocationService,
    LinkSpec,
    RouteSpec,
    UserSpec,
    solve_query,
)
from .store import ResultStore

__all__ = ["LoadGenConfig", "run_loadgen", "write_report"]

#: Default algorithm mix: the loss-based spectrum plus delay-based
#: wVegas, proving the service is generic over the registry.
_DEFAULT_MIX = (
    ("lia", 0.25),
    ("olia", 0.2),
    ("balia", 0.2),
    ("wvegas", 0.2),
    ("tcp", 0.15),
)


def smoke_mode() -> bool:
    """True when ``REPRO_BENCH_SMOKE=1`` caps the load-generator sizes."""
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


@dataclass(frozen=True)
class LoadGenConfig:
    """Knobs of the load harness (see module docs for the phases)."""

    queries: int = 1_000_000
    latency_queries: int = 20_000
    concurrency: int = 128
    hot_set: int = 64
    cold_pool: int = 4096
    hot_fraction: float = 0.25
    seed: int = 1
    batch_window: float = 0.002
    max_batch: int = 128
    baseline_samples: int = 64
    max_store_entries: int = 1 << 17
    generator: GeneratorConfig = field(
        default_factory=lambda: GeneratorConfig(
            n_flows=64, n_links=8, algorithm_mix=_DEFAULT_MIX))

    def __post_init__(self) -> None:
        if self.queries < 1 or self.latency_queries < 1:
            raise ValueError("query counts must be >= 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        if self.hot_set < 1 or self.cold_pool < 1:
            raise ValueError("hot_set and cold_pool must be >= 1")

    def smoke(self) -> "LoadGenConfig":
        """The CI-smoke-sized variant of this config."""
        return replace(
            self, queries=min(self.queries, 4000),
            latency_queries=min(self.latency_queries, 256),
            concurrency=min(self.concurrency, 64),
            hot_set=min(self.hot_set, 16),
            cold_pool=min(self.cold_pool, 256),
            baseline_samples=min(self.baseline_samples, 12),
            max_batch=min(self.max_batch, 64))


# -- query synthesis --------------------------------------------------------------
def _equilibrium_mix(mix: Sequence[Tuple[str, float]]
                     ) -> Tuple[List[str], List[float]]:
    """The subset of the algorithm mix the equilibrium layer can serve."""
    names: List[str] = []
    weights: List[float] = []
    for name, weight in mix:
        spec = get_spec(name)
        if not spec.has_equilibrium or spec.required_params("equilibrium"):
            continue
        names.append(spec.name)
        weights.append(weight)
    if not names:
        raise ValueError(
            "algorithm mix has no equilibrium-capable entries")
    return names, weights


def _random_query(rng: random.Random, config: LoadGenConfig,
                  names: List[str], weights: List[float],
                  n_tcp: int) -> AllocationQuery:
    """One scenario-A-shaped query: an AP pair, one mp user, n_tcp TCPs."""
    gen = config.generator
    links = (
        LinkSpec(capacity=mbps_to_pps(rng.uniform(*gen.capacity_mbps)),
                 model="sharp"),
        LinkSpec(capacity=mbps_to_pps(rng.uniform(*gen.capacity_mbps)),
                 model="power", p_at_capacity=0.02),
    )
    algorithm = rng.choices(names, weights=weights)[0]
    users = ((UserSpec(algorithm=algorithm),)
             + tuple(UserSpec("tcp") for _ in range(n_tcp)))
    routes = [
        RouteSpec(0, (0,), rng.uniform(*gen.base_rtt)),
        RouteSpec(0, (1,), rng.uniform(*gen.base_rtt)),
    ]
    for i in range(n_tcp):
        routes.append(RouteSpec(1 + i, (1,), rng.uniform(*gen.base_rtt)))
    return AllocationQuery(links=links, users=users, routes=tuple(routes))


def _phase_rng(config: LoadGenConfig, phase: str, index: int) -> random.Random:
    return random.Random(f"{config.seed}/{phase}/{index}")


def _latency_query(config: LoadGenConfig, names, weights,
                   index: int) -> AllocationQuery:
    """Unique query ``index`` of the cold/warm latency stream.

    One fixed structure (three TCP users) so every in-flight wave
    coalesces into a single batch — the clean K-dimension measurement;
    the hot-set replay exercises the multi-structure case.
    """
    rng = _phase_rng(config, "latency", index)
    return _random_query(rng, config, names, weights, n_tcp=3)


def _build_pools(config: LoadGenConfig, names, weights
                 ) -> Tuple[List[AllocationQuery], List[AllocationQuery]]:
    hot = [_random_query(_phase_rng(config, "hot", i), config, names,
                         weights, n_tcp=(i % 3) + 2)
           for i in range(config.hot_set)]
    pool = [_random_query(_phase_rng(config, "pool", i), config, names,
                          weights, n_tcp=(i % 3) + 2)
            for i in range(config.cold_pool)]
    return hot, pool


# -- measured replay --------------------------------------------------------------
async def _replay(service: AllocationService,
                  make_query: Callable[[int], AllocationQuery],
                  n: int, concurrency: int) -> Tuple[np.ndarray, float]:
    latencies = np.zeros(n)
    indices = iter(range(n))

    async def worker() -> None:
        for i in indices:
            query = make_query(i)
            t0 = time.perf_counter()
            await service.query(query)
            latencies[i] = time.perf_counter() - t0

    start = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(concurrency)))
    await service.drain()
    return latencies, time.perf_counter() - start


def _phase_stats(latencies: np.ndarray, wall: float) -> Dict[str, float]:
    return {
        "queries": int(len(latencies)),
        "wall_seconds": float(wall),
        "qps": float(len(latencies) / wall),
        "p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "p99_ms": float(np.percentile(latencies, 99) * 1e3),
        "mean_ms": float(latencies.mean() * 1e3),
    }


async def _run(config: LoadGenConfig, store_dir: str) -> Dict:
    names, weights = _equilibrium_mix(config.generator.algorithm_mix)
    memory_entries = config.cold_pool + config.hot_set + 64

    # Sequential baseline: the cost of answering queries one at a time.
    baseline_queries = [
        _random_query(_phase_rng(config, "baseline", i), config, names,
                      weights, n_tcp=3)
        for i in range(config.baseline_samples)]
    start = time.perf_counter()
    for query in baseline_queries:
        solve_query(query)
    baseline_wall = time.perf_counter() - start
    baseline = {
        "samples": config.baseline_samples,
        "wall_seconds": float(baseline_wall),
        "qps": float(config.baseline_samples / baseline_wall),
        "mean_ms": float(baseline_wall / config.baseline_samples * 1e3),
    }

    def latency_query(i: int) -> AllocationQuery:
        return _latency_query(config, names, weights, i)

    # Cold latency phase: unique queries, cold store — every query
    # solves, so qps/baseline isolates the batching win.
    cold_store = ResultStore(store_dir, max_entries=config.max_store_entries,
                             memory_entries=memory_entries)
    service = AllocationService(cold_store, batch_window=config.batch_window,
                                max_batch=config.max_batch)
    latencies, wall = await _replay(service, latency_query,
                                    config.latency_queries,
                                    config.concurrency)
    cold = _phase_stats(latencies, wall)
    cold["speedup_vs_sequential"] = cold["qps"] / baseline["qps"]
    cold_service = service.stats()
    cold["unconverged"] = cold_service["unconverged"]
    service.close()

    # Warm replay: the same stream through a *fresh* store object on the
    # same directory — hits come off disk, proving persistence.
    warm_store = ResultStore(store_dir, max_entries=config.max_store_entries,
                             memory_entries=memory_entries)
    service = AllocationService(warm_store, batch_window=config.batch_window,
                                max_batch=config.max_batch)
    latencies, wall = await _replay(service, latency_query,
                                    config.latency_queries,
                                    config.concurrency)
    warm = _phase_stats(latencies, wall)
    warm["hit_rate"] = warm_store.stats.hit_rate
    warm["p50_improvement"] = (cold["p50_ms"] / warm["p50_ms"]
                               if warm["p50_ms"] > 0 else float("inf"))
    service.close()

    # Hot-set replay: the production-shaped ~1M-query stream.
    hot, pool = _build_pools(config, names, weights)

    def replay_query(i: int) -> AllocationQuery:
        rng = _phase_rng(config, "replay", i)
        if rng.random() < config.hot_fraction:
            return hot[rng.randrange(len(hot))]
        return pool[rng.randrange(len(pool))]

    replay_store = ResultStore(store_dir,
                               max_entries=config.max_store_entries,
                               memory_entries=memory_entries)
    service = AllocationService(replay_store,
                                batch_window=config.batch_window,
                                max_batch=config.max_batch)
    latencies, wall = await _replay(service, replay_query, config.queries,
                                    config.concurrency)
    replay = _phase_stats(latencies, wall)
    replay["hit_rate"] = replay_store.stats.hit_rate
    replay["speedup_vs_sequential"] = replay["qps"] / baseline["qps"]
    replay_service = service.stats()
    replay["unconverged"] = replay_service["unconverged"]
    service.close()

    # Bitwise check: served results equal the sequential solver exactly.
    check_store = ResultStore(store_dir, memory_entries=0)
    bitwise = True
    for i in range(min(4, config.latency_queries)):
        query = latency_query(i)
        served = check_store.get(query.content_hash())
        bitwise = bitwise and served == solve_query(query)

    return {
        "benchmark": "serve",
        "smoke": smoke_mode(),
        "python": platform.python_version(),
        "config": {
            "queries": config.queries,
            "latency_queries": config.latency_queries,
            "concurrency": config.concurrency,
            "hot_set": config.hot_set,
            "cold_pool": config.cold_pool,
            "hot_fraction": config.hot_fraction,
            "seed": config.seed,
            "batch_window": config.batch_window,
            "max_batch": config.max_batch,
            "algorithm_mix": [[name, weight]
                              for name, weight in zip(names, weights)],
        },
        "sequential_baseline": baseline,
        "cold": {**cold, "service": cold_service},
        "warm": warm,
        "replay": {**replay, "service": replay_service},
        "store": replay_store.stats.as_dict(),
        "bitwise_equal": bool(bitwise),
    }


def run_loadgen(config: Optional[LoadGenConfig] = None, *,
                store_dir: "str | None" = None,
                smoke: Optional[bool] = None) -> Dict:
    """Run the full harness; returns the ``BENCH_serve.json`` payload.

    ``store_dir=None`` uses a throwaway temporary directory (the normal
    benchmarking mode: the cold phase must actually be cold).  ``smoke``
    defaults to the ``REPRO_BENCH_SMOKE`` environment toggle.
    """
    config = config or LoadGenConfig()
    if smoke if smoke is not None else smoke_mode():
        config = config.smoke()
    if store_dir is not None:
        return asyncio.run(_run(config, store_dir))
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        return asyncio.run(_run(config, tmp))


def format_report(report: Dict) -> str:
    """Human-readable phase table of a :func:`run_loadgen` report."""
    baseline = report["sequential_baseline"]
    cold, warm, replay = report["cold"], report["warm"], report["replay"]
    lines = [
        "phase       queries      qps    p50 ms    p99 ms   notes",
        f"baseline  {baseline['samples']:>9} {baseline['qps']:>8.1f} "
        f"{baseline['mean_ms']:>9.3f} {'-':>9}   sequential "
        f"solve_fixed_point",
        f"cold      {cold['queries']:>9} {cold['qps']:>8.1f} "
        f"{cold['p50_ms']:>9.3f} {cold['p99_ms']:>9.3f}   "
        f"{cold['speedup_vs_sequential']:.1f}x vs sequential, mean "
        f"batch {cold['service']['mean_batch_size']:.1f}, "
        f"{cold['unconverged']} unconverged",
        f"warm      {warm['queries']:>9} {warm['qps']:>8.1f} "
        f"{warm['p50_ms']:>9.3f} {warm['p99_ms']:>9.3f}   "
        f"p50 {warm['p50_improvement']:.1f}x better, hit rate "
        f"{warm['hit_rate']:.3f}",
        f"replay    {replay['queries']:>9} {replay['qps']:>8.1f} "
        f"{replay['p50_ms']:>9.3f} {replay['p99_ms']:>9.3f}   "
        f"hit rate {replay['hit_rate']:.3f}, "
        f"{replay['speedup_vs_sequential']:.1f}x vs sequential, "
        f"{replay['unconverged']} unconverged",
        f"bitwise_equal: {report['bitwise_equal']}",
    ]
    return "\n".join(lines)


def write_report(report: Dict, output_path: str) -> None:
    """Write ``BENCH_serve.json``."""
    with open(output_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
