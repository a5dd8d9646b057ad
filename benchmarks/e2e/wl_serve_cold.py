"""``serve_cold``: unique queries against a cold result store.

Each block is 128 unique queries (see ``e2e_queries``) issued by 128
asyncio callers through the in-process ``AllocationService.query``; the
service coalesces each wave into one ``solve_fixed_point_batch`` call.
Work is queries; a query's latency is its wave's batch time.

Why: ``fluid.equilibrium`` is ~all of it and store hits are zero.

~4% of the responses carry ``converged: false``.  They are *served*,
not failed operations, so they are reported as ``fluid.unconverged`` (an
exact count) and ``fluid.unconverged_share`` rather than in ``failed``;
ROADMAP item 3 drives both to 0.
"""

from __future__ import annotations

import asyncio
import random
import time
from concurrent.futures import Executor, ThreadPoolExecutor
from typing import Dict, List

from e2e_core import (MIN_BLOCKS, QUIET_Q, Block, BlockLoop, Tracer,
                      UnitClock, exact_counts, median, quantile, quiet_sum,
                      time_calls)
from e2e_queries import make_queries

NAME = "serve_cold"
CALLERS = 128
CHECKED_PER_RUN = 8
SEQUENTIAL_SAMPLES = 64


class TimedExecutor(Executor):
    """The service's default 2-thread pool, with a stopwatch on each
    submitted call — passed through the public ``executor=`` argument,
    in traced and untraced runs alike."""

    def __init__(self) -> None:
        self.pool = ThreadPoolExecutor(max_workers=2)
        self.waits: List[float] = []
        self.busy: List[float] = []

    def submit(self, fn, *args, **kwargs):
        submitted = time.perf_counter()

        def timed():
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.waits.append(started - submitted)
                self.busy.append(time.perf_counter() - started)

        return self.pool.submit(timed)

    def shutdown(self, wait: bool = True, **kwargs) -> None:
        self.pool.shutdown(wait=wait)


class State:
    def __init__(self, seed: int, smoke: bool, scratch) -> None:
        self.seed = seed
        self.callers = 16 if smoke else CALLERS
        self.sequential_samples = 8 if smoke else SEQUENTIAL_SAMPLES
        self.batch_repeats = 1 if smoke else 3
        self.scratch = scratch
        self.executor: TimedExecutor = None


async def run_block(state: State, service, stream: str, index: int,
                    tracer: Tracer) -> Block:
    queries = make_queries(state.seed, stream, index * state.callers,
                           state.callers)
    results: List = [None] * len(queries)
    latency_ms = [0.0] * len(queries)
    batches_before = service.stats()["batches"]

    async def caller(position: int, block_id) -> None:
        with tracer.span("serve.query", block_id, op=position):
            start = time.perf_counter()
            try:
                results[position] = await service.query(queries[position])
            except Exception as exc:   # counted as a failed operation
                results[position] = exc
            latency_ms[position] = (time.perf_counter() - start) * 1e3

    clock = UnitClock()
    with tracer.span("bench.block", op=index) as block_id:
        await asyncio.gather(*(caller(position, block_id)
                               for position in range(len(queries))))
        await service.drain()
    clock.lap()
    served = [r for r in results if not isinstance(r, Exception)]
    rng = random.Random(f"{state.seed}/check/{index}")
    sampled = rng.sample(range(len(queries)), 2)
    return Block(
        work=len(queries), wall=clock.wall, cpu=clock.cpu,
        latency_ms=latency_ms, span=block_id,
        counts={
            "fluid.iterations_total": sum(r["iterations"] for r in served),
            "fluid.unconverged": sum(1 for r in served
                                     if not r["converged"]),
            "serve.batches": service.stats()["batches"] - batches_before,
            "serve.solved": len(served),
        },
        outputs={
            "errors": len(results) - len(served),
            "iterations": [r["iterations"] for r in served],
            "sampled": [(queries[i], results[i]) for i in sampled],
            "queries": queries if index == 0 else None,
        })


def _service(state: State, name: str):
    from repro.serve.service import AllocationService
    from repro.serve.store import ResultStore

    state.executor = TimedExecutor()
    return AllocationService(ResultStore(state.scratch / name),
                             executor=state.executor)


async def _warm(state: State) -> None:
    service = _service(state, "warm-store")      # one full untimed block
    await run_block(state, service, "warm", 0, Tracer(NAME))
    state.executor.shutdown()


def setup(seed: int, smoke: bool, scratch) -> State:
    state = State(seed, smoke, scratch)
    asyncio.run(_warm(state))
    return state


async def _measure(state: State, loop: BlockLoop, tracer: Tracer):
    service = _service(state, "store")
    blocks = []
    while loop.more():
        blocks.append(await run_block(state, service, "cold", loop.index,
                                      tracer))
    state.executor.shutdown()
    state.store_hits = service.stats()["store_hits"]
    return blocks


def measure(state: State, loop: BlockLoop, tracer: Tracer):
    return asyncio.run(_measure(state, loop, tracer))


def check(state: State, blocks) -> Dict[str, int]:
    """A response that raised fails; 8 sampled responses must equal the
    sequential ``solve_query`` bitwise; a cold store must never hit."""
    from repro.serve.service import solve_query

    failed = sum(block.outputs["errors"] for block in blocks)
    samples = [pair for block in blocks for pair in block.outputs["sampled"]]
    rng = random.Random(f"{state.seed}/check")
    for query, served in rng.sample(samples,
                                    min(CHECKED_PER_RUN, len(samples))):
        if isinstance(served, Exception) or served != solve_query(query):
            failed += 1
    failed += state.store_hits
    return {"attempted": int(sum(block.work for block in blocks)),
            "failed": failed}


# -- per-layer numbers (traced run only) --------------------------------------
def _batch_solve_seconds(queries) -> float:
    """One bare ``solve_fixed_point_batch`` over ``queries``, built the
    way the service builds it (public pieces only)."""
    from repro.fluid.equilibrium import (PerPointRuleSet,
                                         solve_fixed_point_batch)

    rules_per_query = [query.user_rules() for query in queries]
    first = queries[0]
    start = time.perf_counter()
    networks = [query.to_network() for query in queries]
    rules = {user: PerPointRuleSet([rules[user]
                                    for rules in rules_per_query])
             for user in range(len(first.users))}
    solve_fixed_point_batch(
        networks, rules, floor_packets=first.floor_packets,
        damping=first.damping, tol=first.tol, max_iter=first.max_iter)
    return time.perf_counter() - start


def layers(state: State, blocks, tracer: Tracer) -> Dict[str, float]:
    from repro.serve.service import solve_query
    from repro.serve.store import ResultStore

    counts = exact_counts(blocks)
    iterations = [n for block in blocks[:MIN_BLOCKS]
                  for n in block.outputs["iterations"]]
    queries = blocks[0].outputs["queries"]

    sequential, sequential_iterations = [], 0
    for query in queries[:state.sequential_samples]:
        start = time.perf_counter()
        result = solve_query(query)
        sequential.append(time.perf_counter() - start)
        sequential_iterations += result["iterations"]
    batch = quantile([_batch_solve_seconds(queries)
                      for _ in range(state.batch_repeats)], QUIET_Q)
    mean_sequential = sum(sequential) / len(sequential)

    store = ResultStore(state.scratch / "put-store")
    value = blocks[0].outputs["sampled"][0][1]
    quiet_block = quiet_sum([b.wall for b in blocks if not b.traced])
    total_wall = sum(block.seconds for block in blocks)
    return {
        "fluid.seq_solve_ms_p50": median(sequential) * 1e3,
        "fluid.iterations_total": counts["fluid.iterations_total"],
        "fluid.iterations_p50": median(iterations),
        "fluid.iterations_max": max(iterations),
        "fluid.unconverged": counts["fluid.unconverged"],
        "fluid.unconverged_share": (counts["fluid.unconverged"]
                                    / counts["serve.solved"]),
        "fluid.us_per_iteration": (sum(sequential) / sequential_iterations
                                   * 1e6),
        "fluid.batch_solve_ms_p50": batch * 1e3,
        "fluid.batch_speedup": len(queries) * mean_sequential / batch,
        "fluid.straggler_ratio": median(
            [max(block.outputs["iterations"])
             / median(block.outputs["iterations"]) for block in blocks]),
        "serve.store_put_us": time_calls(
            lambda: store.put("0" * 64, value), 200) * 1e6,
        "serve.mean_batch_size": counts["serve.solved"]
        / counts["serve.batches"],
        "serve.batches": counts["serve.batches"],
        "serve.solved": counts["serve.solved"],
        "serve.executor_wait_ms_p50": median(state.executor.waits) * 1e3,
        "serve.solve_busy_share": sum(state.executor.busy) / total_wall,
        "serve.overhead_share_cold": 1.0 - batch / quiet_block,
    }
