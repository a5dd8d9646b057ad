"""``serve_replay``: pre-solved queries replayed over loopback TCP.

The request stream is 25% from a 32-query hot set and 75% uniform over a
256-query pool.  Every query is solved into the store during set-up, so
the hit rate is 1.0 and ``solved == 0``.  Requests are pre-encoded JSON
lines sent closed-loop over 2 loopback connections to ``run_server`` in
the same event loop; the store is reopened with ``memory_entries=128``,
so about half of the hits come off disk.

Why: the solver is bypassed, so ``serve`` framing, admission, hashing
and both store tiers are all of it — the read side of the store that
``serve_cold`` writes.

A block is 400 requests (one unit, ~60 ms): short enough that a quarter
of the blocks see a quiet machine even when the host is busy.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import time
from typing import Dict, List

from e2e_core import (QUIET_Q, Block, BlockLoop, Tracer, UnitClock,
                      exact_counts, quantile, quiet_sum, time_calls)
from e2e_queries import make_queries, to_wire

NAME = "serve_replay"
HOT_SET = 32
POOL = 256
HOT_FRACTION = 0.25
MEMORY_ENTRIES = 128
CONNECTIONS = 2


class State:
    def __init__(self, seed: int, smoke: bool, scratch) -> None:
        self.seed = seed
        self.requests_per_block = 100 if smoke else 400
        self.hot = HOT_SET // 4 if smoke else HOT_SET
        self.pool = POOL // 4 if smoke else POOL
        self.memory_entries = MEMORY_ENTRIES // 4 if smoke \
            else MEMORY_ENTRIES
        self.store_dir = scratch / "store"
        self.queries: List = []
        self.request_lines: List[bytes] = []
        self.expected_lines: List[bytes] = []
        self.stream = random.Random(f"{seed}/replay")
        self.solved_at_end = self.store_misses = None

    def next_requests(self) -> List[int]:
        """Query indices of the next block (hot set first in the list)."""
        out = []
        for _ in range(self.requests_per_block):
            if self.stream.random() < HOT_FRACTION:
                out.append(self.stream.randrange(self.hot))
            else:
                out.append(self.hot + self.stream.randrange(self.pool))
        return out


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class _Server:
    """``run_server`` on a fresh service over the warmed store, plus the
    client connections, all in the running event loop."""

    def __init__(self, state: State) -> None:
        self.state = state

    async def __aenter__(self) -> "_Server":
        from repro.serve.service import AllocationService, run_server
        from repro.serve.store import ResultStore

        self.store = ResultStore(self.state.store_dir,
                                 memory_entries=self.state.memory_entries)
        self.service = AllocationService(self.store)
        port = _free_port()
        ready = asyncio.Event()
        self.task = asyncio.ensure_future(run_server(
            "127.0.0.1", port, service=self.service, ready=ready))
        await ready.wait()
        self.connections = [await asyncio.open_connection("127.0.0.1", port)
                            for _ in range(CONNECTIONS)]
        return self

    async def __aexit__(self, *exc_info) -> None:
        for _reader, writer in self.connections:
            writer.close()
            await writer.wait_closed()
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass
        self.service.close()


async def run_block(state: State, server: _Server, index: int,
                    tracer: Tracer) -> Block:
    requests = state.next_requests()
    lines = state.request_lines
    responses: List = [None] * len(requests)
    latency_ms = [0.0] * len(requests)
    before = (server.store.stats.memory_hits, server.store.stats.disk_hits)

    async def client(lane: int, block_id) -> None:
        reader, writer = server.connections[lane]
        for position in range(lane, len(requests), CONNECTIONS):
            with tracer.span("serve.request", block_id, op=position):
                start = time.perf_counter()
                writer.write(lines[requests[position]])
                await writer.drain()
                responses[position] = await reader.readline()
                latency_ms[position] = (time.perf_counter() - start) * 1e3

    clock = UnitClock()
    with tracer.span("bench.block", op=index) as block_id:
        await asyncio.gather(*(client(lane, block_id)
                               for lane in range(CONNECTIONS)))
    clock.lap()
    stats = server.store.stats
    # Output check, after the clock stopped: every response line must
    # equal json.dumps of the stored value.
    expected = state.expected_lines
    wrong = sum(1 for position, query in enumerate(requests)
                if responses[position] != expected[query])
    return Block(
        work=len(requests), wall=clock.wall, cpu=clock.cpu,
        latency_ms=latency_ms, span=block_id,
        counts={"serve.memory_hits": stats.memory_hits - before[0],
                "serve.disk_hits": stats.disk_hits - before[1]},
        outputs={"requests": requests if index == 0 else None,
                 "wrong": wrong})


async def _prepare(state: State) -> None:
    from repro.serve.service import AllocationService
    from repro.serve.store import ResultStore

    state.queries = (make_queries(state.seed, "hot", 0, state.hot)
                     + make_queries(state.seed, "pool", 0, state.pool))
    store = ResultStore(state.store_dir)
    service = AllocationService(store)
    values = await asyncio.gather(*(service.query(q)
                                    for q in state.queries))
    await service.drain()
    service.close()
    state.request_lines = [(json.dumps(to_wire(q)) + "\n").encode()
                           for q in state.queries]
    state.expected_lines = [
        (json.dumps({"ok": True, "result": value}) + "\n").encode()
        for value in values]
    async with _Server(state) as server:      # one full untimed block
        await run_block(state, server, 0, Tracer(NAME))


def setup(seed: int, smoke: bool, scratch) -> State:
    state = State(seed, smoke, scratch)
    asyncio.run(_prepare(state))
    return state


async def _measure(state: State, loop: BlockLoop, tracer: Tracer):
    blocks = []
    async with _Server(state) as server:
        while loop.more():
            blocks.append(await run_block(state, server, loop.index, tracer))
        state.solved_at_end = server.service.stats()["solved"]
        state.store_misses = server.store.stats.misses
    return blocks


def measure(state: State, loop: BlockLoop, tracer: Tracer):
    return asyncio.run(_measure(state, loop, tracer))


def check(state: State, blocks) -> Dict[str, int]:
    """Every response line must equal ``json.dumps`` of the stored value
    (compared per block, after its clock stopped), and the service must
    not have solved or missed anything."""
    failed = (sum(block.outputs["wrong"] for block in blocks)
              + state.solved_at_end + state.store_misses)
    return {"attempted": int(sum(block.work for block in blocks)),
            "failed": failed}


# -- per-layer numbers (traced run only) --------------------------------------
async def _inproc_hit_seconds(state: State, requests: List[int]) -> float:
    from repro.serve.service import AllocationService
    from repro.serve.store import ResultStore

    service = AllocationService(ResultStore(
        state.store_dir, memory_entries=state.memory_entries))
    queries = [state.queries[i] for i in requests]
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for query in queries:
            await service.query(query)
        samples.append((time.perf_counter() - start) / len(queries))
    service.close()
    return quantile(samples, QUIET_Q)


def layers(state: State, blocks, tracer: Tracer) -> Dict[str, float]:
    from repro.serve.service import AllocationQuery
    from repro.serve.store import ResultStore

    counts = exact_counts(blocks)
    query = state.queries[0]
    payload = json.loads(state.request_lines[0])
    response = json.loads(state.expected_lines[0])
    key = query.content_hash()
    memory = ResultStore(state.store_dir)
    memory.get(key)
    disk = ResultStore(state.store_dir, memory_entries=0)
    requests = blocks[0].outputs["requests"]
    inproc = asyncio.run(_inproc_hit_seconds(state, requests))
    quiet_block = quiet_sum([b.wall for b in blocks if not b.traced])
    return {
        "serve.admit_hash_us": time_calls(
            lambda: (query.user_rules(), query.content_hash()), 500) * 1e6,
        "serve.from_dict_us": time_calls(
            lambda: AllocationQuery.from_dict(payload), 500) * 1e6,
        "serve.encode_us": time_calls(
            lambda: json.dumps(response), 500) * 1e6,
        "serve.store_get_mem_us": time_calls(
            lambda: memory.get(key), 2000) * 1e6,
        "serve.store_get_disk_us": time_calls(
            lambda: disk.get(key), 500) * 1e6,
        "serve.inproc_hit_us": inproc * 1e6,
        "serve.framing_share": 1.0 - inproc * len(requests) / quiet_block,
        "serve.memory_hits": counts["serve.memory_hits"],
        "serve.disk_hits": counts["serve.disk_hits"],
        "serve.solved": state.solved_at_end,
    }
