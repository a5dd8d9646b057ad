"""``sweep_fabric``: a family x scheduler x algorithm grid via ``repro.dist``.

Each block is a fresh cache dir and a fresh
``SweepCoordinator(resume=False)`` on a ``CoordinatorThread``, with one
in-process ``SweepWorker(jobs=1).run()`` over all 80 family x packet-
scheduler x algorithm cells of ``repro.dist.bench`` at two seeds (160
points, each ~10 ms and ~2.7k events), then ``merge_results``.  Work is
points; the operations whose latency is reported are the 20 leases of a
block (8 points each), timed between the worker's progress callbacks.

Why: it uses ``sim`` differently from ``des_bulk`` — 2-flow finite
transfers through the packet-scheduler gate and ``TimeVaryingLink``s, so
per-``Simulator`` fixed costs that vanish in ``des_bulk`` dominate — and
it is the only workload where ``dist``/``experiments`` run.  They are a
few percent of the wall clock, and the layer metrics must keep it so.
"""

from __future__ import annotations

import pickle
import random
import shutil
import time
from dataclasses import replace
from typing import Dict, List

from e2e_core import (QUIET_Q, Block, BlockLoop, Tracer, durations,
                      exact_counts, median, quantile, quiet_sum, time_calls)

NAME = "sweep_fabric"
SEEDS_PER_BLOCK = 2
CHECKED_PER_BLOCK = 4
COMPARE_REPEATS = 5


class State:
    def __init__(self, seed: int, smoke: bool, scratch) -> None:
        from repro.dist.bench import (DIST_ALGORITHMS, DIST_FAMILIES,
                                      DIST_SCHEDULERS, SMOKE_ALGORITHMS,
                                      SMOKE_FAMILIES, SMOKE_SCHEDULERS)
        self.seed = seed
        self.scratch = scratch
        self.seeds_per_block = 1 if smoke else SEEDS_PER_BLOCK
        self.axes = ((SMOKE_FAMILIES, SMOKE_SCHEDULERS, SMOKE_ALGORITHMS)
                     if smoke else
                     (DIST_FAMILIES, DIST_SCHEDULERS, DIST_ALGORITHMS))

    def grid(self, index: int, seeds: int = None) -> List:
        """Block ``index``'s points, cell-major, its own seeds minor."""
        from repro.dist.bench import run_dist_point
        from repro.experiments.runner import RunSpec

        seeds = self.seeds_per_block if seeds is None else seeds
        first = self.seed + index * self.seeds_per_block
        families, schedulers, algorithms = self.axes
        return [RunSpec.make(run_dist_point, family=family,
                             scheduler=scheduler, algorithm=algorithm,
                             seed=seed)
                for family in families for scheduler in schedulers
                for algorithm in algorithms
                for seed in range(first, first + seeds)]


def run_block(state: State, index: int, tracer: Tracer,
              specs: List = None) -> Block:
    from repro.dist import CoordinatorThread, SweepCoordinator, SweepWorker
    from repro.dist.bench import merge_results
    from repro.dist.coordinator import DEFAULT_LEASE_SIZE

    specs = state.grid(index) if specs is None else specs
    cache_dir = state.scratch / f"cache-{index}"
    stamps: List[float] = []
    start, cpu_start = time.perf_counter(), time.process_time()
    with tracer.span("bench.block", op=index) as block_id:
        with tracer.span("dist.coordinator_start", block_id):
            coordinator = SweepCoordinator(specs, cache_dir, resume=False)
            thread = CoordinatorThread(coordinator)
            port = thread.start()
        with tracer.span("dist.worker_run", block_id):
            worker = SweepWorker(
                "127.0.0.1", port, jobs=1,
                on_progress=lambda _tick: stamps.append(time.perf_counter()))
            summary = worker.run()
            stats = thread.result()
        run_end = time.perf_counter()
        with tracer.span("dist.merge_results", block_id):
            merged = merge_results(specs, cache_dir)
    end, cpu_end = time.perf_counter(), time.process_time()
    # Units: one per lease (the time since the previous lease's last
    # result; the first one carries the coordinator start), then the
    # shutdown handshake, then the merge.
    lease_ends = stamps[DEFAULT_LEASE_SIZE - 1::DEFAULT_LEASE_SIZE]
    if len(stamps) % DEFAULT_LEASE_SIZE:
        lease_ends.append(stamps[-1])
    edges = [start] + lease_ends + [run_end, end]
    wall = [b - a for a, b in zip(edges, edges[1:])]
    latency_ms = [seconds * 1e3 for seconds in wall[:len(lease_ends)]]
    # CPU time cannot be read at callback granularity without touching
    # the worker; the block's CPU is spread over the units by wall share.
    cpu = [(cpu_end - cpu_start) * seconds / (end - start)
           for seconds in wall]
    shutil.rmtree(cache_dir, ignore_errors=True)
    return Block(
        work=len(specs), wall=wall, cpu=cpu, latency_ms=latency_ms,
        span=block_id,
        counts={
            "dist.leases_granted": stats["leases_granted"],
            "dist.duplicate_results": stats["duplicate_results"],
            "dist.reassigned_points": stats["reassigned_points"],
            "sim.point_events_total": sum(r["events"] for r in merged),
        },
        outputs={
            "index": index, "merged": merged,
            "complete": (stats["completed"] == stats["total"] == len(specs)
                         and summary.computed == len(specs)
                         and summary.reason == "done"),
        })


def setup(seed: int, smoke: bool, scratch) -> State:
    state = State(seed, smoke, scratch)
    run_block(state, 0, Tracer(NAME))            # one full untimed block
    return state


def measure(state: State, loop: BlockLoop, tracer: Tracer):
    blocks = []
    while loop.more():
        blocks.append(run_block(state, loop.work_index, tracer))
    return blocks


def check(state: State, blocks) -> Dict[str, int]:
    """Every point completed exactly once (no duplicate, no reassigned),
    and sampled merged results are bitwise-equal to direct execution."""
    failed = 0
    for block in blocks:
        specs = state.grid(block.outputs["index"])
        if not block.outputs["complete"] \
                or block.counts["dist.duplicate_results"] \
                or block.counts["dist.reassigned_points"]:
            failed += len(specs)
            continue
        rng = random.Random(f"{state.seed}/check/{block.outputs['index']}")
        for position in rng.sample(range(len(specs)), CHECKED_PER_BLOCK):
            direct = pickle.dumps(specs[position].execute())
            if pickle.dumps(block.outputs["merged"][position]) != direct:
                failed += 1
    return {"attempted": int(sum(block.work for block in blocks)),
            "failed": failed}


# -- per-layer numbers (traced run only) --------------------------------------
def _family_build_seconds(state: State) -> List[float]:
    """``build_random_scenario`` the way a sweep point builds it."""
    from repro.dist.bench import DIST_MAX_FLOWS
    from repro.sim.engine import Simulator
    from repro.topology.generator import build_random_scenario, family_config

    samples = []
    for family in state.axes[0]:
        config = replace(family_config(family).scaled(DIST_MAX_FLOWS),
                         scheduler_mix=(("minrtt", 1.0),),
                         algorithm_mix=(("olia", 1.0),))
        for seed in range(5):
            sim = Simulator("auto")
            start = time.perf_counter()
            build_random_scenario(sim, random.Random(seed), config)
            samples.append(time.perf_counter() - start)
    return samples


def _protocol_round_trips(state: State, specs, results):
    """Lease and result round-trip seconds, acting as a worker by hand."""
    from repro.dist import (PROTOCOL_VERSION, CoordinatorThread,
                            JsonLineConnection, SweepCoordinator,
                            encode_payload)

    cache_dir = state.scratch / "cache-rtt"
    thread = CoordinatorThread(
        SweepCoordinator(specs, cache_dir, resume=False))
    port = thread.start()
    lease_rtt, result_rtt = [], []
    with JsonLineConnection("127.0.0.1", port) as conn:
        hello = conn.request("register", name="e2e", jobs=1,
                             protocol=PROTOCOL_VERSION)
        worker_id = hello["worker_id"]
        done = False
        while not done:
            start = time.perf_counter()
            lease = conn.request("lease", worker_id=worker_id,
                                 max_points=hello["lease_size"])
            lease_rtt.append(time.perf_counter() - start)
            if lease.get("done") or not lease.get("points"):
                break
            for point in lease["points"]:
                payload = encode_payload(results[point["index"]])
                start = time.perf_counter()
                ack = conn.request("result", worker_id=worker_id,
                                   index=point["index"], hash=point["hash"],
                                   payload=payload, from_cache=False)
                result_rtt.append(time.perf_counter() - start)
                done = done or bool(ack.get("done"))
    thread.result()
    return lease_rtt, result_rtt, cache_dir


def _lease_groups(per_point: List[float]) -> List[float]:
    """Per-point seconds summed in lease-sized groups."""
    from repro.dist.coordinator import DEFAULT_LEASE_SIZE

    return [sum(per_point[i:i + DEFAULT_LEASE_SIZE])
            for i in range(0, len(per_point), DEFAULT_LEASE_SIZE)]


def layers(state: State, blocks, tracer: Tracer) -> Dict[str, float]:
    from repro.dist import SweepCoordinator, decode_payload, encode_payload
    from repro.experiments.sweep import SweepRunner

    counts = exact_counts(blocks)
    # One 80-point grid through the fabric, through SweepRunner(jobs=1)
    # and directly, interleaved COMPARE_REPEATS times.  All three are
    # timed in lease-sized groups of points and compared by quiet time,
    # so the few-percent overheads survive a busy host.
    specs = state.grid(0, seeds=1)
    fabric, runner, direct, results = [], [], [], None
    quiet = Tracer(NAME)
    for repeat in range(COMPARE_REPEATS):
        fabric.append(run_block(state, 1000 + repeat, quiet, specs).wall)
        stamps = [time.perf_counter()]
        SweepRunner(jobs=1).run(
            specs, progress=lambda _tick: stamps.append(time.perf_counter()))
        runner.append(_lease_groups(
            [b - a for a, b in zip(stamps, stamps[1:])]))
        per_point, results = [], []
        for spec in specs:
            start = time.perf_counter()
            results.append(spec.execute())
            per_point.append(time.perf_counter() - start)
        direct.append(per_point)
    fabric_s, runner_s = quiet_sum(fabric), quiet_sum(runner)
    direct_s = quiet_sum([_lease_groups(row) for row in direct])
    point_s = [quantile(column, QUIET_Q) for column in zip(*direct)]

    lease_rtt, result_rtt, full_cache = _protocol_round_trips(
        state, specs, results)
    start = time.perf_counter()
    SweepCoordinator(specs, full_cache, resume=True)
    resume_scan = time.perf_counter() - start
    encoded = encode_payload(results[0])
    return {
        "sim.point_run_ms_p50": median(point_s) * 1e3,
        "sim.point_events_per_s": (sum(r["events"] for r in results)
                                   / direct_s),
        "sim.point_events_total": counts["sim.point_events_total"],
        "topology.family_build_us_p50": median(
            _family_build_seconds(state)) * 1e6,
        "dist.lease_rtt_us_p50": median(lease_rtt) * 1e6,
        "dist.result_rtt_us_p50": median(result_rtt) * 1e6,
        "dist.encode_us": time_calls(
            lambda: encode_payload(results[0]), 500) * 1e6,
        "dist.decode_us": time_calls(
            lambda: decode_payload(encoded), 500) * 1e6,
        "dist.overhead_ms_per_point": ((fabric_s - direct_s) / len(specs)
                                       * 1e3),
        "dist.overhead_share": 1.0 - direct_s / fabric_s,
        "dist.leases_granted": counts["dist.leases_granted"],
        "dist.duplicate_results": counts["dist.duplicate_results"],
        "dist.reassigned_points": counts["dist.reassigned_points"],
        "dist.resume_scan_ms": resume_scan * 1e3,
        "dist.merge_ms": median(
            durations(tracer.spans, "dist.merge_results")) * 1e3,
        "experiments.spec_hash_us": time_calls(
            specs[0].content_hash, 500) * 1e6,
        "experiments.runner_points_per_s": len(specs) / runner_s,
        "experiments.runner_overhead_share": 1.0 - direct_s / runner_s,
    }
