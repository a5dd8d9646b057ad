"""``des_bulk``: generated 1000-flow scenarios through the packet DES.

Each block is a fresh ``Simulator("auto")`` + ``generate_preset(sim,
"medium", seed=S+i)`` + ``scenario.start()`` + ``sim.run`` over 0.5 s
warm-up plus 4.5 s simulated — what ``repro scale`` does, through public
calls only.  A fresh simulator per block because one long simulation
drifts (+8 MB RSS and -7% events/s over 20 simulated seconds).

Why: the per-packet path ``sim.tcp``/``sim.link``/``core`` is ~all of
the profile here; ``fluid``, ``serve`` and ``dist`` do nothing.

Work per block is ``n_flows x 5.0`` simulated flow-seconds, which stays
invariant if a later change fuses link events (events/s would not).
The measured window is cut into 0.1 s simulated slices — the units of
the quiet-quartile estimator and the operations whose latency is
reported (``sim.run(until=...)`` in slices is event-for-event identical
to one call; the output check relies on that).
"""

from __future__ import annotations

import time
from typing import Dict

from e2e_core import (MIN_BLOCKS, Block, BlockLoop, Tracer, UnitClock,
                      durations, exact_counts, median, quantile, time_calls)

NAME = "des_bulk"
WARMUP = 0.5
SLICE = 0.1
CONTROLLERS = ("lia", "olia", "balia", "ewtcp", "tcp")


class State:
    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.preset = "tiny" if smoke else "medium"
        self.slices = 20 if smoke else 45
        self.warm: Block = None


def run_block(state: State, index: int, tracer: Tracer) -> Block:
    from repro.sim.engine import Simulator
    from repro.sim.monitors import FlowMeter
    from repro.topology.generator import generate_preset

    clock = UnitClock()
    with tracer.span("bench.block", op=index) as block_id:
        sim = Simulator("auto")
        with tracer.span("topology.generate_preset", block_id):
            scenario = generate_preset(sim, state.preset,
                                       seed=state.seed + index)
        with tracer.span("sim.start", block_id):
            scenario.start()
        meter = FlowMeter(sim, scenario.bulk_flows)
        with tracer.span("sim.run", block_id, op="warmup"):
            sim.run(until=WARMUP)
        meter.reset()
        clock.lap()
        peak_pending = sim.pending_events
        latency_ms = []
        for k in range(1, state.slices + 1):
            with tracer.span("sim.run", block_id, op=k):
                sim.run(until=WARMUP + k * SLICE)
            latency_ms.append(clock.lap() * 1e3)
            peak_pending = max(peak_pending, sim.pending_events)

    goodputs = list(meter.goodput_pps().values())
    completed = [t for source in scenario.churn_sources
                 for t in source.completion_times]
    digest = (
        sim.events_processed,
        sum(goodputs) / len(goodputs),
        quantile(goodputs, 0.1), quantile(goodputs, 0.5),
        quantile(goodputs, 0.9),
        len(completed),
        sum(completed) / len(completed) if completed else None,
    )
    return Block(
        work=scenario.n_flows * (WARMUP + state.slices * SLICE),
        wall=clock.wall, cpu=clock.cpu, latency_ms=latency_ms,
        span=block_id,
        counts={
            "sim.events_total": sim.events_processed,
            "sim.packets_delivered": sum(
                flow.acked_packets
                for flow in scenario.bulk_flows.values()),
        },
        outputs={"digest": digest, "peak_pending": peak_pending,
                 "starved": quantile(goodputs, 0.1) <= 0.0})


def setup(seed: int, smoke: bool, scratch) -> State:
    state = State(seed, smoke)
    # One full untimed block, with block 0's seed: it warms the engine
    # (extension import, scheduler calibration) and is the reference
    # the output check compares block 0 against.
    state.warm = run_block(state, 0, Tracer(NAME))
    return state


def measure(state: State, loop: BlockLoop, tracer: Tracer):
    blocks = []
    while loop.more():
        blocks.append(run_block(state, loop.work_index, tracer))
    return blocks


def check(state: State, blocks) -> Dict[str, int]:
    """A block fails when it starves its bulk flows (a tenth of them
    moved nothing in the window; one or two of 900 losing every early
    packet is the model, not a failure).  Block 0 must reproduce the
    warm-up block's digest exactly (same seed, fresh simulator)."""
    failed = sum(1 for block in blocks if block.outputs["starved"])
    if blocks[0].outputs["digest"] != state.warm.outputs["digest"]:
        failed += 1
    return {"attempted": len(blocks), "failed": failed}


# -- per-layer numbers (traced run only) --------------------------------------
def _bare_dispatch_rate(population: int, events: int = 200_000) -> float:
    """Events/s of a no-op chain holding ``population`` pending events,
    through the public ``Simulator.schedule``/``run``."""
    from repro.sim.engine import Simulator

    def once() -> float:
        sim = Simulator("auto")

        def tick(delay: float) -> None:
            sim.schedule(delay, tick, delay)

        for i in range(population):
            delay = 0.001 + (i % 97) * 1e-5
            sim.schedule(delay, tick, delay)
        start = time.perf_counter()
        sim.run(until=0.0015 * events / population)
        return sim.events_processed / (time.perf_counter() - start)

    return max(once() for _ in range(3))


def _controller_costs() -> Dict[str, float]:
    """``increase_on_ack``/``decrease_on_loss`` on a fixed 2-subflow
    state, averaged over the five packet controllers."""
    from repro.core import SubflowState, make_controller

    increase = decrease = 0.0
    for name in CONTROLLERS:
        controller = make_controller(name)
        states = [SubflowState(cwnd=20.0, rtt=0.05),
                  SubflowState(cwnd=12.0, rtt=0.12)]
        for key, sub in enumerate(states):
            controller.register_subflow(key, sub)

        def ack() -> None:
            controller.increase_on_ack(0)
            controller.increase_on_ack(1)
            states[0].cwnd, states[1].cwnd = 20.0, 12.0

        def loss() -> None:
            controller.decrease_on_loss(0)
            controller.decrease_on_loss(1)
            states[0].cwnd, states[1].cwnd = 20.0, 12.0

        increase += time_calls(ack, 2000) / 2
        decrease += time_calls(loss, 2000) / 2
    return {"core.increase_us_per_call": increase / len(CONTROLLERS) * 1e6,
            "core.decrease_us_per_call": decrease / len(CONTROLLERS) * 1e6}


def layers(state: State, blocks, tracer: Tracer) -> Dict[str, float]:
    counts = exact_counts(blocks)
    peak_pending = max(block.outputs["peak_pending"]
                       for block in blocks[:MIN_BLOCKS])
    # Each traced block's own event count over its own sim.run spans
    # (warm-up included: events are counted from t=0).
    run_seconds = [sum(durations(tracer.spans, "sim.run", block.span))
                   for block in blocks if block.traced]
    rates = [block.counts["sim.events_total"] / seconds
             for block, seconds in zip(
                 (b for b in blocks if b.traced), run_seconds)]
    events_per_s = quantile(rates, 0.75)     # the quiet (fast) quartile
    bare = _bare_dispatch_rate(peak_pending)
    out = {
        "sim.events_total": counts["sim.events_total"],
        "sim.packets_delivered": counts["sim.packets_delivered"],
        "sim.peak_pending": peak_pending,
        "sim.events_per_s": events_per_s,
        "sim.us_per_event": 1e6 / events_per_s,
        "sim.events_per_packet": (counts["sim.events_total"]
                                  / counts["sim.packets_delivered"]),
        "sim.run_s_p50": median(run_seconds),
        "sim.bare_dispatch_events_per_s": bare,
        "sim.dispatch_share": events_per_s / bare,
        "topology.preset_build_ms_p50": median(
            durations(tracer.spans, "topology.generate_preset")) * 1e3,
    }
    out.update(_controller_costs())
    return out
