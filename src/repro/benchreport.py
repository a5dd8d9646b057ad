"""Performance tracking: the ``BENCH_sweep.json`` report.

Measures the hot paths this repo optimises and writes a small JSON
report so the performance trajectory is tracked commit over commit:

* **fluid sweep throughput** — a 64-point parameter sweep integrated
  point-by-point (``loop`` backend) vs. stacked into one
  :class:`~repro.fluid.BatchFluidIntegrator` run (``batch`` backend),
  reported as sweep points per second.  The two backends must agree
  bitwise; the report records that check.
* **equilibrium sweep throughput** — the same sweep solved to its fixed
  point, point-by-point :func:`~repro.fluid.solve_fixed_point` vs. one
  :func:`~repro.fluid.solve_fixed_point_batch` call; same bitwise
  contract, same report shape.
* **BALIA rows** (``fluid_sweep_balia``, ``equilibrium_sweep_balia``) —
  both sweeps rerun with the registry's BALIA spec as the multipath
  algorithm, so every algorithm the cross-layer registry ships is held
  to the same bitwise/speedup gate (``benchmarks/check_bench.py``
  validates them like the paper's algorithms).
* **engine event throughput** — events per second of the DES event loop,
  measured for the current engine ("after") and for a frozen copy of the
  seed engine ("before", inlined below) so the effect of the free-list +
  pre-bound-tuple optimisation stays visible.  Three workloads:

  - ``engine`` — a bare self-rescheduling event chain with an empty
    pending set (the seed microbench, kept for trajectory continuity);
  - ``engine_loaded`` — the same chain with tens of thousands of
    far-future timers pending, the realistic regime of a large DES
    sweep: the binary heap pays ``O(log n)`` per operation against that
    population;
  - ``timer_churn`` — RTO-style deadline rearming: N concurrent timers
    each pushed out on every driver tick.  "Before" is the naive
    cancel-and-reschedule idiom on the seed engine — the cost any
    client pays unless it hand-rolls the deadline-move trick (as the
    seed's ``tcp.py`` did, locally, for its one timer); "after" is
    ``Timer.arm_at``, which builds that trick into the engine so every
    timer gets it (a monotone rearm is two attribute writes).  The
    speedup therefore measures what the Timer API saves a straight-
    forward client, not a regression the seed's TCP actually suffered.

  The "after" engine in all three is the *default* ``Simulator()``,
  so these sections track what a plain client gets.

* **compiled engine core** (``engine_compiled``) — the loaded chain on
  the C ``EngineCore`` vs the pure-python loop.

Run via ``python -m repro bench`` (or ``benchmarks/bench_report.py``).
``REPRO_BENCH_SMOKE=1`` caps the workload sizes so CI smoke runs stay
fast; the capped numbers are labelled as such in the report.
"""

from __future__ import annotations

import heapq
import json
import os
import platform
import time
from typing import Dict, List

import numpy as np

from .fluid import (
    FluidNetwork,
    PowerLoss,
    SharpLoss,
    integrate,
    integrate_batch,
    solve_fixed_point,
    solve_fixed_point_batch,
)
from .sim.engine import COMPILED_AVAILABLE, Simulator


def smoke_mode() -> bool:
    """True when ``REPRO_BENCH_SMOKE=1`` caps the benchmark sizes."""
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


# -- fluid sweep -----------------------------------------------------------------

def sweep_networks(n_points: int, seed: int = 0) -> List[FluidNetwork]:
    """K scenario-style networks with randomised capacities and RTTs.

    One multipath user (two APs) competing with three TCP users on the
    second AP — the shape of most figure sweeps — with per-point
    capacities and RTTs drawn from a seeded generator.
    """
    rng = np.random.default_rng(seed)
    networks = []
    for _ in range(n_points):
        c1 = float(rng.uniform(100.0, 800.0))
        c2 = float(rng.uniform(100.0, 800.0))
        rtt1 = float(rng.uniform(0.02, 0.3))
        rtt2 = float(rng.uniform(0.02, 0.3))
        net = FluidNetwork()
        ap1 = net.add_link(SharpLoss(capacity=c1), name="AP1")
        ap2 = net.add_link(PowerLoss(capacity=c2, p_at_capacity=0.02),
                           name="AP2")
        mp = net.add_user("mp")
        net.add_route(mp, [ap1], rtt=rtt1)
        net.add_route(mp, [ap2], rtt=rtt2)
        for i in range(3):
            user = net.add_user(f"tcp{i}")
            net.add_route(user, [ap2], rtt=rtt2)
        networks.append(net)
    return networks


def bench_fluid_sweep(*, n_points: int = 64, t_end: float = 5.0,
                      dt: float = 2e-3,
                      algorithm: str = "olia") -> Dict[str, object]:
    """Time a fluid sweep on the loop and batch backends.

    ``algorithm`` is the multipath user's congestion control (any
    fluid-capable registry name); the ``*_balia`` report sections rerun
    this bench with BALIA so the registry's newest algorithm is held to
    the same bitwise/speedup gate as the paper's.
    """
    rules = {0: algorithm, 1: "tcp", 2: "tcp", 3: "tcp"}
    networks = sweep_networks(n_points)

    start = time.perf_counter()
    sequential = [integrate(net, rules, t_end=t_end, dt=dt)
                  for net in networks]
    loop_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batch = integrate_batch(networks, rules, t_end=t_end, dt=dt)
    batch_seconds = time.perf_counter() - start

    bitwise_equal = all(
        np.array_equal(sequential[k].rates, batch.trajectory(k).rates)
        for k in range(n_points))
    return {
        "algorithm": algorithm,
        "n_points": n_points,
        "t_end": t_end,
        "dt": dt,
        "loop_seconds": round(loop_seconds, 4),
        "batch_seconds": round(batch_seconds, 4),
        "loop_points_per_sec": round(n_points / loop_seconds, 2),
        "batch_points_per_sec": round(n_points / batch_seconds, 2),
        "speedup": round(loop_seconds / batch_seconds, 2),
        "bitwise_equal": bitwise_equal,
    }


def bench_equilibrium_sweep(*, n_points: int = 64, tol: float = 1e-8,
                            algorithm: str = "olia") -> Dict[str, object]:
    """Time a fixed-point sweep on the loop and batch solvers."""
    rules = {0: algorithm, 1: "tcp", 2: "tcp", 3: "tcp"}
    networks = sweep_networks(n_points)

    start = time.perf_counter()
    sequential = [solve_fixed_point(net, rules, floor_packets=1.0, tol=tol)
                  for net in networks]
    loop_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batch = solve_fixed_point_batch(networks, rules, floor_packets=1.0,
                                    tol=tol)
    batch_seconds = time.perf_counter() - start

    bitwise_equal = all(
        np.array_equal(sequential[k].rates, batch.rates[k])
        and sequential[k].iterations == int(batch.iterations[k])
        for k in range(n_points))
    return {
        "algorithm": algorithm,
        "n_points": n_points,
        "tol": tol,
        "loop_seconds": round(loop_seconds, 4),
        "batch_seconds": round(batch_seconds, 4),
        "loop_points_per_sec": round(n_points / loop_seconds, 2),
        "batch_points_per_sec": round(n_points / batch_seconds, 2),
        "speedup": round(loop_seconds / batch_seconds, 2),
        "bitwise_equal": bitwise_equal,
    }


# -- engine ---------------------------------------------------------------------

class _SeedEvent:
    """Event of the seed engine (pre free-list), kept for the baseline."""

    __slots__ = ("time", "fn", "args", "cancelled")

    def __init__(self, time, fn, args):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _SeedSimulator:
    """Frozen verbatim copy of the seed DES engine: one Event allocation
    per schedule, heap entries ``(time, seq, event)`` dispatched via
    attribute lookups.  Serves as the "before" in the engine benchmark.
    """

    def __init__(self):
        self._heap = []
        self._now = 0.0
        self._counter = 0
        self._processed = 0

    @property
    def now(self):
        return self._now

    def schedule(self, delay, fn, *args):
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time, fn, *args):
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time} before now ({self._now})")
        event = _SeedEvent(time, fn, args)
        self._counter += 1
        heapq.heappush(self._heap, (time, self._counter, event))
        return event

    def run(self, until):
        heap = self._heap
        while heap and heap[0][0] <= until:
            time_, _, event = heapq.heappop(heap)
            if event.cancelled:
                continue
            self._now = time_
            self._processed += 1
            event.fn(*event.args)
        self._now = until

    def run_until_empty(self, max_events=10_000_000):
        heap = self._heap
        budget = max_events
        while heap and budget > 0:
            time_, _, event = heapq.heappop(heap)
            if event.cancelled:
                continue
            self._now = time_
            self._processed += 1
            budget -= 1
            event.fn(*event.args)


def _noop():
    pass


def _engine_events_per_sec(sim_factory, n_events: int,
                           n_pending: int = 0) -> float:
    sim = sim_factory()
    # Optional background load: far-future timers that never fire inside
    # the measured window (they sit between 1 s and 60 s; the chain ends
    # well before).  The heap pays O(log n_pending) per chain operation
    # against them.
    for i in range(n_pending):
        sim.schedule(1.0 + i * (59.0 / n_pending), _noop)
    counter = [0]

    def tick():
        counter[0] += 1
        if counter[0] < n_events:
            sim.schedule(1e-6, tick)

    sim.schedule(0.0, tick)
    start = time.perf_counter()
    if n_pending:
        sim.run(until=0.99)
    else:
        sim.run_until_empty()
    elapsed = time.perf_counter() - start
    assert counter[0] == n_events
    return n_events / elapsed


def bench_engine(*, n_events: int = 200_000,
                 repeats: int = 3) -> Dict[str, object]:
    """Events/sec of the seed engine ("before") vs the current one."""
    before = max(_engine_events_per_sec(_SeedSimulator, n_events)
                 for _ in range(repeats))
    after = max(_engine_events_per_sec(Simulator, n_events)
                for _ in range(repeats))
    return {
        "n_events": n_events,
        "before_events_per_sec": round(before),
        "after_events_per_sec": round(after),
        "speedup": round(after / before, 3),
    }


def bench_engine_loaded(*, n_events: int = 200_000,
                        n_pending: int = 20_000,
                        repeats: int = 3) -> Dict[str, object]:
    """Events/sec with ``n_pending`` far-future timers parked.

    The regime of every large DES run: thousands of RTO/pacing timers
    pending while the hot ACK-clock churns.  The chain workload is the
    same as :func:`bench_engine`; only the pending population differs.
    """
    before = max(
        _engine_events_per_sec(_SeedSimulator, n_events, n_pending)
        for _ in range(repeats))
    after = max(_engine_events_per_sec(Simulator, n_events, n_pending)
                for _ in range(repeats))
    return {
        "n_events": n_events,
        "n_pending": n_pending,
        "before_events_per_sec": round(before),
        "after_events_per_sec": round(after),
        "speedup": round(after / before, 3),
    }


def bench_engine_compiled(*, n_events: int = 200_000,
                          n_pending: int = 20_000,
                          repeats: int = 3) -> Dict[str, object]:
    """Compiled EngineCore vs the pure-python loop, loaded chain.

    Isolates what the C extension itself buys (``engine`` /
    ``engine_loaded`` track the default engine against the *seed*, so
    they absorb the compiled speedup without attributing it).  Both
    sides run the :func:`bench_engine_loaded` workload; only the
    ``compiled=`` flag differs.  When the extension is not built the
    section records ``available: false`` and the gate in
    ``benchmarks/check_bench.py`` skips it — a pure-python checkout is
    degraded, not broken.
    """
    result: Dict[str, object] = {
        "available": COMPILED_AVAILABLE,
        "n_events": n_events,
        "n_pending": n_pending,
    }
    if not COMPILED_AVAILABLE:
        return result
    pure = max(
        _engine_events_per_sec(lambda: Simulator(compiled=False),
                               n_events, n_pending)
        for _ in range(repeats))
    compiled = max(
        _engine_events_per_sec(lambda: Simulator(compiled=True),
                               n_events, n_pending)
        for _ in range(repeats))
    result.update({
        "pure_events_per_sec": round(pure),
        "compiled_events_per_sec": round(compiled),
        "speedup": round(compiled / pure, 3),
    })
    return result


_CHURN_PERIOD = 1e-3   # driver tick: one "ACK" per ms
_CHURN_RTO = 0.3       # deadline pushed this far out on every tick


def _timer_churn_seed_ops_per_sec(n_timers: int, n_ticks: int) -> float:
    """Seed engine, naive idiom: schedule fresh + lazily cancel old."""
    sim = _SeedSimulator()
    events = [None] * n_timers
    counter = [0]

    def tick():
        now = sim.now
        deadline = now + _CHURN_RTO
        for i in range(n_timers):
            event = events[i]
            if event is not None:
                event.cancel()
            events[i] = sim.schedule_at(deadline, _noop)
        counter[0] += 1
        if counter[0] < n_ticks:
            sim.schedule(_CHURN_PERIOD, tick)

    sim.schedule(0.0, tick)
    start = time.perf_counter()
    sim.run_until_empty()
    elapsed = time.perf_counter() - start
    assert counter[0] == n_ticks
    return n_timers * n_ticks / elapsed


def _timer_churn_timer_ops_per_sec(n_timers: int, n_ticks: int) -> float:
    """Current engine: one rearmable Timer per deadline."""
    sim = Simulator()
    timers = [sim.timer(_noop) for _ in range(n_timers)]
    counter = [0]

    def tick():
        deadline = sim.now + _CHURN_RTO
        for timer in timers:
            timer.arm_at(deadline)
        counter[0] += 1
        if counter[0] < n_ticks:
            sim.schedule(_CHURN_PERIOD, tick)

    sim.schedule(0.0, tick)
    start = time.perf_counter()
    sim.run_until_empty()
    elapsed = time.perf_counter() - start
    assert counter[0] == n_ticks
    return n_timers * n_ticks / elapsed


def bench_timer_churn(*, n_timers: int = 32, n_ticks: int = 2000,
                      repeats: int = 3) -> Dict[str, object]:
    """Rearms/sec of RTO-style deadline churn, naive idiom vs Timer.

    Every driver tick (1 ms, the ACK clock) pushes all ``n_timers``
    deadlines out by 300 ms — the exact shape of TCP's retransmission
    timer under steady ACKs.  "Before" is the naive idiom on the seed
    engine — schedule a fresh event, lazily cancel the old one — which
    leaves ~300 ticks' worth of tombstones per timer in the heap.  The
    seed's own tcp.py dodged that cost by hand-rolling a deadline-move
    dance for its single RTO timer; ``Timer.arm_at`` is that dance
    promoted into the engine (a monotone rearm is two attribute writes,
    the scheduler is only touched when a wakeup expires), so the ratio
    quantifies what the Timer API gives every client for free rather
    than a cost the seed TCP itself paid.
    """
    before = max(_timer_churn_seed_ops_per_sec(n_timers, n_ticks)
                 for _ in range(repeats))
    after = max(_timer_churn_timer_ops_per_sec(n_timers, n_ticks)
                for _ in range(repeats))
    return {
        "n_timers": n_timers,
        "n_ticks": n_ticks,
        "before_rearms_per_sec": round(before),
        "after_rearms_per_sec": round(after),
        "speedup": round(after / before, 3),
    }


# -- report ---------------------------------------------------------------------

def run_bench(output_path: str | None = None, *,
              smoke: bool | None = None) -> Dict[str, object]:
    """Run both benchmarks and write ``BENCH_sweep.json``.

    ``smoke`` (default: the ``REPRO_BENCH_SMOKE`` env var) caps the sweep
    to 8 points and the engine run to 20k events.
    """
    if smoke is None:
        smoke = smoke_mode()
    if smoke:
        fluid = bench_fluid_sweep(n_points=8, t_end=1.0)
        equilibrium = bench_equilibrium_sweep(n_points=8)
        fluid_balia = bench_fluid_sweep(n_points=8, t_end=1.0,
                                        algorithm="balia")
        equilibrium_balia = bench_equilibrium_sweep(n_points=8,
                                                    algorithm="balia")
        engine = bench_engine(n_events=20_000, repeats=1)
        loaded = bench_engine_loaded(n_events=20_000, n_pending=5_000,
                                     repeats=1)
        compiled = bench_engine_compiled(n_events=20_000,
                                         n_pending=5_000, repeats=1)
        churn = bench_timer_churn(n_timers=32, n_ticks=300, repeats=1)
    else:
        fluid = bench_fluid_sweep()
        equilibrium = bench_equilibrium_sweep()
        fluid_balia = bench_fluid_sweep(n_points=32, t_end=2.5,
                                        algorithm="balia")
        equilibrium_balia = bench_equilibrium_sweep(n_points=32,
                                                    algorithm="balia")
        engine = bench_engine()
        loaded = bench_engine_loaded()
        compiled = bench_engine_compiled()
        churn = bench_timer_churn()
    report = {
        "benchmark": "BENCH_sweep",
        "smoke": smoke,
        "python": platform.python_version(),
        "fluid_sweep": fluid,
        "equilibrium_sweep": equilibrium,
        "fluid_sweep_balia": fluid_balia,
        "equilibrium_sweep_balia": equilibrium_balia,
        "engine": engine,
        "engine_loaded": loaded,
        "engine_compiled": compiled,
        "timer_churn": churn,
    }
    if output_path is not None:
        with open(output_path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return report


def format_report(report: Dict[str, object]) -> str:
    """Human-readable summary of :func:`run_bench` output."""
    engine = report["engine"]
    loaded = report["engine_loaded"]
    churn = report["timer_churn"]
    lines = []
    # One block per sweep section — the balia rows (and any future
    # per-algorithm rows) render from the same template.
    for title, key in (("fluid sweep", "fluid_sweep"),
                       ("equilibrium sweep", "equilibrium_sweep"),
                       ("fluid sweep, balia", "fluid_sweep_balia"),
                       ("equilibrium sweep, balia",
                        "equilibrium_sweep_balia")):
        sweep = report[key]
        size = (f"t_end={sweep['t_end']}s" if "t_end" in sweep
                else f"tol={sweep['tol']}")
        lines += [
            f"{title} ({sweep['n_points']} points, {size}):",
            f"  loop backend : {sweep['loop_points_per_sec']:>10}"
            " points/s",
            f"  batch backend: {sweep['batch_points_per_sec']:>10}"
            f" points/s  ({sweep['speedup']}x, "
            f"bitwise_equal={sweep['bitwise_equal']})",
        ]
    lines += [
        f"engine ({engine['n_events']} events, empty pending set):",
        f"  before: {engine['before_events_per_sec']:>10} events/s",
        f"  after : {engine['after_events_per_sec']:>10} events/s"
        f"  ({engine['speedup']}x)",
        f"engine loaded ({loaded['n_events']} events, "
        f"{loaded['n_pending']} pending timers):",
        f"  before: {loaded['before_events_per_sec']:>10} events/s",
        f"  after : {loaded['after_events_per_sec']:>10} events/s"
        f"  ({loaded['speedup']}x)",
    ]
    comp = report.get("engine_compiled")
    if comp is not None:
        if comp.get("available"):
            lines += [
                f"engine compiled ({comp['n_events']} events, "
                f"{comp['n_pending']} pending timers):",
                f"  pure    : {comp['pure_events_per_sec']:>10}"
                " events/s",
                f"  compiled: {comp['compiled_events_per_sec']:>10}"
                f" events/s  ({comp['speedup']}x)",
            ]
        else:
            lines.append("engine compiled: extension not built "
                         "(pure-python fallback)")
    lines += [
        f"timer churn ({churn['n_timers']} timers x "
        f"{churn['n_ticks']} ticks):",
        f"  before: {churn['before_rearms_per_sec']:>10} rearms/s",
        f"  after : {churn['after_rearms_per_sec']:>10} rearms/s"
        f"  ({churn['speedup']}x)",
    ]
    if report.get("smoke"):
        lines.append("  (smoke mode: sizes capped by REPRO_BENCH_SMOKE)")
    return "\n".join(lines)
