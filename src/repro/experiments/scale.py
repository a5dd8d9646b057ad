"""Scale-workload harness: DES throughput on generated scenarios.

The roadmap's scale target — 10k-flow scenarios through the DES engine
— is exercised here.  Each *point* builds a preset of the random
scenario generator (:mod:`repro.topology.generator`) inside one
simulator, runs it, and reports the numbers that matter at scale:
events/sec of the event loop, wall-clock split between scenario build
and run, the peak pending-event population (the size of the event
heap), and the per-flow goodput distribution (scale is useless if the
flows starve).

Points are plain :class:`~repro.experiments.runner.RunSpec` functions
dispatched through :class:`~repro.experiments.sweep.SweepRunner`, so
the whole grid shards, steals, caches and resumes like every other
sweep in this repo.  ``python -m repro scale`` drives
it and writes ``BENCH_scale.json`` (validated in CI by
``benchmarks/check_bench.py --scale``).

Two grids live here:

* **presets** (``--preset``): DES throughput on the wired workloads,
  one record per preset;
* **families × packet schedulers × CC** (``--families``/
  ``--schedulers``/``--algorithms``): finite-transfer completion times
  of the heterogeneous/wireless scenario families
  (:data:`~repro.topology.generator.FAMILY_PRESETS`) under each
  packet-scheduler/algorithm pairing.

``REPRO_BENCH_SMOKE=1`` (or ``--smoke``) caps flow counts and windows
so the PR-tier CI stays fast; the nightly tier runs the real presets.
"""

from __future__ import annotations

import json
import platform
import random
from dataclasses import asdict, dataclass, replace
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from ..benchreport import smoke_mode
from ..core.registry import get_scheduler_spec, get_spec
from ..sim.engine import Simulator
from ..sim.monitors import FlowMeter
from ..topology.generator import (
    PRESETS,
    build_random_scenario,
    family_config,
    generate_preset,
    preset_config,
)
from .results import ResultTable
from .runner import RunSpec
from .sweep import SWEEP_PENDING, SweepRunner

#: Measurement window (simulated seconds) per preset in full mode: big
#: populations need less simulated time for the same statistical load,
#: and keep the nightly tier's wall clock bounded.
DEFAULT_DURATIONS: Dict[str, float] = {
    "tiny": 4.0,
    "small": 3.0,
    "medium": 2.0,
    "large": 0.8,
    "xlarge": 0.5,
}

#: Warmup (simulated seconds) per preset, excluded from goodput stats.
DEFAULT_WARMUPS: Dict[str, float] = {
    "tiny": 1.0,
    "small": 0.75,
    "medium": 0.5,
    "large": 0.3,
    "xlarge": 0.25,
}

#: Best-of-N repeats per preset (max events/sec, the convention of
#: every microbench in benchreport.py): the simulation is seed-
#: deterministic, so repeats only de-noise the wall-clock numbers.
#: The big presets run once — their long windows are stable already.
DEFAULT_REPEATS: Dict[str, int] = {
    "tiny": 3,
    "small": 3,
    "medium": 3,
    "large": 1,
    "xlarge": 1,
}

#: Smoke-mode caps (REPRO_BENCH_SMOKE=1 / --smoke).  Sized so the
#: PR-tier CI run finishes in a few seconds while the measured window
#: is still long enough (~0.4 s wall) for events/sec to be a
#: measurement rather than timer noise.
SMOKE_MAX_FLOWS = 400
SMOKE_DURATION = 1.5
SMOKE_WARMUP = 0.4


@dataclass
class ScaleRun:
    """Outcome of one preset scale point."""

    preset: str
    n_flows: int
    n_links: int
    seed: int
    warmup: float
    duration: float              # simulated measurement window
    build_seconds: float         # scenario construction wall clock
    wall_seconds: float          # run wall clock (warmup + window)
    events: int                  # events dispatched (whole run)
    events_measured: int         # events inside the measurement window
    events_per_sec: float        # steady state: window events / wall
    peak_pending: int            # max pending-event population seen
    final_pending: int
    goodput_mean_pps: float      # bulk flows, measurement window only
    goodput_p10_pps: float
    goodput_p50_pps: float
    goodput_p90_pps: float
    churn_flows_completed: int
    churn_mean_fct: Optional[float]   # None when no short flow completed


def _percentile(ranked: List[float], pct: float) -> float:
    if not ranked:
        return 0.0
    index = min(int(len(ranked) * pct / 100), len(ranked) - 1)
    return ranked[index]


def run_scale_point(*, preset: str,
                    duration: Optional[float] = None,
                    warmup: Optional[float] = None,
                    max_flows: Optional[int] = None,
                    sample_period: float = 0.05,
                    repeats: Optional[int] = None,
                    algorithms: Optional[Sequence[str]] = None,
                    seed: int = 1) -> ScaleRun:
    """Build and run one generated preset; module-level for RunSpec.

    ``algorithms`` replaces the preset's algorithm mix with the given
    registry names at equal weights (``--algorithms`` on the CLI).

    ``sample_period`` is the simulated-time spacing of the pending-
    population sampler (one rearmable timer — its own events are part
    of the workload).  With ``repeats`` (default per preset,
    :data:`DEFAULT_REPEATS`) the whole build+run repeats and the fastest
    measurement wins; the simulation itself is seed-deterministic, so
    repeats differ only in wall clock.
    """
    preset_config(preset)   # unknown names get the clear ValueError
    if repeats is None:
        repeats = DEFAULT_REPEATS.get(preset, 1)
    best: Optional[ScaleRun] = None
    for _ in range(max(repeats, 1)):
        run = _run_scale_once(preset=preset, duration=duration,
                              warmup=warmup, max_flows=max_flows,
                              algorithms=algorithms,
                              sample_period=sample_period, seed=seed)
        if best is None or run.events_per_sec > best.events_per_sec:
            best = run
    return best


def _run_scale_once(*, preset: str, duration: Optional[float],
                    warmup: Optional[float],
                    max_flows: Optional[int],
                    algorithms: Optional[Sequence[str]],
                    sample_period: float, seed: int) -> ScaleRun:
    if duration is None:
        duration = DEFAULT_DURATIONS[preset]
    if warmup is None:
        warmup = DEFAULT_WARMUPS[preset]
    sim = Simulator()

    build_start = perf_counter()
    scenario = generate_preset(
        sim, preset, seed=seed, max_flows=max_flows,
        algorithms=None if algorithms is None else tuple(algorithms))
    scenario.start()
    build_seconds = perf_counter() - build_start

    peak = [0]

    def sample_pending() -> None:
        pending = sim.pending_events
        if pending > peak[0]:
            peak[0] = pending
        sampler.arm(sample_period)

    sampler = sim.timer(sample_pending)
    sampler.arm(sample_period)

    meter = FlowMeter(sim, scenario.bulk_flows)
    run_start = perf_counter()
    sim.run(until=warmup)
    meter.reset()
    # Steady-state throughput is measured over the post-warmup window
    # only: the ramp (flows starting, slow-start) belongs to warmup,
    # exactly as for goodput.
    events_at_warmup = sim.events_processed
    window_start = perf_counter()
    sim.run(until=warmup + duration)
    window_wall = perf_counter() - window_start
    wall_seconds = perf_counter() - run_start
    sampler.cancel()
    events_measured = sim.events_processed - events_at_warmup

    goodputs = sorted(meter.goodput_pps().values())
    n_bulk = len(goodputs)
    completed = [t for source in scenario.churn_sources
                 for t in source.completion_times]
    return ScaleRun(
        preset=preset,
        n_flows=scenario.n_flows,
        n_links=len(scenario.links),
        seed=seed,
        warmup=warmup,
        duration=duration,
        build_seconds=build_seconds,
        wall_seconds=wall_seconds,
        events=sim.events_processed,
        events_measured=events_measured,
        events_per_sec=events_measured / window_wall,
        peak_pending=max(peak[0], sim.pending_events),
        final_pending=sim.pending_events,
        goodput_mean_pps=(sum(goodputs) / n_bulk if n_bulk else 0.0),
        goodput_p10_pps=_percentile(goodputs, 10),
        goodput_p50_pps=_percentile(goodputs, 50),
        goodput_p90_pps=_percentile(goodputs, 90),
        churn_flows_completed=len(completed),
        churn_mean_fct=(sum(completed) / len(completed)
                        if completed else None),
    )


#: Simulated horizon (seconds) a family point may take to complete all
#: of its finite transfers; unfinished transfers are reported (and the
#: bench gate fails the run).
FAMILY_HORIZON = 30.0
SMOKE_FAMILY_HORIZON = 15.0
SMOKE_FAMILY_MAX_FLOWS = 12


@dataclass
class FamilyRun:
    """Outcome of one (family, packet scheduler, algorithm) point."""

    family: str
    scheduler: str               # packet scheduler (registry axis)
    algorithm: str               # congestion-control algorithm
    n_flows: int
    n_links: int
    seed: int
    horizon: float               # simulated completion deadline
    build_seconds: float
    wall_seconds: float
    events: int
    events_per_sec: float
    transfers_total: int
    transfers_completed: int
    transfer_mean_s: Optional[float]
    transfer_p50_s: Optional[float]
    transfer_p90_s: Optional[float]
    link_changes: int            # fading steps across all links
    handovers: int


def run_family_point(*, family: str, scheduler: str = "minrtt",
                     algorithm: str = "olia",
                     horizon: Optional[float] = None,
                     max_flows: Optional[int] = None,
                     seed: int = 1) -> FamilyRun:
    """Run one scenario-family point; module-level for RunSpec.

    Every multipath flow of the family runs ``algorithm`` and stripes
    its finite transfer through ``scheduler``; the point runs until all
    transfers complete or the simulated ``horizon`` passes.
    """
    family_config(family)       # loud ValueError on unknown families
    get_scheduler_spec(scheduler)
    spec = get_spec(algorithm)
    if not spec.has_packet:
        raise ValueError(
            f"algorithm {algorithm!r} has no packet layer (supports: "
            f"{', '.join(spec.layers)}); family points run packet-level "
            "flows")
    if horizon is None:
        horizon = FAMILY_HORIZON
    sim = Simulator()
    build_start = perf_counter()
    config = family_config(family)
    if max_flows is not None:
        config = config.scaled(max_flows)
    config = replace(
        config,
        scheduler_mix=((scheduler, 1.0),),
        algorithm_mix=((algorithm, 1.0),))
    scenario = build_random_scenario(sim, random.Random(seed), config)
    scenario.start()
    build_seconds = perf_counter() - build_start

    total = len(scenario.bulk_flows)
    run_start = perf_counter()
    # Slice the run so completion stops the clock early instead of
    # simulating dead air to the horizon.
    while sim.now < horizon and len(scenario.transfer_times) < total:
        sim.run(until=min(sim.now + 1.0, horizon))
    wall_seconds = perf_counter() - run_start

    times = sorted(scenario.transfer_times)
    n_done = len(times)
    return FamilyRun(
        family=family,
        scheduler=scheduler,
        algorithm=algorithm,
        n_flows=scenario.n_flows,
        n_links=len(scenario.links),
        seed=seed,
        horizon=horizon,
        build_seconds=build_seconds,
        wall_seconds=wall_seconds,
        events=sim.events_processed,
        events_per_sec=(sim.events_processed / wall_seconds
                        if wall_seconds > 0 else 0.0),
        transfers_total=total,
        transfers_completed=n_done,
        transfer_mean_s=(sum(times) / n_done if n_done else None),
        transfer_p50_s=(_percentile(times, 50) if n_done else None),
        transfer_p90_s=(_percentile(times, 90) if n_done else None),
        link_changes=sum(d.changes for d in scenario.dynamics),
        handovers=sum(d.handovers for d in scenario.dynamics),
    )


def scale_report(presets: Sequence[str] = ("medium",), *,
                 families: Sequence[str] = (),
                 schedulers: Sequence[str] = ("minrtt", "roundrobin",
                                              "redundant", "qaware"),
                 duration: Optional[float] = None,
                 warmup: Optional[float] = None,
                 max_flows: Optional[int] = None,
                 repeats: Optional[int] = None,
                 algorithms: Optional[Sequence[str]] = None,
                 seed: int = 1, smoke: Optional[bool] = None,
                 runner: Optional[SweepRunner] = None) -> dict:
    """Run the preset grid (plus optional family × scheduler × CC
    sections) and assemble the report dict.

    The grids go through ``runner`` (default: an in-process
    :class:`SweepRunner`) exactly as the figure sweeps do, so a 10k-flow
    grid can be split across machines through a shared cache directory.
    In a sharded run, cells owned by other shards are simply absent
    from the report.  ``schedulers`` selects the *packet* schedulers
    of the family grid.
    """
    if not presets and not families:
        raise ValueError("no presets or families to run")
    for preset in presets:
        preset_config(preset)
    for family in families:
        family_config(family)
    if families and not schedulers:
        from ..core.registry import available_schedulers
        raise ValueError(
            "no packet schedulers to run (empty --schedulers?); known: "
            + ", ".join(available_schedulers()))
    for name in schedulers:
        get_scheduler_spec(name)    # loud KeyError on typos
    if algorithms is not None:
        algorithms = tuple(algorithms)
        for name in algorithms:
            spec = get_spec(name)   # loud KeyError on typos
            if not spec.has_packet:
                raise ValueError(
                    f"algorithm {name!r} has no packet layer (supports: "
                    f"{', '.join(spec.layers)}); the scale harness runs "
                    "packet-level flows")
    if smoke is None:
        smoke = smoke_mode()
    family_horizon = None
    family_max_flows = max_flows
    if smoke:
        max_flows = min(max_flows or SMOKE_MAX_FLOWS, SMOKE_MAX_FLOWS)
        duration = min(duration or SMOKE_DURATION, SMOKE_DURATION)
        warmup = min(warmup or SMOKE_WARMUP, SMOKE_WARMUP)
        repeats = 1
        family_horizon = SMOKE_FAMILY_HORIZON
        family_max_flows = min(family_max_flows or SMOKE_FAMILY_MAX_FLOWS,
                               SMOKE_FAMILY_MAX_FLOWS)
    # The family grid's CC axis: --algorithms when given, else OLIA
    # (the paper's algorithm) as the canonical column.
    family_algorithms = tuple(algorithms) if algorithms else ("olia",)

    specs = [
        RunSpec.make(run_scale_point, preset=preset, duration=duration,
                     warmup=warmup, max_flows=max_flows, repeats=repeats,
                     algorithms=algorithms, seed=seed)
        for preset in presets]
    n_preset_cells = len(specs)
    family_cells = [(family, scheduler, algorithm)
                    for family in families
                    for scheduler in schedulers
                    for algorithm in family_algorithms]
    specs += [
        RunSpec.make(run_family_point, family=family, scheduler=scheduler,
                     algorithm=algorithm, horizon=family_horizon,
                     max_flows=family_max_flows, seed=seed)
        for family, scheduler, algorithm in family_cells]
    # Wall-clock cells served from a resume cache were measured in some
    # earlier run, possibly on another machine; the report says which.
    from_cache = [False] * len(specs)

    def note_cache(tick):
        from_cache[tick.index] = tick.from_cache

    runs = (runner or SweepRunner()).run(specs, progress=note_cache)

    report: dict = {
        "benchmark": "BENCH_scale",
        "smoke": smoke,
        "python": platform.python_version(),
        "seed": seed,
        "schedulers": list(schedulers) if families else [],
        "algorithms": None if algorithms is None else list(algorithms),
        "presets": {},
        "families": {},
    }
    for index, preset in enumerate(presets):
        run = runs[index]
        if run is SWEEP_PENDING:
            continue
        record = asdict(run)
        record["from_cache"] = from_cache[index]
        report["presets"][preset] = record
    for offset, (family, scheduler, algorithm) in enumerate(family_cells):
        index = n_preset_cells + offset
        run = runs[index]
        if run is SWEEP_PENDING:
            continue
        record = asdict(run)
        record["from_cache"] = from_cache[index]
        family_entry = report["families"].setdefault(
            family, {"schedulers": {}})
        sched_entry = family_entry["schedulers"].setdefault(scheduler, {})
        sched_entry[algorithm] = record
    return report


def report_table(report: dict) -> ResultTable:
    """Paper-style table of a :func:`scale_report` dict."""
    table = ResultTable(
        "Scale harness - DES throughput on generated scenarios"
        + (" [SMOKE]" if report.get("smoke") else ""),
        ["preset", "flows", "events/s", "wall s", "peak pending",
         "goodput p50 pps"])
    for preset, run in report["presets"].items():
        table.add_row(preset, run["n_flows"], round(run["events_per_sec"]),
                      round(run["wall_seconds"], 2), run["peak_pending"],
                      round(run["goodput_p50_pps"], 1))
    return table


def family_table(report: dict) -> ResultTable:
    """Scenario-family section of a :func:`scale_report` dict."""
    table = ResultTable(
        "Scenario families - finite transfers per packet scheduler"
        + (" [SMOKE]" if report.get("smoke") else ""),
        ["family", "scheduler", "algorithm", "done", "mean s",
         "p90 s", "fades", "handovers"])
    for family, entry in report.get("families", {}).items():
        for scheduler, by_algo in entry["schedulers"].items():
            for algorithm, run in by_algo.items():
                mean = run["transfer_mean_s"]
                p90 = run["transfer_p90_s"]
                table.add_row(
                    family, scheduler, algorithm,
                    f"{run['transfers_completed']}/"
                    f"{run['transfers_total']}",
                    "-" if mean is None else round(mean, 3),
                    "-" if p90 is None else round(p90, 3),
                    run["link_changes"], run["handovers"])
    return table


def write_report(report: dict, output_path: str) -> None:
    """Write ``BENCH_scale.json``."""
    with open(output_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


__all__ = [
    "DEFAULT_DURATIONS",
    "DEFAULT_WARMUPS",
    "FAMILY_HORIZON",
    "FamilyRun",
    "ScaleRun",
    "family_table",
    "report_table",
    "run_family_point",
    "run_scale_point",
    "scale_report",
    "smoke_mode",
    "write_report",
]
