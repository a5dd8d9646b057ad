#!/usr/bin/env python
"""Fail CI when a bench report regresses against the committed baseline.

Usage::

    REPRO_BENCH_SMOKE=1 python -m repro bench --output BENCH_smoke.json
    python benchmarks/check_bench.py BENCH_smoke.json \
        --baseline BENCH_sweep.json [--factor 2.0] \
        [--scale BENCH_scale.json] [--serve BENCH_serve_smoke.json]
    python benchmarks/check_bench.py --scale BENCH_scale.json   # scale only
    python benchmarks/check_bench.py --serve BENCH_serve.json   # serve only

What is checked (and why it survives CI-runner variance):

* ``bitwise_equal`` must be true for the fluid and equilibrium sweeps —
  the batch backends are only allowed to be *faster*, never different.
* The **speedup ratios** (batch vs loop, optimised engine vs seed
  engine — including the loaded-engine, compiled-engine and
  timer-churn microbenches that track the event heap, the C core and
  the Timer API) are compared, not absolute points/sec: both sides of
  each ratio run in the same process on the same machine, so the ratio
  is stable across hardware while a >2x drop still means a real
  regression (e.g. batching silently falling back to the scalar path,
  or the Timer degenerating to schedule-and-cancel churn).
* When the new report's workload size matches the baseline's, the bound
  is ``new_speedup >= baseline_speedup / factor``.  A smoke report
  (``REPRO_BENCH_SMOKE=1``) uses smaller workloads where batching pays
  off less, so against a full-size baseline the scaled bound is replaced
  by documented absolute floors (:data:`SMOKE_FLOORS`).
* Every compared metric must be a *finite* number.  ``NaN`` poisons
  every comparison into ``False`` — i.e. a NaN speedup would sail past
  a ``speedup < bound`` check — so missing or non-finite metrics fail
  the gate outright instead of silently passing it.
* With ``--scale``, a ``BENCH_scale.json`` written by ``python -m
  repro scale`` is validated too: every preset record must have finite
  positive events/sec and coherent counters, and every family cell
  must have finished its transfers.

When ``$GITHUB_STEP_SUMMARY`` is set (any GitHub Actions job), a
markdown before/after table of every checked section is appended to it,
so the numbers land on the run's summary page whether or not the gate
fails.

Exit status: 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Dict, List, Optional

#: Minimum acceptable speedups when the new report's workload size
#: differs from the baseline's (the CI smoke case).  Chosen from the
#: smoke-mode measurements in docs/PERFORMANCE.md with >2x headroom.
#:
#: The ``engine`` floor (0.8) rejects an engine meaningfully slower
#: than the seed on the bare chain; ``engine_loaded`` (the chain under
#: tens of thousands of parked timers) and ``timer_churn`` (~5.8x)
#: catch the heap path or the Timer degenerating long before the bare
#: chain would.  See docs/PERFORMANCE.md "Engine hot path".
#:
#: ``engine_compiled`` measures the C EngineCore against the pure loop
#: on the loaded chain: ~7-8x full-size, still several-x at smoke
#: sizes.  1.3 rejects the extension degenerating to interpreter speed
#: (e.g. silently bouncing every call through a Python shim) without
#: tripping on runner noise.  Skipped — not failed — when the report
#: records ``available: false`` (see :data:`AVAILABILITY_SECTIONS`).
SMOKE_FLOORS = {
    "fluid_sweep": 2.0,
    "equilibrium_sweep": 1.5,
    "fluid_sweep_balia": 2.0,
    "equilibrium_sweep_balia": 1.5,
    "engine": 0.8,
    "engine_loaded": 1.2,
    "engine_compiled": 1.3,
    "timer_churn": 2.0,
}

#: Per-section key that defines "same workload size".
SIZE_KEYS = {
    "fluid_sweep": "n_points",
    "equilibrium_sweep": "n_points",
    "fluid_sweep_balia": "n_points",
    "equilibrium_sweep_balia": "n_points",
    "engine": "n_events",
    "engine_loaded": "n_events",
    "engine_compiled": "n_events",
    "timer_churn": "n_ticks",
}

#: Sections that track an *optional* build artefact.  When the report
#: itself records ``available: false`` (a pure-python checkout: the
#: ``repro.sim._kernels`` extension was never built) the section is
#: legitimately unchecked — the fallback lane in CI runs exactly this
#: configuration on purpose.  A section that is missing *entirely*
#: still fails: that means the bench stopped emitting it.
AVAILABILITY_SECTIONS = ("engine_compiled",)

#: Sections whose batch backend must stay bitwise-equal to the loop.
BITWISE_SECTIONS = ("fluid_sweep", "equilibrium_sweep",
                    "fluid_sweep_balia", "equilibrium_sweep_balia")

#: Absolute floors for a full-size BENCH_serve report (the ISSUE's
#: acceptance bar): batching must beat the sequential baseline ≥ 5x on
#: a cold store, and the warm (memoized) replay must improve p50 ≥ 10x.
#: Both are within-process ratios, stable across machines.
SERVE_FLOORS = {
    "cold_speedup": 5.0,
    "warm_p50_improvement": 10.0,
}

#: Floors for a smoke-size serve report (``REPRO_BENCH_SMOKE=1``): the
#: smoke cold phase is 4 shallow batches where one stagnant-equilibrium
#: straggler dominates, so the batching win is structurally smaller —
#: 1.5x still proves batching beats sequential.  Memoized p50 wins are
#: scale-independent (a store hit skips the solve entirely), so the
#: warm floor stays at the full bar.
SERVE_SMOKE_FLOORS = {
    "cold_speedup": 1.5,
    "warm_p50_improvement": 10.0,
}

#: Largest share of cold-phase queries a serve report may carry as
#: ``converged: false`` (they are served and memoized, so a solver
#: regression would otherwise hide behind a good qps).
SERVE_UNCONVERGED_SHARE = 0.01

#: Serve-report ratio metrics compared against a baseline report (when
#: the workload sizes match): path into the report, human name.
SERVE_RATIOS = (
    (("cold", "speedup_vs_sequential"), "cold_speedup"),
    (("warm", "p50_improvement"), "warm_p50_improvement"),
    (("replay", "speedup_vs_sequential"), "replay_speedup"),
)

#: Serve-report metrics that must be finite and positive.
SERVE_POSITIVE_METRICS = (
    ("sequential_baseline", "qps"),
    ("cold", "qps"), ("cold", "p50_ms"), ("cold", "p99_ms"),
    ("warm", "qps"), ("warm", "p50_ms"),
    ("replay", "qps"), ("replay", "p50_ms"),
)

#: Metrics of a BENCH_scale preset record that must be finite (and,
#: for the first two, positive).
SCALE_RUN_METRICS = ("events_per_sec", "wall_seconds", "events",
                     "peak_pending", "n_flows", "goodput_mean_pps",
                     "goodput_p50_pps")

#: Distributed-sweep floors (full-size BENCH_dist, the ISSUE's
#: acceptance bar): two workers must deliver >= 1.6x the points/s of
#: one.  Skipped — never failed — for a run flagged ``core_limited``
#: (the machine has fewer cores than workers, so the ratio measures the
#: hardware, not the fabric; the committed BENCH_dist.json from the
#: 1-core dev container carries this flag, CI's multi-core runners do
#: not) or ``scaling_stale`` (cache-warm wall clocks).
DIST_FLOORS = {"scaling_2": 1.6}

#: Smoke grid (96 points): per-point cost is milliseconds, so lease
#: round trips and worker startup eat into the ratio — 1.1x still
#: proves the second worker contributes instead of contending.
DIST_SMOKE_FLOORS = {"scaling_2": 1.1}


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def check_report(new: Dict, baseline: Dict,
                 factor: float = 2.0) -> List[str]:
    """Return a list of failure messages (empty when the report passes)."""
    failures: List[str] = []
    for section in BITWISE_SECTIONS:
        data = new.get(section)
        if data is not None and not data.get("bitwise_equal", False):
            failures.append(
                f"{section}: batch backend is no longer bitwise-equal "
                "to the loop backend")

    for section, size_key in SIZE_KEYS.items():
        data = new.get(section)
        base = baseline.get(section)
        if section in AVAILABILITY_SECTIONS and data is not None \
                and data.get("available") is False:
            continue
        if data is None or "speedup" not in data:
            # A tracked section vanishing from the report is itself a
            # regression — the gate must not pass by omission.
            failures.append(
                f"{section}: missing from the new report")
            continue
        if not _finite(data["speedup"]):
            # NaN compares False against any bound, which would turn
            # a broken benchmark into a silent pass.
            failures.append(
                f"{section}: speedup is {data['speedup']!r}, not a "
                "finite number")
            continue
        if base is None or "speedup" not in base \
                or not _finite(base["speedup"]):
            # Baseline predates this section; only the smoke floor holds.
            bound, origin = SMOKE_FLOORS[section], "smoke floor"
        elif data.get(size_key) == base.get(size_key):
            bound = base["speedup"] / factor
            origin = (f"baseline {base['speedup']}x / {factor} "
                      f"(same {size_key}={data.get(size_key)})")
        else:
            bound, origin = SMOKE_FLOORS[section], (
                f"smoke floor ({size_key} {data.get(size_key)} != "
                f"baseline {base.get(size_key)})")
        if data["speedup"] < bound:
            failures.append(
                f"{section}: speedup {data['speedup']}x below {bound:g}x "
                f"[{origin}]")
    return failures


def check_scale_report(report: Dict) -> List[str]:
    """Validate a ``BENCH_scale.json`` written by ``repro scale``."""
    failures: List[str] = []
    if not isinstance(report, dict):
        return [f"scale: report is {type(report).__name__}, not a JSON "
                "object"]
    presets = report.get("presets")
    if not isinstance(presets, dict) or not presets:
        return ["scale: report contains no presets (empty or truncated "
                "BENCH_scale.json)"]
    for preset, run in presets.items():
        where = f"scale[{preset}]"
        if not isinstance(run, dict):
            # A truncated/partially-written report must FAIL cleanly,
            # not die with a traceback before any message is printed.
            failures.append(
                f"{where}: record is {run!r}, not a mapping "
                "(truncated BENCH_scale.json?)")
            continue
        for metric in SCALE_RUN_METRICS:
            if metric not in run:
                failures.append(f"{where}: metric {metric!r} missing")
            elif not _finite(run[metric]):
                failures.append(
                    f"{where}: metric {metric!r} is {run[metric]!r}, "
                    "not a finite number")
        for metric in ("events_per_sec", "wall_seconds"):
            if _finite(run.get(metric, None)) and run[metric] <= 0:
                failures.append(
                    f"{where}: {metric} must be positive, got "
                    f"{run[metric]!r}")
    failures.extend(_check_scale_families(report))
    return failures


def _check_scale_families(report: Dict) -> List[str]:
    """Validate the optional families (packet-scheduler) section.

    Every (family, scheduler, algorithm) cell must have finished all of
    its finite transfers, and any reported completion-time percentile
    must be a positive finite number — NaN/Infinity survive a JSON
    round-trip through Python and must not read as a silent pass.
    """
    failures: List[str] = []
    families = report.get("families")
    if families is None:
        return failures         # section is optional (preset-only runs)
    if not isinstance(families, dict):
        return [f"scale: families section is {families!r}, not a mapping"]
    for family, entry in families.items():
        cells = entry.get("schedulers") if isinstance(entry, dict) else None
        if not isinstance(cells, dict) or not cells:
            failures.append(
                f"scale[{family}]: no packet-scheduler runs recorded")
            continue
        for scheduler, by_algo in cells.items():
            if not isinstance(by_algo, dict) or not by_algo:
                failures.append(
                    f"scale[{family}/{scheduler}]: no algorithm runs "
                    "recorded")
                continue
            for algorithm, run in by_algo.items():
                where = f"scale[{family}/{scheduler}/{algorithm}]"
                if not isinstance(run, dict):
                    failures.append(
                        f"{where}: run record is {run!r}, not a mapping")
                    continue
                total = run.get("transfers_total")
                done = run.get("transfers_completed")
                if not isinstance(total, int) or total < 1:
                    failures.append(
                        f"{where}: transfers_total is {total!r}, "
                        "expected a positive integer")
                elif done != total:
                    failures.append(
                        f"{where}: only {done!r} of {total} transfers "
                        "completed within the horizon")
                for metric in ("transfer_mean_s", "transfer_p50_s",
                               "transfer_p90_s"):
                    value = run.get(metric)
                    if value is None:
                        continue   # legitimately absent: nothing done
                    if not _finite(value) or value <= 0:
                        failures.append(
                            f"{where}: {metric} is {value!r}, not a "
                            "positive finite number")
    return failures


def _serve_get(report: Dict, path) -> object:
    value: object = report
    for key in path:
        if not isinstance(value, dict):
            return None
        value = value.get(key)
    return value


def check_serve_report(report: Dict,
                       baseline: Optional[Dict] = None,
                       factor: float = 2.0) -> List[str]:
    """Validate a ``BENCH_serve.json`` written by ``repro serve --loadgen``.

    Absolute floors (:data:`SERVE_FLOORS`, or the documented smoke
    floors for a ``REPRO_BENCH_SMOKE=1`` report) always apply; with a
    ``baseline`` of the *same* workload size, the measured ratios must
    additionally stay within ``factor`` of the baseline's.
    """
    failures: List[str] = []
    if not isinstance(report, dict):
        return [f"serve: report is {type(report).__name__}, not a JSON "
                "object"]
    if report.get("benchmark") != "serve":
        return [f"serve: benchmark is {report.get('benchmark')!r}, "
                "expected 'serve' (wrong file?)"]
    if not report.get("bitwise_equal", False):
        failures.append(
            "serve: served results are no longer bitwise-equal to "
            "sequential solve_fixed_point")
    for path in SERVE_POSITIVE_METRICS:
        value = _serve_get(report, path)
        where = ".".join(path)
        if not _finite(value):
            failures.append(
                f"serve: {where} is {value!r}, not a finite number")
        elif value <= 0:
            failures.append(
                f"serve: {where} must be positive, got {value!r}")
    for phase in ("warm", "replay"):
        rate = _serve_get(report, (phase, "hit_rate"))
        if not _finite(rate) or not 0.0 <= rate <= 1.0:
            failures.append(
                f"serve: {phase}.hit_rate is {rate!r}, not in [0, 1]")
    rate = _serve_get(report, ("warm", "hit_rate"))
    if _finite(rate) and rate < 0.99:
        # The warm phase replays the identical stream against the
        # store the cold phase just filled: anything below ~every
        # query hitting means persistence is broken.
        failures.append(
            f"serve: warm.hit_rate {rate} below 0.99 — the persistent "
            "store is not serving the replayed stream")

    # Reports written before the solver said how it exited lack the key.
    unconverged = _serve_get(report, ("cold", "unconverged"))
    queries = _serve_get(report, ("cold", "queries"))
    if unconverged is not None and _finite(queries) and queries > 0:
        if not _finite(unconverged) \
                or unconverged / queries > SERVE_UNCONVERGED_SHARE:
            failures.append(
                f"serve: cold.unconverged {unconverged!r} of {queries} "
                f"queries exceeds {SERVE_UNCONVERGED_SHARE:.0%}")

    floors = SERVE_SMOKE_FLOORS if report.get("smoke") else SERVE_FLOORS
    same_size = isinstance(baseline, dict) and all(
        _serve_get(report, ("config", key))
        == _serve_get(baseline, ("config", key))
        for key in ("queries", "latency_queries", "concurrency"))
    for path, name in SERVE_RATIOS:
        value = _serve_get(report, path)
        if not _finite(value):
            failures.append(
                f"serve: {name} is {value!r}, not a finite number")
            continue
        bound, origin = floors.get(name), "absolute floor"
        if same_size:
            base_value = _serve_get(baseline, path)
            if _finite(base_value):
                scaled = base_value / factor
                if bound is None or scaled > bound:
                    bound = scaled
                    origin = f"baseline {base_value}x / {factor}"
        if bound is not None and value < bound:
            failures.append(
                f"serve: {name} {value}x below {bound:g}x [{origin}]")
    return failures


def check_dist_report(report: Dict) -> List[str]:
    """Validate a ``BENCH_dist.json`` written by ``repro sweep bench``.

    The non-negotiables: merged distributed results bitwise-equal to
    the single-host reference, every fabric run complete (all grid
    points accounted for), every wall clock/throughput a positive
    finite number, counters coherent.  The 2-worker scaling floor
    applies unless the run is ``core_limited`` or ``scaling_stale``
    (see :data:`DIST_FLOORS`).
    """
    failures: List[str] = []
    if not isinstance(report, dict):
        return [f"dist: report is {type(report).__name__}, not a JSON "
                "object"]
    if report.get("benchmark") != "dist":
        return [f"dist: benchmark is {report.get('benchmark')!r}, "
                "expected 'dist' (wrong file?)"]
    if not report.get("bitwise_equal", False):
        failures.append(
            "dist: merged distributed results are no longer "
            "bitwise-equal to the single-host reference")
    points = (report.get("grid") or {}).get("points")
    if not isinstance(points, int) or points < 1:
        failures.append(
            f"dist: grid.points is {points!r}, expected a positive "
            "integer")
        points = None
    reference = report.get("reference") or {}
    for metric in ("wall_seconds", "points_per_sec"):
        value = reference.get(metric)
        if not _finite(value) or value <= 0:
            failures.append(
                f"dist: reference.{metric} is {value!r}, not a "
                "positive finite number")
    runs = report.get("workers")
    if not isinstance(runs, dict) or not runs:
        failures.append(
            "dist: no fabric runs recorded (empty or truncated "
            "BENCH_dist.json)")
        return failures
    for count, run in runs.items():
        where = f"dist[{count} worker(s)]"
        if not isinstance(run, dict):
            failures.append(f"{where}: run record is {run!r}, not a "
                            "mapping")
            continue
        if not run.get("bitwise_equal", False):
            failures.append(
                f"{where}: merged results are not bitwise-equal to the "
                "reference")
        for metric in ("wall_seconds", "points_per_sec"):
            value = run.get(metric)
            if not _finite(value) or value <= 0:
                failures.append(
                    f"{where}: {metric} is {value!r}, not a positive "
                    "finite number")
        if points is not None and run.get("completed") != points:
            failures.append(
                f"{where}: {run.get('completed')!r} of {points} points "
                "completed — the fabric lost work")
        for counter in ("reassigned_points", "duplicate_results",
                        "dead_workers", "leases_granted"):
            value = run.get(counter)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                failures.append(
                    f"{where}: counter {counter} is {value!r}, expected "
                    "a non-negative integer")
    floors = DIST_SMOKE_FLOORS if report.get("smoke") else DIST_FLOORS
    two = runs.get("2")
    if isinstance(two, dict) and "1" in runs:
        if two.get("core_limited") or two.get("scaling_stale"):
            # The ratio measures hardware (or a warm cache), not the
            # fabric: skip, never fail.
            pass
        else:
            scaling = two.get("scaling_vs_1")
            bound = floors["scaling_2"]
            if not _finite(scaling):
                failures.append(
                    f"dist: 2-worker scaling_vs_1 is {scaling!r}, not a "
                    "finite number")
            elif scaling < bound:
                failures.append(
                    f"dist: 2 workers deliver {scaling}x the points/s "
                    f"of 1, below the {bound}x floor")
    return failures


# -- markdown step summary --------------------------------------------------

def summary_markdown(new: Optional[Dict], baseline: Optional[Dict],
                     scale: Optional[Dict] = None,
                     serve: Optional[Dict] = None,
                     dist: Optional[Dict] = None) -> str:
    """Before/after markdown tables for $GITHUB_STEP_SUMMARY."""
    lines: List[str] = []
    if new is not None and baseline is not None:
        lines += ["## Bench check", "",
                  "| section | baseline speedup | new speedup |",
                  "|---|---|---|"]
        for section in SIZE_KEYS:
            base = (baseline.get(section) or {}).get("speedup", "—")
            now = (new.get(section) or {}).get("speedup", "—")
            lines.append(f"| {section} | {base} | {now} |")
    if isinstance(serve, dict):
        lines += ["", "## Allocation service", "",
                  "| phase | queries | qps | p50 ms | p99 ms | ratio |",
                  "|---|---|---|---|---|---|"]
        rows = (
            ("cold", "speedup_vs_sequential", "x vs sequential"),
            ("warm", "p50_improvement", "x p50 vs cold"),
            ("replay", "speedup_vs_sequential", "x vs sequential"),
        )
        for phase, ratio_key, suffix in rows:
            data = serve.get(phase) or {}
            ratio = data.get(ratio_key)
            ratio = (f"{ratio:.1f}{suffix}" if _finite(ratio)
                     else repr(ratio))
            lines.append(
                f"| {phase} | {data.get('queries')} "
                f"| {data.get('qps')} | {data.get('p50_ms')} "
                f"| {data.get('p99_ms')} | {ratio} |")
    if isinstance(dist, dict):
        grid = dist.get("grid") or {}
        lines += ["", "## Distributed sweep fabric", "",
                  f"grid: {grid.get('points')} points, bitwise_equal: "
                  f"{dist.get('bitwise_equal')}, cpu_count: "
                  f"{dist.get('cpu_count')}", "",
                  "| workers | points/s | scaling vs 1 | reassigned | "
                  "flags |",
                  "|---|---|---|---|---|"]
        ref = dist.get("reference") or {}
        pps = ref.get("points_per_sec")
        pps = round(pps, 1) if _finite(pps) else pps
        lines.append(f"| reference (in-memory) | {pps} |  |  |  |")
        for count in sorted((dist.get("workers") or {}),
                            key=lambda c: (len(c), c)):
            run = dist["workers"][count]
            if not isinstance(run, dict):
                continue   # check_dist_report reports the failure
            pps = run.get("points_per_sec")
            pps = round(pps, 1) if _finite(pps) else pps
            scaling = run.get("scaling_vs_1")
            scaling = (f"{scaling:.2f}x" if _finite(scaling) else "")
            flags = ", ".join(
                flag for flag in ("core_limited", "scaling_stale")
                if run.get(flag))
            lines.append(
                f"| {count} | {pps} | {scaling} "
                f"| {run.get('reassigned_points')} | {flags} |")
    if isinstance(scale, dict):
        lines += ["", "## Scale harness", "",
                  "| preset | flows | events/s | peak pending |",
                  "|---|---|---|---|"]
        for preset, run in (scale.get("presets") or {}).items():
            if not isinstance(run, dict):
                continue   # check_scale_report reports the failure
            eps = run.get("events_per_sec")
            eps = round(eps) if _finite(eps) else eps
            lines.append(
                f"| {preset} | {run.get('n_flows')} | {eps} "
                f"| {run.get('peak_pending')} |")
        families = scale.get("families")
        if isinstance(families, dict) and families:
            lines += ["", "## Scenario families", "",
                      "| family | scheduler | algorithm | done | "
                      "mean s | p90 s |",
                      "|---|---|---|---|---|---|"]
            for family, entry in families.items():
                if not isinstance(entry, dict):
                    continue
                for scheduler, by_algo in (
                        entry.get("schedulers") or {}).items():
                    if not isinstance(by_algo, dict):
                        continue
                    for algorithm, run in by_algo.items():
                        if not isinstance(run, dict):
                            continue
                        done = (f"{run.get('transfers_completed')}/"
                                f"{run.get('transfers_total')}")
                        lines.append(
                            f"| {family} | {scheduler} | {algorithm} "
                            f"| {done} | {run.get('transfer_mean_s')} "
                            f"| {run.get('transfer_p90_s')} |")
    return "\n".join(lines) + "\n"


def write_step_summary(markdown: str) -> None:
    """Append to $GITHUB_STEP_SUMMARY when running under Actions."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    try:
        with open(path, "a") as fh:
            fh.write(markdown)
    except OSError as exc:  # summary is best-effort, never fails the gate
        print(f"warning: could not write step summary: {exc}",
              file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Check BENCH reports for performance regressions")
    parser.add_argument("report", nargs="?", default=None,
                        help="freshly generated BENCH json (optional "
                             "when only --scale is being validated)")
    parser.add_argument("--baseline", default="BENCH_sweep.json",
                        help="committed baseline (default: "
                             "./BENCH_sweep.json)")
    parser.add_argument("--factor", type=float, default=2.0,
                        help="allowed speedup shrink factor (default: 2.0, "
                             "i.e. fail on >2x regression)")
    parser.add_argument("--scale", metavar="PATH", default=None,
                        help="also (or only) validate a BENCH_scale.json "
                             "written by 'python -m repro scale'")
    parser.add_argument("--serve", metavar="PATH", default=None,
                        help="also (or only) validate a BENCH_serve.json "
                             "written by 'python -m repro serve "
                             "--loadgen'")
    parser.add_argument("--serve-baseline", metavar="PATH",
                        default="BENCH_serve.json",
                        help="committed serve baseline (default: "
                             "./BENCH_serve.json; silently skipped when "
                             "absent — absolute floors still apply)")
    parser.add_argument("--dist", metavar="PATH", default=None,
                        help="also (or only) validate a BENCH_dist.json "
                             "written by 'python -m repro sweep bench'")
    args = parser.parse_args(argv)
    if args.report is None and args.scale is None and args.serve is None \
            and args.dist is None:
        parser.error("nothing to check: give a BENCH report, --scale, "
                     "--serve, --dist, or a combination")

    new = baseline = None
    if args.report is not None:
        with open(args.report) as fh:
            new = json.load(fh)
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    scale = None
    if args.scale is not None:
        with open(args.scale) as fh:
            scale = json.load(fh)
    serve = serve_baseline = None
    if args.serve is not None:
        with open(args.serve) as fh:
            serve = json.load(fh)
        try:
            with open(args.serve_baseline) as fh:
                serve_baseline = json.load(fh)
        except OSError:
            serve_baseline = None   # floors-only mode
    dist = None
    if args.dist is not None:
        with open(args.dist) as fh:
            dist = json.load(fh)

    failures: List[str] = []
    if new is not None:
        failures += check_report(new, baseline, factor=args.factor)
    if scale is not None:
        failures += check_scale_report(scale)
    if serve is not None:
        failures += check_serve_report(serve, serve_baseline,
                                       factor=args.factor)
    if dist is not None:
        failures += check_dist_report(dist)
    write_step_summary(summary_markdown(new, baseline, scale, serve, dist))
    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1
    checked = [path for path in (args.report, args.scale, args.serve,
                                 args.dist)
               if path is not None]
    print(f"bench check OK: {', '.join(checked)} pass"
          + (f" within {args.factor}x of {args.baseline}"
         if new is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
