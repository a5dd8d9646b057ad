"""The distributed-sweep benchmark: a real 10k-point grid over N workers.

``python -m repro sweep bench`` runs the fabric end-to-end and writes
``BENCH_dist.json``, gated in CI by ``check_bench.py --dist``:

1. build the grid — family x packet scheduler x algorithm x seed, the
   exact cross product the wild-measurement studies in PAPERS.md demand
   and which has never been run through a single-host sweep (4 families
   x 4 schedulers x 5 packet-capable algorithms x 125 seeds = 10000
   points at the default sizes);
2. run a **single-host reference** through a plain in-memory
   :class:`~repro.experiments.sweep.SweepRunner` — the ground truth the
   merged distributed results must equal bitwise;
3. for each requested worker count, start a coordinator on an ephemeral
   localhost port plus N real ``python -m repro sweep work`` worker
   *processes* (the same entry point multi-host deployments use), wait
   for the grid to drain, and read the cache back into result
   order;
4. report points/s per worker count, scaling vs one worker,
   per-added-worker efficiency, reassignment/duplicate counters, and a
   single ``bitwise_equal`` verdict (pickle-bytes equality of every
   merged point against the reference).

The grid's point function is :func:`run_dist_point`, which strips the
wall-clock fields off :class:`~repro.experiments.scale.FamilyRun` —
``build_seconds``/``wall_seconds``/``events_per_sec`` are real
measurements that differ run to run, so a bitwise gate over them would
only test pickle round-tripping.  Everything kept (event counts,
transfer statistics, link dynamics) is deterministic given the seed.

``cpu_count`` lands in the report and any multi-worker run on a machine
with fewer cores than workers is flagged ``core_limited``: the scaling
floor is about the fabric, not about pretending a 1-core container has
2 cores, so ``check_bench.py --dist`` skips (never fails) the floor for
such runs.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..experiments.runner import RunSpec
from ..experiments.scale import run_family_point
from ..experiments.sweep import SweepRunner
from ..serve.store import MISSING, ResultStore
from ..util import smoke_mode
from .coordinator import CoordinatorThread, SweepCoordinator

__all__ = [
    "DIST_ALGORITHMS",
    "DIST_FAMILIES",
    "DIST_SCHEDULERS",
    "build_dist_grid",
    "merge_results",
    "run_dist_bench",
    "run_dist_point",
]

#: The full-grid axes: every scenario family, every packet scheduler,
#: every algorithm with a packet layer (wvegas excluded: its delay
#: dynamics need longer horizons than the grid budget allows per point).
DIST_FAMILIES = ("wired", "dual_lte", "wifi_lte", "handover")
DIST_SCHEDULERS = ("minrtt", "roundrobin", "redundant", "qaware")
DIST_ALGORITHMS = ("lia", "olia", "balia", "ewtcp", "tcp")

#: 4 families x 4 schedulers x 5 algorithms x 125 seeds = 10000 points.
DEFAULT_SEEDS = 125

#: Per-point size: small enough that a 10k grid is tens of minutes on a
#: few cores, big enough that each point runs the real DES engine
#: through connection setup, transfers and (family-dependent) dynamics.
DIST_MAX_FLOWS = 2
DIST_HORIZON = 6.0

#: Smoke variant (REPRO_BENCH_SMOKE=1 / --smoke): 2x2x2x12 = 96 points.
SMOKE_FAMILIES = ("wired", "dual_lte")
SMOKE_SCHEDULERS = ("minrtt", "redundant")
SMOKE_ALGORITHMS = ("olia", "lia")
SMOKE_SEEDS = 12

DEFAULT_WORKER_COUNTS = (1, 2, 4)

#: How long a finished coordinator waits for a spawned worker that has not
#: connected yet (interpreter start-up on a busy host); ``_run_fabric``
#: cuts it short the moment every worker process has exited.
WORKER_START_LINGER = 60.0


def run_dist_point(*, family: str, scheduler: str, algorithm: str,
                   seed: int, max_flows: int = DIST_MAX_FLOWS,
                   horizon: float = DIST_HORIZON) -> Dict[str, Any]:
    """One grid point: a family run with wall-clock fields stripped.

    Module-level so :class:`RunSpec` can pickle it by reference; returns
    a plain dict of the deterministic ``FamilyRun`` fields (see module
    docstring for why timing fields are dropped).
    """
    run = run_family_point(family=family, scheduler=scheduler,
                           algorithm=algorithm, horizon=horizon,
                           max_flows=max_flows, seed=seed)
    return {
        "family": run.family,
        "scheduler": run.scheduler,
        "algorithm": run.algorithm,
        "n_flows": run.n_flows,
        "n_links": run.n_links,
        "seed": run.seed,
        "events": run.events,
        "transfers_total": run.transfers_total,
        "transfers_completed": run.transfers_completed,
        "transfer_mean_s": run.transfer_mean_s,
        "transfer_p50_s": run.transfer_p50_s,
        "transfer_p90_s": run.transfer_p90_s,
        "link_changes": run.link_changes,
        "handovers": run.handovers,
    }


def build_dist_grid(*, families: Sequence[str] = DIST_FAMILIES,
                    schedulers: Sequence[str] = DIST_SCHEDULERS,
                    algorithms: Sequence[str] = DIST_ALGORITHMS,
                    seeds: int = DEFAULT_SEEDS,
                    max_flows: int = DIST_MAX_FLOWS,
                    horizon: float = DIST_HORIZON) -> List[RunSpec]:
    """The grid in canonical result order (family-major, seed-minor)."""
    return [
        RunSpec.make(run_dist_point, family=family, scheduler=scheduler,
                     algorithm=algorithm, seed=seed,
                     max_flows=max_flows, horizon=horizon)
        for family in families
        for scheduler in schedulers
        for algorithm in algorithms
        for seed in range(1, seeds + 1)
    ]


def merge_results(specs: Sequence[RunSpec], cache_dir) -> List[Any]:
    """Assemble the result list a completed fabric run left in the cache.

    Purely a read: a missing entry means the fabric lost a point, which
    is exactly the failure the bench exists to catch, so it raises
    instead of recomputing.
    """
    store = ResultStore(cache_dir, memory_entries=0)
    merged = []
    for index, spec in enumerate(specs):
        value = store.get(spec.content_hash(), MISSING)
        if value is MISSING:
            raise RuntimeError(
                f"fabric lost point {index} ({dict(spec.kwargs)}, seed="
                f"{spec.seed}): no cache entry under {store.directory}")
        merged.append(value)
    return merged


def _spawn_worker(port: int, *, jobs: int = 1) -> subprocess.Popen:
    """Start a real ``python -m repro sweep work`` worker process."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep", "work",
         "--connect", f"127.0.0.1:{port}", "--jobs", str(jobs)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


def _run_fabric(specs: Sequence[RunSpec], n_workers: int, *,
                log: Callable[[str], None]) -> Dict[str, Any]:
    """One fabric run on a fresh cache; returns the per-run report row."""
    with tempfile.TemporaryDirectory(prefix="repro-dist-") as cache_dir:
        # A fast first worker can finish the grid before the last one's
        # interpreter is up: the coordinator is told how many to expect
        # and stays until each has heard "done" (or all have exited).
        coordinator = SweepCoordinator(
            specs, cache_dir, resume=False, expected_workers=n_workers)
        thread = CoordinatorThread(coordinator, linger=WORKER_START_LINGER)
        port = thread.start()
        started = time.time()
        procs = [_spawn_worker(port) for _ in range(n_workers)]
        failures = []
        for proc in procs:
            _out, err = proc.communicate()
            if proc.returncode != 0:
                failures.append(
                    f"worker exited {proc.returncode}: "
                    f"{err.decode(errors='replace')[-500:]}")
        thread.stop()       # every worker has exited: nobody to wait for
        stats = thread.result()
        wall = time.time() - started
        if failures:
            raise RuntimeError(
                f"{len(failures)}/{n_workers} workers failed: "
                + "; ".join(failures))
        if not stats["done"]:
            raise RuntimeError(
                f"coordinator stopped with {stats['completed']}/"
                f"{stats['total']} points complete")
        merged = merge_results(specs, cache_dir)
        fabric_wall = stats["wall_seconds"] or wall
        log(f"  {n_workers} worker(s): {len(specs)} points in "
            f"{fabric_wall:.1f}s ({len(specs) / fabric_wall:.1f} pts/s)")
        return {
            "workers": n_workers,
            "wall_seconds": fabric_wall,
            "points_per_sec": len(specs) / fabric_wall,
            "completed": stats["completed"],
            "reassigned_points": stats["reassigned_points"],
            "duplicate_results": stats["duplicate_results"],
            "dead_workers": stats["dead_workers"],
            "leases_granted": stats["leases_granted"],
            "core_limited": (os.cpu_count() or 1) < n_workers,
            "_merged": merged,
        }


def run_dist_bench(*, smoke: Optional[bool] = None,
                   worker_counts: Sequence[int] = DEFAULT_WORKER_COUNTS,
                   seeds: Optional[int] = None,
                   log: Callable[[str], None] = print) -> Dict[str, Any]:
    """Run the full bench (see module docstring); return the report."""
    if smoke is None:
        smoke = smoke_mode()
    if smoke:
        grid = dict(families=SMOKE_FAMILIES, schedulers=SMOKE_SCHEDULERS,
                    algorithms=SMOKE_ALGORITHMS,
                    seeds=seeds or SMOKE_SEEDS)
        worker_counts = [n for n in worker_counts if n <= 2] or [1, 2]
    else:
        grid = dict(families=DIST_FAMILIES, schedulers=DIST_SCHEDULERS,
                    algorithms=DIST_ALGORITHMS,
                    seeds=seeds or DEFAULT_SEEDS)
    specs = build_dist_grid(**grid)
    log(f"distributed sweep bench: {len(specs)} points "
        f"({'smoke' if smoke else 'full'} grid), workers {list(worker_counts)}")

    log("  single-host reference (in-memory SweepRunner)...")
    ref_started = time.time()
    reference = SweepRunner(jobs=1).run(specs)
    ref_wall = time.time() - ref_started
    reference_blobs = [pickle.dumps(value) for value in reference]
    log(f"  reference: {len(specs)} points in {ref_wall:.1f}s "
        f"({len(specs) / ref_wall:.1f} pts/s)")

    runs: Dict[str, Dict[str, Any]] = {}
    bitwise_equal = True
    for n_workers in worker_counts:
        row = _run_fabric(specs, n_workers, log=log)
        merged = row.pop("_merged")
        row["bitwise_equal"] = all(
            pickle.dumps(value) == blob
            for value, blob in zip(merged, reference_blobs))
        bitwise_equal = bitwise_equal and row["bitwise_equal"]
        runs[str(n_workers)] = row
    base = runs.get("1")
    for key, row in runs.items():
        if base is not None and key != "1":
            row["scaling_vs_1"] = (
                row["points_per_sec"] / base["points_per_sec"])
            row["efficiency"] = row["scaling_vs_1"] / row["workers"]

    return {
        "benchmark": "dist",
        "smoke": smoke,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count() or 1,
        "grid": {
            "points": len(specs),
            "families": list(grid["families"]),
            "schedulers": list(grid["schedulers"]),
            "algorithms": list(grid["algorithms"]),
            "seeds": grid["seeds"],
            "max_flows": DIST_MAX_FLOWS,
            "horizon": DIST_HORIZON,
        },
        "reference": {
            "wall_seconds": ref_wall,
            "points_per_sec": len(specs) / ref_wall,
        },
        "workers": runs,
        "bitwise_equal": bitwise_equal,
    }


def write_report(report: Dict[str, Any], path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True)
                          + "\n")
