"""Command-line interface: regenerate any table or figure of the paper.

Usage::

    python -m repro list
    python -m repro run fig1b table1 ...
    python -m repro run all --fast --jobs 4
    python -m repro algorithms [--check]
    python -m repro verify [--algorithm NAME] [--claim NAME]
    python -m repro bench

Every experiment prints its paper-style result table to stdout.  With
``--fast`` the simulated experiments run at reduced duration (useful for
smoke checks); without it they use the benchmark defaults.  ``--jobs N``
fans sweep-shaped experiments out over N worker processes without
changing any number in the tables.  ``--resume DIR`` caches every sweep
point under DIR so an interrupted run picks up where it stopped, and
``--serve HOST:PORT`` (with ``--resume``) puts each grid's cache-missing
points on a sweep coordinator at that address: the run works them
itself while ``python -m repro sweep work --connect HOST:PORT``
processes on other hosts lease from the same queue and stream their
results back over TCP.
``algorithms`` prints each registered algorithm's per-layer support
(packet / fluid / equilibrium / smt, from the cross-layer registry in
``repro.core.registry``) and with ``--check`` runs a tiny scenario-A
workload per algorithm per supported layer (the CI algorithm matrix);
``verify`` machine-checks the paper's equilibrium claims with z3 (the
SMT layer; needs the optional ``z3-solver`` extra — without it every
check reports as skipped and the verb exits 0);
``run --algorithm NAME`` overrides the algorithm of the experiments
that take one, and ``scale --algorithms LIST`` replaces the generated
workloads' algorithm mix.
``bench`` measures the hot paths and writes ``BENCH_sweep.json``;
``scale`` runs generated large-topology workloads (100 to 10k+ flows,
``python -m repro scale --preset medium``) through the DES engine and
writes ``BENCH_scale.json`` (see docs/PERFORMANCE.md and
docs/REPRODUCING.md).
``sweep serve`` / ``sweep work`` / ``sweep bench`` run the distributed
sweep fabric on its own: a coordinator that owns the scheduler x CC
family grid and leases point batches over newline-delimited JSON,
workers that execute and stream results back (the same workers a
``--serve`` run takes), and the 1-vs-2-vs-4-worker scaling benchmark
behind ``BENCH_dist.json`` (see docs/ARCHITECTURE.md, "The distributed
sweep fabric").
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict

from .dist.protocol import parse_hostport
from .experiments import (
    ablation,
    calibration,
    fattree,
    responsiveness,
    rtt_heterogeneity,
    scale,
    scenario_a,
    scenario_b,
    scenario_c,
    shortflows,
    traces,
)
from .experiments.sweep import SweepRunner


#: Experiments that honour ``run --algorithm``, mapped to the
#: analytical layer each one constructs the algorithm in.  This is the
#: single source both for applying the override in :func:`_experiments`
#: and for the fail-up-front layer validation in :func:`main`.
ALGORITHM_EXPERIMENTS = {
    "rtt-sweep": "equilibrium",     # solve_fixed_point per ratio
    "stability": "fluid",           # integrates the dynamics
    "responsiveness": "fluid",      # integrates the dynamics
}


def _experiments(fast: bool, runner: SweepRunner | None = None,
                 algorithm: str | None = None
                 ) -> Dict[str, Callable[[], object]]:
    """Experiment name -> zero-argument callable returning a table.

    ``runner`` executes the grids of the sweep-shaped experiments (see
    :func:`_sweep_runner`); ``algorithm`` overrides the congestion-
    control algorithm of the experiments listed in
    :data:`ALGORITHM_EXPERIMENTS`; names resolve through the cross-layer
    registry.
    """
    # Keep the ``**algo``/``**algos`` usage below in lockstep with
    # ALGORITHM_EXPERIMENTS — main() validates the override against
    # exactly those experiments' layers.
    algo = {} if algorithm is None else {"algorithm": algorithm}
    algos = {} if algorithm is None else {"algorithms": (algorithm,)}
    sim = dict(duration=20.0, warmup=10.0) if not fast else \
        dict(duration=8.0, warmup=5.0)
    tree = dict(k=8, duration=2.0, warmup=0.75) if not fast else \
        dict(k=4, duration=1.5, warmup=0.5)
    dyn = dict(k=4, duration=12.0, warmup=1.0) if not fast else \
        dict(k=4, duration=5.0, warmup=1.0)
    trace_len = 90.0 if not fast else 30.0
    return {
        "fig1b": lambda: scenario_a.figure1_table(simulate_lia=True, **sim),
        "fig1c": lambda: scenario_a.figure1_table(),
        "fig4": lambda: scenario_b.figure4_table(),
        "table1": lambda: scenario_b.table_1_2("lia", **sim),
        "table2": lambda: scenario_b.table_1_2("olia", **sim),
        "fig5b": lambda: scenario_c.figure5b_table(),
        "fig5cd": lambda: scenario_c.figure5cd_table(simulate_lia=True,
                                                     **sim),
        "fig7-8": lambda: traces.figure7_8_table(duration=trace_len),
        "fig9-10": lambda: scenario_a.figure9_10_table(
            n1_values=(10, 30), c1_over_c2=(0.75, 1.5), **sim,
            runner=runner),
        "fig11-12": lambda: scenario_c.figure11_12_table(
            n1_values=(10, 30), c1_over_c2=(1.0, 2.0), **sim,
            runner=runner),
        "fig13a": lambda: fattree.figure13a_table(
            subflow_counts=(2, 4, 8) if not fast else (2, 4), **tree,
            runner=runner),
        "fig13b": lambda: fattree.figure13b_table(
            n_subflows=8 if not fast else 4, **tree, runner=runner),
        "fig14": lambda: shortflows.figure14_table(**dyn, runner=runner),
        "table3": lambda: shortflows.table3(**dyn, runner=runner),
        "fig17": lambda: scenario_b.figure17_table(),
        "ablation-epsilon": lambda: ablation.epsilon_sweep_table(
            runner=runner),
        "ablation-alpha": lambda: ablation.flappiness_table(
            duration=trace_len,
            seeds=(1, 2, 3) if not fast else (1,), runner=runner),
        "ablation-queue": lambda: ablation.queue_discipline_table(
            **sim, runner=runner),
        "responsiveness": lambda: responsiveness
            .capacity_drop_settling_table(**algos),
        "stability": lambda: responsiveness.stability_table(**algo),
        "rtt-sweep": lambda: rtt_heterogeneity.rtt_sweep_table(
            runner=runner, **algo),
        "rtt-criterion": rtt_heterogeneity.best_path_criterion_table,
        "calibration": lambda: calibration.formula_validation_table(
            duration=40.0 if not fast else 15.0,
            warmup=15.0 if not fast else 8.0),
    }


def _parse_names(text):
    """Split a comma-separated ``--foo a,b,c`` option into a tuple.

    ``None`` (option absent) passes through; blanks are dropped, so an
    empty/whitespace value becomes the empty tuple and the command can
    reject it with a clear message.  Shared by every list-valued option
    so singular/plural conventions stay uniform across subcommands.
    """
    if text is None:
        return None
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _sweep_options() -> argparse.ArgumentParser:
    """Parent parser: how ``run`` and ``scale`` execute their grids."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for sweep grids "
                             "(default: 1, i.e. in-process)")
    parent.add_argument("--resume", metavar="DIR", default=None,
                        help="cache every sweep point under DIR; "
                             "re-running with the same DIR skips completed "
                             "points (resumable sweeps)")
    parent.add_argument("--serve", metavar="HOST:PORT", default=None,
                        help="lease each grid's cache-missing points from "
                             "a sweep coordinator bound to HOST:PORT: "
                             "this run works them and 'sweep work "
                             "--connect HOST:PORT' processes on other "
                             "hosts help (requires --resume, the cache "
                             "the grid completes into)")
    return parent


def _sweep_runner(args) -> SweepRunner | None:
    """The :class:`SweepRunner` the :func:`_sweep_options` flags ask
    for, or ``None`` after saying on stderr what is wrong with them."""
    if args.jobs < 1:
        print(f"--jobs must be >= 1 (got {args.jobs})", file=sys.stderr)
        return None
    serve = None
    if args.serve is not None:
        if args.resume is None:
            print("--serve requires --resume DIR: the coordinator completes "
                  "the grid into it and the run reads the results back",
                  file=sys.stderr)
            return None
        try:
            serve = parse_hostport(args.serve)
        except ValueError as exc:
            print(f"--serve: {exc}", file=sys.stderr)
            return None
    return SweepRunner(jobs=args.jobs, cache_dir=args.resume, serve=serve)


def _report_dir_exists(output: str) -> bool:
    """Whether ``--output`` can be written; says why not on stderr."""
    out_dir = os.path.dirname(os.path.abspath(output))
    if os.path.isdir(out_dir):
        return True
    print(f"cannot write report: no such directory {out_dir}",
          file=sys.stderr)
    return False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce tables/figures of 'MPTCP is not "
                    "Pareto-Optimal' (Khalili et al.)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    sweep_options = _sweep_options()
    run = sub.add_parser("run", parents=[sweep_options],
                         help="run one or more experiments")
    run.add_argument("experiments", nargs="+",
                     help="experiment names (or 'all')")
    run.add_argument("--fast", action="store_true",
                     help="reduced durations for a quick smoke run")
    run.add_argument("--algorithm", default=None, metavar="NAME",
                     help="override the congestion-control algorithm of "
                          "the experiments that take one (rtt-sweep, "
                          "stability, responsiveness); any name from "
                          "'python -m repro algorithms'")
    scale_cmd = sub.add_parser(
        "scale", parents=[sweep_options],
        help="run generated scale workloads and write BENCH_scale.json")
    scale_cmd.add_argument("--preset", dest="presets", action="append",
                           choices=sorted(scale.PRESETS),
                           metavar="NAME",
                           help="generator preset to run (repeatable; "
                                f"default: medium; known: "
                                f"{', '.join(sorted(scale.PRESETS))})")
    scale_cmd.add_argument("--families", default=None, metavar="LIST",
                           help="comma-separated scenario families to "
                                "run as finite-transfer sections (known: "
                                "dual_lte, handover, wifi_lte, wired; "
                                "default: none)")
    scale_cmd.add_argument("--schedulers", metavar="LIST",
                           default="minrtt,roundrobin,redundant,qaware",
                           help="comma-separated packet schedulers for "
                                "the family sections (registry axis; "
                                "default: minrtt,roundrobin,redundant,"
                                "qaware)")
    scale_cmd.add_argument("--duration", type=float, default=None,
                           metavar="SECONDS",
                           help="simulated measurement window (default: "
                                "per-preset, see experiments/scale.py)")
    scale_cmd.add_argument("--warmup", type=float, default=None,
                           metavar="SECONDS",
                           help="simulated warmup excluded from goodput "
                                "stats (default: per-preset)")
    scale_cmd.add_argument("--max-flows", type=int, default=None,
                           metavar="N",
                           help="cap the generated flow population "
                                "(links shrink in step)")
    scale_cmd.add_argument("--algorithms", default=None, metavar="LIST",
                           help="comma-separated registry names replacing "
                                "the presets' algorithm mix at equal "
                                "weights (e.g. 'balia,tcp'; default: the "
                                "preset mix)")
    scale_cmd.add_argument("--seed", type=int, default=1,
                           help="generator seed (default: 1)")
    scale_cmd.add_argument("--output", default="BENCH_scale.json",
                           metavar="PATH",
                           help="where to write the JSON report "
                                "(default: ./BENCH_scale.json)")
    scale_cmd.add_argument("--smoke", action="store_true",
                           help="capped sizes (same as "
                                "REPRO_BENCH_SMOKE=1)")
    algorithms_cmd = sub.add_parser(
        "algorithms",
        help="print each registered algorithm's per-layer support "
             "(packet / fluid / equilibrium / smt)")
    algorithms_cmd.add_argument(
        "--check", action="store_true",
        help="also run the algorithm-matrix smoke: a tiny scenario-A "
             "workload per registered algorithm per supported layer "
             "(non-zero exit on any failure; CI runs this)")
    verify_cmd = sub.add_parser(
        "verify",
        help="machine-check the paper's equilibrium claims with z3 "
             "(the registry's smt layer; skips cleanly without the "
             "optional z3-solver extra)")
    verify_cmd.add_argument(
        "--algorithm", action="append", default=None, metavar="NAME",
        help="restrict to this algorithm (repeatable; default: every "
             "smt-capable spec)")
    verify_cmd.add_argument(
        "--claim", action="append", default=None, metavar="NAME",
        help="restrict to this claim (repeatable; known: non-pareto, "
             "uniqueness, cwnd-bounds; default: all a model declares)")
    verify_cmd.add_argument(
        "--timeout", type=float, default=120.0, metavar="SECONDS",
        help="per-query solver timeout (default: 120)")
    bench = sub.add_parser(
        "bench", help="measure hot paths and write BENCH_sweep.json")
    bench.add_argument("--output", default="BENCH_sweep.json",
                       metavar="PATH",
                       help="where to write the JSON report "
                            "(default: ./BENCH_sweep.json)")
    bench.add_argument("--smoke", action="store_true",
                       help="capped sizes (same as REPRO_BENCH_SMOKE=1)")
    serve_cmd = sub.add_parser(
        "serve",
        help="run the always-on allocation-query service (or, with "
             "--loadgen, the million-query load harness writing "
             "BENCH_serve.json)")
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (default: 127.0.0.1)")
    serve_cmd.add_argument("--port", type=int, default=8642,
                           help="TCP port for the JSON-lines protocol "
                                "(default: 8642)")
    serve_cmd.add_argument("--store", metavar="DIR", default=None,
                           help="persistent result-store directory "
                                "(default: .repro-serve-store when "
                                "serving; a throwaway temp dir under "
                                "--loadgen so the cold phase is cold)")
    serve_cmd.add_argument("--batch-window", type=float, default=0.002,
                           metavar="SECONDS",
                           help="how long a pending batch waits for "
                                "company (default: 0.002)")
    serve_cmd.add_argument("--max-batch", type=int, default=128,
                           metavar="K",
                           help="batch K cap; a full batch solves "
                                "immediately (default: 128)")
    serve_cmd.add_argument("--loadgen", action="store_true",
                           help="run the seeded load harness instead of "
                                "serving: replay the query stream and "
                                "write the BENCH_serve.json report")
    serve_cmd.add_argument("--queries", type=int, default=None, metavar="N",
                           help="loadgen hot-set replay length "
                                "(default: 1000000)")
    serve_cmd.add_argument("--concurrency", type=int, default=None,
                           metavar="N",
                           help="loadgen concurrent clients "
                                "(default: 128)")
    serve_cmd.add_argument("--seed", type=int, default=1,
                           help="loadgen stream seed (default: 1)")
    serve_cmd.add_argument("--output", default="BENCH_serve.json",
                           metavar="PATH",
                           help="loadgen report path "
                                "(default: ./BENCH_serve.json)")
    serve_cmd.add_argument("--smoke", action="store_true",
                           help="capped sizes (same as "
                                "REPRO_BENCH_SMOKE=1)")

    sweep_cmd = sub.add_parser(
        "sweep",
        help="distributed sweep fabric: coordinator (serve), worker "
             "(work), live progress (status) and the scaling benchmark "
             "(bench) behind BENCH_dist.json")
    sweep_sub = sweep_cmd.add_subparsers(dest="sweep_command",
                                         required=True)
    fabric_serve = sweep_sub.add_parser(
        "serve",
        help="run the coordinator: own the grid manifest, lease point "
             "batches to workers over newline-delimited JSON, write "
             "results into its cache, reap dead workers")
    fabric_serve.add_argument("--cache-dir", required=True, metavar="DIR",
                              help="content-hash cache the sweep "
                                   "completes into (the SweepRunner "
                                   "--resume layout; restarting with the "
                                   "same DIR resumes)")
    fabric_serve.add_argument("--host", default="0.0.0.0",
                              help="bind address (default: 0.0.0.0 — "
                                   "workers are usually remote)")
    fabric_serve.add_argument("--port", type=int, default=None,
                              help="TCP port (default: 8653; 0 picks an "
                                   "ephemeral port and prints it)")
    fabric_serve.add_argument("--families", default=None, metavar="LIST",
                              help="comma-separated scenario families "
                                   "(default: wired,dual_lte,wifi_lte,"
                                   "handover)")
    fabric_serve.add_argument("--schedulers", default=None, metavar="LIST",
                              help="comma-separated packet schedulers "
                                   "(default: minrtt,roundrobin,"
                                   "redundant,qaware)")
    fabric_serve.add_argument("--algorithms", default=None, metavar="LIST",
                              help="comma-separated algorithms (default: "
                                   "lia,olia,balia,ewtcp,tcp)")
    fabric_serve.add_argument("--seeds", type=int, default=None,
                              metavar="N",
                              help="seeds per grid cell (default: 125 — "
                                   "the full 10k-point grid at the "
                                   "default axes)")
    fabric_serve.add_argument("--lease-size", type=int, default=None,
                              metavar="K",
                              help="points per lease (default: 8)")
    fabric_serve.add_argument("--heartbeat-timeout", type=float,
                              default=None, metavar="SECONDS",
                              help="requeue a worker's leases after this "
                                   "much silence (default: 30)")
    fabric_serve.add_argument("--expect-workers", type=int, default=None,
                              metavar="N",
                              help="workers you are starting: once the "
                                   "grid is complete, stay up (at most "
                                   "the heartbeat timeout) until N "
                                   "distinct workers have been told so, "
                                   "so a late starter does not find the "
                                   "port closed (default: wait for open "
                                   "connections only)")
    fabric_serve.add_argument("--fresh", dest="resume",
                              action="store_false",
                              help="ignore completed points already in "
                                   "the cache (default: resume them)")
    fabric_work = sweep_sub.add_parser(
        "work",
        help="run a worker: register with a coordinator ('sweep serve' "
             "or a 'run'/'scale' with --serve), lease point batches, "
             "execute, stream results back; reconnects with backoff "
             "when the coordinator goes away")
    fabric_work.add_argument("--connect", required=True,
                             metavar="HOST:PORT",
                             help="the coordinator (bare HOST uses the "
                                  "default port 8653)")
    fabric_work.add_argument("--jobs", type=int, default=1, metavar="N",
                             help="local worker processes per lease "
                                  "(default: 1, in-process)")
    fabric_work.add_argument("--name", default=None,
                             help="worker name in coordinator status "
                                  "output (default: host-pid)")
    fabric_work.add_argument("--reconnect", type=int, default=5,
                             metavar="N",
                             help="connection attempts before giving up "
                                  "(default: 5)")
    fabric_work.add_argument("--reconnect-delay", type=float, default=0.5,
                             metavar="SECONDS",
                             help="base of the exponential reconnect "
                                  "backoff (default: 0.5)")
    fabric_status = sweep_sub.add_parser(
        "status",
        help="print a serving coordinator's merged progress/ETA view")
    fabric_status.add_argument("--connect", required=True,
                               metavar="HOST:PORT",
                               help="the coordinator to query")
    fabric_bench = sweep_sub.add_parser(
        "bench",
        help="run the end-to-end scaling benchmark (single-host "
             "reference, then the fabric at each worker count; bitwise "
             "merge check) and write BENCH_dist.json")
    fabric_bench.add_argument("--output", default="BENCH_dist.json",
                              metavar="PATH",
                              help="where to write the JSON report "
                                   "(default: ./BENCH_dist.json)")
    fabric_bench.add_argument("--workers", default="1,2,4", metavar="LIST",
                              help="comma-separated worker counts "
                                   "(default: 1,2,4; smoke caps at 2)")
    fabric_bench.add_argument("--seeds", type=int, default=None,
                              metavar="N",
                              help="seeds per grid cell (default: 125 "
                                   "full / 12 smoke)")
    fabric_bench.add_argument("--smoke", action="store_true",
                              help="tiny grid and <=2 workers (same as "
                                   "REPRO_BENCH_SMOKE=1)")
    return parser


def _fabric_progress(status: dict) -> None:
    """One coordinator progress line (the merged live view)."""
    rate = status.get("points_per_sec")
    eta = status.get("eta_seconds")
    alive = sum(1 for w in status["workers"].values() if w["alive"])
    line = (f"[{status['completed']}/{status['total']} points, "
            f"{len(status['workers'])} worker(s) ({alive} alive)")
    if rate:
        line += f", {rate:.1f} pts/s"
    if eta:
        line += f", eta {eta:.0f}s"
    if status["reassigned_points"]:
        line += f", {status['reassigned_points']} reassigned"
    print(line + "]", flush=True)


def _sweep_fabric(args) -> int:
    """The ``sweep`` verb: serve / work / status / bench."""
    import asyncio
    import json

    from .dist import (DEFAULT_PORT, JsonLineConnection, SweepCoordinator,
                       SweepWorker)
    from .dist.coordinator import DEFAULT_LINGER
    from .dist import bench as dist_bench

    if args.sweep_command == "serve":
        try:
            specs = dist_bench.build_dist_grid(
                families=_parse_names(args.families)
                or dist_bench.DIST_FAMILIES,
                schedulers=_parse_names(args.schedulers)
                or dist_bench.DIST_SCHEDULERS,
                algorithms=_parse_names(args.algorithms)
                or dist_bench.DIST_ALGORITHMS,
                seeds=args.seeds or dist_bench.DEFAULT_SEEDS)
        except (KeyError, ValueError) as exc:
            print(str(exc.args[0] if exc.args else exc), file=sys.stderr)
            return 2
        knobs = {}
        if args.lease_size is not None:
            knobs["lease_size"] = args.lease_size
        if args.heartbeat_timeout is not None:
            knobs["heartbeat_timeout"] = args.heartbeat_timeout
        if args.expect_workers is not None and args.expect_workers < 1:
            print(f"--expect-workers must be >= 1 (got "
                  f"{args.expect_workers})", file=sys.stderr)
            return 2
        coordinator = SweepCoordinator(
            specs, args.cache_dir, resume=args.resume,
            on_progress=_fabric_progress,
            expected_workers=args.expect_workers, **knobs)
        port = DEFAULT_PORT if args.port is None else args.port
        print(f"sweep coordinator: {len(specs)} points "
              f"({coordinator.resumed_points} already in "
              f"{args.cache_dir}); serving on {args.host}:"
              f"{port or '<ephemeral>'} (Ctrl-C stops; restarting with "
              "the same --cache-dir resumes)", flush=True)
        try:
            # Late workers get as long as a silent one would before it
            # is presumed dead.
            stats = asyncio.run(coordinator.serve(
                args.host, port,
                ready=lambda p: print(f"[listening on port {p}]",
                                      flush=True),
                linger=(DEFAULT_LINGER if args.expect_workers is None
                        else coordinator.heartbeat_timeout)))
        except KeyboardInterrupt:
            print("\n[coordinator stopped; completed points are in "
                  f"{args.cache_dir}]")
            return 130
        print(f"[grid complete: {stats['completed']}/{stats['total']} "
              f"points, {stats['results_received']} received, "
              f"{stats['resumed_points']} resumed, "
              f"{stats['reassigned_points']} reassigned, "
              f"{stats['dead_workers']} dead worker(s)]")
        return 0

    if args.sweep_command == "work":
        try:
            host, port = parse_hostport(args.connect, DEFAULT_PORT)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if args.jobs < 1:
            print(f"--jobs must be >= 1 (got {args.jobs})",
                  file=sys.stderr)
            return 2
        worker = SweepWorker(host, port, jobs=args.jobs, name=args.name,
                             reconnect_attempts=args.reconnect,
                             reconnect_delay=args.reconnect_delay)
        summary = worker.run()
        print(f"[worker {summary.name}: {summary.computed} point(s) "
              f"over {summary.leases} lease(s) in "
              f"{summary.wall_seconds:.1f}s; {summary.reason}]")
        if summary.reason != "done":
            print(f"worker gave up: {summary.reason} (after "
                  f"{summary.reconnects} failed connection attempt(s))",
                  file=sys.stderr)
            return 1
        return 0

    if args.sweep_command == "status":
        try:
            host, port = parse_hostport(args.connect, DEFAULT_PORT)
            with JsonLineConnection(host, port, timeout=10.0) as conn:
                status = conn.request("status")
        except (OSError, ValueError) as exc:
            print(f"cannot query {args.connect}: {exc}", file=sys.stderr)
            return 1
        status.pop("ok", None)
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0

    # bench
    if not _report_dir_exists(args.output):
        return 2
    try:
        worker_counts = tuple(int(n) for n in _parse_names(args.workers))
    except ValueError:
        print(f"--workers must be a comma-separated list of counts, "
              f"got {args.workers!r}", file=sys.stderr)
        return 2
    if not worker_counts or min(worker_counts) < 1:
        print(f"--workers needs counts >= 1, got {args.workers!r}",
              file=sys.stderr)
        return 2
    started = time.time()
    report = dist_bench.run_dist_bench(
        smoke=args.smoke or None, worker_counts=worker_counts,
        seeds=args.seeds)
    print(f"[sweep bench: {time.time() - started:.1f}s]")
    dist_bench.write_report(report, args.output)
    print(f"[report written to {args.output}]")
    if not report["bitwise_equal"]:
        print("merged distributed results are NOT bitwise-equal to the "
              "single-host reference", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in _experiments(fast=False):
            print(name)
        return 0

    if args.command == "algorithms":
        from .experiments.algorithms import (
            layer_support_table,
            scheduler_check_table,
            scheduler_smoke_check,
            scheduler_support_table,
            smoke_check,
            smoke_check_table,
        )
        print(layer_support_table())
        print()
        print(scheduler_support_table())
        if not args.check:
            return 0
        started = time.time()
        checks = smoke_check()
        print()
        print(smoke_check_table(checks))
        print(f"[algorithm matrix: {time.time() - started:.1f}s]")
        started = time.time()
        scheduler_checks = scheduler_smoke_check()
        print()
        print(scheduler_check_table(scheduler_checks))
        print(f"[scheduler matrix: {time.time() - started:.1f}s]")
        failed = [c for c in checks if c.status == "FAIL"]
        for check in failed:      # name every failing cell on stderr
            print(f"FAIL: {check.algorithm}/{check.layer}: "
                  f"{check.detail}", file=sys.stderr)
        sched_failed = [c for c in scheduler_checks if c.status == "FAIL"]
        for check in sched_failed:
            print(f"FAIL: {check.scheduler}x{check.algorithm}: "
                  f"{check.detail}", file=sys.stderr)
        return 1 if failed or sched_failed else 0

    if args.command == "verify":
        from .verify import Z3_AVAILABLE, format_results
        from .verify.claims import run_verification
        started = time.time()
        try:
            results = run_verification(
                algorithms=args.algorithm, claims=args.claim,
                timeout_ms=int(args.timeout * 1000))
        except (KeyError, ValueError) as exc:
            print(str(exc.args[0] if exc.args else exc), file=sys.stderr)
            return 2
        print(format_results(results))
        print(f"[verify: {time.time() - started:.1f}s]")
        if not Z3_AVAILABLE:
            print("note: z3-solver is not installed; every check was "
                  "skipped (pip install z3-solver)")
            return 0
        bad = [r for r in results if not r.ok]
        for result in bad:
            print(f"{result.status.upper()}: {result.algorithm}/"
                  f"{result.claim}: {result.detail}", file=sys.stderr)
        return 1 if bad else 0

    if args.command == "scale":
        runner = _sweep_runner(args)
        if runner is None or not _report_dir_exists(args.output):
            return 2
        schedulers = _parse_names(args.schedulers) or ()
        families = _parse_names(args.families) or ()
        algorithms = _parse_names(args.algorithms)
        started = time.time()
        try:
            report = scale.scale_report(
                args.presets or ["medium"], families=families,
                schedulers=schedulers, duration=args.duration,
                warmup=args.warmup,
                max_flows=args.max_flows, algorithms=algorithms,
                seed=args.seed, smoke=args.smoke or None, runner=runner)
        except (KeyError, ValueError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            print(str(message), file=sys.stderr)
            return 2
        print(scale.report_table(report))
        if report.get("families"):
            print(scale.family_table(report))
        print(f"[scale: {time.time() - started:.1f}s]")
        scale.write_report(report, args.output)
        print(f"[report written to {args.output}]")
        return 0

    if args.command == "serve":
        import asyncio

        import dataclasses

        from .serve import LoadGenConfig, run_loadgen, run_server, \
            write_report
        from .serve.loadgen import format_report as serve_format
        if args.loadgen:
            if not _report_dir_exists(args.output):
                return 2
            overrides = {"seed": args.seed,
                         "batch_window": args.batch_window,
                         "max_batch": args.max_batch}
            if args.queries is not None:
                overrides["queries"] = args.queries
            if args.concurrency is not None:
                overrides["concurrency"] = args.concurrency
            config = dataclasses.replace(LoadGenConfig(), **overrides)
            started = time.time()
            report = run_loadgen(config, store_dir=args.store,
                                 smoke=args.smoke or None)
            print(serve_format(report))
            print(f"[serve loadgen: {time.time() - started:.1f}s]")
            write_report(report, args.output)
            print(f"[report written to {args.output}]")
            return 0
        store_dir = args.store or ".repro-serve-store"
        print(f"serving allocation queries on {args.host}:{args.port} "
              f"(store: {store_dir}; one JSON query per line, "
              f"{{\"op\": \"stats\"}} for counters; Ctrl-C stops)")
        try:
            asyncio.run(run_server(
                args.host, args.port, store_dir=store_dir,
                batch_window=args.batch_window, max_batch=args.max_batch))
        except KeyboardInterrupt:
            print("\n[serve: stopped]")
        return 0

    if args.command == "bench":
        from .benchreport import format_report, run_bench
        if not _report_dir_exists(args.output):
            return 2
        report = run_bench(args.output, smoke=args.smoke or None)
        print(format_report(report))
        print(f"[report written to {args.output}]")
        return 0

    if args.command == "sweep":
        return _sweep_fabric(args)

    runner = _sweep_runner(args)
    if runner is None:
        return 2
    registry = _experiments(args.fast, runner, algorithm=args.algorithm)
    names = list(registry) if "all" in args.experiments \
        else args.experiments
    unknown = [n for n in names if n not in registry]
    if unknown:
        known = ", ".join(registry)
        print(f"unknown experiment(s): {', '.join(unknown)}\n"
              f"known: {known}", file=sys.stderr)
        return 2
    if args.algorithm is not None:
        from .core.registry import get_spec
        try:
            spec = get_spec(args.algorithm)   # loud list on typos
        except KeyError as exc:
            print(str(exc.args[0] if exc.args else exc), file=sys.stderr)
            return 2
        # Which layers the override must be constructible in depends on
        # the *selected* experiments: fail up front (not minutes into
        # `run all`), but only for layers actually needed, so partial-
        # layer user specs keep working where they can.
        affected = [n for n in names if n in ALGORITHM_EXPERIMENTS]
        if not affected:
            print(f"note: --algorithm {args.algorithm} has no effect — "
                  "none of the selected experiments take an algorithm "
                  f"({', '.join(sorted(ALGORITHM_EXPERIMENTS))})",
                  file=sys.stderr)
        needed = sorted({ALGORITHM_EXPERIMENTS[n] for n in affected})
        missing = [layer for layer in needed if not spec.supports(layer)]
        required = sorted({param for layer in needed
                           if spec.supports(layer)
                           for param in spec.required_params(layer)})
        if missing or required:
            why = (f"has no {'/'.join(missing)} layer" if missing else
                   f"requires parameter(s) {', '.join(required)}")
            print(f"--algorithm {args.algorithm}: the algorithm {why}, "
                  f"but {', '.join(affected)} needs the "
                  f"{'/'.join(needed)} layer constructible by name",
                  file=sys.stderr)
            return 2
    for name in names:
        started = time.time()
        table = registry[name]()
        elapsed = time.time() - started
        print(table)
        print(f"[{name}: {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
