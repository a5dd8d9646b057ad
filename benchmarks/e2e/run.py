#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction: one command, every metric.

    python benchmarks/e2e/run.py                      # whole suite
    python benchmarks/e2e/run.py --workload des_bulk --seed 3 \\
        --seconds 20 --trace 0                        # one run (driver form)
    python benchmarks/e2e/run.py --smoke              # seconds-sized
    python benchmarks/e2e/run.py --selfcheck          # A/A: two sets of 5

Names, units and regression bounds live in ``BENCHMARK.json`` at the
repo root and are read from there.  Every workload runs in a fresh child
process of this script, so ``setup_s`` and ``peak_rss_mb`` are the
workload's own; set-up is repeated in ``SETUP_REPEATS`` fresh children
and the median reported.  End-to-end metrics come from untraced runs
only; ``--trace`` runs report the per-layer metrics.  The last line of a
``--workload`` run is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from e2e_core import (BlockLoop, Tracer, block_spread,  # noqa: E402
                      end_to_end, latency_percentiles, layer_self_shares,
                      loadavg, median, quantile, trace_overhead_share)

#: Fresh-process set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
SMOKE_SECONDS = 0.5

#: Variables that would silently change what the program under test does.
_SCRUBBED_ENV = ("REPRO_SIM_SCHEDULER", "REPRO_SIM_COMPILED",
                 "REPRO_SIM_CALIBRATE", "REPRO_BENCH_SMOKE")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- the untimed build --------------------------------------------------------
def ensure_build() -> bool:
    """Build the optional C kernels in place when a compiler exists.

    Returns whether the compiled engine is in use.  The build is forced
    whenever the sources differ from the ones the current shared object
    was built from (a stamp under ``out/``), so the parent and a change
    never differ silently; a failed build with a compiler present fails
    the run.
    """
    if shutil.which("cc") is None and shutil.which("gcc") is None:
        return False
    sources = [ROOT / "setup.py", SRC / "repro" / "sim" / "_kernels.c"]
    digest = hashlib.sha256(sys.version.encode())
    for path in sources:
        digest.update(path.read_bytes())
    stamp = OUT / "build.stamp"
    built = list((SRC / "repro" / "sim").glob("_kernels*.so"))
    if built and stamp.exists() and stamp.read_text() == digest.hexdigest():
        return True
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace", "--force"],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit("e2e: building repro.sim._kernels failed")
    stamp.write_text(digest.hexdigest())
    return True


def environment(compiled: bool) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True).stdout.strip() or None
    except OSError:
        commit = None
    cpus = os.cpu_count() or 1
    load = loadavg()
    return {
        "cpu_count": cpus,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "compiled": compiled,
        "z3": importlib.util.find_spec("z3") is not None,
        "commit": commit,
        "loadavg": load,
        "busy_host": load > cpus / 2,
    }


# -- the child: one workload in one fresh process -----------------------------
def child_main(args) -> int:
    sys.path.insert(0, str(SRC))
    workload = importlib.import_module(f"wl_{args.workload}")
    spec = load_spec()
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT) as scratch:
        state = workload.setup(args.seed, args.smoke, Path(scratch))
        setup_s = time.time() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = Tracer(args.workload, enabled=bool(args.trace))
        started = time.perf_counter()
        blocks = workload.measure(
            state, BlockLoop(args.seconds, tracer), tracer)
        measured_s = time.perf_counter() - started
        if args.trace:
            metrics = {m["name"]: 0.0 for m in spec["per_layer"]}
            metrics.update(workload.layers(state, blocks, tracer))
            metrics.update(layer_self_shares(tracer.spans))
            metrics["bench.trace_overhead_share"] = \
                trace_overhead_share(blocks)
            metrics["bench.block_spread"] = block_spread(blocks)
            metrics["bench.p95_ms"] = latency_percentiles(blocks)[1]
            metrics["bench.loadavg_start"] = args.loadavg
            tracer.write(OUT / f"trace-{args.workload}.json")
        else:
            metrics = end_to_end(blocks)
            metrics["setup_s"] = setup_s
        verdict = workload.check(state, blocks)
    print(json.dumps({
        "metrics": metrics, "blocks": len(blocks),
        "measured_s": measured_s, **verdict}))
    return 0


def spawn_child(workload: str, seed: int, seconds: float, trace: int,
                smoke: bool, setup_only: bool = False) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED_ENV}
    command = [sys.executable, str(HERE / "run.py"), "--child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--loadavg", str(loadavg()),
               "--spawned-at", repr(time.time())]
    if smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise SystemExit(f"e2e: {workload} child exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool) -> dict:
    """One run as the driver sees it: the result object of the contract."""
    setups = []
    if not trace:
        repeats = 1 if smoke else SETUP_REPEATS
        setups = [spawn_child(workload, seed, seconds, trace, smoke,
                              setup_only=True)["setup_s"]
                  for _ in range(repeats - 1)]
    result = spawn_child(workload, seed, seconds, trace, smoke)
    metrics = result["metrics"]
    if not trace:
        metrics["setup_s"] = median(setups + [metrics["setup_s"]])
    spec = load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"e2e: {workload} did not report {missing}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
        "blocks": result["blocks"],
        "measured_s": result["measured_s"],
    }


def print_result(workload: str, trace: int, result: dict) -> None:
    kind = "per-layer" if trace else "end-to-end"
    print(f"# {workload} ({kind}): {result['blocks']} blocks in "
          f"{result['measured_s']:.1f}s, attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"{workload:<14}{name:<36}{metric['value']:>16.6g} "
              f"{metric['unit']}")


def contract_line(result: dict) -> str:
    return json.dumps({key: result[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


# -- whole-suite modes --------------------------------------------------------
def run_suite(spec: dict, seed: int, seconds: float, smoke: bool,
              kinds=(0, 1)) -> dict:
    """Every workload, untraced (0) and/or traced (1)."""
    suite = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        suite[name] = {}
        for trace in kinds:
            key = "per_layer" if trace else "end_to_end"
            suite[name][key] = run_workload(name, seed, seconds, trace, smoke)
            print_result(name, trace, suite[name][key])
    return suite


def suite_ok(suite: dict) -> bool:
    return all(result["correct"] for runs in suite.values()
               for result in runs.values())


def _quartiles(values):
    return [quantile(values, q) for q in (0.25, 0.5, 0.75)]


def selfcheck(spec: dict, seed: int, seconds: float, smoke: bool,
              runs: int = 5) -> dict:
    """A/A: two interleaved sets of ``runs`` suite runs of this commit.

    Fails when a pair of medians differs by more than the metric's
    bound, or an exact count differs between the two traced runs.
    """
    sets = {"A": [], "B": []}
    for index in range(runs):
        for side in ("AB" if index % 2 == 0 else "BA"):
            print(f"## selfcheck run {index + 1}/{runs} of set {side}")
            sets[side].append(run_suite(
                spec, seed + index, seconds, smoke,
                kinds=(0, 1) if index == 0 else (0,)))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    table, ok = {}, True
    for entry in spec["workloads"]:
        name = entry["name"]
        for metric, meta in bounds.items():
            row = {}
            for side, suites in sets.items():
                row[side] = _quartiles(
                    [s[name]["end_to_end"]["metrics"][metric]["value"]
                     for s in suites])
            row["difference"] = abs(row["B"][1] / row["A"][1] - 1)
            row["within_bound"] = row["difference"] <= meta["bound"]
            ok = ok and row["within_bound"]
            table[f"{name}.{metric}"] = row
            print(f"{name:<14}{metric:<14} A q1/med/q3 "
                  f"{row['A'][0]:.5g}/{row['A'][1]:.5g}/{row['A'][2]:.5g}  "
                  f"B {row['B'][0]:.5g}/{row['B'][1]:.5g}/{row['B'][2]:.5g}  "
                  f"diff {row['difference']:.2%} (bound {meta['bound']:.0%})"
                  f"{'' if row['within_bound'] else '  <-- OUT OF BOUND'}")
    # The two traced runs (one per set): every per-layer value side by
    # side, and the exact counts must be identical.
    per_layer, counts_equal = {}, True
    for entry in spec["workloads"]:
        name = entry["name"]
        a = sets["A"][0][name]["per_layer"]["metrics"]
        b = sets["B"][0][name]["per_layer"]["metrics"]
        per_layer[name] = {
            metric: {"A": a[metric]["value"], "B": b[metric]["value"],
                     "unit": a[metric]["unit"]} for metric in a}
        for metric, pair in per_layer[name].items():
            if pair["unit"] == "count" and pair["A"] != pair["B"]:
                counts_equal = False
                print(f"{name}: exact count {metric} differs: "
                      f"{pair['A']} vs {pair['B']}")
    correct = all(suite_ok(s) for suites in sets.values() for s in suites)
    return {"ok": ok and counts_equal and correct, "runs_per_set": runs,
            "counts_equal": counts_equal, "end_to_end": table,
            "per_layer": per_layer}


# -- entry point --------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        choices=(0, 1),
                        help="1: per-layer metrics from a traced run; 0: "
                             "end-to-end metrics; the suite runs both "
                             "unless one is named")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--out", help="write the full report here (JSON)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--loadavg", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "BENCHMARK.json").exists() or not (SRC / "repro").is_dir():
        sys.stderr.write(
            f"e2e: {ROOT} holds no BENCHMARK.json + src/repro to measure\n")
        return 2
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    if args.child:
        return child_main(args)

    # A smoke run measures whatever is importable; a real run builds.
    compiled = (bool(list((SRC / "repro" / "sim").glob("_kernels*.so")))
                if args.smoke else ensure_build())
    env = environment(compiled)
    print(f"# env {json.dumps(env)}")
    if env["busy_host"]:
        print(f"# WARNING: 1-min loadavg {env['loadavg']:.2f} exceeds "
              f"nproc/2 — timings are suspect")

    if args.workload is not None:
        args.trace = args.trace or 0
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, args.smoke)
        print_result(args.workload, args.trace, result)
        report, ok = {args.workload: result}, result["correct"]
        print(contract_line(result))
    elif args.selfcheck:
        report = selfcheck(spec, args.seed, args.seconds, args.smoke)
        ok = report["ok"]
        print(f"# selfcheck {'passed' if ok else 'FAILED'}")
    else:
        report = run_suite(
            spec, args.seed, args.seconds, args.smoke,
            kinds=(0, 1) if args.trace is None else (args.trace,))
        ok = suite_ok(report)
        print(f"# output checks {'passed' if ok else 'FAILED'}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"env": env, "seed": args.seed, "seconds": args.seconds,
             "smoke": args.smoke, "report": report}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
