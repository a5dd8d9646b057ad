"""Tier-1 smoke test of the end-to-end benchmark (``run.py --smoke``).

Checks the harness, not the numbers: every workload and metric that
``BENCHMARK.json`` declares is reported, finite and with its unit; the
exact counts repeat across two runs; the trace files nest.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def _smoke(out: Path, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out),
         *extra], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    report = json.loads(out.read_text())
    report["stdout"] = proc.stdout
    return report


def test_smoke_reports_every_declared_metric_and_counts_repeat(tmp_path):
    first = _smoke(tmp_path / "first.json")
    assert set(first["report"]) == set(WORKLOADS)
    for kind in ("end_to_end", "per_layer"):
        for workload in WORKLOADS:
            result = first["report"][workload][kind]
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            for meta in SPEC[kind]:
                metric = result["metrics"][meta["name"]]
                assert metric["unit"] == meta["unit"]
                assert math.isfinite(metric["value"]), meta["name"]
                # The printed table names every metric with its unit.
                assert any(line.startswith(workload)
                           and meta["name"] in line.split()
                           and line.rstrip().endswith(meta["unit"])
                           for line in first["stdout"].splitlines()), \
                    (workload, meta["name"])
            if kind == "end_to_end":
                assert all(metric["value"] > 0
                           for metric in result["metrics"].values())

    # Spans nest: every non-root parent exists and encloses its child.
    for workload in WORKLOADS:
        trace = json.loads(
            (HERE / "out" / f"trace-{workload}.json").read_text())
        spans = {span["id"]: span for span in trace["spans"]}
        assert spans and any(s["parent"] is None for s in spans.values())
        for span in spans.values():
            assert span["workload"] == workload
            assert span["t1"] >= span["t0"]
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["t0"] <= span["t0"]
                assert span["t1"] <= parent["t1"]

    # Exact counts are a function of the seed alone.
    second = _smoke(tmp_path / "second.json", "--trace", "1")
    exact = [meta["name"] for meta in SPEC["per_layer"]
             if meta["unit"] == "count"]
    for workload in WORKLOADS:
        for name in exact:
            a = first["report"][workload]["per_layer"]["metrics"][name]
            b = second["report"][workload]["per_layer"]["metrics"][name]
            assert a["value"] == b["value"], (workload, name)
