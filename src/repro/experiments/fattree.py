"""FatTree throughput experiments: Figures 13(a) and 13(b).

A permutation workload on a k-ary FatTree: every host sends one
long-lived flow to a distinct host, either as regular TCP (one random
path) or as MPTCP with ``n`` subflows on distinct ECMP paths.  Reported
as a percentage of the optimal aggregate (every host saturating its
line rate), which is scale-free — the paper uses 100 Mb/s links, we
default to 10 Mb/s so the pure-Python run stays fast.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from ..sim.apps import BulkTransfer
from ..sim.engine import Simulator
from ..sim.monitors import FlowMeter
from ..topology.fattree import FatTree
from ..units import mbps_to_pps
from .results import ResultTable
from .runner import RunSpec
from .sweep import SWEEP_PENDING, SweepRunner, pending_attr as _field


@dataclass
class FatTreeRun:
    """Outcome of one permutation-workload run."""

    algorithm: str
    n_subflows: int
    k: int
    percent_of_optimal: float
    flow_percents: List[float]     # per-flow, percent of line rate
    core_utilization: float

    def ranked(self) -> List[float]:
        """Per-flow throughputs, worst to best (Fig. 13(b) x-axis)."""
        return sorted(self.flow_percents)


def run_permutation(algorithm: str, *, n_subflows: int = 8, k: int = 8,
                    link_mbps: float = 10.0, duration: float = 3.0,
                    warmup: float = 1.0, seed: int = 1) -> FatTreeRun:
    """One permutation-traffic run; ``algorithm='tcp'`` ignores subflows."""
    sim = Simulator()
    rng = random.Random(seed)
    tree = FatTree(sim, k=k, link_mbps=link_mbps)
    perm = tree.random_permutation(rng)
    flows = {}
    for src in range(tree.n_hosts):
        dst = perm[src]
        if algorithm == "tcp":
            choice = rng.randrange(tree.n_paths(src, dst))
            paths = [tree.path_spec(src, dst, choice)]
            bulk = BulkTransfer(sim, "tcp", paths, name=f"h{src}",
                                start_time=rng.uniform(0, 0.2))
        else:
            paths = tree.distinct_paths(src, dst, n_subflows, rng)
            bulk = BulkTransfer(sim, algorithm, paths, name=f"h{src}",
                                start_time=rng.uniform(0, 0.2))
        bulk.start()
        flows[f"h{src}"] = bulk

    meter = FlowMeter(sim, flows)
    sim.run(until=warmup)
    meter.reset()
    core = tree.core_links()
    for link in core:
        link.stats.reset(sim.now)
    sim.run(until=warmup + duration)

    line_rate = mbps_to_pps(link_mbps)
    per_flow = [100.0 * pps / line_rate
                for pps in meter.goodput_pps().values()]
    total = sum(per_flow) / tree.n_hosts
    used = [link.stats.utilization(sim.now, link.rate_bps)
            for link in core if link.stats.arrivals > 0]
    core_util = sum(used) / len(used) if used else 0.0
    return FatTreeRun(algorithm=algorithm, n_subflows=n_subflows, k=k,
                      percent_of_optimal=total, flow_percents=per_flow,
                      core_utilization=core_util)


def figure13a_table(*, k: int = 8, link_mbps: float = 10.0,
                    duration: float = 3.0, warmup: float = 1.0,
                    subflow_counts=(2, 4, 8), seed: int = 1,
                    algorithms=("lia", "olia"),
                    runner: SweepRunner | None = None) -> ResultTable:
    """Figure 13(a): aggregate throughput vs number of subflows.

    Every (algorithm, subflow-count) cell plus the TCP baseline is an
    independent permutation run, dispatched through ``runner``
    (default: an in-process :class:`SweepRunner`).
    """
    table = ResultTable(
        "Fig. 13(a) - FatTree permutation: throughput (% of optimal)",
        ["subflows", *[a.upper() for a in algorithms], "TCP"])
    specs = [RunSpec.make(run_permutation, algorithm="tcp", k=k,
                          link_mbps=link_mbps, duration=duration,
                          warmup=warmup, seed=seed)]
    specs += [
        RunSpec.make(run_permutation, algorithm=algorithm,
                     n_subflows=n_subflows, k=k, link_mbps=link_mbps,
                     duration=duration, warmup=warmup, seed=seed)
        for n_subflows in subflow_counts
        for algorithm in algorithms]
    runs = (runner or SweepRunner()).run(specs)
    tcp, rest = runs[0], runs[1:]
    n_algos = len(algorithms)
    for cell, n_subflows in enumerate(subflow_counts):
        row = [n_subflows]
        row += [_field(run, "percent_of_optimal")
                for run in rest[n_algos * cell:n_algos * (cell + 1)]]
        row.append(_field(tcp, "percent_of_optimal"))
        table.add_row(*row)
    table.add_note("MPTCP exploits the path diversity; single-path TCP "
                   "collides on ECMP paths and performs poorly")
    return table


def figure13b_table(*, k: int = 8, link_mbps: float = 10.0,
                    duration: float = 3.0, warmup: float = 1.0,
                    n_subflows: int = 8, seed: int = 1,
                    percentiles=(10, 25, 50, 75, 90),
                    runner: SweepRunner | None = None) -> ResultTable:
    """Figure 13(b): ranked per-flow throughput, 8 subflows vs TCP.

    The three runs (LIA, OLIA, TCP baseline) are independent, so they
    go through ``runner`` like every other grid.
    """
    table = ResultTable(
        "Fig. 13(b) - FatTree: per-flow throughput percentiles "
        "(% of line rate)",
        ["percentile", "LIA", "OLIA", "TCP"])
    names = ("LIA", "OLIA", "TCP")
    results = (runner or SweepRunner()).run([
        RunSpec.make(run_permutation, algorithm=name.lower(),
                     **({} if name == "TCP"
                        else {"n_subflows": n_subflows}),
                     k=k, link_mbps=link_mbps, duration=duration,
                     warmup=warmup, seed=seed)
        for name in names])
    runs = dict(zip(names, results))
    for pct in percentiles:
        row = [pct]
        for name in names:
            run = runs[name]
            if run is SWEEP_PENDING:
                row.append(SWEEP_PENDING)
                continue
            ranked = run.ranked()
            index = min(int(len(ranked) * pct / 100), len(ranked) - 1)
            row.append(ranked[index])
        table.add_row(*row)
    table.add_note("LIA and OLIA provide similar fairness, both fairer "
                   "than TCP (steeper low percentiles for TCP)")
    return table
