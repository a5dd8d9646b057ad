"""Dynamic short-flow experiments: Figure 14 and Table III.

A 4:1 oversubscribed FatTree where one third of the hosts send
long-lived flows (TCP, or MPTCP with 8 subflows under LIA/OLIA) and the
remaining hosts send 70 KB TCP transfers with Poisson arrivals (mean
800 ms at the scaled-down link speed, preserving the paper's relative
load of ~2-3% of the host line rate per short-flow host).  Reported:
mean/std short-flow completion time, the FCT
distribution, and core utilization — OLIA matches LIA's utilization
while completing short flows ~10% faster (it yields capacity quicker).
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import List

from ..sim.apps import BulkTransfer, ShortFlowSource
from ..sim.engine import Simulator
from ..topology.fattree import FatTree
from .results import ResultTable
from .runner import RunSpec
from .sweep import SWEEP_PENDING, SweepRunner, pending_attr as _field


@dataclass
class ShortFlowRun:
    """Outcome of one dynamic-workload run."""

    algorithm: str
    completion_times: List[float]
    core_utilization: float
    flows_started: int

    @property
    def mean_fct_ms(self) -> float:
        if not self.completion_times:
            return float("nan")
        return 1e3 * statistics.fmean(self.completion_times)

    @property
    def std_fct_ms(self) -> float:
        if len(self.completion_times) < 2:
            return 0.0
        return 1e3 * statistics.stdev(self.completion_times)

    def histogram(self, bin_ms: float = 25.0,
                  max_ms: float = 400.0) -> List[tuple]:
        """(bin start ms, fraction) pairs — the PDF of Fig. 14."""
        if not self.completion_times:
            return []
        n_bins = int(max_ms / bin_ms)
        counts = [0] * (n_bins + 1)
        for fct in self.completion_times:
            index = min(int(fct * 1e3 / bin_ms), n_bins)
            counts[index] += 1
        total = len(self.completion_times)
        return [(i * bin_ms, counts[i] / total)
                for i in range(n_bins + 1)]


def run_dynamic(algorithm: str, *, k: int = 4, link_mbps: float = 40.0,
                oversubscription: float = 4.0, n_subflows: int = 8,
                duration: float = 10.0, warmup: float = 1.0,
                mean_interarrival: float = 0.8, flow_bytes: int = 70_000,
                seed: int = 1) -> ShortFlowRun:
    """One run of the Section VI-B.2 dynamic scenario.

    ``algorithm`` selects the long flows' transport ("tcp", "lia",
    "olia"); short flows always use regular TCP.
    """
    sim = Simulator()
    rng = random.Random(seed)
    tree = FatTree(sim, k=k, link_mbps=link_mbps,
                   oversubscription=oversubscription)
    perm = tree.random_permutation(rng)

    hosts = list(range(tree.n_hosts))
    rng.shuffle(hosts)
    n_long = tree.n_hosts // 3
    long_hosts = hosts[:n_long]
    short_hosts = hosts[n_long:]

    for src in long_hosts:
        dst = perm[src]
        if algorithm == "tcp":
            choice = rng.randrange(tree.n_paths(src, dst))
            paths = [tree.path_spec(src, dst, choice)]
        else:
            paths = tree.distinct_paths(src, dst, n_subflows, rng)
        bulk = BulkTransfer(sim, algorithm if algorithm != "tcp" else "tcp",
                            paths, name=f"long{src}",
                            start_time=rng.uniform(0, 0.2))
        bulk.start()

    sources = []
    for src in short_hosts:
        dst = perm[src]

        def provider(src=src, dst=dst):
            choice = rng.randrange(tree.n_paths(src, dst))
            spec = tree.path_spec(src, dst, choice)
            return spec.links, spec.reverse_delay

        source = ShortFlowSource(sim, rng, provider,
                                 mean_interarrival=mean_interarrival,
                                 flow_bytes=flow_bytes,
                                 name=f"short{src}")
        source.start(warmup * rng.uniform(0.5, 1.0))
        sources.append(source)

    core = tree.core_links()
    sim.run(until=warmup)
    for link in core:
        link.stats.reset(sim.now)
    sim.run(until=warmup + duration)
    for source in sources:
        source.stop()
    sim.run(until=warmup + duration + 2.0)  # drain in-flight shorts

    completion_times = []
    flows_started = 0
    for source in sources:
        completion_times.extend(source.completion_times)
        flows_started += source.flows_started
    used = [link.stats.utilization(warmup + duration, link.rate_bps)
            for link in core if link.stats.arrivals > 0]
    core_util = sum(used) / len(used) if used else 0.0
    return ShortFlowRun(algorithm=algorithm,
                        completion_times=completion_times,
                        core_utilization=core_util,
                        flows_started=flows_started)


def table3(*, k: int = 4, link_mbps: float = 40.0,
           duration: float = 10.0, warmup: float = 1.0,
           n_subflows: int = 8, seed: int = 1,
           algorithms=("lia", "olia", "tcp"),
           runner: SweepRunner | None = None) -> ResultTable:
    """Table III: short-flow FCT and core utilization per algorithm.

    One independent dynamic run per algorithm, dispatched through
    ``runner`` (default: an in-process :class:`SweepRunner`).
    """
    table = ResultTable(
        "Table III - dynamic FatTree: short-flow completion times",
        ["long-flow algorithm", "FCT mean (ms)", "FCT std (ms)",
         "core utilization (%)", "short flows"])
    runs = (runner or SweepRunner()).run([
        RunSpec.make(run_dynamic, algorithm=algorithm, k=k,
                     link_mbps=link_mbps, duration=duration,
                     warmup=warmup, n_subflows=n_subflows, seed=seed)
        for algorithm in algorithms])
    for algorithm, run in zip(algorithms, runs):
        util = (SWEEP_PENDING if run is SWEEP_PENDING
                else 100.0 * run.core_utilization)
        table.add_row(algorithm.upper() if algorithm != "tcp" else
                      "Regular TCP",
                      _field(run, "mean_fct_ms"), _field(run, "std_fct_ms"),
                      util, _field(run, "flows_started"))
    table.add_note("paper: OLIA cuts mean FCT ~10% vs LIA at equal "
                   "utilization; TCP has low FCT but poor utilization")
    return table


def figure14_table(*, k: int = 4, link_mbps: float = 40.0,
                   duration: float = 10.0, warmup: float = 1.0,
                   n_subflows: int = 8, seed: int = 1,
                   bin_ms: float = 50.0, max_ms: float = 400.0,
                   runner: SweepRunner | None = None) -> ResultTable:
    """Figure 14: distribution of short-flow completion times.

    The three runs (LIA, OLIA, TCP) are independent and share their
    cache entries with :func:`table3` when the parameters match.
    """
    table = ResultTable(
        "Fig. 14 - short-flow completion-time distribution (fraction)",
        ["FCT bin (ms)", "LIA", "OLIA", "TCP"])
    algorithms = ("lia", "olia", "tcp")
    runs = (runner or SweepRunner()).run([
        RunSpec.make(run_dynamic, algorithm=algorithm, k=k,
                     link_mbps=link_mbps, duration=duration,
                     warmup=warmup, n_subflows=n_subflows, seed=seed)
        for algorithm in algorithms])
    hists = {
        algorithm: (None if run is SWEEP_PENDING
                    else dict(run.histogram(bin_ms=bin_ms, max_ms=max_ms)))
        for algorithm, run in zip(algorithms, runs)}
    n_bins = int(max_ms / bin_ms)
    for start in (i * bin_ms for i in range(n_bins + 1)):
        table.add_row(start, *(
            SWEEP_PENDING if hists[a] is None else hists[a].get(start, 0.0)
            for a in algorithms))
    table.add_note("OLIA shifts the distribution left relative to LIA "
                   "(faster completions for both fast and slow flows)")
    return table
