"""Scenario C experiments: Figures 5(b)-(d), 11 and 12.

N1 multipath users (private AP1 + shared AP2) compete with N2 TCP users
on AP2.  LIA grabs AP2 bandwidth even when its users gain nothing
(problem P2); OLIA parks at the probing floor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..analysis import scenario_c as analysis_c
from ..sim.apps import BulkTransfer
from ..sim.engine import Simulator
from ..topology.scenarios import build_scenario_c
from ..units import mbps_to_pps
from .results import ResultTable
from .runner import RunSpec, measure, staggered_starts
from .sweep import SweepRunner


@dataclass
class ScenarioCRun:
    """Simulated normalized throughputs and losses for one setting."""

    algorithm: str
    n1: int
    n2: int
    c1_mbps: float
    c2_mbps: float
    multipath_normalized: float
    singlepath_normalized: float
    p1: float
    p2: float


def simulate(algorithm: str, *, n1: int, n2: int, c1_mbps: float,
             c2_mbps: float, duration: float = 60.0, warmup: float = 20.0,
             seed: int = 1, queue: str = "red") -> ScenarioCRun:
    """Packet-level run: ``n1`` MPTCP users + ``n2`` TCP users."""
    sim = Simulator()
    rng = random.Random(seed)
    topo = build_scenario_c(sim, rng, n1=n1, n2=n2, c1_mbps=c1_mbps,
                            c2_mbps=c2_mbps, queue=queue)
    flows = {}
    starts = staggered_starts(rng, n1 + n2)
    for i in range(n1):
        bulk = BulkTransfer(sim, algorithm, topo.multipath_paths,
                            start_time=starts[i], name=f"mp.{i}")
        bulk.start()
        flows[f"mp.{i}"] = bulk
    for i in range(n2):
        bulk = BulkTransfer(sim, "tcp", [topo.singlepath_path],
                            start_time=starts[n1 + i], name=f"sp.{i}")
        bulk.start()
        flows[f"sp.{i}"] = bulk

    result = measure(sim, flows, [topo.ap1, topo.ap2],
                     warmup=warmup, duration=duration)
    return ScenarioCRun(
        algorithm=algorithm, n1=n1, n2=n2, c1_mbps=c1_mbps,
        c2_mbps=c2_mbps,
        multipath_normalized=result.group_mean("mp") / mbps_to_pps(c1_mbps),
        singlepath_normalized=result.group_mean("sp") / mbps_to_pps(c2_mbps),
        p1=result.link_loss["AP1"], p2=result.link_loss["AP2"])


def figure5b_table(*, n1: int = 10, n2: int = 10, c2_mbps: float = 1.0,
                   c1_over_c2=(0.25, 0.5, 0.75, 1.0, 1.25, 1.5),
                   rtt: float = 0.15) -> ResultTable:
    """Figure 5(b): analytical LIA vs optimum as C1/C2 varies (N1=N2)."""
    table = ResultTable(
        "Fig. 5(b) - Scenario C: analytical LIA vs optimum w/ probing",
        ["C1/C2", "mp LIA", "sp LIA", "mp opt", "sp opt"])
    for ratio in c1_over_c2:
        c1_mbps = ratio * c2_mbps
        lia = analysis_c.lia_fixed_point(
            n1=n1, n2=n2, c1=mbps_to_pps(c1_mbps), c2=mbps_to_pps(c2_mbps),
            rtt=rtt)
        opt = analysis_c.optimum_with_probing(
            n1=n1, n2=n2, c1=mbps_to_pps(c1_mbps), c2=mbps_to_pps(c2_mbps),
            rtt=rtt)
        table.add_row(ratio, lia.multipath_normalized,
                      lia.singlepath_normalized,
                      opt.multipath_normalized,
                      opt.singlepath_normalized)
    table.add_note("LIA's mp column exceeds the optimum as soon as "
                   "C1/C2 > 1/3 (problem P2)")
    return table


def figure5cd_table(*, n1_values=(5, 10, 20, 30), n2: int = 10,
                    c1_over_c2=(1.0, 2.0), c2_mbps: float = 1.0,
                    rtt: float = 0.15, simulate_lia: bool = False,
                    duration: float = 30.0, warmup: float = 15.0,
                    seed: int = 1) -> ResultTable:
    """Figures 5(c)/(d): LIA normalized throughputs and p2 vs N1/N2."""
    columns = ["C1/C2", "N1/N2", "mp LIA", "sp LIA", "sp opt", "p2 LIA",
               "p2 opt"]
    if simulate_lia:
        columns += ["sp LIA (sim)", "p2 LIA (sim)"]
    table = ResultTable("Fig. 5(c)/(d) - Scenario C: LIA vs optimum",
                        columns)
    for ratio in c1_over_c2:
        c1_mbps = ratio * c2_mbps
        for n1 in n1_values:
            lia = analysis_c.lia_fixed_point(
                n1=n1, n2=n2, c1=mbps_to_pps(c1_mbps),
                c2=mbps_to_pps(c2_mbps), rtt=rtt)
            opt = analysis_c.optimum_with_probing(
                n1=n1, n2=n2, c1=mbps_to_pps(c1_mbps),
                c2=mbps_to_pps(c2_mbps), rtt=rtt)
            row = [ratio, n1 / n2, lia.multipath_normalized,
                   lia.singlepath_normalized,
                   opt.singlepath_normalized, lia.p2, opt.p2]
            if simulate_lia:
                run = simulate("lia", n1=n1, n2=n2, c1_mbps=c1_mbps,
                               c2_mbps=c2_mbps, duration=duration,
                               warmup=warmup, seed=seed)
                row += [run.singlepath_normalized, run.p2]
            table.add_row(*row)
    return table


def figure11_12_table(*, n1_values=(5, 10, 20, 30), n2: int = 10,
                      c1_over_c2=(1.0, 2.0), c2_mbps: float = 1.0,
                      rtt: float = 0.15, duration: float = 30.0,
                      warmup: float = 15.0, seed: int = 1,
                      runner: SweepRunner | None = None) -> ResultTable:
    """Figures 11/12: measured LIA vs OLIA in scenario C.

    Each (C1/C2, N1, algorithm) cell is an independent DES run, so the
    grid is dispatched through ``runner`` (default: an in-process
    :class:`SweepRunner`) without changing any number.
    """
    table = ResultTable(
        "Fig. 11/12 - Scenario C: measured LIA vs OLIA",
        ["C1/C2", "N1/N2", "sp LIA", "sp OLIA", "sp opt",
         "p2 LIA", "p2 OLIA", "p2 opt"])
    grid = [(ratio, n1) for ratio in c1_over_c2 for n1 in n1_values]
    runs = (runner or SweepRunner()).run([
        RunSpec.make(simulate, algorithm=algorithm, n1=n1, n2=n2,
                     c1_mbps=ratio * c2_mbps, c2_mbps=c2_mbps,
                     duration=duration, warmup=warmup, seed=seed)
        for ratio, n1 in grid
        for algorithm in ("lia", "olia")])
    for cell, (ratio, n1) in enumerate(grid):
        lia, olia = runs[2 * cell], runs[2 * cell + 1]
        opt = analysis_c.optimum_with_probing(
            n1=n1, n2=n2, c1=mbps_to_pps(ratio * c2_mbps),
            c2=mbps_to_pps(c2_mbps), rtt=rtt)
        table.add_row(ratio, n1 / n2,
                      lia.singlepath_normalized, olia.singlepath_normalized,
                      opt.singlepath_normalized, lia.p2, olia.p2, opt.p2)
    table.add_note("single-path users gain up to 2x with OLIA; p2 stays "
                   "4-6x lower (Figs. 11-12)")
    return table
