"""Scenario A experiments: Figures 1(b), 1(c), 9 and 10.

Type1 users stream through a capacity-limited server and may add an
MPTCP subflow through a shared AP where type2 TCP users live.  The
experiments compare the analytical LIA fixed point, packet-level
simulations of LIA and OLIA, and the theoretical optimum with probing
cost, reporting the normalized throughputs and the shared-AP loss
probability exactly as the paper's figures do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..analysis import scenario_a as analysis_a
from ..sim.apps import BulkTransfer
from ..sim.engine import Simulator
from ..topology.scenarios import build_scenario_a
from ..units import mbps_to_pps
from .results import ResultTable
from .runner import RunSpec, measure, staggered_starts
from .sweep import SweepRunner, pending_attr as _field


@dataclass
class ScenarioARun:
    """Simulated normalized throughputs and losses for one setting."""

    algorithm: str
    n1: int
    n2: int
    c1_mbps: float
    c2_mbps: float
    type1_normalized: float
    type2_normalized: float
    p1: float
    p2: float


def simulate(algorithm: str, *, n1: int, n2: int, c1_mbps: float,
             c2_mbps: float, duration: float = 60.0, warmup: float = 20.0,
             seed: int = 1, queue: str = "red") -> ScenarioARun:
    """Packet-level run of scenario A with ``n1`` MPTCP + ``n2`` TCP users.

    ``algorithm`` is the coupled controller of the type1 users ("lia",
    "olia", ...); type2 users always run regular TCP.
    """
    sim = Simulator()
    rng = random.Random(seed)
    topo = build_scenario_a(sim, rng, n1=n1, n2=n2, c1_mbps=c1_mbps,
                            c2_mbps=c2_mbps, queue=queue)
    flows = {}
    starts = staggered_starts(rng, n1 + n2)
    for i in range(n1):
        bulk = BulkTransfer(sim, algorithm, topo.type1_paths,
                            start_time=starts[i], name=f"type1.{i}")
        bulk.start()
        flows[f"type1.{i}"] = bulk
    for i in range(n2):
        bulk = BulkTransfer(sim, "tcp", [topo.type2_path],
                            start_time=starts[n1 + i], name=f"type2.{i}")
        bulk.start()
        flows[f"type2.{i}"] = bulk

    result = measure(sim, flows, [topo.server_link, topo.shared_ap],
                     warmup=warmup, duration=duration)
    type1 = result.group_mean("type1") / mbps_to_pps(c1_mbps)
    type2 = result.group_mean("type2") / mbps_to_pps(c2_mbps)
    return ScenarioARun(
        algorithm=algorithm, n1=n1, n2=n2, c1_mbps=c1_mbps,
        c2_mbps=c2_mbps, type1_normalized=type1, type2_normalized=type2,
        p1=result.link_loss["server"], p2=result.link_loss["sharedAP"])


def figure1_table(*, n1_values=(10, 20, 30), n2: int = 10,
                  c1_over_c2=(0.75, 1.0, 1.5), c2_mbps: float = 1.0,
                  rtt: float = 0.15, simulate_lia: bool = False,
                  duration: float = 30.0, warmup: float = 15.0,
                  seed: int = 1) -> ResultTable:
    """Figure 1(b)/(c): normalized throughputs and p2 versus N1/N2.

    Analytical LIA curves and the optimum-with-probing baseline are
    always included; ``simulate_lia`` adds measured points from the
    packet simulator (slower).
    """
    columns = ["C1/C2", "N1/N2", "type1 LIA", "type2 LIA", "type2 opt",
               "p2 LIA", "p2 opt"]
    if simulate_lia:
        columns += ["type2 LIA (sim)", "p2 LIA (sim)"]
    table = ResultTable("Fig. 1(b)/(c) - Scenario A: LIA vs optimum",
                        columns)
    for ratio in c1_over_c2:
        c1_mbps = ratio * c2_mbps
        for n1 in n1_values:
            lia = analysis_a.lia_fixed_point(
                n1=n1, n2=n2, c1=mbps_to_pps(c1_mbps),
                c2=mbps_to_pps(c2_mbps), rtt=rtt)
            opt = analysis_a.optimum_with_probing(
                n1=n1, n2=n2, c1=mbps_to_pps(c1_mbps),
                c2=mbps_to_pps(c2_mbps), rtt=rtt)
            row = [ratio, n1 / n2, lia.type1_normalized,
                   lia.type2_normalized, opt.type2_normalized,
                   lia.p2, opt.p2]
            if simulate_lia:
                sim_run = simulate("lia", n1=n1, n2=n2, c1_mbps=c1_mbps,
                                   c2_mbps=c2_mbps, duration=duration,
                                   warmup=warmup, seed=seed)
                row += [sim_run.type2_normalized, sim_run.p2]
            table.add_row(*row)
    table.add_note("type1 LIA normalized throughput is 1 in every row: "
                   "upgrading type1 users brings them nothing (problem P1)")
    return table


def figure9_10_table(*, n1_values=(10, 20, 30), n2: int = 10,
                     c1_over_c2=(0.75, 1.0, 1.5), c2_mbps: float = 1.0,
                     rtt: float = 0.15, duration: float = 30.0,
                     warmup: float = 15.0, seed: int = 1,
                     algorithms=("lia", "olia"),
                     runner: SweepRunner | None = None) -> ResultTable:
    """Figures 9/10: measured LIA vs OLIA vs optimum in scenario A.

    Each (C1/C2, N1, algorithm) cell is an independent DES run, so the
    grid is dispatched through ``runner`` (default: an in-process
    :class:`SweepRunner`), which owns pool size, caching and sharding.
    """
    table = ResultTable(
        "Fig. 9/10 - Scenario A: measured LIA vs OLIA",
        ["C1/C2", "N1/N2", "type2 LIA", "type2 OLIA", "type2 opt",
         "p2 LIA", "p2 OLIA", "p2 opt"])
    grid = [(ratio, n1) for ratio in c1_over_c2 for n1 in n1_values]
    runs = (runner or SweepRunner()).run([
        RunSpec.make(simulate, algorithm=algorithm, n1=n1, n2=n2,
                     c1_mbps=ratio * c2_mbps, c2_mbps=c2_mbps,
                     duration=duration, warmup=warmup, seed=seed)
        for ratio, n1 in grid
        for algorithm in algorithms])
    n_algos = len(algorithms)
    for cell, (ratio, n1) in enumerate(grid):
        by_algo = dict(zip(algorithms, runs[n_algos * cell:
                                            n_algos * (cell + 1)]))
        lia, olia = by_algo["lia"], by_algo["olia"]
        opt = analysis_a.optimum_with_probing(
            n1=n1, n2=n2, c1=mbps_to_pps(ratio * c2_mbps),
            c2=mbps_to_pps(c2_mbps), rtt=rtt)
        table.add_row(ratio, n1 / n2,
                      _field(lia, "type2_normalized"),
                      _field(olia, "type2_normalized"),
                      opt.type2_normalized,
                      _field(lia, "p2"), _field(olia, "p2"), opt.p2)
    table.add_note("OLIA should track the optimum-with-probing column; "
                   "LIA depresses type2 throughput and inflates p2")
    return table
