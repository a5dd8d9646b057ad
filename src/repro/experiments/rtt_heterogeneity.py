"""RTT-heterogeneity experiments (Remark 3 of the paper).

When a user's paths have different RTTs, TCP compatibility forces any
coupled algorithm to prefer low-RTT paths even when they are more
congested, so problems P1/P2 cannot be *fully* avoided; OLIA is "as
close to the optimal as any TCP-compatible algorithm" because it still
uses only the paths maximizing ``sqrt(2/p_r)/rtt_r``.  RTT-insensitive
protocols (Scalable TCP, CUBIC — implemented in :mod:`repro.core`)
escape this constraint.

These experiments sweep the RTT ratio between a multipath user's two
paths and report, at the OLIA/LIA fluid fixed points, where the traffic
lands and what the single-path competitors get.
"""

from __future__ import annotations

import numpy as np

from ..fluid import (
    FluidNetwork,
    SharpLoss,
    solve_fixed_point,
    solve_fixed_point_batch,
    tcp_rate,
)
from .results import ResultTable
from .runner import RunSpec
from .sweep import SweepRunner


def _network(rtt1: float, rtt2: float, *, c1: float = 400.0,
             c2: float = 400.0, n_tcp: int = 3):
    """Multipath user on AP1 (rtt1) + AP2 (rtt2), TCP users on both.

    Competition on both links makes both loss probabilities meaningful,
    so the TCP-compatible best-path criterion ``sqrt(2/p)/rtt`` is
    decided by the RTT asymmetry — the situation Remark 3 discusses.
    """
    net = FluidNetwork()
    ap1 = net.add_link(SharpLoss(capacity=c1), name="AP1")
    ap2 = net.add_link(SharpLoss(capacity=c2), name="AP2")
    mp = net.add_user("mp")
    net.add_route(mp, [ap1], rtt=rtt1)
    net.add_route(mp, [ap2], rtt=rtt2)
    rules = {mp: None}
    # The TCP competitors keep the *same* RTT on both links so the sweep
    # isolates the multipath user's path-RTT asymmetry.
    for i in range(n_tcp):
        user = net.add_user(f"tcp1.{i}")
        net.add_route(user, [ap1], rtt=rtt2)
        rules[user] = "tcp"
    for i in range(n_tcp):
        user = net.add_user(f"tcp2.{i}")
        net.add_route(user, [ap2], rtt=rtt2)
        rules[user] = "tcp"
    return net, rules


def rtt_sweep_point(*, algorithm: str, base_rtt: float, ratio: float,
                    n_tcp: int) -> tuple:
    """One fixed-point evaluation of the RTT sweep (pure sweep point)."""
    net, rules = _network(base_rtt * ratio, base_rtt, n_tcp=n_tcp)
    rules[0] = algorithm
    result = solve_fixed_point(net, rules, floor_packets=1.0)
    totals = result.user_totals(net)
    return (ratio, float(result.rates[0]), float(result.rates[1]),
            float(totals[1:1 + n_tcp].mean()),
            float(totals[1 + n_tcp:].mean()),
            float(result.link_loss[1]))


def _batch_sweep_rows(*, algorithm: str, base_rtt: float, rtt_ratios,
                      n_tcp: int):
    """All sweep rows from one batched fixed-point solve.

    The per-ratio networks share links/users/routes and differ only in
    RTTs, so the whole grid stacks into a single
    :func:`~repro.fluid.solve_fixed_point_batch` call; each row is
    bitwise-identical to the sequential :func:`rtt_sweep_point` result.
    """
    networks = []
    rules = None
    for ratio in rtt_ratios:
        net, point_rules = _network(base_rtt * ratio, base_rtt,
                                    n_tcp=n_tcp)
        point_rules[0] = algorithm
        networks.append(net)
        rules = point_rules
    batch = solve_fixed_point_batch(networks, rules, floor_packets=1.0)
    rows = []
    for k, ratio in enumerate(rtt_ratios):
        result = batch.result(k)
        totals = result.user_totals(networks[k])
        rows.append((ratio, float(result.rates[0]), float(result.rates[1]),
                     float(totals[1:1 + n_tcp].mean()),
                     float(totals[1 + n_tcp:].mean()),
                     float(result.link_loss[1])))
    return rows


def rtt_sweep_table(*, algorithm: str = "olia", base_rtt: float = 0.1,
                    rtt_ratios=(0.25, 0.5, 1.0, 2.0, 4.0),
                    n_tcp: int = 3,
                    runner: SweepRunner | None = None) -> ResultTable:
    """Fluid fixed point as AP1's RTT varies relative to AP2's.

    With a *small* RTT on AP1, the TCP-compatible best-path criterion
    ``sqrt(2/p)/rtt`` favours AP1 strongly (good: it is also the less
    congested link).  With a *large* RTT on AP1, the criterion pushes
    traffic towards the congested AP2 even though AP1 has free capacity
    — the residual unfairness Remark 3 attributes to TCP compatibility.

    The ratio points ``runner`` finds pending are stacked into one
    :func:`~repro.fluid.solve_fixed_point_batch` call (the K networks
    share a topology and differ only in RTTs); every row is
    bitwise-identical to its :func:`rtt_sweep_point`, which is what the
    cache entries are keyed on.
    """
    table = ResultTable(
        f"RTT heterogeneity - {algorithm.upper()} fixed point "
        "(AP1 rtt = ratio * AP2 rtt, TCP users on both APs)",
        ["rtt1/rtt2", "mp rate on AP1", "mp rate on AP2",
         "tcp@AP1 rate", "tcp@AP2 rate", "p2"])
    specs = [RunSpec.make(rtt_sweep_point, algorithm=algorithm,
                          base_rtt=base_rtt, ratio=ratio, n_tcp=n_tcp)
             for ratio in rtt_ratios]

    def solve_pending(pending):
        ratios = [dict(spec.kwargs)["ratio"] for spec in pending]
        return _batch_sweep_rows(algorithm=algorithm, base_rtt=base_rtt,
                                 rtt_ratios=ratios, n_tcp=n_tcp)

    for row in (runner or SweepRunner()).run_batched(specs, solve_pending):
        table.add_row(*row)
    table.add_note("rising rtt1/rtt2 pushes the TCP-compatible optimum "
                   "towards the shared AP2, squeezing its TCP users")
    return table


def best_path_criterion_table(*, p1: float = 0.005, p2: float = 0.02,
                              rtt2: float = 0.1,
                              rtt_ratios=(0.25, 0.5, 1.0, 2.0, 4.0)
                              ) -> ResultTable:
    """Theorem 1's path selection under RTT asymmetry (pure formula).

    Path 1 is less lossy (p1 < p2); the table shows for which RTT ratios
    ``sqrt(2/p1)/rtt1`` still beats ``sqrt(2/p2)/rtt2`` — i.e. when a
    TCP-compatible Pareto-optimal algorithm is allowed to use the clean
    path.
    """
    table = ResultTable(
        "Best-path criterion sqrt(2/p)/rtt under RTT asymmetry",
        ["rtt1/rtt2", "rate path1 (pkt/s)", "rate path2 (pkt/s)",
         "best path"])
    for ratio in rtt_ratios:
        rate1 = tcp_rate(p1, rtt2 * ratio)
        rate2 = tcp_rate(p2, rtt2)
        table.add_row(ratio, rate1, rate2,
                      "path1" if rate1 >= rate2 else "path2")
    crossover = float(np.sqrt(p2 / p1))
    table.add_note(f"crossover at rtt1/rtt2 = sqrt(p2/p1) = "
                   f"{crossover:.2f}: beyond it the clean path loses")
    return table
