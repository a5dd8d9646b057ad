"""Ablation studies for the design choices that can be varied (the fixed
modelling choice, "ACKs are notifications", is in docs/ARCHITECTURE.md).

1. **epsilon-family trade-off** (Section II): the fixed points of
   ``x_r ~ p_r**(-1/eps)`` on the scenario C network show how congestion
   balancing degrades from full resource pooling (eps -> 0, OLIA-like)
   to TCP-like spreading (eps = 2), with LIA stuck at eps = 1.
2. **OLIA's alpha term**: the fully coupled controller (OLIA minus
   alpha) is Pareto-optimal but flappy; we quantify flappiness as the
   window-imbalance flip count on the symmetric two-path scenario.
3. **RED vs drop-tail**: scenario C measured with both queue
   disciplines — the qualitative LIA/OLIA gap must survive the queue
   choice (the paper uses RED on the testbed, drop-tail in htsim).

All three are parameter sweeps of pure point functions, dispatched
through the :class:`~repro.experiments.sweep.SweepRunner` passed as
``runner``, so they can run on a worker pool without changing any
number in the tables.
"""

from __future__ import annotations

from ..fluid import (
    FluidNetwork,
    SharpLoss,
    solve_fixed_point,
    solve_fixed_point_batch,
)
from ..core.registry import make_allocation_rule
from ..fluid.equilibrium import PerPointEpsilonRule
from ..units import mbps_to_pps
from .results import ResultTable
from .runner import RunSpec
from .sweep import SweepRunner
from .traces import run_two_path_trace


def _epsilon_network(*, n1: int, n2: int, c1_mbps: float, c2_mbps: float,
                     rtt: float) -> FluidNetwork:
    """The scenario C network every epsilon point shares."""
    net = FluidNetwork()
    ap1 = net.add_link(SharpLoss(capacity=n1 * mbps_to_pps(c1_mbps)))
    ap2 = net.add_link(SharpLoss(capacity=n2 * mbps_to_pps(c2_mbps)))
    for i in range(n1):
        user = net.add_user(f"mp{i}")
        net.add_route(user, [ap1], rtt=rtt)
        net.add_route(user, [ap2], rtt=rtt)
    for i in range(n2):
        user = net.add_user(f"sp{i}")
        net.add_route(user, [ap2], rtt=rtt)
    return net


def _epsilon_row(epsilon: float, result, n1: int, n2: int,
                 net: FluidNetwork) -> tuple:
    """Assemble one table row from a per-point fixed-point result."""
    totals = result.user_totals(net)
    mp_rate = float(totals[:n1].mean())
    sp_rate = float(totals[n1:].mean())
    # Multipath traffic crossing AP2: every odd route of mp users.
    mp_ap2 = sum(result.rates[2 * i + 1] for i in range(n1))
    ap2_total = mp_ap2 + sum(
        result.rates[2 * n1 + i] for i in range(n2))
    return (epsilon, mp_rate, sp_rate, float(result.link_loss[1]),
            100.0 * mp_ap2 / ap2_total)


def epsilon_sweep_point(*, epsilon: float, n1: int, n2: int,
                        c1_mbps: float, c2_mbps: float,
                        rtt: float) -> tuple:
    """Fixed point of one epsilon value on the scenario C network."""
    net = _epsilon_network(n1=n1, n2=n2, c1_mbps=c1_mbps,
                           c2_mbps=c2_mbps, rtt=rtt)
    mp_rule = make_allocation_rule("epsilon", epsilon=epsilon) \
        if epsilon > 0 else make_allocation_rule("olia")
    rules = {user: (mp_rule if user < n1 else make_allocation_rule("tcp"))
             for user in range(n1 + n2)}
    result = solve_fixed_point(net, rules, floor_packets=1.0)
    return _epsilon_row(epsilon, result, n1, n2, net)


def _epsilon_batch_rows(epsilons, *, n1: int, n2: int, c1_mbps: float,
                        c2_mbps: float, rtt: float) -> list:
    """All epsilon rows from (at most) two batched fixed-point solves.

    Every point shares the scenario C topology, so the grid stacks into
    :func:`~repro.fluid.solve_fixed_point_batch` with a
    :class:`~repro.fluid.equilibrium.PerPointEpsilonRule` carrying one
    epsilon per point.  ``epsilon = 0`` points use the OLIA rule (a
    structurally different formula), so they batch separately; each row
    is bitwise-identical to the sequential :func:`epsilon_sweep_point`.
    """
    epsilons = list(epsilons)
    rows = {}
    groups = [([e for e in epsilons if e > 0], "eps"),
              ([e for e in epsilons if e == 0], "olia")]
    for group, kind in groups:
        if not group:
            continue
        networks = [_epsilon_network(n1=n1, n2=n2, c1_mbps=c1_mbps,
                                     c2_mbps=c2_mbps, rtt=rtt)
                    for _ in group]
        mp_rule = (PerPointEpsilonRule(group) if kind == "eps"
                   else make_allocation_rule("olia"))
        rules = {user: (mp_rule if user < n1
                        else make_allocation_rule("tcp"))
                 for user in range(n1 + n2)}
        batch = solve_fixed_point_batch(networks, rules,
                                        floor_packets=1.0)
        for k, epsilon in enumerate(group):
            rows[epsilon] = _epsilon_row(epsilon, batch.result(k),
                                         n1, n2, networks[k])
    return [rows[epsilon] for epsilon in epsilons]


def epsilon_sweep_table(*, n1: int = 10, n2: int = 10,
                        c1_mbps: float = 1.0, c2_mbps: float = 1.0,
                        rtt: float = 0.15,
                        epsilons=(0.0, 0.5, 1.0, 1.5, 2.0),
                        runner: SweepRunner | None = None) -> ResultTable:
    """Fixed points of the epsilon-family on the scenario C network.

    The points ``runner`` finds pending are solved in one
    :func:`~repro.fluid.solve_fixed_point_batch` call per rule family
    (per-point epsilons ride a
    :class:`~repro.fluid.equilibrium.PerPointEpsilonRule`); every row
    is bitwise-identical to its :func:`epsilon_sweep_point`, which is
    what the cache entries are keyed on.
    """
    if any(e < 0 for e in epsilons):
        # The point function would silently treat a negative as OLIA
        # (its eps > 0 test) and the batch grouping would KeyError at
        # row assembly.
        raise ValueError("epsilon must be non-negative")
    table = ResultTable(
        "Ablation - epsilon-family on scenario C "
        "(eps=0 ~ OLIA, eps=1 ~ LIA, eps=2 ~ uncoupled)",
        ["epsilon", "mp rate (pkt/s)", "sp rate (pkt/s)", "p2",
         "mp share of AP2 (%)"])
    specs = [RunSpec.make(epsilon_sweep_point, epsilon=epsilon, n1=n1,
                          n2=n2, c1_mbps=c1_mbps, c2_mbps=c2_mbps,
                          rtt=rtt)
             for epsilon in epsilons]

    def solve_pending(pending):
        eps = [dict(spec.kwargs)["epsilon"] for spec in pending]
        return _epsilon_batch_rows(eps, n1=n1, n2=n2, c1_mbps=c1_mbps,
                                   c2_mbps=c2_mbps, rtt=rtt)

    for row in (runner or SweepRunner()).run_batched(specs, solve_pending):
        table.add_row(*row)
    table.add_note("larger epsilon -> more multipath traffic parked on "
                   "the congested AP2 and lower single-path rates")
    return table


def flappiness_point(*, algorithm: str, capacity_mbps: float,
                     duration: float, seed: int) -> tuple:
    """One seeded DES run of the alpha-term ablation."""
    trace = run_two_path_trace(algorithm, competing=(5, 5),
                               capacity_mbps=capacity_mbps,
                               duration=duration, seed=seed)
    w1, w2 = trace.mean_windows
    tail = trace.windows[len(trace.windows) // 4:]
    onesided = sum(
        1 for a, b in tail
        if a + b > 0 and abs(a - b) / (a + b) > 0.6) / len(tail)
    return (w1, w2, trace.window_imbalance(), onesided)


def flappiness_table(*, capacity_mbps: float = 10.0,
                     duration: float = 90.0,
                     seeds=(1, 2, 3),
                     runner: SweepRunner | None = None) -> ResultTable:
    """OLIA vs the alpha-less coupled controller on symmetric paths.

    The coupled controller concentrates its window on one path and flips
    between them (flappiness); OLIA's alpha term keeps both windows up.
    Results are averaged over ``seeds`` because individual runs are
    noisy at these window sizes.
    """
    table = ResultTable(
        "Ablation - the role of OLIA's alpha term (symmetric two-path, "
        f"mean over {len(seeds)} seeds)",
        ["algorithm", "w1", "w2", "imbalance", "one-sided frac"])
    algorithms = ("olia", "coupled")
    samples = (runner or SweepRunner()).run([
        RunSpec.make(flappiness_point, algorithm=algorithm,
                     capacity_mbps=capacity_mbps, duration=duration,
                     seed=seed)
        for algorithm in algorithms for seed in seeds])
    n_seeds = len(seeds)
    for group, algorithm in enumerate(algorithms):
        runs = samples[group * n_seeds:(group + 1) * n_seeds]
        means = [sum(run[i] for run in runs) / n_seeds for i in range(4)]
        table.add_row(algorithm, *means)
    table.add_note("without alpha the window imbalance grows: the "
                   "fully coupled rule starves one of two equal paths")
    return table


def queue_discipline_point(*, queue: str, algorithm: str, n1: int, n2: int,
                           c1_mbps: float, c2_mbps: float, duration: float,
                           warmup: float, seed: int) -> tuple:
    """One scenario C run under a given queue discipline."""
    from .scenario_c import simulate
    run = simulate(algorithm, n1=n1, n2=n2, c1_mbps=c1_mbps,
                   c2_mbps=c2_mbps, duration=duration,
                   warmup=warmup, seed=seed, queue=queue)
    return (queue, algorithm, run.singlepath_normalized, run.p2)


def queue_discipline_table(*, n1: int = 10, n2: int = 10,
                           c1_mbps: float = 1.0, c2_mbps: float = 1.0,
                           duration: float = 30.0, warmup: float = 15.0,
                           seed: int = 1,
                           runner: SweepRunner | None = None
                           ) -> ResultTable:
    """Scenario C under RED (testbed) and drop-tail (htsim) queues."""
    table = ResultTable(
        "Ablation - queue discipline: scenario C, N1=N2, C1=C2",
        ["queue", "algorithm", "sp normalized", "p2"])
    rows = (runner or SweepRunner()).run([
        RunSpec.make(queue_discipline_point, queue=queue,
                     algorithm=algorithm, n1=n1, n2=n2, c1_mbps=c1_mbps,
                     c2_mbps=c2_mbps, duration=duration, warmup=warmup,
                     seed=seed)
        for queue in ("red", "droptail")
        for algorithm in ("lia", "olia")])
    for row in rows:
        table.add_row(*row)
    table.add_note("the OLIA > LIA ordering for single-path users holds "
                   "under both disciplines")
    return table
