"""Responsiveness and stability experiments on the fluid model.

The paper leaves "the stability and convergence of OLIA" to future work
(Section VII) while claiming, from measurements, that OLIA is *as
responsive as LIA*.  These experiments quantify both claims on the
fluid dynamics:

* **responsiveness** — let the system converge, then halve the capacity
  of the multipath user's primary link and measure the settling time of
  the re-converged allocation;
* **stability** — perturb the equilibrium rates by large random factors
  and check that every trajectory returns to the same fixed point.
"""

from __future__ import annotations

import numpy as np

from ..fluid import FluidNetwork, PowerLoss, integrate, integrate_batch
from .results import ResultTable


def _two_ap_network(c1: float, c2: float, n_tcp: int = 3,
                    rtt: float = 0.1):
    """Multipath user on AP1+AP2, ``n_tcp`` TCP users on AP2."""
    net = FluidNetwork()
    ap1 = net.add_link(PowerLoss(capacity=c1, p_at_capacity=0.02),
                       name="AP1")
    ap2 = net.add_link(PowerLoss(capacity=c2, p_at_capacity=0.02),
                       name="AP2")
    mp = net.add_user("mp")
    net.add_route(mp, [ap1], rtt=rtt)
    net.add_route(mp, [ap2], rtt=rtt)
    rules = {mp: None}   # filled by caller
    for i in range(n_tcp):
        user = net.add_user(f"tcp{i}")
        net.add_route(user, [ap2], rtt=rtt)
        rules[user] = "tcp"
    return net, rules


def capacity_drop_settling_table(*, algorithms=("olia", "lia", "coupled",
                                                "balia"),
                                 c_before: float = 800.0,
                                 c_after: float = 200.0,
                                 rel_tol: float = 0.1,
                                 t_converge: float = 60.0,
                                 t_measure: float = 60.0,
                                 dt: float = 2e-3) -> ResultTable:
    """Settling time after AP1's capacity drops (``c_before -> c_after``).

    The multipath user must shift traffic from AP1 towards AP2; the
    settling time of the post-change trajectory measures responsiveness.
    """
    table = ResultTable(
        "Responsiveness - settling time after a capacity drop "
        f"({c_before:g} -> {c_after:g} pkt/s on AP1)",
        ["algorithm", "settling time (s)", "mp rate before", "mp rate after"])
    for algorithm in algorithms:
        before_net, rules = _two_ap_network(c_before, 800.0)
        rules[0] = algorithm
        warm = integrate(before_net, rules, t_end=t_converge, dt=dt)
        x0 = warm.tail_average()
        after_net, rules_after = _two_ap_network(c_after, 800.0)
        rules_after[0] = algorithm
        settled = integrate(after_net, rules_after, t_end=t_measure,
                            dt=dt, x0=x0)
        mp_before = float(np.sum(x0[:2]))
        mp_after = float(np.sum(settled.tail_average()[:2]))
        table.add_row(algorithm, settled.settling_time(rel_tol=rel_tol),
                      mp_before, mp_after)
    table.add_note("OLIA should settle about as fast as LIA (the paper's "
                   "responsiveness claim); both adapt to the new optimum")
    return table


def stability_table(*, algorithm: str = "olia",
                    perturbation_factors=(0.2, 0.5, 2.0, 5.0),
                    t_end: float = 80.0, dt: float = 2e-3) -> ResultTable:
    """Return-to-equilibrium check under large initial perturbations.

    Integrates the dynamics from the equilibrium scaled by each factor
    and reports the relative spread of the final allocations: a small
    spread means every perturbed trajectory returned to the same fixed
    point (numerical evidence of stability).

    Every perturbation factor is stacked into one
    :class:`~repro.fluid.BatchFluidIntegrator` run, bitwise-identical
    to integrating them one at a time with :func:`~repro.fluid.integrate`
    — the batch merely pays the per-step Python overhead once.
    """
    net, rules = _two_ap_network(800.0, 800.0)
    rules[0] = algorithm
    reference = integrate(net, rules, t_end=t_end, dt=dt).tail_average()
    table = ResultTable(
        f"Stability - {algorithm.upper()} under initial perturbations",
        ["perturbation factor", "max relative deviation at t_end"])
    scale = max(float(np.max(reference)), 1e-9)
    if not perturbation_factors:
        table.add_note("no perturbation factors given")
        return table
    nets = [net]
    for _ in perturbation_factors[1:]:
        net_p, _ = _two_ap_network(800.0, 800.0)
        nets.append(net_p)
    x0 = np.stack([reference * factor for factor in perturbation_factors])
    batch = integrate_batch(nets, rules, t_end=t_end, dt=dt, x0=x0)
    tails = batch.tail_average()
    for k, factor in enumerate(perturbation_factors):
        table.add_row(
            factor, float(np.max(np.abs(tails[k] - reference))) / scale)
    table.add_note("all rows should be small: trajectories return to the "
                   "same equilibrium from any starting point")
    return table
