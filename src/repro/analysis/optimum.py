"""Generic proportional-fair optimum with probing cost (NUM solver).

The paper's per-scenario "theoretical optimum with probing cost" curves
come from hand-derived allocations (Appendices A-B).  This module solves
the same problem on *arbitrary* topologies::

    maximize    sum_u log(sum_{r in R_u} x_r)
    subject to  sum_{r ni l} x_r <= C_l        for every link l
                x_r >= floor_r                 (1 MSS per RTT probing)

via SLSQP, reusing the :class:`~repro.fluid.network.FluidNetwork`
structure (capacities are taken from each link's loss model).  It is used
to cross-check the closed forms and to compute optimum baselines for
topologies without a closed form (e.g. FatTrees).

SLSQP comes from scipy, the package's ``scipy`` extra; it is imported
when :func:`proportional_fair` runs, so importing this module (and
everything that imports :mod:`repro.analysis`) works without it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fluid.network import FluidNetwork


@dataclass
class OptimumResult:
    """Solution of the proportional-fair problem."""

    rates: np.ndarray
    user_totals: np.ndarray
    success: bool
    message: str


def proportional_fair(network: FluidNetwork, *,
                      floor_packets: float = 1.0,
                      x0: np.ndarray | None = None) -> OptimumResult:
    """Proportional-fair rates with a per-route probing floor.

    ``floor_packets`` is the minimum window in packets; route ``r`` must
    carry at least ``floor_packets / rtt_r``.  Raises ``ValueError`` if
    the floors alone violate a capacity constraint, and ``ImportError``
    when scipy (the ``scipy`` extra) is not installed.
    """
    try:
        from scipy import optimize
    except ImportError as exc:
        raise ImportError(
            "proportional_fair needs scipy: install the package's scipy "
            "extra (pip install '.[scipy]')") from exc
    n_routes = network.n_routes
    rtts = network.rtt_array()
    floor = (floor_packets / rtts if floor_packets > 0
             else np.zeros(n_routes))
    capacities = np.array([network.loss_model(l).capacity
                           for l in range(network.n_links)])
    if np.any(network.link_rates(floor) > capacities + 1e-12):
        raise ValueError("probing floors alone exceed a link capacity")

    # Incidence matrix A[l, r] = 1 if route r crosses link l.
    incidence = np.zeros((network.n_links, n_routes))
    for route, links in enumerate(network.links_of_route):
        for link in links:
            incidence[link, route] = 1.0

    user_masks = []
    for routes in network.routes_of_user:
        mask = np.zeros(n_routes)
        mask[routes] = 1.0
        user_masks.append(mask)
    user_matrix = np.vstack(user_masks)

    def objective(x: np.ndarray) -> float:
        totals = user_matrix @ x
        return -float(np.sum(np.log(np.maximum(totals, 1e-12))))

    def gradient(x: np.ndarray) -> np.ndarray:
        totals = np.maximum(user_matrix @ x, 1e-12)
        return -(user_matrix.T @ (1.0 / totals))

    constraints = [{
        "type": "ineq",
        "fun": lambda x: capacities - incidence @ x,
        "jac": lambda x: -incidence,
    }]
    bounds = [(f, None) for f in floor]
    if x0 is None:
        # Start from an even split of each link's slack capacity.
        x0 = np.maximum(floor, capacities.min() / max(n_routes, 1) * 0.5)

    result = optimize.minimize(
        objective, x0, jac=gradient, bounds=bounds,
        constraints=constraints, method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-10})
    rates = np.maximum(result.x, floor)
    return OptimumResult(rates=rates,
                         user_totals=network.user_totals(rates),
                         success=bool(result.success),
                         message=str(result.message))
