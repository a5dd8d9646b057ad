"""Static fluid network: links, routes and users (Section V-A).

The network model follows Kelly et al.: a set of links, each with a loss
model ``p_l``; routes are sets of links; each user owns a set of routes.
Route loss probabilities are ``p_r = sum_{l in r} p_l`` (independent small
losses, as assumed in the paper).

Rates live in a flat numpy vector indexed by *route id*, which makes the
dynamics and fixed-point code vectorizable and easy to test.  Every rate
computation works along the **last axis**, so the same methods accept a
classic ``(n_routes,)`` vector or a batched ``(K, n_routes)`` matrix of K
sweep points.

:class:`BatchFluidNetwork` stacks K topologically-identical networks
(same links/users/routes, possibly different RTTs and loss parameters)
and evaluates all K loss curves in one vectorized pass per link — the
piece that lets the batched integrator advance a whole parameter sweep
with per-step Python cost independent of K.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .loss import (
    LossModel,
    PowerLoss,
    RedLoss,
    power_loss_probability,
    red_loss_probability,
)


class FluidNetwork:
    """Container for links, users and routes of the fluid model."""

    def __init__(self) -> None:
        self._loss_models: List[LossModel] = []
        self._link_names: List[str] = []
        self._user_names: List[str] = []
        self.routes_of_user: List[List[int]] = []
        self.user_of_route: List[int] = []
        self.links_of_route: List[List[int]] = []
        self.rtts: List[float] = []
        self._route_names: List[str] = []

    # -- construction ---------------------------------------------------------
    def add_link(self, loss_model: LossModel, name: str | None = None) -> int:
        """Register a link; returns its id."""
        self._loss_models.append(loss_model)
        self._link_names.append(name or f"link{len(self._loss_models) - 1}")
        return len(self._loss_models) - 1

    def add_user(self, name: str | None = None) -> int:
        """Register a user; returns its id."""
        self.routes_of_user.append([])
        self._user_names.append(name or f"user{len(self.routes_of_user) - 1}")
        return len(self.routes_of_user) - 1

    def add_route(self, user: int, links: Sequence[int], rtt: float,
                  name: str | None = None) -> int:
        """Attach a route (a set of link ids) to ``user``; returns route id."""
        if rtt <= 0:
            raise ValueError("route RTT must be positive")
        if not links:
            raise ValueError("a route must cross at least one link")
        for link in links:
            if not 0 <= link < len(self._loss_models):
                raise ValueError(f"unknown link id {link}")
        route_id = len(self.user_of_route)
        self.routes_of_user[user].append(route_id)
        self.user_of_route.append(user)
        self.links_of_route.append(list(links))
        self.rtts.append(float(rtt))
        self._route_names.append(name or f"route{route_id}")
        return route_id

    # -- sizes ------------------------------------------------------------------
    @property
    def n_links(self) -> int:
        return len(self._loss_models)

    @property
    def n_users(self) -> int:
        return len(self.routes_of_user)

    @property
    def n_routes(self) -> int:
        return len(self.user_of_route)

    def link_name(self, link: int) -> str:
        return self._link_names[link]

    def user_name(self, user: int) -> str:
        return self._user_names[user]

    def route_name(self, route: int) -> str:
        return self._route_names[route]

    def loss_model(self, link: int) -> LossModel:
        return self._loss_models[link]

    def rtt_array(self) -> np.ndarray:
        """Route RTTs as a numpy vector."""
        return np.asarray(self.rtts, dtype=float)

    # -- rate/loss computations --------------------------------------------------
    def link_rates(self, x: np.ndarray) -> np.ndarray:
        """Total rate through each link; routes live on the last axis of
        ``x`` (shape ``(n_routes,)`` or ``(K, n_routes)``)."""
        x = np.asarray(x, dtype=float)
        rates = np.zeros(x.shape[:-1] + (self.n_links,))
        for route, links in enumerate(self.links_of_route):
            for link in links:
                rates[..., link] += x[..., route]
        return rates

    def link_loss_probs(self, x: np.ndarray) -> np.ndarray:
        """Loss probability at each link (last axis = link id)."""
        rates = self.link_rates(x)
        return np.stack(
            [np.asarray(model(rates[..., link]), dtype=float)
             for link, model in enumerate(self._loss_models)], axis=-1)

    def route_loss_probs(self, x: np.ndarray) -> np.ndarray:
        """Per-route loss ``p_r = min(1, sum_{l in r} p_l)``."""
        link_probs = self.link_loss_probs(x)
        route_probs = np.stack(
            [sum(link_probs[..., link] for link in links)
             for links in self.links_of_route], axis=-1)
        return np.minimum(route_probs, 1.0)

    def user_totals(self, x: np.ndarray) -> np.ndarray:
        """Total rate per user (last axis = user id)."""
        x = np.asarray(x, dtype=float)
        totals = np.zeros(x.shape[:-1] + (self.n_users,))
        for route, user in enumerate(self.user_of_route):
            totals[..., user] += x[..., route]
        return totals

    def congestion_cost(self, x: np.ndarray) -> float:
        """The paper's ``C(x) = sum_l int_0^{y_l} p_l(u) du`` (Theorem 3)."""
        rates = self.link_rates(x)
        return float(sum(model.cost(rate)
                         for model, rate in zip(self._loss_models, rates)))

    def describe(self) -> str:
        """Readable one-line-per-entity summary (debugging aid)."""
        lines = [f"FluidNetwork: {self.n_links} links, "
                 f"{self.n_users} users, {self.n_routes} routes"]
        for user, routes in enumerate(self.routes_of_user):
            parts = []
            for route in routes:
                links = "+".join(self._link_names[l]
                                 for l in self.links_of_route[route])
                parts.append(f"{self._route_names[route]}({links}, "
                             f"rtt={self.rtts[route]:g})")
            lines.append(f"  {self._user_names[user]}: " + ", ".join(parts))
        return "\n".join(lines)


class BatchFluidNetwork:
    """K topologically-identical fluid networks stacked for batching.

    The member networks must share links, users and routes (ids and
    incidence); RTTs and per-link loss-model parameters may differ per
    point — exactly the shape of a figure sweep.

    The per-step work is restructured so its *Python op count is a small
    constant*, independent of K and (mostly) of the topology size:

    * link totals and route losses are segment sums — one gather plus one
      ``np.add.reduceat`` along the last axis.  Segments reduce row by
      row with fixed boundaries, so a batched row runs the exact same
      float additions as the K=1 case (the bitwise contract);
    * links whose K loss models share a family (:class:`PowerLoss` /
      :class:`RedLoss`) are evaluated together: parameters are stacked
      into ``(K, n_group)`` matrices and the whole group goes through one
      call of the shared formula functions in :mod:`repro.fluid.loss`.
      Unknown model classes fall back to a per-point scalar loop
      (correct, just not vectorized).
    """

    def __init__(self, networks: Sequence[FluidNetwork]) -> None:
        networks = list(networks)
        if not networks:
            raise ValueError("need at least one network")
        first = networks[0]
        for net in networks[1:]:
            if (net.links_of_route != first.links_of_route
                    or net.routes_of_user != first.routes_of_user
                    or net.user_of_route != first.user_of_route
                    or net.n_links != first.n_links):
                raise ValueError(
                    "all networks in a batch must share the same topology")
        self.networks = networks
        self.rtts = np.stack([net.rtt_array() for net in networks])
        self._build_segment_sums(first)
        self._build_loss_groups(first)

    # -- precomputation ---------------------------------------------------------
    def _build_segment_sums(self, first: FluidNetwork) -> None:
        # Link totals: for each link, the routes crossing it, flattened
        # into one gather array with reduceat segment starts.
        routes_crossing: List[List[int]] = [[] for _ in range(first.n_links)]
        for route, links in enumerate(first.links_of_route):
            for link in links:
                routes_crossing[link].append(route)
        nonempty = [link for link, routes in enumerate(routes_crossing)
                    if routes]
        self._carried_links = np.asarray(nonempty, dtype=int)
        gather: List[int] = []
        starts: List[int] = []
        for link in nonempty:
            starts.append(len(gather))
            gather.extend(routes_crossing[link])
        self._link_gather = np.asarray(gather, dtype=int)
        self._link_starts = np.asarray(starts, dtype=int)
        # With every link carrying traffic (the usual case) the segment
        # sums land in link order already and the zero-fill is skipped.
        self._all_links_carried = len(nonempty) == first.n_links
        # Route losses: each route sums its links (always >= 1 link).
        gather, starts = [], []
        for links in first.links_of_route:
            starts.append(len(gather))
            gather.extend(links)
        self._route_gather = np.asarray(gather, dtype=int)
        self._route_starts = np.asarray(starts, dtype=int)

    def _build_loss_groups(self, first: FluidNetwork) -> None:
        """Group links by loss family for stacked evaluation."""
        power_links: List[int] = []
        red_links: List[int] = []
        fallback: List[int] = []
        for link in range(first.n_links):
            models = [net.loss_model(link) for net in self.networks]
            if all(isinstance(m, PowerLoss)
                   and type(m).__call__ is PowerLoss.__call__
                   for m in models):
                power_links.append(link)
            elif all(isinstance(m, RedLoss)
                     and type(m).__call__ is RedLoss.__call__
                     for m in models):
                red_links.append(link)
            else:
                fallback.append(link)

        def stack(links: List[int], attr: str) -> np.ndarray:
            return np.array([[getattr(net.loss_model(link), attr)
                              for link in links]
                             for net in self.networks])

        self._power_links = np.asarray(power_links, dtype=int)
        if power_links:
            self._power_params = (stack(power_links, "capacity"),
                                  stack(power_links, "p_at_capacity"),
                                  stack(power_links, "exponent"),
                                  stack(power_links, "_saturation"))
        self._red_links = np.asarray(red_links, dtype=int)
        if red_links:
            self._red_params = (stack(red_links, "p_max"),
                                stack(red_links, "low_rate"),
                                stack(red_links, "capacity"),
                                stack(red_links, "high_rate"))
        self._fallback_links = fallback
        self._fallback_models = {
            link: [net.loss_model(link) for net in self.networks]
            for link in fallback}

    # -- shape -------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        return len(self.networks)

    @property
    def n_links(self) -> int:
        return self.networks[0].n_links

    @property
    def n_users(self) -> int:
        return self.networks[0].n_users

    @property
    def n_routes(self) -> int:
        return self.networks[0].n_routes

    @property
    def links_of_route(self) -> List[List[int]]:
        return self.networks[0].links_of_route

    @property
    def routes_of_user(self) -> List[List[int]]:
        return self.networks[0].routes_of_user

    # -- rate/loss computations ---------------------------------------------------
    def link_rates(self, x: np.ndarray) -> np.ndarray:
        """Per-link totals, ``(K, n_routes) -> (K, n_links)``."""
        x = np.asarray(x, dtype=float)
        if self._all_links_carried:
            return np.add.reduceat(x[..., self._link_gather],
                                   self._link_starts, axis=-1)
        rates = np.zeros(x.shape[:-1] + (self.n_links,))
        if len(self._link_gather):
            rates[..., self._carried_links] = np.add.reduceat(
                x[..., self._link_gather], self._link_starts, axis=-1)
        return rates

    def link_loss_probs(self, x: np.ndarray,
                        points: "np.ndarray | None" = None) -> np.ndarray:
        """Per-link loss probabilities, ``(K, n_routes) -> (K, n_links)``.

        ``points`` selects a *subset* of the batch: ``x`` then has shape
        ``(len(points), n_routes)`` and each row is evaluated with the
        per-point loss parameters of batch member ``points[i]``.  Every
        operation is row-wise, so a subset row is bitwise-identical to
        the same row of a full-batch evaluation — this is what lets the
        fixed-point solver drop converged rows from the compute without
        perturbing the still-active ones.
        """
        rates = self.link_rates(x)
        probs = np.empty_like(rates)
        if len(self._power_links):
            params = self._power_params if points is None else tuple(
                p[points] for p in self._power_params)
            probs[..., self._power_links] = power_loss_probability(
                rates[..., self._power_links], *params)
        if len(self._red_links):
            params = self._red_params if points is None else tuple(
                p[points] for p in self._red_params)
            probs[..., self._red_links] = red_loss_probability(
                rates[..., self._red_links], *params)
        for link in self._fallback_links:
            models = self._fallback_models[link]
            if points is not None:
                models = [models[point] for point in points]
            column = rates[..., link]
            probs[..., link] = np.array(
                [float(model(float(rate)))
                 for model, rate in zip(models, np.atleast_1d(column))])
        return probs

    def route_loss_probs(self, x: np.ndarray,
                         points: "np.ndarray | None" = None) -> np.ndarray:
        """Per-route loss ``p_r = min(1, sum_{l in r} p_l)``, batched.

        ``points`` restricts the evaluation to a subset of the batch, as
        in :meth:`link_loss_probs`.
        """
        return self.route_prices(self.link_loss_probs(x, points))

    def route_prices(self, link_probs: np.ndarray) -> np.ndarray:
        """Route losses from link losses, ``(K, n_links) -> (K, n_routes)``:
        the second half of :meth:`route_loss_probs`, for callers (the
        equilibrium solver) whose unknowns are the link prices."""
        route_probs = np.add.reduceat(
            link_probs[..., self._route_gather], self._route_starts,
            axis=-1)
        return np.minimum(route_probs, 1.0)
