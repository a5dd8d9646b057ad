"""The price-space maps whose roots are the fluid model's equilibria.

Peng, Walid, Hwang & Low observe that every multipath rule here is an
explicit map from route prices to rates, so an equilibrium is a root of
``F(q) = loss(load(x(q))) - q`` over the *link* prices — a handful of
unknowns, however many routes and users there are.  :class:`PriceMap`
is that ``F`` in log prices for a batch of sweep points (every operation
row-wise, so a row's numbers do not depend on its neighbours);
:class:`TieMap` is the same system on a best-path tie, where the rule is
set-valued (Theorem 1): the split between the two tied routes joins the
unknowns and price equality joins the equations.
:func:`repro.fluid.equilibrium.solve_fixed_point_batch` finds the roots.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-15

#: Relative handicap that makes one of two tied routes strictly worse when
#: a rule is evaluated on one side of its jump (it has to exceed the
#: rule's own ``tie_tolerance``), and the relative change of the rule's
#: rates from one side to the other that counts as a jump.
_TIE_MARGIN, _TIE_JUMP = 1e-4, 0.1


def tcp_rates(p, rtt) -> np.ndarray:
    """Per-path TCP rates ``sqrt(2/p)/rtt`` with the loss floor applied."""
    p = np.maximum(np.asarray(p, dtype=float), _EPS)
    rtt = np.asarray(rtt, dtype=float)
    return np.sqrt(2.0 / p) / rtt


def rel_change(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Row-wise ``max|new - old| / max|new|``."""
    scale = np.maximum(np.max(np.abs(new), axis=-1), 1e-9)
    return np.max(np.abs(new - old), axis=-1) / scale


def _tie_sides(rule, p, rtt, a, b) -> list:
    """A rule's rates on either side of a tie between routes ``a`` and
    ``b`` (positions on the last axis; per-row arrays or scalars): with
    ``b``'s price raised until it is strictly worse than ``a``, and the
    reverse."""
    tcp = tcp_rates(p, rtt)
    every = np.arange(len(p))
    sides = []
    for best, other in ((a, b), (b, a)):
        forced = p.copy()
        handicapped = tcp[every, best] / (1.0 + _TIE_MARGIN)
        forced[every, other] = 2.0 / (handicapped * rtt[every, other]) ** 2
        sides.append(rule(forced, rtt))
    return sides


class PriceMap:
    """``F(u) = log loss(load(x(e^u))) - u`` on the batch rows ``points``.

    ``u`` holds log link prices, shape ``(rows, n_links)``; the rates a
    price vector induces, ``x(q) = max(rule(route prices), floor)``,
    include the probing floor, so a root of ``F`` is a fixed point of the
    rate map ``T(x) = x(loss(load(x)))``.  Every operation is row-wise.
    """

    def __init__(self, net, rules, floor, points=None) -> None:
        self.net, self.rules, self.floor, self.points = (
            net, rules, floor, points)
        rtts = net.rtts if points is None else net.rtts[points]
        self.users = [
            (idx, rule, rtts[:, idx]) for idx, rule in
            ((np.asarray(routes, dtype=int), rule)
             for routes, rule in zip(net.routes_of_user, rules))
            if len(idx)]     # routeless users contribute nothing

    def take(self, keep) -> "PriceMap":
        """The same map restricted to a subset of its rows."""
        points = (np.arange(len(self.floor)) if self.points is None
                  else self.points)[keep]
        rules = [rule.take_points(keep) if hasattr(rule, "take_points")
                 else rule for rule in self.rules]
        return PriceMap(self.net, rules, self.floor[keep], points)

    def rates(self, q: np.ndarray) -> np.ndarray:
        p_routes = self.net.route_prices(q)
        x = np.zeros_like(p_routes)
        for idx, rule, rtt in self.users:
            x[:, idx] = rule(p_routes[:, idx], rtt)
        return np.maximum(x, self.floor)

    def prices(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(self.net.link_loss_probs(x, self.points), _EPS)

    def __call__(self, u: np.ndarray):
        x = self.rates(np.exp(u))
        return np.log(self.prices(x)) - u, x

    def tie_candidates(self, u: np.ndarray, u_reject: np.ndarray) -> list:
        """Per row, the ``(user slot, a, b)`` of a challenged best path.

        ``a`` is a user's best route (by TCP rate) at ``u``; the row is a
        candidate when, at the rejected trial ``u_reject``, another route
        ``b`` has caught up with it to within ``_TIE_MARGIN`` or
        overtaken it *and* the user's rule jumps where the two tie — the
        failed search straddles a best-set discontinuity.  ``None``
        where no user's rule does.
        """
        here = self.net.route_prices(np.exp(u))
        there = self.net.route_prices(np.exp(u_reject))
        found = [None] * len(u)
        every = np.arange(len(u))
        for slot, (idx, rule, rtt) in enumerate(self.users):
            if len(idx) < 2:
                continue
            tcp_here = tcp_rates(here[:, idx], rtt)
            tcp = tcp_rates(there[:, idx], rtt)
            a = np.argmax(tcp_here, axis=1)
            rivals = tcp.copy()
            rivals[every, a] = -np.inf
            b = np.argmax(rivals, axis=1)
            close = np.flatnonzero(
                tcp[every, b] >= tcp[every, a] * (1.0 - _TIE_MARGIN))
            if not len(close):
                continue
            # The jump is measured where on the segment the two routes
            # tie (log TCP rates are near-linear in log prices).
            a, b = a[close], b[close]
            lead = np.log(tcp_here[close, a] / tcp_here[close, b])
            lag = np.log(tcp[close, a] / tcp[close, b])
            share = np.clip(lead / np.maximum(lead - lag, _EPS), 0.0, 1.0)
            crossing = self.net.route_prices(np.exp(
                u[close] + share[:, None] * (u_reject[close] - u[close])))
            if hasattr(rule, "take_points"):
                rule = rule.take_points(close)
            sides = _tie_sides(rule, crossing[:, idx], rtt[close], a, b)
            jumps = rel_change(*sides) > _TIE_JUMP
            for k, first, second in zip(close[jumps], a[jumps], b[jumps]):
                if found[k] is None:
                    found[k] = (slot, int(min(first, second)),
                                int(max(first, second)))
        return found


class TieMap:
    """The price map on a best-path tie between one user's routes a, b.

    Unknowns are ``(u, s)``: the log link prices plus the split.  The
    tied user sends ``max(s * x_A + (1 - s) * x_B, floor)``, where
    ``x_A`` is its rule with ``b`` handicapped to strictly worse than
    ``a`` (``x_B`` the reverse) — the set-valued rule of Theorem 1, equal
    to the single-valued one at ``s = 1`` and ``s = 0``.  The extra
    equation is price equality, ``log t_a - log t_b = 0`` on the two
    routes' TCP rates, so the system is smooth across the tie.
    """

    def __init__(self, base: PriceMap, slot: int, a: int, b: int) -> None:
        self.base, self.slot, self.a, self.b = base, slot, a, b

    def take(self, keep) -> "TieMap":
        return TieMap(self.base.take(keep), self.slot, self.a, self.b)

    def __call__(self, z: np.ndarray):
        base = self.base
        u, split = z[:, :-1], z[:, -1:]
        q = np.exp(u)
        x = base.rates(q)
        idx, rule, rtt = base.users[self.slot]
        p = base.net.route_prices(q)[:, idx]
        sides = _tie_sides(rule, p, rtt, self.a, self.b)
        x[:, idx] = np.maximum(
            split * sides[0] + (1.0 - split) * sides[1], base.floor[:, idx])
        tcp = tcp_rates(p, rtt)
        gap = np.log(tcp[:, self.a]) - np.log(tcp[:, self.b])
        return np.concatenate(
            [np.log(base.prices(x)) - u, gap[:, None]], axis=1), x
