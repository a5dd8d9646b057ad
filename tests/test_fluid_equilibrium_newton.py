"""Oracles for the price-space Newton solver and its tie manifold.

Three independent references: ``scipy.optimize.root(method="hybr")`` on
the very same ``F`` (skipped without scipy), the fluid ODE's steady
state for best-path ties (where no single-valued ``F`` has a root and
the old damped iteration served one phase of a cycle), and exact counts
over the first 640 queries of the end-to-end benchmark's seed-1 ``cold``
stream (the stream the solver was measured on).
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.fluid import (
    FluidNetwork,
    PowerLoss,
    SharpLoss,
    integrate,
    solve_fixed_point,
    solve_fixed_point_batch,
)
from repro.fluid.equilibrium import _EVAL_BUDGET, PerPointRuleSet
from repro.fluid.network import BatchFluidNetwork
from repro.fluid.pricemap import PriceMap
from repro.serve.service import (
    AllocationQuery,
    LinkSpec,
    RouteSpec,
    UserSpec,
    solve_query,
)

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def _stream_query(capacities, rtts, algorithm="olia"):
    """One query of the benchmark's shape: a sharp and a power-law link,
    a two-path user and three TCP users on the second link."""
    return AllocationQuery(
        links=(LinkSpec(capacity=capacities[0], model="sharp"),
               LinkSpec(capacity=capacities[1], model="power",
                        p_at_capacity=0.02)),
        users=(UserSpec(algorithm=algorithm),) + (UserSpec("tcp"),) * 3,
        routes=(RouteSpec(0, (0,), rtts[0]), RouteSpec(0, (1,), rtts[1]),
                RouteSpec(1, (1,), rtts[2]), RouteSpec(2, (1,), rtts[3]),
                RouteSpec(3, (1,), rtts[4])),
        max_iter=2000)


#: Seed-1 ``cold`` queries 19, 148 and 351 of
#: ``benchmarks/e2e/e2e_queries.make_queries``, copied as literals: OLIA
#: users whose equilibrium sits on a best-path tie.  The damped iteration
#: answered them 6.5x, 28% and 13% off the ODE on the second path.
TIE_QUERIES = {
    19: _stream_query(
        (210.31291668617345, 513.0515819688237),
        (0.09228313754789003, 0.08931024114839967, 0.18876285156041056,
         0.12623473052729764, 0.1400177336743192)),
    148: _stream_query(
        (184.06742503469602, 450.63930914953454),
        (0.06964042853843178, 0.04076519222129184, 0.06282754842137996,
         0.18849358826624454, 0.11951633882002896)),
    351: _stream_query(
        (220.66657400395053, 785.306904156897),
        (0.19252306242474743, 0.05190440372521625, 0.16928454411243996,
         0.09042263338429218, 0.13850773035265268)),
}


def _solve(query):
    return solve_fixed_point(
        query.to_network(), dict(enumerate(query.user_rules())),
        floor_packets=query.floor_packets, damping=query.damping,
        tol=query.tol, max_iter=query.max_iter)


class TestTieManifold:
    @pytest.mark.parametrize("index", sorted(TIE_QUERIES))
    def test_tie_answer_is_the_ode_steady_state(self, index):
        query = TIE_QUERIES[index]
        result = _solve(query)
        assert result.exit_reason == "tie"
        assert result.converged
        assert result.residual < query.tol
        net = query.to_network()
        steady = integrate(
            net, {u: spec.algorithm for u, spec in enumerate(query.users)},
            t_end=400, dt=2e-3, floor_packets=1.0).tail_average()
        slack = np.maximum(0.02 * np.abs(steady), 1.0)
        assert (np.abs(result.rates - steady) <= slack).all(), (
            result.rates, steady)

    @pytest.mark.parametrize("index", sorted(TIE_QUERIES))
    def test_tie_answer_is_on_the_set_valued_rule(self, index):
        """Theorem 1 at a tie: both routes price the same (their TCP
        rates agree), and the user's total is that TCP rate."""
        query = TIE_QUERIES[index]
        result = _solve(query)
        rtts = query.to_network().rtt_array()
        tcp = np.sqrt(2.0 / result.route_loss[:2]) / rtts[:2]
        assert tcp[0] == pytest.approx(tcp[1], rel=1e-6)
        assert result.rates[:2].sum() == pytest.approx(tcp[0], rel=1e-6)

    def test_served_response_says_tie(self):
        response = solve_query(TIE_QUERIES[19])
        assert response["exit_reason"] == "tie"
        assert response["converged"] is True
        assert isinstance(response["iterations"], int)
        assert 1 <= response["iterations"] <= _EVAL_BUDGET

    def test_continuous_rules_are_never_tied(self):
        """wVegas shares a price band but has no jump: a straddling
        search must not put it on a tie manifold."""
        for algorithm in ("wvegas", "lia", "tcp"):
            query = TIE_QUERIES[19]
            query = _stream_query(
                [link.capacity for link in query.links],
                [route.rtt for route in query.routes], algorithm)
            result = _solve(query)
            assert result.converged
            assert result.exit_reason in ("newton", "fallback")


class TestBenchmarkStream:
    """Exact counts over the first 640 seed-1 ``cold`` queries."""

    @pytest.fixture(scope="class")
    def solved(self):
        sys.path.insert(0, str(E2E))
        try:
            from e2e_queries import make_queries
        finally:
            sys.path.remove(str(E2E))
        queries = make_queries(1, "cold", 0, 640)
        results = []
        for start in range(0, 640, 128):
            chunk = queries[start:start + 128]
            rules = {user: PerPointRuleSet(
                [query.user_rules()[user] for query in chunk])
                for user in range(4)}
            results += solve_fixed_point_batch(
                [query.to_network() for query in chunk], rules,
                floor_packets=1.0, max_iter=2000).results()
        return queries, results

    def test_every_wvegas_query_converges(self, solved):
        queries, results = solved
        wvegas = [result for query, result in zip(queries, results)
                  if query.users[0].algorithm == "wvegas"]
        assert len(wvegas) > 100
        assert all(result.converged for result in wvegas)

    def test_every_query_converges_within_the_budget(self, solved):
        _, results = solved
        assert all(result.converged for result in results)
        assert max(result.iterations for result in results) <= _EVAL_BUDGET
        assert min(result.iterations for result in results) >= 1
        # Where the damped iteration spent 175 883 iterations.
        assert sum(result.iterations for result in results) < 40_000

    def test_exit_reasons(self, solved):
        queries, results = solved
        reasons = Counter(result.exit_reason for result in results)
        assert set(reasons) <= {"newton", "tie", "fallback"}
        tied = {index for index, result in enumerate(results)
                if result.exit_reason == "tie"}
        assert {19, 148, 351} <= tied
        assert all(queries[index].users[0].algorithm in ("olia", "balia")
                   for index in tied)

    def test_residual_is_the_one_step_residual(self, solved):
        """``residual`` is what the response says it is: re-applying the
        rules to the reported losses reproduces the reported rates."""
        queries, results = solved
        for query, result in list(zip(queries, results))[:64]:
            if result.exit_reason == "tie":
                continue
            net = query.to_network()
            rtts = net.rtt_array()
            target = np.zeros_like(result.rates)
            for user, rule in enumerate(query.user_rules()):
                idx = np.asarray(net.routes_of_user[user])
                target[idx] = rule(result.route_loss[idx], rtts[idx])
            target = np.maximum(target, 1.0 / rtts)
            measured = (np.max(np.abs(target - result.rates))
                        / np.max(np.abs(target)))
            assert measured == pytest.approx(result.residual, abs=1e-12)
            assert measured < query.tol


def _random_network(rng, rule):
    """Three links; the multipath user has a one-link and a two-link
    route, TCP users cross the second and third link."""
    net = FluidNetwork()
    links = [net.add_link(SharpLoss(float(rng.uniform(80.0, 600.0)))),
             net.add_link(PowerLoss(float(rng.uniform(80.0, 600.0)),
                                    p_at_capacity=0.02)),
             net.add_link(PowerLoss(float(rng.uniform(80.0, 600.0)),
                                    p_at_capacity=0.03, exponent=2.0))]
    rules = {}
    mp = net.add_user("mp")
    net.add_route(mp, links[:1], rtt=float(rng.uniform(0.03, 0.3)))
    net.add_route(mp, links[1:], rtt=float(rng.uniform(0.03, 0.3)))
    rules[mp] = rule
    for link in links[1:]:
        user = net.add_user()
        net.add_route(user, [link], rtt=float(rng.uniform(0.03, 0.3)))
        rules[user] = "tcp"
    return net, rules


class TestAgainstHybr:
    """``scipy.optimize.root(method="hybr")`` on the same ``F``."""

    @pytest.mark.parametrize("rule", ["lia", "balia", "tcp", "wvegas",
                                      "ewtcp", "olia"])
    def test_same_root(self, rule):
        optimize = pytest.importorskip("scipy.optimize")
        from repro.core.registry import make_allocation_rule
        rng = np.random.default_rng(sum(map(ord, rule)))
        compared = 0
        for _ in range(6):
            net, rules = _random_network(rng, rule)
            ours = solve_fixed_point(net, rules, floor_packets=1.0)
            assert ours.converged
            if ours.exit_reason == "tie":
                continue        # no root of the single-valued F exists
            batch = BatchFluidNetwork([net])
            fmap = PriceMap(
                batch, [make_allocation_rule(rules[user])
                        for user in range(net.n_users)], 1.0 / batch.rtts)
            start = np.log(np.maximum(ours.link_loss, 1e-15)) + 0.3
            found = optimize.root(
                lambda u: fmap(u[None, :])[0][0], start, method="hybr")
            if np.max(np.abs(found.fun)) > 1e-9:
                continue        # hybr gave up on a kink; nothing to compare
            rates = fmap(found.x[None, :])[1][0]
            assert np.allclose(rates, ours.rates, rtol=1e-6, atol=1e-6)
            compared += 1
        # The smooth rules always compare; OLIA and wVegas have kinks
        # hybr may stall on, but not on every network.
        assert compared >= (1 if rule in ("olia", "wvegas") else 5)
