"""Property test: solve_fixed_point residuals vanish under every rule.

For random feasible two-link topologies, the converged fixed point must
be a *fixed point of the registry's own allocation rule*: re-applying
the rule to the equilibrium losses reproduces the rates to near-zero
residual, for every equilibrium-capable spec (plus the parameterised
epsilon family at a drawn epsilon).  This is the numeric face of the
SMT layer's uniqueness claim — there is one fixed point, and the
solver lands on it.  A best-path rule is set-valued on a tie; a result
that says ``exit_reason == "tie"`` is checked against that set instead.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.core import registry
from repro.fluid import FluidNetwork, SharpLoss, solve_fixed_point
from repro.units import mbps_to_pps

#: Residual tolerance, relative to a user's largest route rate.
RESIDUAL_RTOL = 1e-4
#: The equilibrium-layer default ``tie_tolerance`` of the best-path rules.
TIE_TOLERANCE = 1e-6


def _equilibrium_rules(epsilon):
    """(label, rule-or-name) for every spec runnable without params."""
    rules = []
    for spec in registry.algorithm_specs():
        if spec.has_equilibrium and not spec.required_params("equilibrium"):
            rules.append((spec.name, spec.name))
    rules.append(("epsilon", registry.make_allocation_rule(
        "epsilon", epsilon=epsilon)))
    return rules


@st.composite
def topologies(draw):
    return {
        "c1_mbps": draw(st.floats(0.8, 3.0)),
        "c2_mbps": draw(st.floats(0.8, 3.0)),
        "rtt_mp": draw(st.floats(0.05, 0.25)),
        "rtt_tcp": draw(st.floats(0.05, 0.25)),
        "n_tcp": draw(st.integers(1, 3)),
        "epsilon": draw(st.floats(0.25, 2.0)),
    }


def _build(topo, mp_rule):
    net = FluidNetwork()
    l1 = net.add_link(SharpLoss(capacity=mbps_to_pps(topo["c1_mbps"])))
    l2 = net.add_link(SharpLoss(capacity=mbps_to_pps(topo["c2_mbps"])))
    rules = {}
    mp = net.add_user("mp")
    net.add_route(mp, [l1], rtt=topo["rtt_mp"])
    net.add_route(mp, [l1, l2], rtt=topo["rtt_mp"])
    rules[mp] = mp_rule
    for i in range(topo["n_tcp"]):
        user = net.add_user(f"tcp{i}")
        net.add_route(user, [l2], rtt=topo["rtt_tcp"])
        rules[user] = "tcp"
    return net, rules


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(topo=topologies())
def test_fixed_point_residual_near_zero(topo):
    for label, mp_rule in _equilibrium_rules(topo["epsilon"]):
        net, rules = _build(topo, mp_rule)
        result = solve_fixed_point(net, rules, floor_packets=0.0)
        assert result.converged, (label, topo)
        rtts = net.rtt_array()
        resolved = {user: (rule if callable(rule)
                           else registry.make_allocation_rule(rule))
                    for user, rule in rules.items()}
        for user, routes in enumerate(net.routes_of_user):
            idx = np.asarray(routes)
            rates = result.rates[idx]
            scale = max(float(np.max(np.abs(rates))), 1e-9)
            if result.exit_reason == "tie" and len(idx) > 1:
                # On a best-path tie the rule is set-valued (Theorem 1):
                # any split among the tied best paths, which price the
                # same, with the total at the best-path TCP rate.
                tcp = np.sqrt(2.0 / result.route_loss[idx]) / rtts[idx]
                carrying = rates > RESIDUAL_RTOL * scale
                assert carrying.sum() >= 2, (label, user, rates, topo)
                assert np.ptp(tcp[carrying]) <= TIE_TOLERANCE * tcp.max(), (
                    label, user, tcp, topo)
                assert abs(rates.sum() - tcp.max()) <= \
                    RESIDUAL_RTOL * scale, (label, user, rates, tcp, topo)
                continue
            target = np.asarray(resolved[user](
                result.route_loss[idx], rtts[idx]), dtype=float)
            residual = float(np.max(np.abs(target - rates)))
            assert residual <= RESIDUAL_RTOL * scale, (
                label, user, residual / scale, topo)
