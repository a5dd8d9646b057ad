"""Property tests for the batched fixed-point solver.

The contract of :func:`~repro.fluid.solve_fixed_point_batch` mirrors the
batched integrator's: stacking K sweep points into one (K, n_routes)
state matrix must produce *bitwise-identical* fixed points to solving
the K points one at a time — including the per-point evaluation count
and residual, because every operation is row-wise and each point leaves
the compute the moment it finishes.  Every test builds randomised
scenarios from a seeded generator and asserts exact equality
(``np.array_equal``), not mere closeness.
"""

import numpy as np
import pytest

from repro.fluid import (
    BatchFluidNetwork,
    FluidNetwork,
    PowerLoss,
    RedLoss,
    SharpLoss,
    epsilon_family_allocation,
    lia_allocation,
    olia_allocation,
    solve_fixed_point,
    solve_fixed_point_batch,
    tcp_allocation,
)

RULE_CHOICES = ("olia", "lia", "tcp", "epsilon")


def random_scenario_batch(rng, n_points, *, loss_family="power"):
    """K networks sharing a topology drawn from ``rng``.

    Topology (user/route/link structure) is shared across the batch —
    that is the batching contract — while capacities, loss parameters
    and RTTs differ per point.
    """
    n_tcp = int(rng.integers(1, 4))
    n_mp_routes = int(rng.integers(2, 4))
    networks = []
    for _ in range(n_points):
        net = FluidNetwork()
        links = []
        for _ in range(n_mp_routes):
            capacity = float(rng.uniform(50.0, 900.0))
            if loss_family == "red":
                model = RedLoss(capacity=capacity,
                                p_max=float(rng.uniform(0.05, 0.3)))
            elif loss_family == "sharp":
                model = SharpLoss(capacity=capacity)
            else:
                model = PowerLoss(capacity=capacity,
                                  p_at_capacity=float(
                                      rng.uniform(0.005, 0.05)))
            links.append(net.add_link(model))
        mp = net.add_user("mp")
        for link in links:
            net.add_route(mp, [link], rtt=float(rng.uniform(0.02, 0.4)))
        shared_rtt = float(rng.uniform(0.02, 0.4))
        for i in range(n_tcp):
            user = net.add_user(f"tcp{i}")
            net.add_route(user, [links[-1]], rtt=shared_rtt)
        networks.append(net)
    name = str(rng.choice(RULE_CHOICES))
    if name == "epsilon":
        from repro.core.registry import make_allocation_rule
        rule = make_allocation_rule("epsilon",
                                    epsilon=float(rng.uniform(0.2, 2.0)))
    else:
        rule = name
    rules = {0: rule}
    for i in range(n_tcp):
        rules[1 + i] = "tcp"
    return networks, rules


def assert_point_equal(solo, batched, k):
    assert np.array_equal(solo.rates, batched.rates), k
    assert np.array_equal(solo.route_loss, batched.route_loss), k
    assert np.array_equal(solo.link_loss, batched.link_loss), k
    assert solo.iterations == batched.iterations, k
    assert solo.converged == batched.converged, k
    assert solo.residual == batched.residual, k


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_k8_random_scenarios_match_sequential(self, seed):
        """K=8 batched solve == 8 sequential 1-D solves, bit for bit
        (the PR's core property)."""
        rng = np.random.default_rng(seed)
        networks, rules = random_scenario_batch(rng, 8)
        batch = solve_fixed_point_batch(networks, rules, floor_packets=1.0)
        for k, net in enumerate(networks):
            solo = solve_fixed_point(net, rules, floor_packets=1.0)
            assert_point_equal(solo, batch.result(k), k)

    @pytest.mark.parametrize("loss_family", ["red", "sharp"])
    def test_other_loss_families(self, loss_family):
        rng = np.random.default_rng(7)
        networks, rules = random_scenario_batch(rng, 4,
                                                loss_family=loss_family)
        batch = solve_fixed_point_batch(networks, rules, floor_packets=1.0)
        for k, net in enumerate(networks):
            solo = solve_fixed_point(net, rules, floor_packets=1.0)
            assert_point_equal(solo, batch.result(k), k)

    def test_points_freeze_at_their_own_iteration(self):
        """Points converge at different iterations; each must report its
        own count, not the batch maximum."""
        rng = np.random.default_rng(0)
        networks, rules = random_scenario_batch(rng, 6)
        batch = solve_fixed_point_batch(networks, rules, floor_packets=1.0)
        assert batch.converged.all()
        assert len(set(batch.iterations.tolist())) > 1

    def test_accepts_prebuilt_batch_network(self):
        rng = np.random.default_rng(4)
        networks, rules = random_scenario_batch(rng, 3)
        via_list = solve_fixed_point_batch(networks, rules,
                                           floor_packets=1.0)
        via_batch = solve_fixed_point_batch(BatchFluidNetwork(networks),
                                            rules, floor_packets=1.0)
        assert np.array_equal(via_list.rates, via_batch.rates)

    def test_unconverged_points_flagged(self):
        rng = np.random.default_rng(5)
        networks, rules = random_scenario_batch(rng, 4)
        batch = solve_fixed_point_batch(networks, rules, floor_packets=1.0,
                                        max_iter=3)
        assert not batch.converged.any()
        assert (batch.iterations == 3).all()
        assert np.isfinite(batch.residual).all()

    def test_x0_shape_validated(self):
        rng = np.random.default_rng(6)
        networks, rules = random_scenario_batch(rng, 4)
        with pytest.raises(ValueError, match="x0"):
            solve_fixed_point_batch(networks, rules,
                                    x0=np.ones(networks[0].n_routes))


class TestTieCycleStopping:
    """OLIA best-set tie rows must converge, and quickly.

    The bench sweep grid contains rows whose OLIA equilibrium sits on a
    best-path tie: the single-valued rule has no fixed point there, and
    the damped iteration this solver replaced flipped the best set every
    step (a period-2 cycle it stopped on and served one phase of).  The
    Newton solver notices that its line search straddles the rule's
    jump and solves such a row on the tie manifold — the split between
    the tied routes is the unknown, price equality the equation — so
    the row converges to a defined answer in tens of evaluations, and
    batched and sequential solves of it stay bitwise equal.
    """

    @staticmethod
    def bench_grid():
        from repro.benchreport import sweep_networks
        rules = {0: "olia", 1: "tcp", 2: "tcp", 3: "tcp"}
        return sweep_networks(64), rules

    def test_bench_tie_rows_converge(self):
        networks, rules = self.bench_grid()
        batch = solve_fixed_point_batch(networks, rules, floor_packets=1.0,
                                        tol=1e-8)
        assert batch.converged.all(), np.flatnonzero(~batch.converged)
        # The tie rows converge through the period-2 test at their
        # nominal step size — far under the ~2000 iterations the
        # anneal-to-floor freeze used to burn.
        assert int(batch.iterations.max()) < 1000

    def test_tie_row_matches_sequential(self):
        """The known tie row (grid point 27) stays bitwise equal
        between sequential and batched solves."""
        networks, rules = self.bench_grid()
        batch = solve_fixed_point_batch(networks, rules, floor_packets=1.0,
                                        tol=1e-8)
        solo = solve_fixed_point(networks[27], rules, floor_packets=1.0,
                                 tol=1e-8)
        assert solo.converged
        assert_point_equal(solo, batch.result(27), 27)


class TestBatchedAllocationRules:
    """Each rule applied to a (K, m) stack must equal its rows 1-by-1."""

    @staticmethod
    def random_stack(rng, k=16, m=3):
        p = rng.uniform(1e-4, 0.2, size=(k, m))
        rtt = rng.uniform(0.02, 0.4, size=(k, m))
        return p, rtt

    @pytest.mark.parametrize("rule", [
        tcp_allocation, lia_allocation, olia_allocation,
        lambda p, rtt: epsilon_family_allocation(p, rtt, 0.7),
        lambda p, rtt: epsilon_family_allocation(p, rtt, 0.0),
    ])
    def test_stack_equals_rows(self, rule):
        rng = np.random.default_rng(11)
        p, rtt = self.random_stack(rng)
        stacked = rule(p, rtt)
        assert stacked.shape == p.shape
        for k in range(p.shape[0]):
            assert np.array_equal(stacked[k], rule(p[k], rtt[k])), k

    def test_olia_floor_broadcasts(self):
        rng = np.random.default_rng(12)
        p, rtt = self.random_stack(rng, k=5)
        floor = 1.0 / rtt
        stacked = olia_allocation(p, rtt, floor=floor)
        for k in range(5):
            assert np.array_equal(
                stacked[k], olia_allocation(p[k], rtt[k], floor=floor[k]))


class TestBatchResultAccessors:
    def test_results_and_user_totals(self):
        rng = np.random.default_rng(13)
        networks, rules = random_scenario_batch(rng, 5)
        batch = solve_fixed_point_batch(networks, rules, floor_packets=1.0)
        assert batch.n_points == 5
        assert len(batch.results()) == 5
        totals = batch.user_totals()
        assert totals.shape == (5, networks[0].n_users)
        assert np.array_equal(
            totals[2], batch.result(2).user_totals(networks[2]))
