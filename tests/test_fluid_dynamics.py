"""Unit tests for the fluid dynamics (derivative functions)."""

import numpy as np
import pytest

from repro.core.registry import make_fluid_algorithm
from repro.fluid.dynamics import (
    CoupledFluid,
    EwtcpFluid,
    LiaFluid,
    OliaFluid,
    TcpFluid,
)


class TestTcpFluid:
    def test_equilibrium_zero_derivative(self):
        """dx/dt = 0 exactly at x = sqrt(2/p)/rtt."""
        algo = TcpFluid()
        p, rtt = 0.01, 0.1
        x = np.array([np.sqrt(2.0 / p) / rtt])
        dx = algo.derivative(x, np.array([p]), np.array([rtt]))
        assert dx[0] == pytest.approx(0.0, abs=1e-9)

    def test_increase_below_equilibrium(self):
        algo = TcpFluid()
        dx = algo.derivative(np.array([10.0]), np.array([0.01]),
                             np.array([0.1]))
        assert dx[0] > 0

    def test_decrease_above_equilibrium(self):
        algo = TcpFluid()
        dx = algo.derivative(np.array([1000.0]), np.array([0.01]),
                             np.array([0.1]))
        assert dx[0] < 0


class TestLiaFluid:
    def test_single_route_matches_tcp(self):
        lia, tcp = LiaFluid(), TcpFluid()
        x, p, rtt = np.array([50.0]), np.array([0.01]), np.array([0.1])
        assert lia.derivative(x, p, rtt)[0] == pytest.approx(
            tcp.derivative(x, p, rtt)[0])

    def test_fixed_point_of_eq2_is_stationary(self):
        """LIA's Eq. (2) allocation zeroes the LIA fluid derivative."""
        from repro.fluid.equilibrium import lia_allocation
        p = np.array([0.005, 0.02])
        rtt = np.array([0.1, 0.1])
        x = lia_allocation(p, rtt)
        dx = LiaFluid().derivative(x, p, rtt)
        scale = float(np.max(np.abs(x))) / 0.1  # rate/rtt ~ derivative scale
        assert np.max(np.abs(dx)) / scale < 1e-6

    def test_cap_limits_increase(self):
        """The min() cap keeps the per-route increase at most TCP's."""
        lia = LiaFluid()
        # Tiny rate on route 1 -> cap 1/(x rtt) binds.
        x = np.array([100.0, 0.5])
        p = np.array([0.0, 0.0])
        rtt = np.array([0.001, 1.0])
        dx = lia.derivative(x, p, rtt)
        tcp_like = x[1] / rtt[1] * (1.0 / (x[1] * rtt[1]))
        assert dx[1] <= tcp_like + 1e-9

    def test_zero_rates_recover(self):
        lia = LiaFluid()
        dx = lia.derivative(np.zeros(2), np.zeros(2), np.array([0.1, 0.1]))
        assert np.all(dx > 0)


class TestOliaFluid:
    def test_single_route_matches_tcp(self):
        olia, tcp = OliaFluid(), TcpFluid()
        x, p, rtt = np.array([50.0]), np.array([0.01]), np.array([0.1])
        assert olia.derivative(x, p, rtt)[0] == pytest.approx(
            tcp.derivative(x, p, rtt)[0])

    def test_alphas_sum_to_zero(self):
        olia = OliaFluid()
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = rng.integers(1, 6)
            x = rng.uniform(0.5, 100.0, n)
            p = rng.uniform(1e-4, 0.2, n)
            rtt = rng.uniform(0.01, 0.3, n)
            assert np.sum(olia.alphas(x, p, rtt)) == pytest.approx(0.0,
                                                                   abs=1e-12)

    def test_alpha_moves_mass_towards_best_path(self):
        olia = OliaFluid()
        # Route 0: big window but lossy; route 1: small window, clean.
        x = np.array([50.0, 1.0])
        p = np.array([0.05, 0.001])
        rtt = np.array([0.1, 0.1])
        alphas = olia.alphas(x, p, rtt)
        assert alphas[1] > 0
        assert alphas[0] < 0

    def test_alpha_zero_when_best_has_max_window(self):
        olia = OliaFluid()
        x = np.array([50.0, 1.0])
        p = np.array([0.001, 0.05])
        rtt = np.array([0.1, 0.1])
        assert np.all(olia.alphas(x, p, rtt) == 0.0)

    def test_theorem1_point_is_stationary(self):
        """Best-path-only allocation with total = TCP rate is a fixed point."""
        olia = OliaFluid()
        p = np.array([0.001, 0.05])
        rtt = np.array([0.1, 0.1])
        best_rate = np.sqrt(2.0 / p[0]) / rtt[0]
        x = np.array([best_rate, 0.0])
        dx = olia.derivative(x, p, rtt)
        assert dx[0] == pytest.approx(0.0, abs=1e-6)
        # The abandoned path only feels (non-negative) alpha probing.
        assert dx[1] >= 0.0

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            OliaFluid(tie_tolerance=-1.0)


class TestCoupledAndEwtcp:
    def test_coupled_is_olia_without_alpha(self):
        x = np.array([30.0, 10.0])
        p = np.array([0.01, 0.02])
        rtt = np.array([0.1, 0.2])
        coupled = CoupledFluid().derivative(x, p, rtt)
        total = np.sum(x)
        expected = x * x * (1.0 / (rtt * rtt * total * total) - p / 2.0)
        assert np.allclose(coupled, expected)

    def test_ewtcp_weight_quarter_for_two_paths(self):
        x = np.array([10.0, 10.0])
        p = np.zeros(2)
        rtt = np.array([0.1, 0.1])
        dx = EwtcpFluid().derivative(x, p, rtt)
        assert np.allclose(dx, 0.25 / 0.01)


class TestFactory:
    def test_known_names(self):
        for name, cls in (("tcp", TcpFluid), ("lia", LiaFluid),
                          ("olia", OliaFluid), ("coupled", CoupledFluid),
                          ("ewtcp", EwtcpFluid)):
            assert isinstance(make_fluid_algorithm(name), cls)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_fluid_algorithm("nope")
