"""Tests for the generic proportional-fair NUM solver."""

import importlib.util
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis import proportional_fair
from repro.fluid import FluidNetwork, SharpLoss

HAVE_SCIPY = importlib.util.find_spec("scipy") is not None


def scenario_c_net(n1=4, n2=4, c1=100.0, c2=100.0, rtt=0.15):
    net = FluidNetwork()
    ap1 = net.add_link(SharpLoss(capacity=n1 * c1))
    ap2 = net.add_link(SharpLoss(capacity=n2 * c2))
    for i in range(n1):
        u = net.add_user(f"mp{i}")
        net.add_route(u, [ap1], rtt=rtt)
        net.add_route(u, [ap2], rtt=rtt)
    for i in range(n2):
        u = net.add_user(f"sp{i}")
        net.add_route(u, [ap2], rtt=rtt)
    return net


class TestScipyIsOptional:
    """scipy is the ``scipy`` extra: every package a sweep worker or a
    dist point imports loads without it, and the one solver that needs
    it says so when called."""

    def test_packages_import_without_scipy(self):
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import repro.analysis, repro.experiments, repro.dist\n"
            "from repro.analysis import proportional_fair\n"
            "try:\n"
            "    proportional_fair(None)\n"
            "except ImportError as exc:\n"
            "    assert 'scipy extra' in str(exc), exc\n"
            "else:\n"
            "    raise SystemExit('proportional_fair ran without scipy')\n")
        subprocess.run([sys.executable, "-c", code], check=True)


@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy (the scipy extra) absent")
class TestProportionalFair:
    def test_single_link_equal_split(self):
        net = FluidNetwork()
        link = net.add_link(SharpLoss(capacity=90.0))
        for i in range(3):
            u = net.add_user()
            net.add_route(u, [link], rtt=0.1)
        result = proportional_fair(net, floor_packets=0.0)
        assert result.success
        assert np.allclose(result.user_totals, 30.0, rtol=1e-3)

    def test_scenario_c_multipath_keeps_off_shared_ap(self):
        """With C1 = C2, fair multipath users take only the probing floor
        on the shared AP (paper Fig. 5(b) dashed lines)."""
        net = scenario_c_net()
        result = proportional_fair(net, floor_packets=1.0)
        assert result.success
        # Multipath users' AP2 routes are the odd route ids 1,3,5,7.
        probe = 1.0 / 0.15
        for route in (1, 3, 5, 7):
            assert result.rates[route] == pytest.approx(probe, rel=0.05)

    def test_scenario_c_pooling_when_c1_small(self):
        net = scenario_c_net(c1=25.0, c2=100.0)
        result = proportional_fair(net, floor_packets=1.0)
        assert result.success
        totals = result.user_totals
        # All users end up near the pooled fair share.
        pooled = (4 * 25.0 + 4 * 100.0) / 8.0
        assert np.allclose(totals, pooled, rtol=0.05)

    def test_matches_closed_form_scenario_c(self):
        from repro.analysis import scenario_c as sc
        n1 = n2 = 4
        c1, c2, rtt = 150.0, 100.0, 0.15
        net = scenario_c_net(n1=n1, n2=n2, c1=c1, c2=c2, rtt=rtt)
        result = proportional_fair(net, floor_packets=1.0)
        closed = sc.optimum_with_probing(n1=n1, n2=n2, c1=c1, c2=c2, rtt=rtt)
        mp_total = result.user_totals[:n1].mean()
        sp_total = result.user_totals[n1:].mean()
        assert mp_total == pytest.approx(closed.x1 + closed.x2, rel=0.03)
        assert sp_total == pytest.approx(closed.y, rel=0.03)

    def test_floor_saturation_raises(self):
        net = FluidNetwork()
        link = net.add_link(SharpLoss(capacity=5.0))
        u = net.add_user()
        net.add_route(u, [link], rtt=0.1)  # floor alone = 10 > 5
        with pytest.raises(ValueError):
            proportional_fair(net, floor_packets=1.0)

    def test_rates_respect_capacities(self):
        net = scenario_c_net()
        result = proportional_fair(net, floor_packets=1.0)
        link_rates = net.link_rates(result.rates)
        for link in range(net.n_links):
            assert link_rates[link] <= net.loss_model(link).capacity * 1.01
