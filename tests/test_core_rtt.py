"""Unit tests for the Jacobson/Karels RTT estimator."""

import pytest

from repro.core import RttEstimator


class TestRttEstimator:
    def test_first_sample_initialises(self):
        est = RttEstimator()
        est.update(0.2)
        assert est.srtt == pytest.approx(0.2)
        assert est.rttvar == pytest.approx(0.1)

    def test_constructor_seed(self):
        est = RttEstimator(initial_rtt=0.1)
        assert est.srtt == pytest.approx(0.1)

    def test_ewma_update(self):
        est = RttEstimator(initial_rtt=0.1)
        est.update(0.2)
        # srtt = 0.1 + (0.2-0.1)/8
        assert est.srtt == pytest.approx(0.1125)
        # rttvar = 0.05 + (|0.1| - 0.05)/4
        assert est.rttvar == pytest.approx(0.0625)

    def test_converges_to_constant_samples(self):
        est = RttEstimator(initial_rtt=0.5)
        for _ in range(300):
            est.update(0.08)
        assert est.srtt == pytest.approx(0.08, rel=1e-3)
        assert est.rttvar == pytest.approx(0.0, abs=1e-3)

    def test_rto_formula_and_floor(self):
        est = RttEstimator(initial_rtt=0.1)
        assert est.rto == pytest.approx(max(0.1 + 4 * 0.05, 0.2))
        for _ in range(300):
            est.update(0.01)
        assert est.rto == pytest.approx(0.2)  # clamped to min_rto

    def test_initial_rto_without_samples(self):
        assert RttEstimator().rto == pytest.approx(1.0)

    def test_initial_rto_is_clamped_like_any_other(self):
        """Before the first sample the RFC 6298 1 s still obeys the
        estimator's own bounds."""
        assert RttEstimator(min_rto=0.05, max_rto=0.5).rto == 0.5
        assert RttEstimator(min_rto=2.0, max_rto=60.0).rto == 2.0

    def test_rejects_nonpositive_samples(self):
        est = RttEstimator()
        with pytest.raises(ValueError):
            est.update(0.0)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            RttEstimator(min_rto=0.0)
        with pytest.raises(ValueError):
            RttEstimator(min_rto=1.0, max_rto=0.5)

    def test_rto_ceiling(self):
        est = RttEstimator(initial_rtt=50.0, max_rto=60.0)
        est.update(80.0)
        assert est.rto == 60.0
