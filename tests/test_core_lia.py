"""Unit tests for LIA (Eq. 1 of the paper)."""

import math

import pytest

from repro.core import LiaController, SubflowState


def make_lia(windows, rtts):
    ctrl = LiaController()
    for i, (w, rtt) in enumerate(zip(windows, rtts)):
        ctrl.register_subflow(i, SubflowState(cwnd=w, rtt=rtt))
    return ctrl


class TestLiaIncrement:
    def test_single_path_reduces_to_reno(self):
        """On one path, max(w/rtt^2)/(w/rtt)^2 = 1/w: LIA is regular TCP."""
        ctrl = make_lia([8.0], [0.1])
        assert ctrl.increase_increment(0) == pytest.approx(1.0 / 8.0)

    def test_two_equal_paths_quarter_rate(self):
        """Equal windows/RTTs on two paths: increase is 1/(4w) per path."""
        ctrl = make_lia([10.0, 10.0], [0.1, 0.1])
        for key in (0, 1):
            assert ctrl.increase_increment(key) == pytest.approx(1.0 / 40.0)

    def test_explicit_formula_general_case(self):
        windows, rtts = [6.0, 3.0], [0.05, 0.2]
        ctrl = make_lia(windows, rtts)
        best = max(w / r**2 for w, r in zip(windows, rtts))
        denom = sum(w / r for w, r in zip(windows, rtts)) ** 2
        expected = best / denom
        assert expected < 1.0 / 6.0  # cap inactive here
        assert ctrl.increase_increment(0) == pytest.approx(expected)

    def test_cap_at_reno_increase(self):
        """A tiny window on a path must not get more than TCP's 1/w."""
        # Path 0: small window on a tiny RTT dominates the numerator while
        # path 1 (huge RTT) adds almost nothing to the denominator, making
        # the coupled term approach 1/w_0 = 1 > 1/w_1.
        ctrl = make_lia([1.0, 2.0], [0.001, 10.0])
        coupled = (1.0 / 0.001**2) / (1.0 / 0.001 + 2.0 / 10.0) ** 2
        assert coupled > 1.0 / 2.0
        assert ctrl.increase_increment(1) == pytest.approx(1.0 / 2.0)

    def test_increment_same_for_all_subflows_when_uncapped(self):
        """Eq. (1)'s coupled term does not depend on the ACKed subflow."""
        ctrl = make_lia([4.0, 9.0], [0.1, 0.1])
        assert ctrl.increase_increment(0) == pytest.approx(
            ctrl.increase_increment(1))

    def test_rtt_compensation_favors_low_rtt(self):
        """With equal windows, a smaller-RTT path dominates the numerator."""
        ctrl = make_lia([10.0, 10.0], [0.05, 0.2])
        expected_num = 10.0 / 0.05**2
        denom = (10.0 / 0.05 + 10.0 / 0.2) ** 2
        assert ctrl.increase_increment(0) == pytest.approx(expected_num / denom)


class TestLiaSawtooth:
    def test_single_path_average_matches_tcp_sawtooth(self):
        """Deterministic loss every 1/p ACKs gives the Reno sawtooth mean.

        With a loss every ``1/p`` packets the window oscillates around the
        AIMD sawtooth whose mean is ``sqrt(3/(2p))`` — the classic
        square-root law within a few percent.
        """
        p = 1e-3
        ctrl = make_lia([10.0], [0.1])
        state = ctrl.subflows[0]
        samples = []
        acks_until_loss = int(1 / p)
        for _ in range(60):
            for _ in range(acks_until_loss):
                ctrl.increase_on_ack(0)
            samples.append(state.cwnd)
            ctrl.decrease_on_loss(0)
        peak = sum(samples[10:]) / len(samples[10:])
        expected_peak = math.sqrt(8.0 / (3.0 * p))
        assert peak == pytest.approx(expected_peak, rel=0.15)

    def test_two_symmetric_paths_stay_symmetric(self):
        ctrl = make_lia([5.0, 5.0], [0.1, 0.1])
        for round_ in range(50):
            for _ in range(200):
                ctrl.increase_on_ack(0)
                ctrl.increase_on_ack(1)
            ctrl.decrease_on_loss(0)
            ctrl.decrease_on_loss(1)
        w0 = ctrl.subflows[0].cwnd
        w1 = ctrl.subflows[1].cwnd
        # Sequential per-ACK updates introduce a tiny order effect, so the
        # windows track each other closely rather than exactly.
        assert w0 == pytest.approx(w1, rel=1e-2)
        assert w0 > 1.0
