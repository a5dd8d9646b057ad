"""Property-based tests (hypothesis) for the congestion controllers."""

import functools
import operator

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core import (
    BaliaController,
    CoupledController,
    EwtcpController,
    LiaController,
    OliaController,
    RenoController,
    SubflowState,
)

windows = st.floats(min_value=1.0, max_value=1000.0,
                    allow_nan=False, allow_infinity=False)
rtts = st.floats(min_value=1e-3, max_value=5.0,
                 allow_nan=False, allow_infinity=False)
interloss = st.floats(min_value=0.0, max_value=1e9,
                      allow_nan=False, allow_infinity=False)


def subflow_lists(min_size=1, max_size=6):
    return st.lists(st.tuples(windows, rtts, interloss),
                    min_size=min_size, max_size=max_size)


def build(controller, params):
    for i, (w, rtt, l) in enumerate(params):
        state = SubflowState(cwnd=w, rtt=rtt)
        state.bytes_acked_since_loss = l
        controller.register_subflow(i, state)
    return controller


class TestOliaProperties:
    @given(subflow_lists())
    def test_alphas_always_sum_to_zero(self, params):
        ctrl = build(OliaController(), params)
        assert abs(sum(ctrl.alphas().values())) < 1e-12

    @given(subflow_lists())
    def test_alphas_bounded_by_one_over_n(self, params):
        ctrl = build(OliaController(), params)
        bound = 1.0 / len(params) + 1e-12
        for alpha in ctrl.alphas().values():
            assert -bound <= alpha <= bound

    @given(subflow_lists())
    def test_alpha_positive_only_outside_max_window_set(self, params):
        ctrl = build(OliaController(), params)
        max_set = set(ctrl.max_window_paths())
        for key, alpha in ctrl.alphas().items():
            if alpha > 0:
                assert key not in max_set
            if alpha < 0:
                assert key in max_set

    @given(subflow_lists())
    def test_single_best_max_path_means_all_zero(self, params):
        ctrl = build(OliaController(), params)
        best = set(ctrl.best_paths())
        maxw = set(ctrl.max_window_paths())
        if best <= maxw:
            assert all(a == 0.0 for a in ctrl.alphas().values())

    @given(subflow_lists())
    def test_window_never_below_one_after_any_event(self, params):
        ctrl = build(OliaController(), params)
        for key in range(len(params)):
            ctrl.increase_on_ack(key)
            assert ctrl.subflows[key].cwnd >= 1.0
            ctrl.decrease_on_loss(key)
            assert ctrl.subflows[key].cwnd >= 1.0


class TestLiaProperties:
    @given(subflow_lists())
    def test_increment_capped_by_reno(self, params):
        """Design goal 2: never more aggressive than TCP on any path."""
        ctrl = build(LiaController(), params)
        for key in range(len(params)):
            increment = ctrl.increase_increment(key)
            assert increment <= 1.0 / ctrl.subflows[key].cwnd + 1e-12
            assert increment > 0

    @given(subflow_lists(min_size=2))
    def test_total_increase_at_most_best_path_tcp(self, params):
        """The coupled term is the same for all subflows (when uncapped),
        bounded by the best single-path increase."""
        ctrl = build(LiaController(), params)
        states = ctrl.states()
        coupled = (max(s.cwnd / s.rtt**2 for s in states)
                   / sum(s.cwnd / s.rtt for s in states) ** 2)
        best_reno = max(1.0 / s.cwnd for s in ctrl.states())
        assert coupled <= best_reno * len(params)

    @given(st.floats(min_value=1.0, max_value=500.0), rtts)
    def test_single_path_equals_reno(self, w, rtt):
        lia = build(LiaController(), [(w, rtt, 0.0)])
        reno = build(RenoController(), [(w, rtt, 0.0)])
        assert abs(lia.increase_increment(0)
                   - reno.increase_increment(0)) < 1e-15


class TestCoupledAndEwtcpProperties:
    @given(subflow_lists())
    def test_coupled_increments_positive(self, params):
        ctrl = build(CoupledController(), params)
        for key in range(len(params)):
            assert ctrl.increase_increment(key) > 0

    @given(subflow_lists())
    def test_olia_equals_coupled_plus_alpha(self, params):
        olia = build(OliaController(), params)
        coupled = build(CoupledController(), params)
        alphas = olia.alphas()
        for key in range(len(params)):
            w = olia.subflows[key].cwnd
            expected = coupled.increase_increment(key) + alphas[key] / w
            assert abs(olia.increase_increment(key) - expected) < 1e-12

    @given(subflow_lists())
    def test_ewtcp_weight_in_unit_interval(self, params):
        ctrl = build(EwtcpController(), params)
        assert 0 < ctrl.weight <= 1.0


class TestDecreaseProperties:
    @given(subflow_lists(), st.integers(min_value=0, max_value=5))
    @settings(max_examples=50)
    def test_halving_sequence_reaches_floor(self, params, n_losses):
        ctrl = build(OliaController(), params)
        for key in range(len(params)):
            for _ in range(n_losses):
                before = ctrl.subflows[key].cwnd
                after = ctrl.decrease_on_loss(key)
                assert after == max(before / 2.0, 1.0)

    @given(subflow_lists())
    def test_loss_rolls_counters(self, params):
        ctrl = build(OliaController(), params)
        for key in range(len(params)):
            l2_before = ctrl.subflows[key].bytes_acked_since_loss
            ctrl.decrease_on_loss(key)
            state = ctrl.subflows[key]
            assert state.bytes_between_last_losses == l2_before
            assert state.bytes_acked_since_loss == 0.0


# -- the per-ACK loops against container-built references ---------------------
# ``increase_increment`` runs once per ACK and computes its sums, maxima
# and (OLIA) argmax-set memberships in plain loops without allocating.
# These references build the same quantities the readable way — dicts,
# ``max()``, and OLIA's public ``alphas()`` — and must agree *exactly*:
# the golden traces pin every float, so "close" would be a regression.
# Sums are left-to-right ``+`` on every interpreter (``sum()`` is
# compensated from CPython 3.12 on, which is why the controllers do not
# use it).

#: Values drawn from a short list so exact ties (equal windows, equal
#: scores, ``l_r == 0`` on every path) come up in most examples.
tied_windows = st.one_of(st.sampled_from([1.0, 2.0, 10.0, 10.0, 37.5]),
                         windows)
tied_rtts = st.one_of(st.sampled_from([0.01, 0.1, 0.1, 0.25]), rtts)
tied_interloss = st.one_of(st.sampled_from([0.0, 0.0, 1500.0, 3e6]),
                           interloss)
tied_states = st.lists(
    st.tuples(tied_windows, tied_rtts, tied_interloss, tied_interloss),
    min_size=1, max_size=4)


def build_tied(controller, params):
    for i, (w, rtt, l1, l2) in enumerate(params):
        controller.register_subflow(i, SubflowState(
            cwnd=w, rtt=rtt, bytes_acked_since_loss=l2,
            bytes_between_last_losses=l1))
    return controller


def plain_sum(terms):
    return functools.reduce(operator.add, terms, 0.0)


class TestSinglePassEqualsReference:
    @given(tied_states, st.sampled_from([0.0, 1e-3]))
    def test_olia(self, params, tie_tolerance):
        ctrl = build_tied(OliaController(tie_tolerance), params)
        states = ctrl.subflows
        denom = plain_sum(s.cwnd / s.rtt for s in states.values())
        alphas = ctrl.alphas()
        for key, s in states.items():
            kelly_voice = (s.cwnd / (s.rtt * s.rtt)) / (denom * denom)
            assert ctrl.increase_increment(key) \
                == kelly_voice + alphas[key] / s.cwnd

    @given(tied_states)
    def test_lia_and_coupled(self, params):
        lia = build_tied(LiaController(), params)
        coupled = build_tied(CoupledController(), params)
        states = lia.subflows
        denom = plain_sum(s.cwnd / s.rtt for s in states.values())
        peak = max(s.cwnd / (s.rtt * s.rtt) for s in states.values())
        for key, s in states.items():
            assert lia.increase_increment(key) \
                == min(peak / (denom * denom), 1.0 / s.cwnd)
            assert coupled.increase_increment(key) \
                == (s.cwnd / (s.rtt * s.rtt)) / (denom * denom)

    @given(tied_states)
    def test_balia(self, params):
        ctrl = build_tied(BaliaController(), params)
        rates = ctrl._rates()
        total = plain_sum(rates.values())
        for key, s in ctrl.subflows.items():
            alpha = ctrl._alpha(key, rates)     # what the decrease uses
            kelly = (rates[key] / s.rtt) / max(total * total, 1e-12)
            assert ctrl.increase_increment(key) \
                == kelly * ((1.0 + alpha) / 2.0) * ((4.0 + alpha) / 5.0)

    @given(tied_states, st.sampled_from([None, 0.25]))
    def test_ewtcp(self, params, weight):
        ctrl = build_tied(EwtcpController(weight), params)
        for key, s in ctrl.subflows.items():
            assert ctrl.increase_increment(key) == ctrl.weight / s.cwnd
