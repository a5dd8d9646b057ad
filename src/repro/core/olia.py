"""OLIA — the Opportunistic Linked-Increases Algorithm (the paper's proposal).

Implements Equations (5) and (6): for each ACK on subflow ``r`` increase
``w_r`` by::

    (w_r / rtt_r^2) / (sum_p w_p / rtt_p)^2  +  alpha_r / w_r

The first term is the TCP-compatible adaptation of Kelly and Voice's
increase and provides Pareto-optimality; the ``alpha_r`` term provides
responsiveness and non-flappiness by re-forwarding traffic from fully used
paths (the set ``M`` of maximum-window paths) to presumably-best paths with
free capacity (the set ``B \\ M``).

``B`` is determined from the measured number of bytes transmitted between
losses: ``l_r = max(l1_r, l2_r)``, with ``1/l_r`` an estimate of the loss
probability, so the best paths maximize ``l_r / rtt_r^2`` (Equation 4).

On a loss the window halves and the inter-loss counters roll, exactly as in
the Linux implementation described in Section IV-B.
"""

from __future__ import annotations

from typing import Dict, List

from .base import MultipathController

_INF = float("inf")


class OliaController(MultipathController):
    """The paper's OLIA coupled congestion avoidance (Eqs. 5-6).

    Parameters
    ----------
    tie_tolerance:
        Relative tolerance used when computing the argmax sets ``M`` and
        ``B``.  The Linux implementation uses exact comparisons
        (``tie_tolerance = 0``); a small positive value emulates the convex
        closure of the differential inclusion (Eq. 9) by treating
        near-maximal paths as maximal.
    """

    name = "olia"

    def __init__(self, tie_tolerance: float = 0.0) -> None:
        super().__init__()
        if tie_tolerance < 0:
            raise ValueError("tie_tolerance must be non-negative")
        self.tie_tolerance = tie_tolerance

    # -- argmax sets ---------------------------------------------------------
    def _argmax_keys(self, score: Dict[int, float]) -> List[int]:
        """Keys whose score is within ``tie_tolerance`` of the maximum."""
        best = max(score.values())
        if best <= 0:
            return list(score)
        threshold = best * (1.0 - self.tie_tolerance)
        return [k for k, v in score.items() if v >= threshold]

    def max_window_paths(self) -> List[int]:
        """The set ``M(t)`` of paths with the largest window (Eq. 3)."""
        return self._argmax_keys({k: s.cwnd for k, s in self._subflows.items()})

    def best_paths(self) -> List[int]:
        """The set ``B(t)`` of presumably best paths (Eq. 4).

        Paths maximize ``l_p / rtt_p^2``.  A path that has transmitted no
        bytes yet has ``l_p = 0`` and can only be "best" if every path has
        ``l_p = 0`` (in which case all paths tie).
        """
        score = {k: s.interloss_bytes / (s.rtt * s.rtt)
                 for k, s in self._subflows.items()}
        return self._argmax_keys(score)

    def alphas(self) -> Dict[int, float]:
        """``alpha_r`` for every registered subflow (Eq. 6).

        The values sum to zero: mass ``1/|R_u|`` is moved from the
        maximum-window paths to the best paths that still have small
        windows.  If every best path already has a maximal window
        (``B \\ M`` empty), all alphas are zero.
        """
        n_paths = len(self._subflows)
        maxw = set(self.max_window_paths())
        best = set(self.best_paths())
        best_not_max = best - maxw
        alphas = dict.fromkeys(self._subflows, 0.0)
        if not best_not_max:
            return alphas
        gain = (1.0 / n_paths) / len(best_not_max)
        pain = -(1.0 / n_paths) / len(maxw)
        for key in best_not_max:
            alphas[key] = gain
        for key in maxw:
            alphas[key] = pain
        return alphas

    # -- congestion avoidance --------------------------------------------------
    def increase_increment(self, key: int) -> float:
        """Eq. 5 for one ACK on ``key``.  ``alpha_key`` is the float
        :meth:`alphas` gives (pinned by ``tests/test_prop_core.py``),
        with M and B counted in two passes instead of built as sets.
        """
        subflows = self._subflows
        # Pass 1: the denominator and the maxima behind M and B.  Maxima
        # start at zero, which is ``_argmax_keys``' ``best <= 0`` rule.
        denom = max_cwnd = max_score = 0.0
        for s in subflows.values():
            cwnd, rtt = s.cwnd, s.rtt
            denom += cwnd / rtt
            if cwnd > max_cwnd:
                max_cwnd = cwnd
            interloss = s.bytes_between_last_losses
            if s.bytes_acked_since_loss > interloss:
                interloss = s.bytes_acked_since_loss
            score = interloss / (rtt * rtt)
            if score > max_score:
                max_score = score
        slack = 1.0 - self.tie_tolerance
        cwnd_bar = max_cwnd * slack if max_cwnd > 0 else -_INF
        score_bar = max_score * slack if max_score > 0 else -_INF
        # Pass 2: |M|, |B \ M|, and which of the two ``key`` is in.
        state = subflows[key]
        n_max = n_collect = side = 0
        for s in subflows.values():
            if s.cwnd >= cwnd_bar:
                n_max += 1
                if s is state:
                    side = -1
            else:
                interloss = s.bytes_between_last_losses
                if s.bytes_acked_since_loss > interloss:
                    interloss = s.bytes_acked_since_loss
                if interloss / (s.rtt * s.rtt) >= score_bar:
                    n_collect += 1
                    if s is state:
                        side = 1
        if n_collect == 0 or side == 0:
            alpha = 0.0
        elif side < 0:
            alpha = -(1.0 / len(subflows)) / n_max
        else:
            alpha = (1.0 / len(subflows)) / n_collect
        cwnd, rtt = state.cwnd, state.rtt
        return (cwnd / (rtt * rtt)) / (denom * denom) + alpha / cwnd
