"""LIA — the Linked-Increases Algorithm of MPTCP (RFC 6356).

Implements Equation (1) of the paper: for each ACK on subflow ``r``,
increase ``w_r`` by::

    min( (max_i w_i / rtt_i^2) / (sum_i w_i / rtt_i)^2 ,  1 / w_r )

The ``min`` with ``1/w_r`` caps the aggressiveness at that of a regular TCP
on any single path (design goal 2).  The decrease on loss is the standard
TCP halving inherited from :class:`~repro.core.base.MultipathController`.
"""

from __future__ import annotations

from .base import MultipathController


class LiaController(MultipathController):
    """MPTCP's default coupled congestion avoidance (Eq. 1)."""

    name = "lia"

    def increase_increment(self, key: int) -> float:
        subflows = self._subflows
        denom = peak = 0.0          # sum_i w_i/rtt_i, max_i w_i/rtt_i^2
        for s in subflows.values():
            cwnd, rtt = s.cwnd, s.rtt
            denom += cwnd / rtt
            term = cwnd / (rtt * rtt)
            if term > peak:
                peak = term
        coupled = peak / (denom * denom)
        cap = 1.0 / subflows[key].cwnd
        return cap if cap < coupled else coupled
