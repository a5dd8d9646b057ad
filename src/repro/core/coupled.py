"""Fully coupled controller: OLIA's Kelly-Voice term without the alpha term.

This is the TCP-compatible adaptation of the fully coupled algorithms of
Kelly & Voice / Han et al. (references [4]-[6] of the paper, the
``epsilon = 0`` end of the design spectrum).  It is Pareto-optimal at
equilibrium but *flappy*: with several equally good paths the traffic
randomly flips between them, and free capacity is probed slowly because
windows on lossy paths collapse towards the minimum.

The paper's OLIA is exactly this increase plus the opportunistic ``alpha``
term; keeping this controller around gives a direct ablation of that design
choice (see ``repro.experiments.ablation``).
"""

from __future__ import annotations

from .base import MultipathController


class CoupledController(MultipathController):
    """Per-ACK increase ``(w_r/rtt_r^2) / (sum_p w_p/rtt_p)^2`` only."""

    name = "coupled"

    def increase_increment(self, key: int) -> float:
        subflows = self._subflows
        denom = 0.0
        for s in subflows.values():
            denom += s.cwnd / s.rtt
        state = subflows[key]
        return (state.cwnd / (state.rtt * state.rtt)) / (denom * denom)
