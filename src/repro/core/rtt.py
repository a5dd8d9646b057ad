"""Jacobson/Karels smoothed RTT estimation, as used by the Linux kernel.

The paper's OLIA implementation reuses the kernel's smoothed RTT
(Section IV-B, reference [23]).  This module implements the classic
exponentially weighted estimator with gains ``alpha = 1/8`` for the
smoothed RTT and ``beta = 1/4`` for the mean deviation, and the standard
retransmission-timeout formula ``RTO = srtt + 4 * rttvar`` clamped to a
minimum (Linux uses 200 ms; we default to that).
"""

from __future__ import annotations


class RttEstimator:
    """Smoothed RTT and RTO tracking for one subflow."""

    #: Gain for the smoothed RTT update (Jacobson's 1/8).
    ALPHA = 1.0 / 8.0
    #: Gain for the mean-deviation update (Jacobson's 1/4).
    BETA = 1.0 / 4.0

    def __init__(self, initial_rtt: float | None = None,
                 min_rto: float = 0.2, max_rto: float = 60.0) -> None:
        if min_rto <= 0 or max_rto < min_rto:
            raise ValueError("need 0 < min_rto <= max_rto")
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.srtt: float | None = None
        self.rttvar: float = 0.0
        if initial_rtt is not None:
            self.update(initial_rtt)

    def update(self, sample: float) -> float:
        """Fold one RTT measurement into the estimate; returns ``srtt``."""
        if sample <= 0:
            raise ValueError("RTT samples must be positive")
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            err = sample - self.srtt
            self.srtt += self.ALPHA * err
            self.rttvar += self.BETA * (abs(err) - self.rttvar)
        return self.srtt

    @property
    def rto(self) -> float:
        """Current retransmission timeout, clamped to ``[min_rto, max_rto]``."""
        # RFC 6298: 1 s until the first sample, clamped like any other.
        rto = 1.0 if self.srtt is None else self.srtt + 4.0 * self.rttvar
        return min(max(rto, self.min_rto), self.max_rto)
