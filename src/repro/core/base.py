"""Congestion-controller interface shared by the fluid and packet simulators.

A *multipath* congestion controller owns the congestion-avoidance window
dynamics of every subflow of one connection.  The packet-level simulator
(:mod:`repro.sim.mptcp`) calls :meth:`MultipathController.increase_on_ack`
once per acknowledged packet and :meth:`MultipathController.decrease_on_loss`
once per loss event; the controller returns the new window.  All windows are
expressed in packets (MSS) and RTTs in seconds, matching the units of the
paper's Equations (1) and (5).

The controller reads subflow state through :class:`SubflowState`, a small
mutable view owned by the transport layer.  This keeps the algorithms free
of any simulator dependency, so they can be unit-tested directly against
the paper's formulas and reused by the fluid model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(slots=True)
class SubflowState:
    """Mutable per-subflow state visible to a multipath controller.

    Attributes
    ----------
    cwnd:
        Congestion window in packets (float; the transport layer floors it
        when deciding how many packets may be in flight).
    rtt:
        Smoothed round-trip time estimate in seconds.
    bytes_acked_since_loss:
        OLIA's ``l2_r`` counter — bytes acknowledged since the last loss.
    bytes_between_last_losses:
        OLIA's ``l1_r`` counter — bytes acknowledged between the two most
        recent losses.
    """

    cwnd: float = 1.0
    rtt: float = 0.1
    bytes_acked_since_loss: float = 0.0
    bytes_between_last_losses: float = 0.0

    @property
    def interloss_bytes(self) -> float:
        """OLIA's ``l_r = max(l1_r, l2_r)`` (paper, Section IV-A)."""
        return max(self.bytes_between_last_losses, self.bytes_acked_since_loss)

    def record_ack(self, nbytes: float) -> None:
        """Account ``nbytes`` of newly acknowledged data (updates ``l2_r``)."""
        self.bytes_acked_since_loss += nbytes

    def record_loss(self) -> None:
        """Roll the inter-loss counters on a loss event (``l1 <- l2; l2 <- 0``)."""
        self.bytes_between_last_losses = self.bytes_acked_since_loss
        self.bytes_acked_since_loss = 0.0


class MultipathController:
    """Base class for multipath congestion-avoidance algorithms.

    Subclasses implement :meth:`increase_increment`, the window increase
    applied for one acknowledged packet on one subflow while in congestion
    avoidance.  The decrease behaviour (halving, floor at ``min_cwnd``) is
    shared by all algorithms in the paper, which keep "unmodified TCP
    behavior in the case of a loss".
    """

    #: Human-readable algorithm name (overridden by subclasses).
    name = "base"

    #: Minimum congestion window, 1 MSS as in TCP and the paper's
    #: implementation (Section IV-B).
    min_cwnd = 1.0

    def __init__(self) -> None:
        self._subflows: Dict[int, SubflowState] = {}

    # -- subflow management -------------------------------------------------
    def register_subflow(self, key: int, state: SubflowState) -> None:
        """Attach a subflow's state under an integer key."""
        if key in self._subflows:
            raise ValueError(f"subflow key {key!r} already registered")
        self._subflows[key] = state

    def remove_subflow(self, key: int) -> None:
        """Detach a subflow (e.g. path failure)."""
        del self._subflows[key]

    @property
    def subflows(self) -> Dict[int, SubflowState]:
        """Read-only view of registered subflow states."""
        return self._subflows

    def states(self) -> List[SubflowState]:
        """All registered subflow states, in registration order."""
        return list(self._subflows.values())

    # -- congestion avoidance ------------------------------------------------
    def increase_increment(self, key: int) -> float:
        """Window increment for one ACKed packet on subflow ``key``."""
        raise NotImplementedError

    def increase_on_ack(
        self, key: int, acked_packets: int = 1, acked_bytes: float | None = None
    ) -> float:
        """Apply the congestion-avoidance increase for newly ACKed packets.

        Returns the new congestion window of subflow ``key``.  The increase
        is applied once per acknowledged packet, mirroring a per-ACK
        implementation.  ``acked_bytes`` defaults to
        ``acked_packets * 1500``; it feeds OLIA's inter-loss counters.
        """
        state = self._subflows[key]
        state.bytes_acked_since_loss += (
            acked_packets * 1500.0 if acked_bytes is None else acked_bytes
        )
        if acked_packets == 1:  # the per-ACK case: no loop to set up
            cwnd = state.cwnd + self.increase_increment(key)
        else:
            for _ in range(acked_packets):
                state.cwnd += self.increase_increment(key)
            cwnd = state.cwnd
        if cwnd < self.min_cwnd:
            cwnd = self.min_cwnd
        state.cwnd = cwnd
        return cwnd

    def decrease_on_loss(self, key: int) -> float:
        """Multiplicative decrease on a loss: ``w <- max(w/2, 1)``.

        Also rolls the inter-loss counters used by OLIA.  Returns the new
        congestion window.
        """
        state = self._subflows[key]
        state.record_loss()
        state.cwnd = max(state.cwnd / 2.0, self.min_cwnd)
        return state.cwnd
