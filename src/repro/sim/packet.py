"""Packet representation for the discrete-event simulator.

A packet knows its forward path (a tuple of :class:`~repro.sim.link.Link`
objects), its current hop index, and the endpoint object that receives it
at the end of the path.  ACKs are not modelled as packets: the paper's
scenarios never bottleneck the reverse direction, so receivers deliver
ACK notifications to senders after a fixed reverse propagation delay
(see "ACKs are notifications" in docs/ARCHITECTURE.md).
"""

from __future__ import annotations

from ..units import MSS_BYTES


class Packet:
    """One data segment in flight."""

    __slots__ = ("endpoint", "seq", "size_bytes", "path", "hop")

    def __init__(
        self, endpoint, seq: int, path: tuple, size_bytes: int = MSS_BYTES
    ) -> None:
        self.endpoint = endpoint  # delivered to endpoint.on_data(...)
        self.seq = seq
        self.size_bytes = size_bytes
        self.path = path
        self.hop = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(seq={self.seq}, hop={self.hop}/{len(self.path)}, "
            f"size={self.size_bytes})"
        )
