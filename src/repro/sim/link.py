"""Store-and-forward link with an egress queue and per-link statistics.

A :class:`Link` transmits one packet at a time at its configured rate,
then hands the packet to the next hop of its path after the propagation
delay.  Arriving packets go through the queue discipline when the
transmitter is busy; queue drops are the (only) loss mechanism in the
simulator, exactly as in the paper's testbed.

Scheduling shape: a link is a *self-scheduling service loop*.  However
many packets are queued or propagating, it keeps at most **two** pending
events in the engine — one wakeup for the transmission currently on the
wire, and one for the head of the propagation pipe (a FIFO of
``(deliver_time, packet)`` pairs; propagation delay is constant per
link, so completion order is arrival order).  The seed engine instead
held one pending event per packet in flight, which on a long-delay link
is a bandwidth-delay product's worth of heap entries per link; the
service-loop shape keeps the engine's pending set proportional to
the number of *links*, not packets.

On a compiled engine, ``Link(sim, ...)`` returns the compiled twin,
:class:`repro.sim._kernels.Link`: the same link with ``receive``, both
service-loop events and a drop-tail queue in C, scheduling straight
into the engine core and handing packets C to C along a path of C
links.  Every dispatched event, float and RNG draw is the one this
class makes.  This class stays the reference and carries the pure
engine and every subclass; the compiled ``stats`` is a C
``LinkStats`` with the same fields and methods.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from .engine import Simulator, _compiled
from .packet import Packet
from .queues import DropTailQueue


class LinkStats:
    """Arrival/drop/throughput counters with warmup reset support."""

    __slots__ = ("arrivals", "drops", "bytes_sent", "since")

    def __init__(self) -> None:
        self.arrivals = 0
        self.drops = 0
        self.bytes_sent = 0
        self.since = 0.0

    def reset(self, now: float) -> None:
        """Forget everything before ``now`` (end of warmup)."""
        self.arrivals = 0
        self.drops = 0
        self.bytes_sent = 0
        self.since = now

    @property
    def loss_probability(self) -> float:
        """Fraction of arrivals dropped since the last reset."""
        if self.arrivals == 0:
            return 0.0
        return self.drops / self.arrivals

    def utilization(self, now: float, rate_bps: float) -> float:
        """Fraction of the link capacity used since the last reset."""
        elapsed = now - self.since
        if elapsed <= 0:
            return 0.0
        return (self.bytes_sent * 8.0) / (rate_bps * elapsed)


class Link:
    """Unidirectional link: rate (bits/s), propagation delay, queue.

    ``rate_bps`` and ``delay`` may be mutated mid-run (the wireless
    scenario machinery in :mod:`repro.topology.wireless` drives both):
    a new rate applies from the next transmission, and the propagation
    pipe clamps delivery times to stay monotone so a shrinking delay
    can never reorder packets already on the wire.  ``loss_rate``
    models non-congestion (channel) loss: each arriving packet is
    dropped with that probability, drawn from the caller-supplied
    ``loss_rng`` so runs stay seed-reproducible.  At the default
    ``loss_rate=0.0`` no random numbers are ever drawn.
    """

    # fmt: off
    __slots__ = ("sim", "clock", "rate_bps", "delay", "queue", "stats",
                 "name", "loss_rate", "loss_rng", "_busy", "_pipe",
                 "_pipe_idle", "_schedule", "_schedule_at")
    # fmt: on

    def __new__(cls, sim: Simulator, *args, **kwargs):
        if cls is Link and sim.compiled:
            return _compiled.Link(sim, *args, **kwargs)
        return super().__new__(cls)

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        delay: float,
        queue: Optional[DropTailQueue] = None,
        name: str = "link",
        *,
        loss_rate: float = 0.0,
        loss_rng=None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if delay < 0:
            raise ValueError("propagation delay cannot be negative")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if loss_rate > 0.0 and loss_rng is None:
            raise ValueError(
                "loss_rate needs a loss_rng for reproducible channel drops"
            )
        self.sim = sim
        self.clock = sim.clock
        # The two engine entry points, bound once: every packet on this
        # link costs a schedule (service) and often a schedule_at (wire).
        self._schedule = sim.schedule
        self._schedule_at = sim.schedule_at
        self.rate_bps = rate_bps
        self.delay = delay
        self.queue = queue if queue is not None else DropTailQueue()
        self.stats = LinkStats()
        self.name = name
        self.loss_rate = loss_rate
        self.loss_rng = loss_rng
        self._busy = False
        # Packets on the wire: (delivery_time, packet), delivery order ==
        # transmission order because the propagation delay is constant
        # (or clamped monotone when mutated mid-run).
        self._pipe: Deque[Tuple[float, Packet]] = deque()
        self._pipe_idle = True

    def receive(self, packet: Packet) -> None:
        """Packet arrives at this link's ingress."""
        stats = self.stats
        stats.arrivals += 1
        if self.loss_rate > 0.0 and self.loss_rng.random() < self.loss_rate:
            # Channel loss (wireless): dropped on arrival, before the
            # queue — indistinguishable from a queue drop to the
            # transport, as non-congestion losses are to real TCP.
            stats.drops += 1
            return
        queue = self.queue
        if not queue.try_enqueue(packet):
            stats.drops += 1
            return
        if self._busy:
            return
        # Transmitter idle: the packet still went through the (empty)
        # queue so RED sees the arrival; serve the head right away.
        packet = queue.dequeue()
        if packet is not None:
            self._busy = True
            self._schedule(
                packet.size_bytes * 8.0 / self.rate_bps, self._transmission_done, packet
            )

    def _transmission_done(self, packet: Packet) -> None:
        self.stats.bytes_sent += packet.size_bytes
        deliver_at = self.clock.now + self.delay
        pipe = self._pipe
        if pipe and pipe[-1][0] > deliver_at:
            # The delay shrank mid-run (wireless rate/handover change):
            # clamp to the tail so the wire stays FIFO.  A no-op for
            # constant delay — completion order is arrival order.
            deliver_at = pipe[-1][0]
        pipe.append((deliver_at, packet))
        if self._pipe_idle:
            # First packet on an idle wire: start the delivery loop.
            self._pipe_idle = False
            self._schedule_at(deliver_at, self._deliver)
        # Drain the queue: keep the service loop going with the next
        # packet (one pending service event per busy link).
        packet = self.queue.dequeue()
        if packet is not None:
            self._schedule(
                packet.size_bytes * 8.0 / self.rate_bps, self._transmission_done, packet
            )
        else:
            self._busy = False

    def _deliver(self) -> None:
        """Deliver every packet whose propagation has completed.

        One wakeup per delivery in the common case, but a single pending
        event however many packets are mid-flight: after handing over
        the due packets, the loop re-arms itself for the new pipe head.
        """
        pipe = self._pipe
        now = self.clock.now
        while pipe and pipe[0][0] <= now:
            packet = pipe.popleft()[1]
            packet.hop = hop = packet.hop + 1
            path = packet.path
            if hop < len(path):
                path[hop].receive(packet)
            else:
                packet.endpoint.on_data(packet)
        if pipe:
            self._schedule_at(pipe[0][0], self._deliver)
        else:
            self._pipe_idle = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link({self.name}, {self.rate_bps / 1e6:.1f} Mbps, "
            f"{self.delay * 1e3:.1f} ms)"
        )
