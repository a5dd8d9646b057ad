"""Packet-level TCP: one subflow with NewReno-style loss recovery.

A :class:`TcpSubflow` is both the sender and the receiver endpoint of one
path (the reverse direction carries only ACK notifications after a fixed
``reverse_delay``; see "ACKs are notifications" in
docs/ARCHITECTURE.md).  The congestion-avoidance *increase* is
delegated to a :class:`~repro.core.base.MultipathController`, so the same
transport code runs regular TCP (Reno controller), LIA, OLIA, and the
baselines.  Loss behaviour is common to all algorithms in the paper:
halving on fast retransmit, window of 1 and slow start on timeout.

Implemented mechanisms:

* slow start with configurable minimum ssthresh (the paper's OLIA
  implementation uses 1 MSS for multipath subflows, Section IV-B);
* cumulative ACKs with out-of-order buffering at the receiver;
* fast retransmit on 3 duplicate ACKs, NewReno partial-ACK retransmission
  without re-halving during one recovery episode;
* retransmission timeout with exponential backoff and Karn's algorithm
  (no RTT samples from retransmitted segments);
* Jacobson/Karels smoothed RTT driving both the RTO and the coupled
  controllers' RTT compensation.

``on_ack``, ``_try_send`` and ``on_data`` run once per packet and follow
the rules of "The per-packet path" in docs/PERFORMANCE.md.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.base import MultipathController, SubflowState
from ..core.reno import RenoController
from ..core.rtt import RttEstimator
from ..units import MSS_BYTES
from .engine import Simulator
from .packet import Packet

_INITIAL_SSTHRESH = 1e9


class TcpSubflow:
    """One TCP connection / MPTCP subflow over an explicit path."""

    # fmt: off
    __slots__ = (
        "sim", "clock", "path", "reverse_delay", "controller", "key",
        "size_packets", "min_ssthresh", "rcv_wnd_packets", "on_complete",
        "gate", "name", "state", "rtt_estimator",
        "snd_una", "snd_nxt", "ssthresh", "dupacks", "in_recovery",
        "recover", "_rtx_high", "backoff", "_rto", "started", "completed",
        "start_time", "_timed_seq", "_timed_at", "_rto_timer",
        "rcv_nxt", "_out_of_order",
        "acked_packets", "retransmits", "timeouts")
    # fmt: on

    def __init__(
        self,
        sim: Simulator,
        path: tuple,
        reverse_delay: float,
        controller: MultipathController,
        key: int,
        *,
        size_packets: Optional[int] = None,
        initial_cwnd: float = 2.0,
        min_ssthresh: float = 2.0,
        rcv_wnd_packets: Optional[int] = None,
        on_complete: Optional[Callable[[float], None]] = None,
        gate=None,
        name: str = "flow",
    ) -> None:
        if not path:
            raise ValueError("path must contain at least one link")
        if reverse_delay < 0:
            raise ValueError("reverse delay cannot be negative")
        if rcv_wnd_packets is not None and rcv_wnd_packets < 1:
            raise ValueError("receive window must be at least 1 packet")
        self.sim = sim
        self.clock = sim.clock
        self.path = tuple(path)
        self.reverse_delay = reverse_delay
        self.controller = controller
        self.key = key
        self.size_packets = size_packets
        self.min_ssthresh = min_ssthresh
        self.rcv_wnd_packets = rcv_wnd_packets
        self.on_complete = on_complete
        # Optional scheduler gate (finite MPTCP transfers): the gate
        # says whether there is data via the grant-on-ask contract and
        # tracks connection-level completion across subflows.
        self.gate = gate
        self.name = name

        base_rtt = sum(link.delay for link in self.path) + reverse_delay
        self.state = SubflowState(cwnd=initial_cwnd, rtt=max(base_rtt, 1e-6))
        controller.register_subflow(key, self.state)
        self.rtt_estimator = RttEstimator()

        # Sender state.
        self.snd_una = 0
        self.snd_nxt = 0
        self.ssthresh = _INITIAL_SSTHRESH
        self.dupacks = 0
        self.in_recovery = False
        self.recover = -1
        self._rtx_high = -1
        self.backoff = 1
        # ``rtt_estimator.rto * backoff``, recomputed only where a
        # sample is folded in, backoff resets, or a timeout doubles it.
        self._rto = self.rtt_estimator.rto
        self.started = False
        self.completed = False
        self.start_time = 0.0
        # Classic "timed segment" RTT sampling: at most one segment is
        # timed at a time, and any retransmission cancels the measurement
        # (conservative Karn's algorithm) so hole-filling cumulative ACKs
        # can never produce bogus multi-second samples.
        self._timed_seq: Optional[int] = None
        self._timed_at = 0.0
        # Retransmission timer: one rearmable engine Timer for the whole
        # connection.  Every transmission/ACK pushes its deadline out
        # (one write to the timer's ``deadline`` slot, no event-heap
        # traffic); only genuine expiry reaches _on_timeout.
        self._rto_timer = sim.timer(self._on_timeout)

        # Receiver state.
        self.rcv_nxt = 0
        self._out_of_order: set[int] = set()

        # Counters for monitors (newly acknowledged packets).
        self.acked_packets = 0
        self.retransmits = 0
        self.timeouts = 0

    # -- lifecycle -------------------------------------------------------------
    def start(self, at: float | None = None) -> None:
        """Begin transmitting at time ``at`` (defaults to now)."""
        when = self.clock.now if at is None else at
        self.sim.schedule_at(when, self._begin)

    def _begin(self) -> None:
        self.started = True
        self.start_time = self.clock.now
        if self.gate is not None:
            self.gate.note_start()
        self._try_send()

    @property
    def cwnd(self) -> float:
        """Congestion window in packets."""
        return self.state.cwnd

    @property
    def srtt(self) -> float:
        """Smoothed RTT (falls back to the initial path estimate)."""
        return self.rtt_estimator.srtt or self.state.rtt

    @property
    def in_flight(self) -> int:
        return self.snd_nxt - self.snd_una

    # -- sending ---------------------------------------------------------------
    def _try_send(self) -> bool:
        """Send every new packet the window allows.

        True when at least one went out, in which case the RTO timer
        was re-armed: after the *first* packet of the burst, because
        when no wakeup is pending the arm schedules one, and its
        position among the first hop's events is part of the trace.
        """
        if self.completed:
            return False
        window = int(self.state.cwnd)
        rcv_wnd = self.rcv_wnd_packets
        if rcv_wnd is not None and rcv_wnd < window:
            # Flow control: never exceed the receiver's advertised window.
            window = rcv_wnd
        seq = self.snd_nxt
        limit = self.snd_una + window
        gate = self.gate
        if gate is None:
            size = self.size_packets
            if size is not None and size < limit:
                limit = size
        elif not gate.has_data(self):
            # Scheduler-gated finite transfer: the gate decides packet by
            # packet (it may grant one, or poke a preferred sibling), and
            # is asked before the window is looked at, full or not.
            return False
        if seq >= limit:
            return False
        now = self.clock.now
        if self._timed_seq is None:
            self._timed_seq = seq
            self._timed_at = now
        path = self.path
        receive = path[0].receive
        receive(Packet(self, seq, path))
        timer = self._rto_timer
        if timer.wakeup is None:
            timer.arm_at(now + self._rto)
        else:
            timer.deadline = now + self._rto
        seq += 1
        self.snd_nxt = seq  # the gate reads it
        while (
            seq < limit
            if gate is None
            else not self.completed and gate.has_data(self) and seq < limit
        ):
            receive(Packet(self, seq, path))
            seq += 1
            self.snd_nxt = seq
        return True

    def _retransmit(self, seq: int) -> None:
        # Conservative Karn: a retransmission makes any in-progress RTT
        # measurement ambiguous, so drop it.
        self._timed_seq = None
        self.retransmits += 1
        self.path[0].receive(Packet(self, seq, self.path))
        self._rto_timer.arm_at(self.clock.now + self._rto)

    # -- receiver --------------------------------------------------------------
    def on_data(self, packet: Packet) -> None:
        """A data packet reached the end of the forward path."""
        seq = packet.seq
        rcv_nxt = self.rcv_nxt
        if seq == rcv_nxt:
            rcv_nxt += 1
            out_of_order = self._out_of_order
            while rcv_nxt in out_of_order:
                out_of_order.discard(rcv_nxt)
                rcv_nxt += 1
            self.rcv_nxt = rcv_nxt
        elif seq > rcv_nxt:
            self._out_of_order.add(seq)
        if self.gate is not None:
            # Redundant scheduling completes at the receiver: any copy
            # of a stream packet advances the cross-subflow union.
            self.gate.on_received(self, seq)
            if self.completed:
                return  # union covered the stream; no more ACKs needed
        # ACK (cumulative) returns over the uncongested reverse direction.
        self.sim.schedule(self.reverse_delay, self.on_ack, rcv_nxt)

    # -- ACK processing ----------------------------------------------------------
    def on_ack(self, ack: int) -> None:
        if self.completed or not self.started:
            return
        snd_una = self.snd_una
        if ack <= snd_una:
            if ack == snd_una and self.snd_nxt > snd_una:
                self._on_dupack()
            return
        now = self.clock.now
        newly = ack - snd_una
        state = self.state
        timed_seq = self._timed_seq
        if timed_seq is not None and ack > timed_seq:
            estimator = self.rtt_estimator
            state.rtt = estimator.update(now - self._timed_at)
            self._timed_seq = None
            self.backoff = 1
            self._rto = estimator.rto
        elif self.backoff != 1:
            self.backoff = 1
            self._rto = self.rtt_estimator.rto
        self.snd_una = ack
        self.dupacks = 0
        self.acked_packets += newly

        if self.in_recovery:
            if ack > self.recover:
                self.in_recovery = False
            else:
                # Partial ACK: repair the remaining holes without another
                # halving.  The receiver's out-of-order set stands in for
                # SACK blocks (both endpoints live in this object), so we
                # retransmit every missing segment of the recovery window
                # in one cwnd-limited burst instead of NewReno's
                # one-hole-per-RTT crawl.
                self._retransmit_holes()
        if not self.in_recovery:
            cwnd = state.cwnd
            ssthresh = self.ssthresh
            if cwnd < ssthresh:
                # Slow start grows one MSS per ACKed packet; the
                # inter-loss counters still see the ACKed bytes.
                state.bytes_acked_since_loss += newly * MSS_BYTES
                cwnd += newly
                if ssthresh < 1.0:
                    ssthresh = 1.0
                state.cwnd = cwnd if cwnd < ssthresh else ssthresh
            else:
                self.controller.increase_on_ack(self.key, newly)

        gate = self.gate
        if gate is not None and gate.on_ack(self, newly):
            return  # this ACK completed the whole multipath transfer
        size = self.size_packets
        if size is not None and ack >= size:
            self._complete()
            return
        if not self._try_send():
            # No burst re-armed the RTO, so restart it from this ACK.  A
            # wakeup is pending (something was in flight): a bare write.
            timer = self._rto_timer
            if timer.wakeup is None:
                timer.arm_at(now + self._rto)
            else:
                timer.deadline = now + self._rto
        if gate is not None:
            # Freed window/updated RTT may change the policy's choice:
            # let idle siblings ask again.
            gate.kick()

    #: Retransmissions allowed per arriving partial ACK.  Two per ACK
    #: grows the repair rate exponentially (like slow start) while
    #: keeping retransmission bursts ACK-clocked, so a large loss event
    #: cannot re-overflow the bottleneck queue with retransmissions.
    RTX_PER_ACK = 2

    def _retransmit_holes(self) -> None:
        """SACK-style recovery: resend missing segments of the recovery
        window, ACK-clocked.

        ``_rtx_high`` is the highest sequence retransmitted in this
        recovery episode, so later partial ACKs do not resend the same
        holes (a retransmission that is itself lost falls back to RTO).
        """
        sent = 0
        seq = max(self.snd_una, self._rtx_high + 1)
        while seq <= self.recover and sent < self.RTX_PER_ACK:
            if seq not in self._out_of_order:
                self._retransmit(seq)
                sent += 1
            self._rtx_high = seq
            seq += 1

    def _on_dupack(self) -> None:
        self.dupacks += 1
        if self.dupacks == 3 and not self.in_recovery:
            self.in_recovery = True
            self.recover = self.snd_nxt - 1
            self._rtx_high = self.snd_una
            # Unmodified TCP decrease: halve (controller also rolls the
            # inter-loss counters used by OLIA).
            self.controller.decrease_on_loss(self.key)
            self.ssthresh = max(self.state.cwnd, self.min_ssthresh)
            self._retransmit(self.snd_una)

    # -- retransmission timer ------------------------------------------------------
    def _on_timeout(self) -> None:
        # The Timer already filtered deadline-moved wakeups; only a
        # genuinely expired RTO lands here.
        if self.completed or self.snd_nxt == self.snd_una:
            return
        self.timeouts += 1
        self.backoff = min(self.backoff * 2, 64)
        self._rto = self.rtt_estimator.rto * self.backoff
        self.ssthresh = max(self.state.cwnd / 2.0, self.min_ssthresh)
        self.state.record_loss()
        self.state.cwnd = 1.0
        self.dupacks = 0
        # Stay in (or enter) recovery until everything outstanding at the
        # time of the timeout is acknowledged: partial ACKs then repair
        # the remaining holes immediately instead of waiting one RTO per
        # hole.  The watermark resets so post-timeout holes (including
        # lost retransmissions) are eligible again.
        self.in_recovery = True
        self.recover = self.snd_nxt - 1
        self._rtx_high = self.snd_una
        self._retransmit(self.snd_una)

    def stop(self) -> None:
        """Cease transmitting and detach from the controller.

        Used for path removal (e.g. an interface going away); in-flight
        packets are abandoned and no completion callback fires.
        """
        if self.completed:
            return
        self.completed = True
        self._rto_timer.cancel()
        self.controller.remove_subflow(self.key)

    def _complete(self) -> None:
        self.stop()
        if self.on_complete is not None:
            self.on_complete(self.clock.now - self.start_time)


def single_path_tcp(
    sim: Simulator,
    path: tuple,
    reverse_delay: float,
    *,
    size_packets: Optional[int] = None,
    on_complete: Optional[Callable[[float], None]] = None,
    name: str = "tcp",
) -> TcpSubflow:
    """A regular TCP connection (fresh Reno controller, one path)."""
    controller = RenoController()
    return TcpSubflow(
        sim,
        path,
        reverse_delay,
        controller,
        key=0,
        size_packets=size_packets,
        on_complete=on_complete,
        name=name,
    )
