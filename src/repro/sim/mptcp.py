"""MPTCP connections: several subflows coupled by one controller.

An :class:`MptcpConnection` opens one :class:`~repro.sim.tcp.TcpSubflow`
per path and binds them all to a single shared
:class:`~repro.core.base.MultipathController` (LIA, OLIA, ...), which is
where the congestion coupling happens.  Following the paper's Linux
implementation (Section IV-B), subflows of a multi-path connection use a
minimum ssthresh of 1 MSS so that congested paths fall out of slow start
immediately.

Long-lived connections model Iperf bulk transfers: every subflow always
has data to send, so the MPTCP packet scheduler (which subflow carries
the next packet) has nothing to decide and is never consulted.  A
*finite* transfer (``size_packets``) is different: the connection
installs a :class:`_SchedulerGate` that partitions (or, for the
redundant policy, duplicates) the stream across subflows according to a
:class:`~repro.sim.packet_scheduler.PacketScheduler` resolved through
the registry's scheduler axis (``scheduler=`` accepts a name, a
:class:`~repro.core.registry.SchedulerSpec`, or a policy instance;
``None`` means the default ``minrtt``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..core.base import MultipathController
from ..core.registry import make_controller, make_scheduler
from .engine import Simulator
from .packet_scheduler import PacketScheduler
from .tcp import TcpSubflow


@dataclass(frozen=True)
class PathSpec:
    """Forward path (tuple of links) plus the reverse-direction delay."""

    links: tuple
    reverse_delay: float

    def __post_init__(self) -> None:
        if not self.links:
            raise ValueError("a path needs at least one link")
        if self.reverse_delay < 0:
            raise ValueError("reverse delay cannot be negative")


class _SchedulerGate:
    """Stripes one finite stream across subflows via a scheduler policy.

    The gate implements the *grant-on-ask* contract documented in
    :mod:`repro.sim.packet_scheduler`: a subflow with window space asks
    :meth:`has_data`, the gate builds the ready set, consults the
    policy, and either grants the asker one packet or denies it (and
    pokes the subflow the policy preferred instead).  Packet-count
    bookkeeping — not per-sequence maps — is all that partitioning
    needs, because subflow-local sequence spaces make stream packets
    fungible.

    For a duplicating policy (``redundant``) every subflow carries its
    own full copy of the stream and the gate instead tracks the
    *receiver-side union*: the transfer completes when the in-order
    prefix over all copies covers the stream.  A subflow added
    mid-transfer restarts its copy from zero; its packets still count
    toward the union.
    """

    __slots__ = ("clock", "connection", "policy", "size", "on_complete",
                 "duplicates", "completed", "start_time", "elapsed",
                 "granted", "assigned", "delivered",
                 "union_nxt", "_union_ooo", "_kicking")

    def __init__(self, sim: Simulator, connection: "MptcpConnection",
                 policy: PacketScheduler, size: int,
                 on_complete: Optional[Callable[[float], None]]) -> None:
        self.clock = sim.clock
        self.connection = connection
        self.policy = policy
        self.size = size
        self.on_complete = on_complete
        self.duplicates = policy.duplicates
        self.completed = False
        self.start_time: Optional[float] = None
        self.elapsed: Optional[float] = None
        # Partition mode: per-subflow grant counters.
        self.granted: dict = {}
        self.assigned = 0
        self.delivered = 0
        # Duplicate mode: receiver-side union prefix over all copies.
        self.union_nxt = 0
        self._union_ooo: set = set()
        self._kicking = False

    # -- sender side ------------------------------------------------------------
    @staticmethod
    def _has_space(sf: TcpSubflow) -> bool:
        window = int(sf.state.cwnd)
        if sf.rcv_wnd_packets is not None:
            window = min(window, sf.rcv_wnd_packets)
        return sf.in_flight < window

    def note_start(self) -> None:
        """First subflow came up: the transfer clock starts now."""
        if self.start_time is None:
            self.start_time = self.clock.now

    def has_data(self, sf: TcpSubflow) -> bool:
        """Does ``sf`` have a packet to send?  May grant one.

        Called from the subflow's send loop.  A grant is consumed
        immediately by that loop (the asker is only eligible while it
        has window space), so ``granted[key]`` never runs ahead of what
        the subflow can actually put on the wire.
        """
        if self.completed:
            return False
        if self.duplicates:
            # Each subflow streams its own full copy; completion is
            # tracked receiver-side (and per-copy by the subflow).
            return sf.snd_nxt < self.size
        if sf.snd_nxt < self.granted.get(sf.key, 0):
            return True  # a granted packet not yet transmitted
        if self.assigned >= self.size:
            return False
        ready = [s for s in self.connection.subflows
                 if s.started and not s.completed and self._has_space(s)]
        if not ready:
            return False
        chosen = self.policy.choose(ready)
        if chosen is sf:
            self.granted[sf.key] = self.granted.get(sf.key, 0) + 1
            self.assigned += 1
            self.policy.on_grant(sf)
            return True
        # The policy prefers a sibling: make sure it actually sends
        # (it has window space, so it will be granted when it asks).
        if not self._kicking:
            self._kicking = True
            try:
                chosen._try_send()
            finally:
                self._kicking = False
        return False

    def kick(self) -> None:
        """Poke the send loop of every subflow with window space.

        A subflow with a full window is skipped: its ``_try_send``
        would be a no-op (its ``seq >= limit``, ``has_data`` grants
        only to the ready set it is not in, and the sibling poke is
        suppressed while kicking), given a pure ``choose``.
        """
        if self.completed or self._kicking:
            return
        self._kicking = True
        try:
            for sf in list(self.connection.subflows):
                if sf.started and not sf.completed and self._has_space(sf):
                    sf._try_send()
        finally:
            self._kicking = False

    # -- progress tracking ------------------------------------------------------
    def on_ack(self, sf: TcpSubflow, newly: int) -> bool:
        """Record ``newly`` cumulatively-acked packets on ``sf``.

        Returns ``True`` when this ack completed the whole transfer (the
        caller should stop processing the ack).
        """
        if self.completed or self.duplicates:
            return False
        self.delivered += newly
        if self.delivered >= self.size:
            self._finish()
            return True
        return False

    def on_received(self, sf: TcpSubflow, seq: int) -> None:
        """Receiver saw ``seq`` on ``sf`` (duplicate mode union prefix)."""
        if self.completed or not self.duplicates:
            return
        if seq == self.union_nxt:
            self.union_nxt += 1
            ooo = self._union_ooo
            while self.union_nxt in ooo:
                ooo.discard(self.union_nxt)
                self.union_nxt += 1
        elif seq > self.union_nxt:
            self._union_ooo.add(seq)
        if self.union_nxt >= self.size:
            self._finish()

    def on_subflow_removed(self, sf: TcpSubflow) -> None:
        """Reclaim grants a departing subflow will never deliver.

        Packets are fungible (subflow-local sequence spaces), so a
        count-based reclaim is exact: everything granted to the subflow
        beyond what it got acknowledged — unsent grants and abandoned
        in-flight packets alike — goes back to the unassigned pool.
        """
        self.policy.on_subflow_removed(sf.key)
        if self.duplicates or self.completed:
            return
        unfulfilled = self.granted.pop(sf.key, 0) - sf.snd_una
        if unfulfilled > 0:
            self.assigned -= unfulfilled
        self.kick()

    def cancel(self) -> None:
        """Connection torn down externally: never report completion."""
        self.completed = True

    def _finish(self) -> None:
        self.completed = True
        start = self.start_time if self.start_time is not None else 0.0
        self.elapsed = self.clock.now - start
        for sf in list(self.connection.subflows):
            sf.stop()
        if self.on_complete is not None:
            self.on_complete(self.elapsed)


class MptcpConnection:
    """A multipath connection running a coupled congestion controller."""

    def __init__(self, sim: Simulator, algorithm, paths: Sequence[PathSpec],
                 *, scheduler=None, size_packets: Optional[int] = None,
                 on_complete: Optional[Callable[[float], None]] = None,
                 name: str = "mptcp") -> None:
        if not paths:
            raise ValueError("an MPTCP connection needs at least one path")
        if on_complete is not None and size_packets is None:
            raise ValueError("on_complete needs a finite transfer "
                             "(pass size_packets)")
        if size_packets is not None and size_packets < 1:
            raise ValueError("size_packets must be at least 1")
        self.sim = sim
        self.name = name
        if isinstance(algorithm, MultipathController):
            self.controller = algorithm
        else:
            # A name string or AlgorithmSpec, resolved through the
            # cross-layer registry (the single dispatch path).
            self.controller = make_controller(algorithm)
        # Resolve the scheduler axis even when no gate is installed so
        # that a bad name fails loudly for bulk connections too.
        if isinstance(scheduler, PacketScheduler):
            policy = scheduler
        else:
            policy = make_scheduler(scheduler)
        self.scheduler = policy
        self.gate: Optional[_SchedulerGate] = None
        if size_packets is not None:
            self.gate = _SchedulerGate(sim, self, policy, size_packets,
                                       on_complete)
        multipath = len(paths) > 1
        self.subflows: List[TcpSubflow] = []
        self._next_key = 0
        self._started = False
        self._closed_acked = 0
        for spec in paths:
            self._make_subflow(spec, multipath)

    def _make_subflow(self, spec: PathSpec, multipath: bool) -> TcpSubflow:
        key = self._next_key
        self._next_key += 1
        gate = self.gate
        # Duplicating policies give every subflow its own full copy of
        # the stream (per-copy completion stays subflow-local).
        size = gate.size if gate is not None and gate.duplicates else None
        subflow = TcpSubflow(
            self.sim, spec.links, spec.reverse_delay, self.controller,
            key=key,
            min_ssthresh=1.0 if multipath else 2.0,
            size_packets=size,
            gate=gate,
            name=f"{self.name}.sf{key}")
        self.subflows.append(subflow)
        return subflow

    def start(self, at: float | None = None) -> None:
        """Start every subflow at time ``at`` (defaults to now)."""
        self._started = True
        for subflow in self.subflows:
            subflow.start(at)

    # -- dynamic path management ------------------------------------------------
    def add_subflow(self, spec: PathSpec) -> TcpSubflow:
        """Open an extra subflow mid-connection (a new path appeared).

        The new subflow joins the shared controller and, if the
        connection is already running, starts immediately.
        """
        subflow = self._make_subflow(spec, multipath=True)
        if self._started:
            subflow.start()
        return subflow

    def remove_subflow(self, subflow: TcpSubflow) -> None:
        """Close one subflow (path failure / interface removal)."""
        if subflow not in self.subflows:
            raise ValueError("subflow does not belong to this connection")
        subflow.stop()
        self.subflows.remove(subflow)
        self._closed_acked += subflow.acked_packets
        if self.gate is not None:
            self.gate.on_subflow_removed(subflow)

    def stop(self) -> None:
        """Tear the whole connection down (all paths at once).

        Stops every subflow, which disarms its RTO timer and detaches it
        from the shared controller; in-flight packets are abandoned.
        The connection keeps its acked-packet history for monitors.
        """
        if self.gate is not None:
            self.gate.cancel()
        for subflow in self.subflows:
            subflow.stop()
        self._closed_acked += sum(sf.acked_packets for sf in self.subflows)
        self.subflows.clear()

    @property
    def complete(self) -> bool:
        """Whether a finite transfer has fully completed."""
        return self.gate is not None and self.gate.elapsed is not None

    @property
    def transfer_time(self) -> Optional[float]:
        """Completion time of a finite transfer (``None`` while running)."""
        return self.gate.elapsed if self.gate is not None else None

    @property
    def acked_packets(self) -> int:
        """Total packets acknowledged across subflows (closed included)."""
        return (sum(sf.acked_packets for sf in self.subflows)
                + self._closed_acked)

    def windows(self) -> List[float]:
        """Current congestion windows, one per subflow."""
        return [sf.cwnd for sf in self.subflows]

    def alphas(self) -> List[float]:
        """OLIA's current alpha values (zeros for other algorithms)."""
        if hasattr(self.controller, "alphas"):
            alpha_map = self.controller.alphas()
            return [alpha_map.get(sf.key, 0.0) for sf in self.subflows]
        return [0.0] * len(self.subflows)
