"""Packet schedulers: which subflow carries the next packet.

MPTCP has two largely independent control knobs.  Congestion control
decides *how much* each subflow may have in flight — that is the axis
the paper argues about, dispatched through the algorithm side of
:mod:`repro.core.registry`.  The packet scheduler decides *which*
subflow carries the next data packet of a finite transfer — and the
wild-measurement literature (Shreedhar et al., "More Than The Sum Of
Its Parts"; Dimopoulos et al. on scheduler x CC grids over
heterogeneous networks, both in PAPERS.md) finds this second knob
moves real-workload outcomes as much as the first.  This module is the
scheduler axis: small, stateless-where-possible policy objects that
:class:`~repro.sim.mptcp.MptcpConnection` consults through its
scheduler gate whenever a subflow has window space for one more
packet.

The contract is *grant-on-ask*: the gate calls
:meth:`PacketScheduler.choose` with the subflows currently able to
send (window space, not completed, in stable key order) and grants the
next unsent connection packet to the chosen one.  A policy therefore
never moves packets itself — it only ranks ready subflows — which
keeps every policy trivially compatible with the DES engine's replay
and trace guarantees.

Policies are registered as :class:`~repro.core.registry.SchedulerSpec`
entries; resolve names through
:func:`repro.core.registry.make_scheduler`, not by instantiating these
classes at call sites (``benchmarks/check_registry_gate.py`` enforces
this outside ``core/``).

Note the deliberate asymmetry with bulk (unbounded) flows: a bulk
MPTCP connection has data for every subflow at all times, so there is
nothing to schedule — every subflow streams at its own window and the
scheduler is never consulted.  ``minrtt`` is the *named default* for
finite transfers because preferring the lowest-srtt ready subflow is
exactly what the unbounded case degenerates to when every window has
room.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..units import MSS_BYTES

__all__ = [
    "PacketScheduler",
    "MinRttScheduler",
    "RoundRobinScheduler",
    "RedundantScheduler",
    "QueueAwareScheduler",
]


class PacketScheduler:
    """Base policy: rank the subflows ready to carry the next packet.

    Subclasses implement :meth:`choose`; the connection's scheduler
    gate handles grant bookkeeping, loss reclamation and completion.
    ``duplicates`` flips the gate from stream *partitioning* (each
    packet granted to exactly one subflow) to stream *duplication*
    (every subflow carries every packet, first copy to arrive wins).
    """

    #: Registry name of the policy (informational; the registry is the
    #: source of truth for resolution).
    name = "?"
    #: True when every packet is sent on every subflow (first-ack
    #: wins) instead of the stream being partitioned across subflows.
    duplicates = False

    def choose(self, ready: Sequence) -> object:
        """The subflow from ``ready`` that should carry the next packet.

        ``ready`` is a non-empty sequence of
        :class:`~repro.sim.tcp.TcpSubflow` in ascending ``key`` order,
        each with window space and data pending.  Must return one of
        them; determinism (same choice for the same observable state)
        is required for trace reproducibility.

        Must be *pure*: no side effects, state changes belong in
        :meth:`on_grant`.  The gate may ask and then grant nothing,
        and it skips asking on behalf of subflows whose window is full
        (``_SchedulerGate.kick``), which is only invisible when asking
        changes nothing.
        """
        raise NotImplementedError

    def on_grant(self, subflow) -> None:
        """Hook: the gate granted the next packet to ``subflow``."""

    def on_subflow_removed(self, key) -> None:
        """Hook: subflow ``key`` left the connection (e.g. handover)."""


class MinRttScheduler(PacketScheduler):
    """Prefer the lowest-srtt ready subflow (MPTCP's default policy).

    Ties break towards the lowest subflow key, which makes the choice
    deterministic before the first RTT sample (all subflows then report
    their configured base RTT).
    """

    name = "minrtt"

    def choose(self, ready: Sequence) -> object:
        return min(ready, key=lambda sf: (sf.srtt, sf.key))


class RoundRobinScheduler(PacketScheduler):
    """Cycle through ready subflows in key order, one packet each.

    The cursor remembers the last *granted* key and starts the next
    search strictly after it, so a fast subflow cannot starve a slow
    one of its turn — the classic fairness/latency trade against
    ``minrtt`` (Dimopoulos et al. measure it across heterogeneous
    paths).
    """

    name = "roundrobin"

    def __init__(self) -> None:
        self._last_key: Optional[object] = None

    def choose(self, ready: Sequence) -> object:
        if self._last_key is not None:
            for sf in ready:
                if sf.key > self._last_key:
                    return sf
        return ready[0]

    def on_grant(self, subflow) -> None:
        self._last_key = subflow.key

    def on_subflow_removed(self, key) -> None:
        if self._last_key == key:
            self._last_key = None


class RedundantScheduler(PacketScheduler):
    """Send every packet on every subflow; the first copy to arrive wins.

    Trades goodput for latency/robustness: on lossy or time-varying
    paths the transfer completes as soon as the receiver has assembled
    a full copy from *any* mix of subflows, so it can never deliver
    later than the best single path.  The gate implements the
    duplication (``duplicates = True``); :meth:`choose` is never
    consulted.
    """

    name = "redundant"
    duplicates = True

    def choose(self, ready: Sequence) -> object:  # pragma: no cover
        return ready[0]


class QueueAwareScheduler(PacketScheduler):
    """Cross-layer policy: srtt plus the first-hop queue drain time.

    Shreedhar et al. show a scheduler that can see below the transport
    layer — here, each path's first-hop egress backlog — avoids the
    head-of-line blocking that srtt alone only notices an RTT later.
    The score is the subflow's srtt plus the time the first-hop link
    needs to drain its current queue (``queued packets x MSS /
    rate``); lowest score wins, ties to the lowest key.
    """

    name = "qaware"

    def choose(self, ready: Sequence) -> object:
        def score(sf):
            head = sf.path[0]
            drain = len(head.queue) * MSS_BYTES * 8.0 / head.rate_bps
            return (sf.srtt + drain, sf.key)
        return min(ready, key=score)


def builtin_schedulers() -> List[type]:
    """The builtin policy classes, in registry order."""
    return [MinRttScheduler, RoundRobinScheduler, RedundantScheduler,
            QueueAwareScheduler]
