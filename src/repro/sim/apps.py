"""Traffic applications: bulk transfers, short flows, background noise.

``BulkTransfer`` models the paper's Iperf sessions (long-lived flows that
always have data).  ``ShortFlowSource`` models the dynamic workload of
Section VI-B.2: a host sends fixed-size transfers (70 KB by default) with
exponential inter-arrival times (mean 200 ms), each as a brand-new regular
TCP connection, and records flow completion times.  ``BackgroundTraffic``
injects unresponsive (UDP-like) packets — the "background traffic" factor
the paper's conclusion earmarks for further experiments.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from ..units import bytes_to_packets
from .engine import Simulator
from .mptcp import MptcpConnection, PathSpec
from .packet import Packet
from .tcp import TcpSubflow, single_path_tcp

#: A path provider returns (links, reverse_delay) for a new flow.
PathProvider = Callable[[], Tuple[tuple, float]]


class BulkTransfer:
    """A long-lived flow: single-path TCP or MPTCP, started with jitter.

    Passing ``size_packets`` turns it into a *finite* transfer: MPTCP
    connections then stripe the stream through the packet ``scheduler``
    (a registry name, spec, or policy instance; default ``minrtt``) and
    call ``on_complete(elapsed)`` when done.  Long-lived flows ignore
    the scheduler — with unlimited data every subflow is always busy.
    """

    def __init__(self, sim: Simulator, algorithm: str,
                 paths: List[PathSpec], *, start_time: float = 0.0,
                 scheduler=None,
                 size_packets: Optional[int] = None,
                 on_complete: Optional[Callable[[float], None]] = None,
                 name: str = "bulk") -> None:
        self.sim = sim
        self.name = name
        self.start_time = start_time
        if algorithm in ("tcp", "reno") and len(paths) == 1:
            self._tcp: Optional[TcpSubflow] = single_path_tcp(
                sim, paths[0].links, paths[0].reverse_delay,
                size_packets=size_packets, on_complete=on_complete,
                name=name)
            self._mptcp: Optional[MptcpConnection] = None
        else:
            self._tcp = None
            self._mptcp = MptcpConnection(
                sim, algorithm, paths, scheduler=scheduler,
                size_packets=size_packets, on_complete=on_complete,
                name=name)

    def start(self) -> None:
        if self._tcp is not None:
            self._tcp.start(self.start_time)
        else:
            self._mptcp.start(self.start_time)

    @property
    def connection(self):
        """The underlying transport object (TcpSubflow or MptcpConnection)."""
        return self._tcp if self._tcp is not None else self._mptcp

    @property
    def acked_packets(self) -> int:
        return self.connection.acked_packets

    def goodput_pps(self, since: float, now: float,
                    acked_at_since: int = 0) -> float:
        """Mean goodput in packets/s between ``since`` and ``now``."""
        elapsed = now - since
        if elapsed <= 0:
            return 0.0
        return (self.acked_packets - acked_at_since) / elapsed


class ShortFlowSource:
    """Poisson arrivals of fixed-size TCP transfers with FCT recording."""

    def __init__(self, sim: Simulator, rng: random.Random,
                 path_provider: PathProvider, *,
                 mean_interarrival: float = 0.2,
                 flow_bytes: int = 70_000,
                 name: str = "short") -> None:
        if mean_interarrival <= 0:
            raise ValueError("mean inter-arrival time must be positive")
        if flow_bytes <= 0:
            raise ValueError("flow size must be positive")
        self.sim = sim
        self.rng = rng
        self.path_provider = path_provider
        self.mean_interarrival = mean_interarrival
        self.flow_packets = bytes_to_packets(flow_bytes)
        self.name = name
        self.completion_times: List[float] = []
        self.flows_started = 0
        self._running = False
        self._flow_counter = 0
        # One rearmable spawn timer drives the whole arrival process.
        self._spawn_timer = sim.timer(self._spawn_flow)

    def start(self, at: float | None = None) -> None:
        """Begin generating flows at ``at`` (defaults to now)."""
        self._running = True
        when = self.sim.now if at is None else at
        self._spawn_timer.arm_at(when + self._next_gap())

    def stop(self) -> None:
        """Stop creating new flows (in-flight flows run to completion)."""
        self._running = False
        self._spawn_timer.cancel()

    def _next_gap(self) -> float:
        return self.rng.expovariate(1.0 / self.mean_interarrival)

    def _spawn_flow(self) -> None:
        if not self._running:
            return
        links, reverse_delay = self.path_provider()
        self._flow_counter += 1
        self.flows_started += 1
        flow = single_path_tcp(
            self.sim, links, reverse_delay,
            size_packets=self.flow_packets,
            on_complete=self.completion_times.append,
            name=f"{self.name}.{self._flow_counter}")
        flow.start()
        self._spawn_timer.arm(self._next_gap())

    def mean_fct(self) -> float:
        """Mean completion time of finished flows (seconds)."""
        if not self.completion_times:
            return float("nan")
        return sum(self.completion_times) / len(self.completion_times)


class BackgroundTraffic:
    """Unresponsive (UDP-like) traffic over a fixed path.

    Emits MSS-sized packets at ``rate_pps``, either with deterministic
    spacing (CBR) or with exponential gaps (Poisson, the default).  The
    packets do not react to loss, so they act as pure background load on
    the congestion-controlled flows sharing the path.
    """

    def __init__(self, sim: Simulator, path: tuple, rate_pps: float, *,
                 rng: Optional[random.Random] = None,
                 poisson: bool = True, name: str = "bg") -> None:
        if not path:
            raise ValueError("path must contain at least one link")
        if rate_pps <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.path = tuple(path)
        self.rate_pps = rate_pps
        self.rng = rng
        self.poisson = poisson
        self.name = name
        if poisson and rng is None:
            raise ValueError("Poisson background traffic needs an rng")
        self.packets_sent = 0
        self.packets_delivered = 0
        self._running = False
        self._seq = 0
        # Pacing tick: one rearmable timer instead of an event per packet.
        self._pacer = sim.timer(self._emit)

    def start(self, at: float | None = None) -> None:
        self._running = True
        when = self.sim.now if at is None else at
        self._pacer.arm_at(when + self._gap())

    def stop(self) -> None:
        self._running = False
        self._pacer.cancel()

    def _gap(self) -> float:
        if self.poisson:
            return self.rng.expovariate(self.rate_pps)
        return 1.0 / self.rate_pps

    def _emit(self) -> None:
        if not self._running:
            return
        packet = Packet(self, self._seq, self.path)
        self._seq += 1
        self.packets_sent += 1
        self.path[0].receive(packet)
        self._pacer.arm(self._gap())

    def on_data(self, packet: Packet) -> None:
        """Terminal endpoint: count the delivery, nothing to ACK."""
        self.packets_delivered += 1

    @property
    def delivery_ratio(self) -> float:
        """Fraction of emitted packets that survived the path."""
        if self.packets_sent == 0:
            return 1.0
        return self.packets_delivered / self.packets_sent
