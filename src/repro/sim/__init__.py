"""Packet-level discrete-event simulator (testbed / htsim substitute)."""

from .apps import BackgroundTraffic, BulkTransfer, ShortFlowSource
from .engine import Event, Simulator, Timer
from .link import Link, LinkStats
from .monitors import FlowMeter, WindowTracer
from .mptcp import MptcpConnection, PathSpec
from .packet import Packet
from .packet_scheduler import (
    MinRttScheduler,
    PacketScheduler,
    QueueAwareScheduler,
    RedundantScheduler,
    RoundRobinScheduler,
)
from .queues import DropTailQueue, REDQueue
from .tcp import TcpSubflow, single_path_tcp

__all__ = [
    "Simulator",
    "Event",
    "Timer",
    "Packet",
    "DropTailQueue",
    "REDQueue",
    "Link",
    "LinkStats",
    "TcpSubflow",
    "single_path_tcp",
    "MptcpConnection",
    "PathSpec",
    "PacketScheduler",
    "MinRttScheduler",
    "RoundRobinScheduler",
    "RedundantScheduler",
    "QueueAwareScheduler",
    "BulkTransfer",
    "ShortFlowSource",
    "BackgroundTraffic",
    "FlowMeter",
    "WindowTracer",
]
