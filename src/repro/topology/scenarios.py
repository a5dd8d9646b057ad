"""Topology builders for the paper's testbed scenarios (Section III).

Each builder instantiates the bottleneck links of one scenario inside a
:class:`~repro.sim.engine.Simulator` and exposes the forward paths and
reverse delays every user class needs.  Only bottleneck links are
modelled explicitly — the paper's non-bottleneck hops (private APs,
Internet backbone, ISPs Y/Z) contribute propagation delay only, which we
fold into the link delays and the ACK reverse delays so that every path
has the same base RTT (80 ms in the testbed, ~150 ms with queueing).

The capacity equations implemented here follow the paper's analysis:

* Scenario A — server access link ``N1*C1`` shared by both type1 paths;
  shared AP ``N2*C2`` carrying type1's second subflow and type2.
* Scenario B — link X carries Blue's first path and Red's dashed
  (upgrade) path; link T carries Blue's second path and both Red paths
  (``CX = N(x1+y1)``, ``CT = N(x2+y1+y2)``, Appendix B).
* Scenario C — private AP1 per-multipath-user capacity ``C1``; shared
  AP2 ``N2*C2``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from ..sim.engine import Simulator
from ..sim.link import Link
from ..sim.mptcp import PathSpec
from ..sim.queues import DropTailQueue, REDQueue


def _make_queue(rng: random.Random, capacity_mbps: float,
                discipline: str) -> DropTailQueue:
    """Queue for a bottleneck of the given capacity.

    ``red`` follows the paper's testbed configuration (scaled thresholds);
    ``droptail`` mirrors the htsim configuration with a 100-packet buffer
    per 10 Mbps.
    """
    if discipline == "red":
        return REDQueue.for_capacity_mbps(rng, capacity_mbps)
    if discipline == "droptail":
        return DropTailQueue(limit=max(int(100 * capacity_mbps / 10.0), 20))
    raise ValueError(f"unknown queue discipline {discipline!r}")


def _reverse(base_rtt: float, forward: float) -> float:
    """Reverse-path delay that completes ``base_rtt`` for the flow."""
    reverse = base_rtt - forward
    if reverse < 0:
        raise ValueError("forward delays exceed the base RTT")
    return reverse


@dataclass
class ScenarioATopology:
    """Scenario A bottlenecks and per-user-class paths."""

    sim: Simulator
    server_link: Link       # capacity N1*C1 (streaming server access)
    shared_ap: Link         # capacity N2*C2
    type1_paths: List[PathSpec]   # [private-AP path, shared-AP path]
    type2_path: PathSpec


def build_scenario_a(sim: Simulator, rng: random.Random, *,
                     n1: int, n2: int, c1_mbps: float, c2_mbps: float,
                     base_rtt: float = 0.08,
                     queue: str = "red") -> ScenarioATopology:
    """Scenario A: streaming server + private APs + one shared AP."""
    server_mbps = n1 * c1_mbps
    shared_mbps = n2 * c2_mbps
    hop = base_rtt / 4.0   # one-way budget split over at most two hops
    server_link = Link(sim, rate_bps=server_mbps * 1e6, delay=hop,
                       queue=_make_queue(rng, server_mbps, queue),
                       name="server")
    shared_ap = Link(sim, rate_bps=shared_mbps * 1e6, delay=hop,
                     queue=_make_queue(rng, shared_mbps, queue),
                     name="sharedAP")
    private = PathSpec((server_link,), _reverse(base_rtt, hop))
    via_shared = PathSpec((server_link, shared_ap),
                          _reverse(base_rtt, 2 * hop))
    type2 = PathSpec((shared_ap,), _reverse(base_rtt, hop))
    return ScenarioATopology(sim=sim, server_link=server_link,
                             shared_ap=shared_ap,
                             type1_paths=[private, via_shared],
                             type2_path=type2)


@dataclass
class ScenarioBTopology:
    """Scenario B bottlenecks (links X and T) and user paths."""

    sim: Simulator
    link_x: Link
    link_t: Link
    blue_paths: List[PathSpec]    # [via X, via T]
    red_main_path: PathSpec       # via T only
    red_dashed_path: PathSpec     # via X and T (the MPTCP upgrade)


def build_scenario_b(sim: Simulator, rng: random.Random, *,
                     cx_mbps: float, ct_mbps: float,
                     base_rtt: float = 0.08,
                     queue: str = "red") -> ScenarioBTopology:
    """Scenario B: multi-homed users across four ISPs (two bottlenecks)."""
    hop = base_rtt / 4.0
    link_x = Link(sim, rate_bps=cx_mbps * 1e6, delay=hop,
                  queue=_make_queue(rng, cx_mbps, queue), name="ispX")
    link_t = Link(sim, rate_bps=ct_mbps * 1e6, delay=hop,
                  queue=_make_queue(rng, ct_mbps, queue), name="ispT")
    blue = [PathSpec((link_x,), _reverse(base_rtt, hop)),
            PathSpec((link_t,), _reverse(base_rtt, hop))]
    red_main = PathSpec((link_t,), _reverse(base_rtt, hop))
    red_dashed = PathSpec((link_x, link_t), _reverse(base_rtt, 2 * hop))
    return ScenarioBTopology(sim=sim, link_x=link_x, link_t=link_t,
                             blue_paths=blue, red_main_path=red_main,
                             red_dashed_path=red_dashed)


@dataclass
class ScenarioCTopology:
    """Scenario C bottlenecks (AP1 and AP2) and user paths."""

    sim: Simulator
    ap1: Link               # capacity N1*C1
    ap2: Link               # capacity N2*C2
    multipath_paths: List[PathSpec]   # [via AP1, via AP2]
    singlepath_path: PathSpec


def build_scenario_c(sim: Simulator, rng: random.Random, *,
                     n1: int, n2: int, c1_mbps: float, c2_mbps: float,
                     base_rtt: float = 0.08,
                     queue: str = "red") -> ScenarioCTopology:
    """Scenario C: multipath users on AP1+AP2, single-path users on AP2."""
    ap1_mbps = n1 * c1_mbps
    ap2_mbps = n2 * c2_mbps
    hop = base_rtt / 4.0
    ap1 = Link(sim, rate_bps=ap1_mbps * 1e6, delay=hop,
               queue=_make_queue(rng, ap1_mbps, queue), name="AP1")
    ap2 = Link(sim, rate_bps=ap2_mbps * 1e6, delay=hop,
               queue=_make_queue(rng, ap2_mbps, queue), name="AP2")
    multipath = [PathSpec((ap1,), _reverse(base_rtt, hop)),
                 PathSpec((ap2,), _reverse(base_rtt, hop))]
    single = PathSpec((ap2,), _reverse(base_rtt, hop))
    return ScenarioCTopology(sim=sim, ap1=ap1, ap2=ap2,
                             multipath_paths=multipath,
                             singlepath_path=single)


@dataclass
class TwoPathTopology:
    """Fig. 6: one two-path user sharing two bottlenecks with TCP flows."""

    sim: Simulator
    bottlenecks: List[Link]
    mptcp_paths: List[PathSpec]
    tcp_paths: List[PathSpec]      # one per bottleneck


def build_two_path(sim: Simulator, rng: random.Random, *,
                   capacity_mbps: float = 3.0,
                   base_rtt: float = 0.08,
                   queue: str = "red") -> TwoPathTopology:
    """The illustrative topology of Figs. 6-8 (two equal bottlenecks)."""
    hop = base_rtt / 4.0
    links = [Link(sim, rate_bps=capacity_mbps * 1e6, delay=hop,
                  queue=_make_queue(rng, capacity_mbps, queue),
                  name=f"bn{i}")
             for i in range(2)]
    reverse = _reverse(base_rtt, hop)
    mptcp = [PathSpec((links[0],), reverse),
             PathSpec((links[1],), reverse)]
    tcp = [PathSpec((links[0],), reverse), PathSpec((links[1],), reverse)]
    return TwoPathTopology(sim=sim, bottlenecks=links, mptcp_paths=mptcp,
                           tcp_paths=tcp)
