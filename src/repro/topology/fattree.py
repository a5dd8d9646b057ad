"""k-ary FatTree topology with ECMP-style multipath (Section VI-B).

The paper's data-center evaluation (after Raiciu et al. [7]) runs on a
FatTree with k=8: 128 hosts, 80 eight-port switches, 100 Mb/s links.  A
k-ary FatTree has ``k`` pods, each with ``k/2`` edge and ``k/2``
aggregation switches, plus ``(k/2)^2`` core switches; every inter-pod
host pair has exactly ``(k/2)^2`` equal-cost paths, one per core switch.

Every physical cable is modelled as two unidirectional
:class:`~repro.sim.link.Link` objects.  ``path(src, dst, core)``
enumerates forward paths deterministically, so MPTCP connections can
place subflows on distinct cores (the ECMP-random path selection used by
htsim) with :meth:`FatTree.distinct_paths`.

Oversubscription (the 4:1 topology of Section VI-B.2) divides the
capacity of the fabric links (edge-agg, agg-core) by the given factor
while hosts keep their full line rate.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from ..sim.engine import Simulator
from ..sim.link import Link
from ..sim.mptcp import PathSpec
from ..sim.queues import DropTailQueue


class FatTree:
    """Builds and indexes the links of a k-ary FatTree."""

    def __init__(self, sim: Simulator, k: int = 4, *,
                 link_mbps: float = 10.0,
                 link_delay: float = 50e-6,
                 oversubscription: float = 1.0,
                 queue_factory: Optional[Callable[[], DropTailQueue]] = None
                 ) -> None:
        if k < 2 or k % 2 != 0:
            raise ValueError("k must be an even integer >= 2")
        if oversubscription < 1.0:
            raise ValueError("oversubscription factor must be >= 1")
        self.sim = sim
        self.k = k
        self.half = k // 2
        self.n_pods = k
        self.n_hosts = k * k * k // 4
        self.n_core = self.half * self.half
        self.link_mbps = link_mbps
        self.link_delay = link_delay
        self.oversubscription = oversubscription
        self._queue_factory = queue_factory or (
            lambda: DropTailQueue(limit=100))

        host_rate = link_mbps * 1e6
        fabric_rate = host_rate / oversubscription

        def link(name: str, rate: float) -> Link:
            return Link(sim, rate_bps=rate, delay=link_delay,
                        queue=self._queue_factory(), name=name)

        # Host access links (up = host->edge, down = edge->host).
        self.host_up: List[Link] = []
        self.host_down: List[Link] = []
        for host in range(self.n_hosts):
            self.host_up.append(link(f"h{host}-up", host_rate))
            self.host_down.append(link(f"h{host}-down", host_rate))

        # Edge <-> aggregation, indexed [pod][edge][agg].
        self.edge_to_agg = [[[link(f"p{p}e{e}a{a}-up", fabric_rate)
                              for a in range(self.half)]
                             for e in range(self.half)]
                            for p in range(self.n_pods)]
        self.agg_to_edge = [[[link(f"p{p}a{a}e{e}-down", fabric_rate)
                              for e in range(self.half)]
                             for a in range(self.half)]
                            for p in range(self.n_pods)]

        # Aggregation <-> core.  Core (a, j) with j in [0, k/2) attaches
        # to aggregation switch ``a`` of every pod.
        self.agg_to_core = [[[link(f"p{p}a{a}c{j}-up", fabric_rate)
                              for j in range(self.half)]
                             for a in range(self.half)]
                            for p in range(self.n_pods)]
        self.core_to_agg = [[link(f"c{c}p{p}-down", fabric_rate)
                             for p in range(self.n_pods)]
                            for c in range(self.n_core)]

    # -- host coordinates ---------------------------------------------------
    def pod_of(self, host: int) -> int:
        return host // (self.half * self.half)

    def edge_of(self, host: int) -> int:
        """Edge switch index of ``host`` within its pod."""
        return (host % (self.half * self.half)) // self.half

    # -- path enumeration ------------------------------------------------------
    def n_paths(self, src: int, dst: int) -> int:
        """Number of equal-cost paths between two hosts."""
        if src == dst:
            raise ValueError("src and dst must differ")
        if self.pod_of(src) != self.pod_of(dst):
            return self.n_core
        if self.edge_of(src) != self.edge_of(dst):
            return self.half
        return 1

    def path(self, src: int, dst: int, choice: int = 0) -> tuple:
        """Forward path from ``src`` to ``dst`` using path ``choice``.

        For inter-pod pairs ``choice`` selects the core switch; for
        intra-pod pairs it selects the aggregation switch; for same-edge
        pairs it must be 0.
        """
        if not 0 <= choice < self.n_paths(src, dst):
            raise ValueError(
                f"choice {choice} out of range for pair ({src}, {dst})")
        src_pod, dst_pod = self.pod_of(src), self.pod_of(dst)
        src_edge, dst_edge = self.edge_of(src), self.edge_of(dst)
        if src_pod != dst_pod:
            core = choice
            agg = core // self.half
            port = core % self.half
            return (self.host_up[src],
                    self.edge_to_agg[src_pod][src_edge][agg],
                    self.agg_to_core[src_pod][agg][port],
                    self.core_to_agg[core][dst_pod],
                    self.agg_to_edge[dst_pod][agg][dst_edge],
                    self.host_down[dst])
        if src_edge != dst_edge:
            agg = choice
            return (self.host_up[src],
                    self.edge_to_agg[src_pod][src_edge][agg],
                    self.agg_to_edge[src_pod][agg][dst_edge],
                    self.host_down[dst])
        return (self.host_up[src], self.host_down[dst])

    def path_spec(self, src: int, dst: int, choice: int = 0) -> PathSpec:
        """Forward path plus matching reverse delay as a PathSpec."""
        forward = self.path(src, dst, choice)
        return PathSpec(forward, len(forward) * self.link_delay)

    def distinct_paths(self, src: int, dst: int, n_subflows: int,
                       rng: random.Random) -> List[PathSpec]:
        """Up to ``n_subflows`` subflow paths on distinct cores/aggs.

        Mirrors htsim's random ECMP placement: choices are sampled
        without replacement; if fewer distinct paths exist than
        requested, every path is used once and the remainder re-samples
        with replacement.
        """
        available = self.n_paths(src, dst)
        if n_subflows <= available:
            choices = rng.sample(range(available), n_subflows)
        else:
            choices = list(range(available))
            choices += [rng.randrange(available)
                        for _ in range(n_subflows - available)]
        return [self.path_spec(src, dst, c) for c in choices]

    # -- traffic matrices -------------------------------------------------------
    def random_permutation(self, rng: random.Random) -> List[int]:
        """Destination for each host: a permutation with no fixed point."""
        while True:
            perm = list(range(self.n_hosts))
            rng.shuffle(perm)
            if all(perm[i] != i for i in range(self.n_hosts)):
                return perm

    def core_links(self) -> List[Link]:
        """All links touching core switches (for utilization metrics)."""
        links = []
        for pod in self.agg_to_core:
            for agg in pod:
                links.extend(agg)
        for core in self.core_to_agg:
            links.extend(core)
        return links

    def describe(self) -> str:
        return (f"FatTree(k={self.k}): {self.n_hosts} hosts, "
                f"{self.n_pods * self.half * 2 + self.n_core} switches, "
                f"{self.link_mbps:g} Mb/s links, "
                f"oversubscription {self.oversubscription:g}:1")
