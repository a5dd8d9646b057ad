"""Seeded random scenario generator: arbitrary-size MPTCP workloads.

The paper's claims are demonstrated on three hand-built scenarios; the
roadmap's scale target needs topologies nobody hand-builds.  This module
generates them: a pool of bottleneck links with randomised capacities
and delays, plus a population of flows — multipath bulk transfers
running a configurable LIA/OLIA/EWTCP mix, single-path TCP, and a
short-flow churn fraction — wired up from the *same* objects the
hand-built scenarios use (:class:`~repro.sim.link.Link`,
:class:`~repro.sim.mptcp.PathSpec`,
:class:`~repro.sim.apps.BulkTransfer`,
:class:`~repro.sim.apps.ShortFlowSource`), so every existing harness
(``measure``, ``FlowMeter``, ``SweepRunner``) consumes a generated
scenario unchanged.

Generation is a pure function of ``(config, seed)``: the same seed
reproduces the identical scenario object graph — link rates, path
wiring, algorithm assignment, start jitter, churn seeds — which is what
makes 10k-flow runs cacheable by content hash and comparable across
engines (see ``tests/test_topology_generator.py``).

Named presets (:data:`PRESETS`) span ~100 flows to 10k+; they feed the
``python -m repro scale`` harness (:mod:`repro.experiments.scale`).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..sim.apps import BulkTransfer, ShortFlowSource
from ..sim.engine import Simulator
from ..sim.link import Link
from ..sim.mptcp import PathSpec
from ..sim.queues import DropTailQueue, REDQueue
from .wireless import LinkDynamics, TimeVaryingLink


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the random scenario generator.

    Attributes
    ----------
    n_flows : int
        Total flow population: bulk transfers plus short-flow sources
        (``churn_fraction`` decides the split).
    n_links : int
        Size of the bottleneck-link pool paths are sampled from.  Must
        be at least ``subflows_max`` so a multipath flow can place
        every subflow on a distinct primary bottleneck.
    subflows_min, subflows_max : int
        Path diversity: a multipath flow opens a uniform draw in
        ``[subflows_min, subflows_max]`` subflows, each on a distinct
        primary link.  Single-path TCP flows always use one path.
    capacity_mbps : (float, float)
        Per-link capacity range (uniform draw).
    base_rtt : (float, float)
        Per-flow base RTT range in seconds (uniform draw); the reverse
        delay of each path completes the flow's base RTT, exactly as in
        the hand-built scenario builders.
    algorithm_mix : tuple of (name, weight)
        Relative weights of the congestion-control algorithms flows are
        assigned; entries whose registry spec is canonical ``tcp``
        (including the ``reno``/``uncoupled`` aliases) become
        single-path flows, all other names go through the cross-layer
        algorithm registry as multipath (names are validated against
        the registry's packet-capable set at construction time).
    scheduler_mix : tuple of (name, weight)
        Relative weights of the packet schedulers multipath flows are
        assigned; names are validated against the registry's scheduler
        axis.  Schedulers only shape behaviour for finite transfers
        (``transfer_packets``); for long-lived bulk flows they are
        recorded but inert.
    transfer_packets : int or None
        When set, every bulk flow becomes a *finite* transfer of this
        many packets, striped by its assigned scheduler; completion
        times land in ``GeneratedScenario.transfer_times``.  ``None``
        (default) keeps the classic long-lived Iperf model.
    link_dynamics : LinkDynamics or None
        When set, every bottleneck link gets a seeded
        :class:`~repro.topology.wireless.TimeVaryingLink` driver (and
        the dynamics' channel ``loss_rate``): the wireless scenario
        families.  ``None`` keeps links wired/constant.
    churn_fraction : float
        Fraction of ``n_flows`` realised as
        :class:`~repro.sim.apps.ShortFlowSource` (Poisson arrivals of
        short TCP transfers) instead of long-lived bulk flows.
    two_hop_fraction : float
        Probability that a subflow path traverses a second bottleneck.
    queue : str
        Queue discipline of every bottleneck, ``"droptail"`` or
        ``"red"``.
    start_spread : float
        Bulk flows start uniformly inside ``[0, start_spread)`` seconds
        (random Iperf order, as in the paper's testbed protocol).
    churn_interarrival : float
        Mean inter-arrival time of each short-flow source's transfers.
    churn_flow_bytes : int
        Size of each short transfer.
    """

    n_flows: int
    n_links: int
    subflows_min: int = 2
    subflows_max: int = 4
    capacity_mbps: Tuple[float, float] = (2.0, 10.0)
    base_rtt: Tuple[float, float] = (0.04, 0.2)
    algorithm_mix: Tuple[Tuple[str, float], ...] = (
        ("lia", 0.3), ("olia", 0.3), ("balia", 0.1), ("ewtcp", 0.15),
        ("tcp", 0.15))
    scheduler_mix: Tuple[Tuple[str, float], ...] = (("minrtt", 1.0),)
    transfer_packets: Optional[int] = None
    link_dynamics: Optional[LinkDynamics] = None
    churn_fraction: float = 0.1
    two_hop_fraction: float = 0.3
    queue: str = "droptail"
    start_spread: float = 1.0
    churn_interarrival: float = 0.2
    churn_flow_bytes: int = 70_000

    def __post_init__(self) -> None:
        if self.n_flows < 1:
            raise ValueError("n_flows must be >= 1")
        if not 1 <= self.subflows_min <= self.subflows_max:
            raise ValueError(
                f"need 1 <= subflows_min <= subflows_max, got "
                f"[{self.subflows_min}, {self.subflows_max}]")
        if self.n_links < max(self.subflows_max, 2):
            raise ValueError(
                f"n_links ({self.n_links}) must cover subflows_max "
                f"({self.subflows_max}) distinct primary bottlenecks")
        if not 0.0 <= self.churn_fraction <= 1.0:
            raise ValueError("churn_fraction must be within [0, 1]")
        if not 0.0 <= self.two_hop_fraction <= 1.0:
            raise ValueError("two_hop_fraction must be within [0, 1]")
        if not self.algorithm_mix:
            raise ValueError("algorithm_mix cannot be empty")
        if any(weight < 0 for _, weight in self.algorithm_mix) \
                or sum(weight for _, weight in self.algorithm_mix) <= 0:
            raise ValueError("algorithm_mix weights must be >= 0 and "
                             "sum to a positive total")
        from ..core.registry import available_algorithms, get_spec
        for name, _ in self.algorithm_mix:
            try:
                spec = get_spec(name)
            except KeyError:
                known = ", ".join(available_algorithms("packet"))
                raise ValueError(
                    f"algorithm_mix names an unknown algorithm {name!r}; "
                    f"known: {known}") from None
            if not spec.has_packet:
                raise ValueError(
                    f"algorithm_mix entry {name!r} has no packet layer "
                    f"(supports: {', '.join(spec.layers)}); the generator "
                    "builds packet-level flows")
        if not self.scheduler_mix:
            raise ValueError("scheduler_mix cannot be empty")
        if any(weight < 0 for _, weight in self.scheduler_mix) \
                or sum(weight for _, weight in self.scheduler_mix) <= 0:
            raise ValueError("scheduler_mix weights must be >= 0 and "
                             "sum to a positive total")
        from ..core.registry import available_schedulers, get_scheduler_spec
        for sched_name, _ in self.scheduler_mix:
            try:
                get_scheduler_spec(sched_name)
            except KeyError:
                known = ", ".join(available_schedulers())
                raise ValueError(
                    f"scheduler_mix names an unknown scheduler "
                    f"{sched_name!r}; known: {known}") from None
        if self.transfer_packets is not None and self.transfer_packets < 1:
            raise ValueError("transfer_packets must be at least 1")
        low, high = self.capacity_mbps
        if not 0 < low <= high:
            raise ValueError(f"bad capacity range {self.capacity_mbps}")
        low, high = self.base_rtt
        if not 0 < low <= high:
            raise ValueError(f"bad RTT range {self.base_rtt}")

    def scaled(self, n_flows: int) -> "GeneratorConfig":
        """This config resized to ``n_flows`` (links shrink in step).

        The smoke/CI cap: the per-link flow density stays roughly the
        one the preset was designed with.
        """
        if n_flows >= self.n_flows:
            return self
        ratio = n_flows / self.n_flows
        n_links = max(int(round(self.n_links * ratio)),
                      self.subflows_max, 2)
        return dataclasses.replace(self, n_flows=n_flows, n_links=n_links)


#: Named workload sizes for the scale harness; flow counts span the
#: figure-scale ~100-flow regime to the 10k+ regime the roadmap
#: targets.  Link pools keep ~8-20 flows per bottleneck so congestion
#: stays realistic as the population grows.
PRESETS: Dict[str, GeneratorConfig] = {
    "tiny": GeneratorConfig(n_flows=24, n_links=8),
    "small": GeneratorConfig(n_flows=100, n_links=16),
    "medium": GeneratorConfig(n_flows=1000, n_links=96),
    "large": GeneratorConfig(n_flows=10_000, n_links=768),
    "xlarge": GeneratorConfig(n_flows=20_000, n_links=1536),
}


#: Heterogeneous/wireless scenario families: the open scenario space
#: beyond the paper's wired testbed.  Each family is a complete
#: GeneratorConfig — finite transfers striped by a scheduler mix over
#: multipath-capable CC, on links whose radio model
#: (:class:`~repro.topology.wireless.LinkDynamics`) sets the fading,
#: loss and handover behaviour.  ``wired`` is the control: the same
#: workload on constant links.
FAMILY_PRESETS: Dict[str, GeneratorConfig] = {
    "wired": GeneratorConfig(
        n_flows=24, n_links=8, subflows_min=2, subflows_max=2,
        transfer_packets=400,
        scheduler_mix=(("minrtt", 0.4), ("roundrobin", 0.2),
                       ("redundant", 0.2), ("qaware", 0.2)),
        algorithm_mix=(("olia", 0.5), ("lia", 0.3), ("balia", 0.2)),
        churn_fraction=0.0),
    # Asymmetric dual-LTE: two cellular paths per flow, both fading,
    # light channel loss, no handovers — the time-varying preset the
    # scale bench gates.
    "dual_lte": GeneratorConfig(
        n_flows=24, n_links=8, subflows_min=2, subflows_max=2,
        capacity_mbps=(3.0, 30.0), base_rtt=(0.05, 0.15),
        transfer_packets=400,
        scheduler_mix=(("minrtt", 0.4), ("roundrobin", 0.2),
                       ("redundant", 0.2), ("qaware", 0.2)),
        algorithm_mix=(("olia", 0.5), ("lia", 0.3), ("balia", 0.2)),
        churn_fraction=0.0,
        link_dynamics=LinkDynamics(
            rate_range=(2e6, 40e6), change_interval=0.2,
            rate_sigma=0.35, delay_jitter=0.25, loss_rate=0.005)),
    # WiFi + LTE: wider capacity spread and heavier channel loss (WiFi
    # contention), moderate fading.
    "wifi_lte": GeneratorConfig(
        n_flows=24, n_links=8, subflows_min=2, subflows_max=2,
        capacity_mbps=(2.0, 60.0), base_rtt=(0.02, 0.12),
        transfer_packets=400,
        scheduler_mix=(("minrtt", 0.4), ("roundrobin", 0.2),
                       ("redundant", 0.2), ("qaware", 0.2)),
        algorithm_mix=(("olia", 0.5), ("lia", 0.3), ("balia", 0.2)),
        churn_fraction=0.0,
        link_dynamics=LinkDynamics(
            rate_range=(1e6, 70e6), change_interval=0.15,
            rate_sigma=0.5, delay_jitter=0.3, loss_rate=0.02)),
    # Mobility: dual-LTE radio model plus periodic handover outages.
    "handover": GeneratorConfig(
        n_flows=24, n_links=8, subflows_min=2, subflows_max=2,
        capacity_mbps=(3.0, 30.0), base_rtt=(0.05, 0.15),
        transfer_packets=400,
        scheduler_mix=(("minrtt", 0.4), ("roundrobin", 0.2),
                       ("redundant", 0.2), ("qaware", 0.2)),
        algorithm_mix=(("olia", 0.5), ("lia", 0.3), ("balia", 0.2)),
        churn_fraction=0.0,
        link_dynamics=LinkDynamics(
            rate_range=(2e6, 40e6), change_interval=0.2,
            rate_sigma=0.35, delay_jitter=0.25, loss_rate=0.005,
            handover_interval=2.0, handover_outage=0.08)),
}


@dataclass
class FlowDescription:
    """Build-time record of one generated flow (structure, not state)."""

    name: str
    kind: str                    # "bulk" or "churn"
    algorithm: str               # "tcp" for single-path / churn flows
    base_rtt: float
    start_time: float
    paths: List[Tuple[Tuple[str, ...], float]]   # (link names, reverse)
    scheduler: str = "minrtt"    # packet scheduler (multipath flows)


@dataclass
class GeneratedScenario:
    """A generated workload wired into one :class:`Simulator`.

    ``bulk_flows`` maps names to started-on-demand
    :class:`~repro.sim.apps.BulkTransfer` objects — the same mapping
    shape :class:`~repro.sim.monitors.FlowMeter` and
    :func:`~repro.experiments.runner.measure` take; ``churn_sources``
    holds the short-flow generators.  Call :meth:`start` before
    running the simulator.
    """

    sim: Simulator
    config: GeneratorConfig
    links: List[Link]
    bulk_flows: Dict[str, BulkTransfer]
    churn_sources: List[ShortFlowSource]
    flow_descriptions: List[FlowDescription] = field(default_factory=list)
    dynamics: List[TimeVaryingLink] = field(default_factory=list)
    transfer_times: List[float] = field(default_factory=list)

    def start(self) -> None:
        """Start every bulk flow (with its jitter), churn source and
        link-dynamics driver."""
        for flow in self.bulk_flows.values():
            flow.start()
        for source in self.churn_sources:
            source.start()
        for driver in self.dynamics:
            driver.start()

    @property
    def n_flows(self) -> int:
        return len(self.bulk_flows) + len(self.churn_sources)

    def describe(self) -> dict:
        """Structural summary of the scenario object graph.

        Two scenarios generated from the same ``(config, seed)`` --
        even into different simulators -- produce equal descriptions;
        the determinism tests compare these.
        """
        return {
            "links": [(link.name, link.rate_bps, link.delay,
                       type(link.queue).__name__)
                      for link in self.links],
            "flows": [(d.name, d.kind, d.algorithm, d.scheduler,
                       round(d.base_rtt, 12), round(d.start_time, 12),
                       tuple((names, round(reverse, 12))
                             for names, reverse in d.paths))
                      for d in self.flow_descriptions],
            "dynamics": (dataclasses.astuple(self.config.link_dynamics)
                         if self.config.link_dynamics is not None
                         else None),
        }


def _make_queue(rng: random.Random, capacity_mbps: float,
                discipline: str) -> DropTailQueue:
    if discipline == "red":
        return REDQueue.for_capacity_mbps(rng, capacity_mbps)
    if discipline == "droptail":
        return DropTailQueue(limit=max(int(100 * capacity_mbps / 10.0), 20))
    raise ValueError(f"unknown queue discipline {discipline!r}")


def build_random_scenario(sim: Simulator, rng: random.Random,
                          config: GeneratorConfig, *,
                          name: str = "gen") -> GeneratedScenario:
    """Generate one scenario into ``sim`` from ``rng`` and ``config``.

    Every random draw comes from ``rng``, in a fixed order, so a fresh
    ``random.Random(seed)`` reproduces the identical object graph.
    """
    # Bottleneck pool.  Link delays are bounded to a quarter of the
    # smallest base RTT so even a two-hop forward path leaves a
    # non-negative reverse delay to complete the flow's RTT.
    rtt_low, rtt_high = config.base_rtt
    max_hop = rtt_low / 4.0
    links: List[Link] = []
    dynamics_drivers: List[TimeVaryingLink] = []
    dyn = config.link_dynamics
    for i in range(config.n_links):
        capacity = rng.uniform(*config.capacity_mbps)
        delay = rng.uniform(0.25, 1.0) * max_hop
        loss_rng = None
        if dyn is not None and dyn.loss_rate > 0:
            # Private per-link stream: channel drops at simulation time
            # never consume the build rng.
            loss_rng = random.Random(rng.getrandbits(64))
        link = Link(sim, rate_bps=capacity * 1e6, delay=delay,
                    queue=_make_queue(rng, capacity, config.queue),
                    name=f"{name}.l{i}",
                    loss_rate=dyn.loss_rate if dyn is not None else 0.0,
                    loss_rng=loss_rng)
        links.append(link)
        if dyn is not None:
            dynamics_drivers.append(
                TimeVaryingLink(sim, link, dyn, rng.getrandbits(64)))

    from ..core.registry import get_spec
    names = [algo for algo, _ in config.algorithm_mix]
    weights = [weight for _, weight in config.algorithm_mix]
    # Single-path flows are decided by the *canonical* spec, so the
    # registry aliases ("reno"/"uncoupled") behave exactly like "tcp".
    single_path = {name for name in names if get_spec(name).name == "tcp"}
    n_churn = int(round(config.n_flows * config.churn_fraction))

    def draw_paths(n_paths: int, base_rtt: float) \
            -> Tuple[List[PathSpec], List[Tuple[Tuple[str, ...], float]]]:
        """``n_paths`` subflow paths on distinct primary bottlenecks."""
        primaries = rng.sample(links, n_paths)
        specs, described = [], []
        for primary in primaries:
            path = [primary]
            if config.two_hop_fraction > 0 \
                    and rng.random() < config.two_hop_fraction:
                second = links[rng.randrange(config.n_links)]
                if second is not primary:
                    path.append(second)
            forward = sum(link.delay for link in path)
            reverse = base_rtt - forward
            specs.append(PathSpec(tuple(path), reverse))
            described.append((tuple(link.name for link in path), reverse))
        return specs, described

    scheduler_names = [sched for sched, _ in config.scheduler_mix]
    scheduler_weights = [weight for _, weight in config.scheduler_mix]

    bulk_flows: Dict[str, BulkTransfer] = {}
    churn_sources: List[ShortFlowSource] = []
    descriptions: List[FlowDescription] = []
    transfer_times: List[float] = []
    for i in range(config.n_flows):
        base_rtt = rng.uniform(rtt_low, rtt_high)
        if i < n_churn:
            # Churn sources spawn short single-path TCP flows; each
            # spawn re-draws its path from a private, seeded stream so
            # simulation-time arrivals never consume the build rng.
            flow_name = f"{name}.churn{i}"
            source_rng = random.Random(rng.getrandbits(64))

            def provider(source_rng=source_rng, base_rtt=base_rtt):
                link = links[source_rng.randrange(config.n_links)]
                return (link,), base_rtt - link.delay

            source = ShortFlowSource(
                sim, source_rng, provider,
                mean_interarrival=config.churn_interarrival,
                flow_bytes=config.churn_flow_bytes, name=flow_name)
            churn_sources.append(source)
            descriptions.append(FlowDescription(
                name=flow_name, kind="churn", algorithm="tcp",
                base_rtt=base_rtt, start_time=0.0, paths=[]))
            continue
        algorithm = rng.choices(names, weights=weights)[0]
        n_subflows = 1 if algorithm in single_path else rng.randint(
            config.subflows_min, config.subflows_max)
        specs, described = draw_paths(n_subflows, base_rtt)
        start_time = rng.uniform(0.0, config.start_spread)
        # Single-entry mixes skip the draw so the default configuration
        # reproduces the exact pre-scheduler-axis rng stream.
        if len(scheduler_names) == 1:
            scheduler = scheduler_names[0]
        else:
            scheduler = rng.choices(scheduler_names,
                                    weights=scheduler_weights)[0]
        flow_name = f"{name}.f{i}"
        bulk_flows[flow_name] = BulkTransfer(
            sim, algorithm, specs, start_time=start_time,
            scheduler=scheduler,
            size_packets=config.transfer_packets,
            on_complete=(transfer_times.append
                         if config.transfer_packets is not None else None),
            name=flow_name)
        descriptions.append(FlowDescription(
            name=flow_name, kind="bulk", algorithm=algorithm,
            base_rtt=base_rtt, start_time=start_time, paths=described,
            scheduler=scheduler))

    return GeneratedScenario(sim=sim, config=config, links=links,
                             bulk_flows=bulk_flows,
                             churn_sources=churn_sources,
                             flow_descriptions=descriptions,
                             dynamics=dynamics_drivers,
                             transfer_times=transfer_times)


def preset_config(preset: str) -> GeneratorConfig:
    """The :data:`PRESETS` entry for ``preset`` (clear error on typos)."""
    try:
        return PRESETS[preset]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(
            f"unknown scale preset {preset!r}; known: {known}") from None


def family_config(family: str) -> GeneratorConfig:
    """The :data:`FAMILY_PRESETS` entry for ``family``."""
    try:
        return FAMILY_PRESETS[family]
    except KeyError:
        known = ", ".join(sorted(FAMILY_PRESETS))
        raise ValueError(
            f"unknown scenario family {family!r}; known: {known}") from None


def generate_preset(sim: Simulator, preset: str, *, seed: int = 1,
                    max_flows: Optional[int] = None,
                    algorithms: Optional[Tuple[str, ...]] = None,
                    schedulers: Optional[Tuple[str, ...]] = None
                    ) -> GeneratedScenario:
    """Generate a named preset into ``sim``.

    ``max_flows`` caps the population (smoke/CI mode) via
    :meth:`GeneratorConfig.scaled`, shrinking the link pool in step so
    the capped scenario keeps the preset's congestion density.
    ``algorithms`` replaces the preset's algorithm mix with the given
    names at equal weights (registry-validated), and ``schedulers``
    does the same for the packet-scheduler mix — the knobs behind
    ``python -m repro scale --algorithms/--schedulers``.
    """
    config = preset_config(preset)
    if max_flows is not None:
        config = config.scaled(max_flows)
    if algorithms is not None:
        config = dataclasses.replace(
            config,
            algorithm_mix=tuple((name, 1.0) for name in algorithms))
    if schedulers is not None:
        config = dataclasses.replace(
            config,
            scheduler_mix=tuple((name, 1.0) for name in schedulers))
    return build_random_scenario(sim, random.Random(seed), config)


def generate_family(sim: Simulator, family: str, *, seed: int = 1,
                    max_flows: Optional[int] = None,
                    schedulers: Optional[Tuple[str, ...]] = None
                    ) -> GeneratedScenario:
    """Generate a scenario-family workload (see :data:`FAMILY_PRESETS`)."""
    config = family_config(family)
    if max_flows is not None:
        config = config.scaled(max_flows)
    if schedulers is not None:
        config = dataclasses.replace(
            config,
            scheduler_mix=tuple((name, 1.0) for name in schedulers))
    return build_random_scenario(sim, random.Random(seed), config)
