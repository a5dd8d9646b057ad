"""The cross-layer registry: two orthogonal axes of named specs.

The paper's whole argument is a comparison *across algorithms* carried
out in four analytical layers — packet-level simulation
(:class:`~repro.core.base.MultipathController`), fluid dynamics
(:class:`~repro.fluid.dynamics.FluidAlgorithm`), equilibrium fixed
points (allocation rules in :mod:`repro.fluid.equilibrium`) and SMT
verification (:mod:`repro.verify`).  Peng, Walid, Hwang & Low
("Multipath TCP: Analysis, Design and Implementation") show why those
should be *one* abstraction: a whole design space of MP-TCP algorithms
is parametrized by a small per-algorithm spec from which both the
fluid model and the packet behaviour follow.

MPTCP has a second control knob the congestion-control literature
holds fixed: the *packet scheduler*, which decides which subflow
carries the next packet of a finite transfer.  The wild-measurement
papers (Shreedhar et al., Dimopoulos et al., PAPERS.md) find it moves
outcomes as much as the CC choice, so it is a registry axis of its
own, **orthogonal** to the algorithm axis: any scheduler composes with
any packet-capable algorithm.

:class:`AlgorithmSpec` is the algorithm-axis spec: a name (plus
aliases), one factory per layer the algorithm supports (``None`` = the
layer is not implemented — the *capability flags*), and the declared
per-algorithm parameters (:class:`ParamSpec`) that flow through every
layer from one place (e.g. OLIA's ``tie_tolerance``, the epsilon
family's ``epsilon``).  :class:`SchedulerSpec` is the scheduler-axis
spec: a name, one factory, declared parameters — schedulers live in a
single (packet) layer, so no capability flags.  Every name→object
resolution in the repo goes through this module:

* ``make_controller(name, **params)`` — packet layer (the DES).
* ``make_fluid_algorithm(name, **params)`` — fluid ODE layer.
* ``make_allocation_rule(name, **params)`` — equilibrium layer.
* ``make_smt_model(name, **params)`` — SMT verification layer (a
  :class:`~repro.verify.base.ConstraintModel` of the fixed-point
  conditions; optional, needs the ``z3-solver`` extra at *solve* time
  but not to build or list the capability).
* ``make_scheduler(name, **params)`` — the scheduler axis (a
  :class:`~repro.sim.packet_scheduler.PacketScheduler` policy).

There is no other path: the fluid and equilibrium modules define
the algorithms but no name lookup, and a CI gate
(``benchmarks/check_registry_gate.py``) keeps the concrete packet
scheduler classes from being constructed outside ``core/``.

Adding an algorithm is a one-file change: write the controller /
derivative / allocation next to each other, bundle them in an
``AlgorithmSpec``, and register it — see :mod:`repro.core.balia` for
the worked example (BALIA, registered once, runnable in all three
layers, every sweep, the scenario generator and the scale harness).
The scheduler axis holds the four builtin policies of
:mod:`repro.sim.packet_scheduler`; a custom policy needs no
registration — pass a :class:`SchedulerSpec` to
:func:`make_scheduler`, or a policy instance to
:class:`~repro.sim.mptcp.MptcpConnection`.

Builtin specs on both axes are bound lazily on first lookup: the
registry lives in ``core`` but binds factories defined in the fluid,
verify and sim layers.  Deferring the binding keeps ``repro.sim`` off
the import path of a process that only resolves algorithms — the
allocation-query server resolves fluid and equilibrium names and never
loads the simulator.  (``import repro.core`` itself still reaches the
fluid layer, through the :mod:`~repro.core.balia` re-export.)
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .base import MultipathController

#: The four analytical layers an algorithm may implement: packet-level
#: simulation, fluid ODE dynamics, equilibrium allocation rules, and
#: SMT constraint models (machine-checked fixed-point claims).
LAYERS = ("packet", "fluid", "equilibrium", "smt")


@dataclass(frozen=True)
class ParamSpec:
    """One declared per-algorithm parameter.

    Parameters flow through the registry into every layer's factory
    from this single declaration instead of three ad-hoc kwargs paths.
    ``layers`` restricts a parameter to the layers whose factory
    accepts it (e.g. OLIA's equilibrium ``floor`` has no packet
    meaning); ``required`` makes the registry reject a construction
    that omits it (e.g. the epsilon family's ``epsilon``).
    """

    name: str
    description: str = ""
    required: bool = False
    layers: Tuple[str, ...] = LAYERS


@dataclass(frozen=True)
class AlgorithmSpec:
    """One congestion-control algorithm across all analytical layers.

    Attributes
    ----------
    name:
        Canonical lower-case name (the registry key).
    aliases:
        Extra names resolving to this spec (e.g. ``tcp``/``reno``/
        ``uncoupled`` are one algorithm).
    description:
        One-line human description (shown by ``python -m repro
        algorithms``).
    controller_factory:
        ``(**params) -> MultipathController`` for the packet DES, or
        ``None`` when the algorithm has no packet implementation.
    fluid_factory:
        ``(**params) -> FluidAlgorithm`` (the ODE right-hand side), or
        ``None``.
    allocation_factory:
        ``(**params) -> AllocationRule`` (a ``rule(p, rtt) -> rates``
        callable), or ``None``.
    smt_factory:
        ``(**params) -> ConstraintModel`` (the algorithm's fixed-point
        conditions as z3 constraints, see :mod:`repro.verify`), or
        ``None``.  Building the model never imports z3 — the solver is
        only required when constraints are actually constructed, so
        the capability is listable without the optional extra.
    params:
        Declared :class:`ParamSpec` entries; constructions with
        undeclared keyword arguments fail loudly.
    congestion_measure:
        What the packet controller reacts to: ``"loss"`` (the default;
        losses drive the window, so the analytic layers' loss prices
        are the *same* signal the DES measures) or ``"delay"``
        (queueing delay drives the window, as in wVegas; the fluid and
        equilibrium layers still price congestion generically, so
        DES-vs-analytic comparisons are not meaningful and consistency
        tests skip them).
    """

    name: str
    aliases: Tuple[str, ...] = ()
    description: str = ""
    controller_factory: Optional[Callable[..., MultipathController]] = None
    fluid_factory: Optional[Callable[..., object]] = None
    allocation_factory: Optional[Callable[..., object]] = None
    smt_factory: Optional[Callable[..., object]] = None
    params: Tuple[ParamSpec, ...] = field(default=())
    congestion_measure: str = "loss"

    def __post_init__(self) -> None:
        if not self.name or self.name != self.name.lower():
            raise ValueError(
                f"spec name must be a non-empty lower-case string, "
                f"got {self.name!r}")
        if any(alias != alias.lower() for alias in self.aliases):
            raise ValueError(f"aliases must be lower-case: {self.aliases}")
        if self.congestion_measure not in ("loss", "delay"):
            raise ValueError(
                f"congestion_measure must be 'loss' or 'delay', "
                f"got {self.congestion_measure!r}")

    # -- capability flags ----------------------------------------------------
    @property
    def has_packet(self) -> bool:
        return self.controller_factory is not None

    @property
    def has_fluid(self) -> bool:
        return self.fluid_factory is not None

    @property
    def has_equilibrium(self) -> bool:
        return self.allocation_factory is not None

    @property
    def has_smt(self) -> bool:
        return self.smt_factory is not None

    def supports(self, layer: str) -> bool:
        """True when this spec implements ``layer``."""
        return self._factory(layer) is not None

    @property
    def layers(self) -> Tuple[str, ...]:
        """The layers this algorithm implements, in canonical order."""
        return tuple(layer for layer in LAYERS if self.supports(layer))

    @property
    def names(self) -> Tuple[str, ...]:
        """Canonical name followed by every alias."""
        return (self.name, *self.aliases)

    def _factory(self, layer: str) -> Optional[Callable]:
        if layer == "packet":
            return self.controller_factory
        if layer == "fluid":
            return self.fluid_factory
        if layer == "equilibrium":
            return self.allocation_factory
        if layer == "smt":
            return self.smt_factory
        raise ValueError(
            f"unknown layer {layer!r}; expected one of {', '.join(LAYERS)}")

    def required_params(self, layer: str) -> Tuple[str, ...]:
        """Names of the parameters ``layer`` cannot be built without."""
        return tuple(p.name for p in self.params
                     if p.required and layer in p.layers)

    # -- construction --------------------------------------------------------
    def _check_params(self, layer: str, params: Dict[str, object]) -> None:
        accepted = {p.name for p in self.params if layer in p.layers}
        unknown = sorted(set(params) - accepted)
        if unknown:
            raise TypeError(
                f"algorithm {self.name!r} does not accept "
                f"parameter(s) {', '.join(unknown)} for the {layer} "
                f"layer; accepted: {', '.join(sorted(accepted)) or 'none'}")
        missing = sorted(set(self.required_params(layer)) - set(params))
        if missing:
            raise TypeError(
                f"algorithm {self.name!r} requires parameter(s) "
                f"{', '.join(missing)} for the {layer} layer")

    def _make(self, layer: str, params: Dict[str, object]):
        factory = self._factory(layer)
        if factory is None:
            raise KeyError(
                f"algorithm {self.name!r} has no {layer} layer "
                f"(supports: {', '.join(self.layers) or 'nothing'})")
        self._check_params(layer, params)
        return factory(**params)

    def make_controller(self, **params) -> MultipathController:
        """A fresh packet-level controller (validated ``params``)."""
        return self._make("packet", params)

    def make_fluid(self, **params):
        """A fresh fluid-ODE algorithm (validated ``params``)."""
        return self._make("fluid", params)

    def make_allocation(self, **params):
        """An equilibrium allocation rule (validated ``params``)."""
        return self._make("equilibrium", params)

    def make_smt(self, **params):
        """A fresh SMT constraint model (validated ``params``)."""
        return self._make("smt", params)


# -- scheduler-axis specs --------------------------------------------------------


@dataclass(frozen=True)
class SchedulerSpec:
    """One packet scheduler on the registry's scheduler axis.

    Schedulers live in a single layer (the packet DES), so the spec is
    the algorithm spec minus the capability flags: a canonical name
    (plus aliases), one factory producing a fresh
    :class:`~repro.sim.packet_scheduler.PacketScheduler` per
    connection, and declared :class:`ParamSpec` parameters (their
    ``layers`` field is ignored on this axis).
    """

    name: str
    aliases: Tuple[str, ...] = ()
    description: str = ""
    factory: Optional[Callable[..., object]] = None
    params: Tuple[ParamSpec, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.name or self.name != self.name.lower():
            raise ValueError(
                f"spec name must be a non-empty lower-case string, "
                f"got {self.name!r}")
        if any(alias != alias.lower() for alias in self.aliases):
            raise ValueError(f"aliases must be lower-case: {self.aliases}")
        if self.factory is None:
            raise ValueError(
                f"scheduler spec {self.name!r} needs a factory")

    @property
    def names(self) -> Tuple[str, ...]:
        """Canonical name followed by every alias."""
        return (self.name, *self.aliases)

    def make(self, **params):
        """A fresh scheduler policy instance (validated ``params``)."""
        accepted = {p.name for p in self.params}
        unknown = sorted(set(params) - accepted)
        if unknown:
            raise TypeError(
                f"scheduler {self.name!r} does not accept parameter(s) "
                f"{', '.join(unknown)}; accepted: "
                f"{', '.join(sorted(accepted)) or 'none'}")
        missing = sorted(p.name for p in self.params
                         if p.required and p.name not in params)
        if missing:
            raise TypeError(
                f"scheduler {self.name!r} requires parameter(s) "
                f"{', '.join(missing)}")
        return self.factory(**params)


# -- the registry ----------------------------------------------------------------


class _Axis:
    """Name-table mechanics shared by the two registry axes.

    One instance per axis (algorithms, schedulers): a canonical-name →
    spec table, an any-name/alias → canonical table, lazy builtin
    loading, and collision/override/restore bookkeeping.  Everything
    axis-specific (capability layers, construction, error flavour
    beyond the axis noun) stays in the thin public wrappers below.
    """

    def __init__(self, kind: str, load_builtins: Callable[[], list]):
        self.kind = kind
        self._load_builtins = load_builtins
        self.specs: Dict[str, object] = {}    # canonical name -> spec
        self.names: Dict[str, str] = {}       # any name/alias -> canonical
        self._loaded = False

    def ensure_builtins(self) -> None:
        """Bind the builtin specs on first use (lazy cross imports)."""
        if self._loaded:
            return
        self._loaded = True
        for spec in self._load_builtins():
            self.register(spec)

    def register(self, spec, *, override: bool = False) -> List:
        self.ensure_builtins()
        colliding = sorted({self.names[name] for name in spec.names
                            if name in self.names})
        replaced: List = []
        if colliding:
            if not override:
                taken = ", ".join(name for name in spec.names
                                  if name in self.names)
                raise ValueError(
                    f"{self.kind} name(s) already registered: {taken} "
                    "(pass override=True to replace)")
            for canonical in colliding:
                replaced.append(self.unregister(canonical))
        self.specs[spec.name] = spec
        for name in spec.names:
            self.names[name] = spec.name
        return replaced

    def unregister(self, name: str):
        self.ensure_builtins()
        key = name.lower()
        if key not in self.names:
            known = ", ".join(self.available())
            raise KeyError(f"unknown {self.kind} {name!r}; known: {known}")
        spec = self.specs.pop(self.names[key])
        for alias in spec.names:
            self.names.pop(alias, None)
        return spec

    def get(self, name: str):
        self.ensure_builtins()
        try:
            return self.specs[self.names[name.lower()]]
        except KeyError:
            known = ", ".join(self.available())
            raise KeyError(
                f"unknown {self.kind} {name!r}; known: {known}") from None

    def all_specs(self) -> List:
        self.ensure_builtins()
        return [spec for _, spec in sorted(self.specs.items())]

    def available(self) -> list[str]:
        self.ensure_builtins()
        return sorted(self.names)

    @contextmanager
    def registered(self, spec, *, override: bool = False):
        replaced = self.register(spec, override=override)
        try:
            yield spec
        finally:
            self.unregister(spec.name)
            for old in replaced:
                self.register(old)


def _builtin_scheduler_specs() -> List[SchedulerSpec]:
    # Lazy: the policies live in the sim layer, which imports this
    # module for controller resolution.
    from ..sim import packet_scheduler as _ps

    return [
        SchedulerSpec(
            name="minrtt", aliases=("min-rtt",),
            description="lowest-srtt ready subflow (the default)",
            factory=_ps.MinRttScheduler),
        SchedulerSpec(
            name="roundrobin", aliases=("rr", "round-robin"),
            description="cycle ready subflows in key order, one "
            "packet each",
            factory=_ps.RoundRobinScheduler),
        SchedulerSpec(
            name="redundant", aliases=("duplicate",),
            description="every packet on every subflow; first copy "
            "to arrive wins",
            factory=_ps.RedundantScheduler),
        SchedulerSpec(
            name="qaware", aliases=("queue-aware", "cross-layer"),
            description="srtt + first-hop queue drain time "
            "(cross-layer, Shreedhar et al.)",
            factory=_ps.QueueAwareScheduler),
    ]


_ALGORITHMS = _Axis("algorithm", lambda: _builtin_specs())
_SCHEDULERS = _Axis("scheduler", _builtin_scheduler_specs)


def _builtin_specs() -> List[AlgorithmSpec]:
    # Imported here, not at module top, so that resolving an algorithm
    # loads the layers it binds and nothing of the simulator.
    from ..fluid import dynamics as _dyn
    from ..fluid import equilibrium as _eq
    from ..verify.models import LiaModel, OliaModel, TcpModel
    from . import balia as _balia
    from . import wvegas as _wvegas
    from .coupled import CoupledController
    from .cubic import CubicController
    from .ewtcp import EwtcpController
    from .lia import LiaController
    from .olia import OliaController
    from .reno import RenoController
    from .stcp import ScalableTcpController

    def olia_rule(floor=None, tie_tolerance=1e-6):
        return lambda p, rtt: _eq.olia_allocation(
            p, rtt, floor=floor, tie_tolerance=tie_tolerance)

    def epsilon_rule(epsilon):
        return lambda p, rtt: _eq.epsilon_family_allocation(p, rtt, epsilon)

    tie_tolerance = ParamSpec(
        "tie_tolerance",
        "relative tolerance of the argmax path sets (layer defaults: "
        "packet 0, fluid 1e-3, equilibrium 1e-6)")
    return [
        AlgorithmSpec(
            name="tcp", aliases=("reno", "uncoupled"),
            description="regular TCP Reno; uncoupled on each subflow",
            controller_factory=RenoController,
            fluid_factory=_dyn.TcpFluid,
            allocation_factory=lambda: _eq.tcp_allocation,
            smt_factory=TcpModel),
        AlgorithmSpec(
            name="lia", description="MPTCP's linked increases (Eq. 1, "
            "RFC 6356)",
            controller_factory=LiaController,
            fluid_factory=_dyn.LiaFluid,
            allocation_factory=lambda: _eq.lia_allocation,
            smt_factory=LiaModel),
        AlgorithmSpec(
            name="olia", description="the paper's opportunistic linked "
            "increases (Eqs. 5-6)",
            controller_factory=OliaController,
            fluid_factory=_dyn.OliaFluid,
            allocation_factory=olia_rule,
            smt_factory=OliaModel,
            params=(tie_tolerance,
                    ParamSpec("floor", "equilibrium probing rate of "
                              "non-best routes",
                              layers=("equilibrium", "smt")))),
        AlgorithmSpec(
            name="coupled", description="fully coupled Kelly-Voice "
            "(OLIA without the alpha term)",
            controller_factory=CoupledController,
            fluid_factory=_dyn.CoupledFluid,
            allocation_factory=olia_rule,
            params=(ParamSpec("tie_tolerance", tie_tolerance.description,
                              layers=("fluid", "equilibrium")),
                    ParamSpec("floor", "equilibrium probing rate of "
                              "non-best routes", layers=("equilibrium",)))),
        AlgorithmSpec(
            name="ewtcp", description="equally-weighted TCP "
            "(weight 1/n^2 per subflow)",
            controller_factory=EwtcpController,
            fluid_factory=_dyn.EwtcpFluid,
            allocation_factory=lambda: _eq.ewtcp_allocation,
            params=(ParamSpec("weight", "per-subflow AIMD weight "
                              "(default 1/n^2)", layers=("packet",)),)),
        _balia.SPEC,
        _wvegas.SPEC,
        AlgorithmSpec(
            name="stcp", description="Scalable TCP (packet layer only)",
            controller_factory=ScalableTcpController,
            params=(ParamSpec("a", "per-ACK additive increase",
                              layers=("packet",)),
                    ParamSpec("b", "multiplicative decrease",
                              layers=("packet",)))),
        AlgorithmSpec(
            name="cubic", description="CUBIC (packet layer only; needs "
            "a clock callable)",
            controller_factory=CubicController,
            params=(ParamSpec("clock", "time callable driving the cubic "
                              "window growth (e.g. a Simulator clock)",
                              required=True, layers=("packet",)),)),
        AlgorithmSpec(
            name="epsilon", description="the epsilon-family allocation "
            "of Section II (equilibrium layer only)",
            allocation_factory=epsilon_rule,
            params=(ParamSpec("epsilon", "coupling parameter in [0, 2]",
                              required=True, layers=("equilibrium",)),)),
    ]


def register_algorithm(spec: AlgorithmSpec, *,
                       override: bool = False) -> List[AlgorithmSpec]:
    """Register an :class:`AlgorithmSpec`.

    Without ``override`` a name collision (canonical or alias) raises
    ``ValueError``; with ``override=True`` the colliding spec(s) are
    unregistered first and returned, so callers (and
    :func:`registered`) can restore them.
    """
    if not isinstance(spec, AlgorithmSpec):
        raise TypeError("register_algorithm takes an AlgorithmSpec")
    return _ALGORITHMS.register(spec, override=override)


def unregister_algorithm(name: str) -> AlgorithmSpec:
    """Remove a registered spec (by any of its names) and return it."""
    return _ALGORITHMS.unregister(name)


@contextmanager
def registered(spec, *, override: bool = False):
    """Context manager: register ``spec``, unregister it on exit.

    Anything ``override=True`` displaced is restored on exit, so tests
    and user extensions can try out throwaway algorithms without
    leaking registry state::

        with registered(AlgorithmSpec(name="mine", ...)):
            run_experiment("mine")
    """
    with _ALGORITHMS.registered(spec, override=override):
        yield spec


def get_spec(name: str) -> AlgorithmSpec:
    """The :class:`AlgorithmSpec` for ``name`` (case-insensitive).

    Raises ``KeyError`` with the list of known names when ``name`` is
    unknown, which makes config typos fail loudly.
    """
    return _ALGORITHMS.get(name)


def algorithm_specs() -> List[AlgorithmSpec]:
    """Every registered spec, once each, sorted by canonical name."""
    return _ALGORITHMS.all_specs()


def available_algorithms(layer: str | None = None) -> list[str]:
    """All registered algorithm names (aliases included), sorted.

    ``layer`` (``"packet"``, ``"fluid"``, ``"equilibrium"`` or
    ``"smt"``) filters to the names whose algorithm implements that
    layer — the name sets the four ``make_*`` entry points accept.
    """
    if layer is None:
        return _ALGORITHMS.available()
    _ALGORITHMS.ensure_builtins()
    return sorted(name for name, canonical in _ALGORITHMS.names.items()
                  if _ALGORITHMS.specs[canonical].supports(layer))


def _spec_for_layer(name: str, layer: str) -> AlgorithmSpec:
    """Resolve ``name`` for ``layer``, failing loudly either way."""
    _ALGORITHMS.ensure_builtins()
    key = name.lower()
    if key not in _ALGORITHMS.names:
        known = ", ".join(available_algorithms(layer))
        raise KeyError(
            f"unknown algorithm {name!r}; known ({layer}): {known}")
    spec = _ALGORITHMS.specs[_ALGORITHMS.names[key]]
    if not spec.supports(layer):
        capable = ", ".join(available_algorithms(layer))
        raise KeyError(
            f"algorithm {name!r} has no {layer} layer (supports: "
            f"{', '.join(spec.layers) or 'nothing'}); "
            f"{layer}-capable: {capable}")
    return spec


def make_controller(name, **params) -> MultipathController:
    """Instantiate a packet-level controller by name (or spec).

    Raises ``KeyError`` with the list of known names when ``name`` is
    unknown or lacks a packet implementation; undeclared ``params``
    raise ``TypeError``.
    """
    if isinstance(name, AlgorithmSpec):
        return name.make_controller(**params)
    return _spec_for_layer(name, "packet").make_controller(**params)


def make_fluid_algorithm(name, **params):
    """Instantiate a fluid-ODE algorithm by name (or spec)."""
    if isinstance(name, AlgorithmSpec):
        return name.make_fluid(**params)
    return _spec_for_layer(name, "fluid").make_fluid(**params)


def make_allocation_rule(name, **params):
    """Build an equilibrium allocation rule by name (or spec)."""
    if isinstance(name, AlgorithmSpec):
        return name.make_allocation(**params)
    return _spec_for_layer(name, "equilibrium").make_allocation(**params)


def make_smt_model(name, **params):
    """Build an SMT constraint model by name (or spec).

    The model object itself is z3-free; z3 is first touched when its
    constraints are built, raising
    :class:`~repro.verify.base.Z3Unavailable` if the optional extra is
    missing — the same degrade-to-skip contract as the compiled DES
    kernels.
    """
    if isinstance(name, AlgorithmSpec):
        return name.make_smt(**params)
    return _spec_for_layer(name, "smt").make_smt(**params)


# -- the scheduler axis ----------------------------------------------------------

def get_scheduler_spec(name: str) -> SchedulerSpec:
    """The :class:`SchedulerSpec` for ``name`` (case-insensitive)."""
    return _SCHEDULERS.get(name)


def scheduler_specs() -> List[SchedulerSpec]:
    """Every registered scheduler spec, sorted by canonical name."""
    return _SCHEDULERS.all_specs()


def available_schedulers() -> list[str]:
    """All registered scheduler names (aliases included), sorted."""
    return _SCHEDULERS.available()


def make_scheduler(name=None, **params):
    """Instantiate a packet scheduler by name (or spec).

    ``None`` resolves to the default policy (``minrtt``), so callers
    can thread an optional scheduler argument straight through.
    Raises ``KeyError`` with the list of registered scheduler names
    when ``name`` is unknown; undeclared ``params`` raise
    ``TypeError``.
    """
    if name is None:
        name = "minrtt"
    if isinstance(name, SchedulerSpec):
        return name.make(**params)
    return _SCHEDULERS.get(name).make(**params)
