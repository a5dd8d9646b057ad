"""Congestion-control algorithms: the paper's contribution and baselines.

* :class:`OliaController` — the paper's OLIA (Eqs. 5-6).
* :class:`LiaController` — MPTCP's default LIA (Eq. 1, RFC 6356).
* :class:`RenoController` — regular/uncoupled TCP.
* :class:`CoupledController` — fully coupled (OLIA without the alpha term).
* :class:`EwtcpController` — equally-weighted TCP baseline.
* :class:`BaliaController` — Peng-Walid-Hwang-Low's BALIA.

Everything above resolves algorithms through :mod:`repro.core.registry`:
one :class:`AlgorithmSpec` per algorithm bundles the packet controller,
the fluid derivative, the equilibrium allocation rule and (for the
algorithms with machine-checked claims) the SMT constraint model behind
a single name, with capability flags for algorithms that lack a layer.

The registry's second, orthogonal axis is the packet scheduler: one
:class:`SchedulerSpec` per policy (minrtt, roundrobin, redundant,
qaware), resolved through :func:`make_scheduler` and composable with
any packet-capable algorithm.
"""

from .balia import BaliaController
from .base import MultipathController, SubflowState
from .coupled import CoupledController
from .cubic import CubicController
from .ewtcp import EwtcpController
from .lia import LiaController
from .olia import OliaController
from .registry import (
    AlgorithmSpec,
    ParamSpec,
    SchedulerSpec,
    algorithm_specs,
    available_algorithms,
    available_schedulers,
    get_scheduler_spec,
    get_spec,
    make_allocation_rule,
    make_controller,
    make_fluid_algorithm,
    make_scheduler,
    make_smt_model,
    register_algorithm,
    registered,
    scheduler_specs,
    unregister_algorithm,
)
from .reno import RenoController, UncoupledController
from .rtt import RttEstimator
from .stcp import ScalableTcpController

__all__ = [
    "MultipathController",
    "SubflowState",
    "OliaController",
    "LiaController",
    "RenoController",
    "UncoupledController",
    "CoupledController",
    "EwtcpController",
    "ScalableTcpController",
    "CubicController",
    "BaliaController",
    "RttEstimator",
    "AlgorithmSpec",
    "ParamSpec",
    "SchedulerSpec",
    "algorithm_specs",
    "get_spec",
    "make_controller",
    "make_fluid_algorithm",
    "make_allocation_rule",
    "make_smt_model",
    "available_algorithms",
    "register_algorithm",
    "registered",
    "unregister_algorithm",
    "scheduler_specs",
    "get_scheduler_spec",
    "make_scheduler",
    "available_schedulers",
]
