"""Constraint-model base class and the optional-z3 degradation path.

Mirrors the compiled-kernels pattern (``repro.sim.engine``): the
solver is probed once at import, :data:`Z3_AVAILABLE` records the
outcome, and every consumer that actually needs z3 calls
:func:`require_z3` — which returns the module or raises the typed
:class:`Z3Unavailable`, so callers (the CLI, the algorithm-matrix
smoke, the test suite) can turn "not installed" into an explicit skip
instead of an ImportError mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

try:                            # optional SMT backend
    import z3                   # type: ignore
except ImportError:             # degrade to skip-not-fail everywhere
    z3 = None

#: True when the optional ``z3-solver`` package imported; every
#: consumer degrades to an explicit skip when it did not.
Z3_AVAILABLE = z3 is not None


class Z3Unavailable(RuntimeError):
    """Raised by :func:`require_z3` when ``z3-solver`` is not installed."""


def require_z3():
    """The ``z3`` module, or a typed :class:`Z3Unavailable`.

    Call this at the top of anything that builds or solves constraints;
    the exception type is what lets ``repro algorithms --check`` and the
    verify CLI report a *skip* rather than a failure.
    """
    if z3 is None:
        raise Z3Unavailable(
            "the SMT verification layer needs the optional z3-solver "
            "package (pip install z3-solver); without it the verify "
            "suite skips")
    return z3


@dataclass
class VerificationResult:
    """Outcome of one (claim, algorithm) machine check.

    ``status`` is one of:

    * ``"certified"`` — the solver returned the *expected* verdict
      (sat for existence claims, unsat for universal ones);
    * ``"refuted"`` — the solver returned the opposite verdict: the
      claim is false as encoded (a real finding, not an error);
    * ``"unknown"`` — the solver gave up (timeout / incompleteness);
    * ``"skip"`` — not checked (z3 missing, or the algorithm does not
      declare the claim).

    ``witness`` carries the extracted model values for satisfiable
    outcomes — for the non-pareto claim, a concrete topology plus the
    equilibrium and the allocation dominating it.
    """

    claim: str
    algorithm: str
    status: str
    detail: str = ""
    witness: Optional[Dict[str, float]] = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        """True when this result should not fail a gate (CI, CLI)."""
        return self.status in ("certified", "skip")


class ConstraintModel:
    """One algorithm's equilibrium conditions as z3 constraints.

    This is the ``smt`` layer's per-algorithm object, built by an
    :class:`~repro.core.registry.AlgorithmSpec`'s ``smt_factory`` the
    same way the other three layers build controllers, fluid
    derivatives and allocation rules.  Subclasses encode:

    * :meth:`fixed_point_constraints` — the algebraic fixed-point
      conditions tying a rate vector to per-route loss probabilities
      and RTTs (the relational counterpart of the equilibrium layer's
      closed-form allocation rule);
    * :meth:`per_rtt_increase` / :meth:`loss_decrease_factor` — the
      fluid-scale window update over one RTT, used by the
      bounded-horizon ``cwnd-bounds`` unrolling.

    The numeric contract: a z3 model satisfying
    :meth:`fixed_point_constraints` at given ``(p, rtt)`` must agree
    with the registry's equilibrium allocation rule at the same point
    (enforced by ``tests/test_verify_cross_check.py`` on sampled
    points, and by the ``smt`` cell of ``repro algorithms --check``).
    """

    #: Algorithm name (matches the registry spec).
    name = "base"

    #: Claims this model declares, in canonical order; each maps to the
    #: solver verdict that certifies it ("sat" = the claimed object
    #: exists, "unsat" = no violation exists in the bounded ranges).
    claim_expectations: Dict[str, str] = {}

    #: Upper bound on the congestion-avoidance window increase over one
    #: RTT (packets) — the DES engine's loss-model bound the
    #: ``cwnd-bounds`` claim certifies.
    max_increase_per_rtt: float = 1.0

    #: Upper bound on the multiplicative decrease applied on one loss
    #: event (the DES floors the window at ``min_cwnd`` below).
    max_decrease_factor: float = 0.5

    #: Window floor, 1 MSS as in ``MultipathController.min_cwnd``.
    min_cwnd: float = 1.0

    # -- equilibrium ---------------------------------------------------------
    def fixed_point_constraints(self, paths, x, tag: str = "fp"
                                ) -> List[object]:
        """Constraints making ``x`` this algorithm's fixed point.

        Parameters
        ----------
        paths : repro.verify.encoding.PathVars
            Per-route loss/RTT/TCP-rate variables (one user's routes).
        x : list of z3 reals
            The per-route rate variables to constrain.
        tag : str
            Prefix for auxiliary variables (tie booleans, sqrt
            witnesses) so two independent copies of the conditions can
            coexist in one solver — the uniqueness claim needs exactly
            that.
        """
        raise NotImplementedError

    # -- window dynamics (two-path abstraction) ------------------------------
    def per_rtt_increase(self, w, v, rtt, rtt2, constraints, tag="step"):
        """Window growth over one RTT on the modeled path (z3 expr).

        ``w`` is the modeled path's window, ``v`` the peer path's
        (adversarially chosen by the solver; ignored by single-path
        models), ``rtt``/``rtt2`` the respective round-trip times.
        Models that need fresh auxiliary variables (e.g. OLIA's
        ``alpha`` term, whose sign depends on the inter-loss history
        the two-window abstraction does not carry) create them with
        ``tag`` in the name and append their defining/range
        constraints to ``constraints``.
        """
        raise NotImplementedError

    def loss_decrease_factor(self, w, v, rtt, rtt2):
        """Fractional window decrease applied on a loss (z3 expr).

        TCP halving by default; BALIA overrides with its rate-dependent
        ``min(a_r, 3/2)/2``, which is why the peer window and both RTTs
        are in the signature.
        """
        z3mod = require_z3()
        return z3mod.RealVal("1/2")

    def supports_claim(self, claim: str) -> bool:
        return claim in self.claim_expectations
