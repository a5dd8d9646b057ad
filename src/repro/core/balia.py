"""BALIA — the Balanced Linked Adaptation of Peng, Walid, Hwang & Low.

The algorithm from "Multipath TCP: Analysis, Design and Implementation"
(IEEE/ACM ToN 2016), designed inside the same utility framework this
paper's OLIA lives in and balancing the friendliness/responsiveness
trade-off between LIA and the fully coupled end of the spectrum.  With
``x_r = w_r / rtt_r`` and ``alpha_r = max_k x_k / x_r``:

* per ACK on path ``r``::

      w_r += (x_r / rtt_r) / (sum_k x_k)^2 * ((1 + a_r)/2) * ((4 + a_r)/5)

* per loss on path ``r``::

      w_r -= (w_r / 2) * min(a_r, 3/2)

On a single path ``a_r = 1`` and both rules collapse to TCP Reno
(increase ``1/w``, halve on loss) — BALIA is TCP-compatible by
construction.

This module is the registry's worked example of a **one-file
algorithm**: the packet controller, the fluid derivative and the
equilibrium allocation live side by side and :data:`SPEC` bundles them
into a single :class:`~repro.core.registry.AlgorithmSpec`, which is all
the rest of the repo (DES, sweeps, the scenario generator, the scale
harness, the consistency suite) needs to run BALIA everywhere.

Fluid model (expectation of the per-ACK updates, as for LIA/OLIA in
:mod:`repro.fluid.dynamics`)::

    dx_r/dt = (x_r + M)(4 x_r + M) / (10 rtt_r^2 S^2)
              - p_r x_r min(M, 1.5 x_r) / 2

with ``M = max_k x_k`` and ``S = sum_k x_k`` — the division-free form
of ``x_r^2 q(a_r) / (rtt_r^2 S^2) - p_r x_r^2 min(a_r, 1.5)/2`` where
``q(a) = ((1+a)/2)((4+a)/5)``.

Equilibrium: setting ``dx_r/dt = 0`` gives ``p_r rtt_r^2 S^2 =
F(a_r)`` with ``F(a) = (1+a)(4+a) / (5 min(a, 1.5))``.  The route
carrying the maximum rate has ``a = 1`` and ``F(1) = 2``, so the total
rate equals the single-path TCP rate on the *best* path (the one
maximizing ``sqrt(2/p_r)/rtt_r``) — the same design goal OLIA's
Theorem 1 expresses.  For the other routes ``c_r = p_r rtt_r^2 S^2 =
2 (t_b/t_r)^2 >= 2`` and inverting ``F`` on its increasing branch
(``a > 1.5``) yields the closed form ``a_r = (sqrt(9 + 30 c_r) - 5)/2``;
rates follow as ``x_r = S (1/a_r) / sum_k (1/a_k)``.  Unlike OLIA,
worse paths keep a *graded* share (``~ 1/a_r``) instead of dropping to
the probing floor — BALIA's balanced middle ground.
"""

from __future__ import annotations

import numpy as np

from ..fluid.dynamics import FluidAlgorithm, _rowmax, _sum
from ..verify.base import ConstraintModel
from ..verify.base import require_z3 as _require_z3
from ..verify.encoding import zmax as _zmax
from ..verify.encoding import zmin as _zmin
from .base import MultipathController
from .registry import AlgorithmSpec, ParamSpec

_EPS = 1e-12


class BaliaController(MultipathController):
    """Packet-level BALIA (per-ACK increase, min(a, 3/2)/2 decrease)."""

    name = "balia"

    def _rates(self):
        return {k: s.cwnd / s.rtt for k, s in self._subflows.items()}

    def _alpha(self, key: int, rates) -> float:
        return max(rates.values()) / max(rates[key], _EPS)

    def increase_increment(self, key: int) -> float:
        subflows = self._subflows
        total = peak = 0.0          # sum_k x_k, max_k x_k
        for s in subflows.values():
            rate = s.cwnd / s.rtt
            total += rate
            if rate > peak:
                peak = rate
        state = subflows[key]
        rate = state.cwnd / state.rtt
        alpha = peak / (rate if rate > _EPS else _EPS)
        total_sq = total * total
        kelly = (rate / state.rtt) / (total_sq if total_sq > _EPS else _EPS)
        return kelly * ((1.0 + alpha) / 2.0) * ((4.0 + alpha) / 5.0)

    def decrease_on_loss(self, key: int) -> float:
        """``w -= (w/2) min(a_r, 3/2)`` (TCP halving on a single path)."""
        state = self._subflows[key]
        alpha = self._alpha(key, self._rates())
        state.record_loss()
        decrease = min(alpha, 1.5) / 2.0
        state.cwnd = max(state.cwnd * (1.0 - decrease), self.min_cwnd)
        return state.cwnd


class BaliaFluid(FluidAlgorithm):
    """Fluid BALIA, written against the last axis like its siblings."""

    name = "balia"

    def derivative(self, x, p, rtt):
        x = np.asarray(x, dtype=float)
        total = _sum(x, axis=-1, keepdims=True)
        peak = _rowmax(x, axis=-1, keepdims=True)
        safe_total = np.maximum(total, _EPS)
        increase = ((x + peak) * (4.0 * x + peak) / 10.0) \
            / (rtt * rtt * safe_total * safe_total)
        decrease = p * x * np.minimum(peak, 1.5 * x) / 2.0
        return np.where(total <= _EPS, 1.0 / (rtt * rtt),
                        increase - decrease)


def balia_allocation(p, rtt, tie_tolerance: float = 1e-6) -> np.ndarray:
    """BALIA's fixed-point allocation (closed form, see module docs).

    Parameters
    ----------
    p, rtt : array_like, shape ``(..., n_routes)``
        Route loss probabilities and RTTs; routes live on the last
        axis, leading axes are independent sweep points.
    tie_tolerance : float
        Relative tolerance for counting a path as tied-best (tied
        paths take ``a_r = 1``, i.e. the balanced equilibrium).

    Returns
    -------
    ndarray, shape ``(..., n_routes)``
        Per-route rates; the total equals the TCP rate on the best
        path, worse paths keep a graded ``1/a_r`` share.
    """
    p = np.maximum(np.asarray(p, dtype=float), 1e-15)
    rtt = np.asarray(rtt, dtype=float)
    tcp_rates = np.sqrt(2.0 / p) / rtt
    best = np.max(tcp_rates, axis=-1, keepdims=True)
    best_set = tcp_rates >= best * (1.0 - tie_tolerance)
    # c_r = p_r rtt_r^2 S^2 with S = the best path's TCP rate; >= 2 by
    # construction (clamped against rounding), = 2 on tied-best paths.
    c = np.maximum(2.0 * (best / tcp_rates) ** 2, 2.0)
    alpha = np.where(best_set, 1.0, (np.sqrt(9.0 + 30.0 * c) - 5.0) / 2.0)
    weights = 1.0 / alpha
    return best * weights / np.sum(weights, axis=-1, keepdims=True)


def _balia_rule(tie_tolerance: float = 1e-6):
    return lambda p, rtt: balia_allocation(p, rtt,
                                           tie_tolerance=tie_tolerance)


class BaliaModel(ConstraintModel):
    """BALIA's fixed point and window dynamics as z3 constraints.

    The relational form of :func:`balia_allocation`, division-free via
    auxiliary variables:

    * tie booleans ``b_r ⇔ t_r ≥ best·(1 − tol)`` as in the closed
      form;
    * ``c_r``: ``c_r == 2`` on tied-best paths, else
      ``c_r · t_r² == 2 · best²`` (and ``c_r ≥ 2`` always);
    * ``a_r``: 1 on tied-best paths, else the increasing branch of
      ``F(a) = (1+a)(4+a)/(5·min(a, 3/2))`` inverted polynomially —
      ``(2a_r + 5)² == 9 + 30·c_r`` with ``a_r ≥ 1`` selecting the
      right root of the quadratic;
    * rates ``x_r · W == best · (1/a_r)`` with ``W = Σ_k 1/a_k``.

    Window dynamics (for the ``cwnd-bounds`` unrolling): per-RTT
    increase ``(x + M)(4x + M)/10 / S²`` with ``x = w/rtt``,
    ``M = max_k x_k``, ``S = Σ_k x_k`` — at most ``M²/S² ≤ 1`` packet
    — and loss decrease ``min(a_r, 3/2)/2 ≤ 3/4`` (hence the raised
    ``max_decrease_factor``).
    """

    name = "balia"
    claim_expectations = {
        "non-pareto": "sat",     # graded share keeps the two-hop path
        "uniqueness": "unsat",   # busy, so dominated equilibria exist
        "cwnd-bounds": "unsat",
    }
    max_increase_per_rtt = 1.0
    max_decrease_factor = 0.75

    def __init__(self, tie_tolerance: float = 1e-6) -> None:
        self.tie_tolerance = float(tie_tolerance)

    def fixed_point_constraints(self, paths, x, tag="fp"):
        z3 = _require_z3()
        constraints = []
        best = _zmax(paths.tcp)
        inverses = []
        for r, t in enumerate(paths.tcp):
            b = z3.Bool(f"{tag}_balia_best{r}")
            c = z3.Real(f"{tag}_balia_c{r}")
            a = z3.Real(f"{tag}_balia_a{r}")
            inv = z3.Real(f"{tag}_balia_inva{r}")
            constraints.append(
                b == (t >= best * (1 - self.tie_tolerance)))
            constraints.append(c >= 2)
            constraints.append(
                z3.If(b, c == 2, c * t * t == 2 * best * best))
            constraints.append(a >= 1)
            constraints.append(
                z3.If(b, a == 1,
                      (2 * a + 5) * (2 * a + 5) == 9 + 30 * c))
            constraints.append(inv > 0)
            constraints.append(inv * a == 1)
            inverses.append(inv)
        weight_sum = z3.Sum(inverses)
        for rate, inv in zip(x, inverses):
            constraints.append(rate >= 0)
            constraints.append(rate * weight_sum == best * inv)
        return constraints

    def per_rtt_increase(self, w, v, rtt, rtt2, constraints,
                         tag="step"):
        rate = w / rtt
        peer = v / rtt2
        peak = _zmax([rate, peer])
        total = rate + peer
        return ((rate + peak) * (4 * rate + peak) / 10) / (total * total)

    def loss_decrease_factor(self, w, v, rtt, rtt2):
        z3 = _require_z3()
        alpha = _zmax([w / rtt, v / rtt2]) * rtt / w
        return _zmin([alpha, z3.RealVal("3/2")]) / 2


#: The whole algorithm, one spec: this single registration is what
#: makes BALIA available to the DES, the fluid sweeps, the equilibrium
#: solver, the scenario generator, the scale harness — and the SMT
#: verification layer.
SPEC = AlgorithmSpec(
    name="balia",
    description="balanced linked adaptation (Peng-Walid-Hwang-Low)",
    controller_factory=BaliaController,
    fluid_factory=BaliaFluid,
    allocation_factory=_balia_rule,
    smt_factory=BaliaModel,
    params=(ParamSpec("tie_tolerance", "relative tolerance for tied-best "
                      "paths in the equilibrium allocation",
                      layers=("equilibrium", "smt")),),
)
