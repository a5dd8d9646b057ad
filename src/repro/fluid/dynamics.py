"""Fluid rate dynamics ``dx/dt`` for TCP, LIA, OLIA and baselines.

These are the differential equations of Section V-A, obtained from the
per-ACK window updates by replacing stochastic variations with their
expectation.  With ``x_r = w_r / rtt_r``:

* TCP (Reno, one route):   ``dx/dt = 1/rtt^2 - p x^2 / 2``
* LIA (Eq. 1):             ``dx_r/dt = (x_r/rtt_r) * min(max_i(x_i/rtt_i) /
  (sum_i x_i)^2, 1/(x_r rtt_r)) - p_r x_r^2 / 2``
* OLIA (Eq. 7):            ``dx_r/dt = x_r^2 (1/(rtt_r^2 (sum_p x_p)^2)
  - p_r/2) + alpha_r / rtt_r^2``

OLIA's ``alpha_r`` follows Eq. (6) with the inter-loss distance
approximated by its mean ``l_r = 1/p_r``: the set ``B`` of best paths
maximizes ``1/(p_r rtt_r^2)`` and the set ``M`` maximizes the window
``x_r rtt_r``.  The sets are computed with a relative tolerance; a strictly
positive tolerance yields a selection of the differential inclusion
(Eqs. 8-9) in which near-ties share the alpha mass, avoiding chattering.

Every derivative is written against the *last axis* of its inputs, so the
same code serves the classic 1-D per-user call (``(n_routes,)`` vectors)
and the batched integrator's ``(K, n_routes)`` matrices, where K sweep
points advance in lock-step.  All reductions (``sum``, ``max``) happen
along ``axis=-1``, which keeps a batched row bitwise-identical to the
corresponding 1-D computation.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-12


# The derivatives run thousands of times per trajectory on small arrays,
# where numpy's np.sum/np.max convenience wrappers cost more than the
# reductions themselves; the ufunc .reduce methods below perform the
# identical reduction without the wrapper overhead.
_sum = np.add.reduce
_rowmax = np.maximum.reduce


def _argmax_mask(scores: np.ndarray, rel_tol: float) -> np.ndarray:
    """Boolean mask of entries within ``rel_tol`` (relative) of the row max.

    Rows whose maximum is non-positive select every entry, mirroring the
    historical set-based helper.  Works along the last axis.
    """
    best = _rowmax(scores, axis=-1, keepdims=True)
    mask = scores >= best * (1.0 - rel_tol)
    mask |= best <= 0
    return mask


class FluidAlgorithm:
    """Rate derivative of one user's routes under a given algorithm."""

    name = "base"

    #: True when the derivative of each route depends only on that
    #: route's own (x, p, rtt) — no per-user reductions — so the routes
    #: of many users can be evaluated in a single call.
    elementwise = False

    def derivative(self, x: np.ndarray, p: np.ndarray,
                   rtt: np.ndarray) -> np.ndarray:
        """``dx/dt`` for this user's routes.

        Parameters are per-route arrays restricted to the user's routes:
        current rates ``x`` (pkt/s), loss probabilities ``p``, RTTs
        ``rtt``.  Shapes are ``(n_routes,)`` or batched
        ``(K, n_routes)``; routes live on the last axis.
        """
        raise NotImplementedError


class TcpFluid(FluidAlgorithm):
    """Regular TCP on each route independently (uncoupled multipath)."""

    name = "tcp"
    elementwise = True

    def derivative(self, x, p, rtt):
        return 1.0 / (rtt * rtt) - p * x * x / 2.0


class LiaFluid(FluidAlgorithm):
    """MPTCP's linked-increases algorithm (fluid version of Eq. 1)."""

    name = "lia"

    def derivative(self, x, p, rtt):
        x = np.asarray(x, dtype=float)
        total = _sum(x, axis=-1, keepdims=True)
        safe_total = np.maximum(total, _EPS)
        coupled = _rowmax(x / rtt, axis=-1, keepdims=True) \
            / (safe_total * safe_total)
        cap = 1.0 / np.maximum(x * rtt, _EPS)
        increase = x * np.minimum(coupled, cap) / rtt
        dx = increase - p * x * x / 2.0
        return np.where(total <= _EPS, 1.0 / (rtt * rtt), dx)


class OliaFluid(FluidAlgorithm):
    """OLIA (fluid version of Eqs. 5-7 with ``l_r ~= 1/p_r``)."""

    name = "olia"

    def __init__(self, tie_tolerance: float = 1e-3) -> None:
        if tie_tolerance < 0:
            raise ValueError("tie_tolerance must be non-negative")
        self.tie_tolerance = tie_tolerance

    def alphas(self, x: np.ndarray, p: np.ndarray,
               rtt: np.ndarray) -> np.ndarray:
        """``alpha_r`` of Eq. (6) with ``l_r = 1/p_r`` (last-axis batched)."""
        x = np.asarray(x, dtype=float)
        n_paths = x.shape[-1]
        windows = x * rtt
        best_scores = 1.0 / (np.maximum(p, _EPS) * rtt * rtt)
        max_mask = _argmax_mask(windows, self.tie_tolerance)
        best_mask = _argmax_mask(best_scores, self.tie_tolerance)
        best_not_max = best_mask & ~max_mask
        n_best_not_max = np.count_nonzero(best_not_max, axis=-1,
                                          keepdims=True)
        n_max = np.count_nonzero(max_mask, axis=-1, keepdims=True)
        has_transfer = n_best_not_max > 0
        gain = (1.0 / n_paths) / np.maximum(n_best_not_max, 1)
        pain = -(1.0 / n_paths) / np.maximum(n_max, 1)
        alphas = np.where(best_not_max, gain, 0.0)
        alphas = np.where(max_mask, pain, alphas)
        return np.where(has_transfer, alphas, 0.0)

    def derivative(self, x, p, rtt):
        x = np.asarray(x, dtype=float)
        total = _sum(x, axis=-1, keepdims=True)
        safe_total = np.maximum(total, _EPS)
        kelly_voice = x * x * (
            1.0 / (rtt * rtt * safe_total * safe_total) - p / 2.0)
        dx = kelly_voice + self.alphas(x, p, rtt) / (rtt * rtt)
        return np.where(total <= _EPS, 1.0 / (rtt * rtt), dx)


class CoupledFluid(OliaFluid):
    """Fully coupled Kelly-Voice dynamics: OLIA without the alpha term."""

    name = "coupled"

    def alphas(self, x, p, rtt):
        return np.zeros(np.shape(x))


class EwtcpFluid(FluidAlgorithm):
    """Equally-weighted TCP: weight ``1/n^2`` per subflow."""

    name = "ewtcp"

    def derivative(self, x, p, rtt):
        x = np.asarray(x, dtype=float)
        n_paths = x.shape[-1]
        weight = 1.0 / (n_paths * n_paths)
        return weight / (rtt * rtt) - p * x * x / 2.0
