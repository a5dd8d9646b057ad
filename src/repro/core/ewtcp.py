"""EWTCP — equally-weighted TCP, a semi-coupled baseline.

Each subflow runs a weighted AIMD: per-ACK increase ``a / w_r`` with
``a = 1 / n^2`` for ``n`` subflows, halving on loss.  At equilibrium a
subflow achieves ``sqrt(a)`` times the rate of a regular TCP on its path,
so the aggregate over ``n`` subflows sharing one bottleneck equals one TCP
— fair at shared bottlenecks, but with no congestion balancing at all
(traffic does not move away from congested paths).

This is the "multipath congestion control for shared bottleneck" design of
Honda et al. (reference [20] of the paper), included as a baseline for the
ablation benches.
"""

from __future__ import annotations

from .base import MultipathController


class EwtcpController(MultipathController):
    """Weighted per-subflow AIMD; weight defaults to ``1/n^2``."""

    name = "ewtcp"

    def __init__(self, weight: float | None = None) -> None:
        super().__init__()
        if weight is not None and weight <= 0:
            raise ValueError("weight must be positive")
        self._weight = weight

    @property
    def weight(self) -> float:
        """Increase weight ``a`` (``1/n^2`` unless set explicitly)."""
        if self._weight is not None:
            return self._weight
        n_paths = max(len(self._subflows), 1)
        return 1.0 / (n_paths * n_paths)

    def increase_increment(self, key: int) -> float:
        weight = self._weight
        if weight is None:          # the ``weight`` property, inline
            n_paths = len(self._subflows)
            weight = 1.0 / (n_paths * n_paths)
        return weight / self._subflows[key].cwnd
