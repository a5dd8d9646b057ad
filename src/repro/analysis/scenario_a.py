"""Closed-form analysis of Scenario A (Section III-A, Appendix A).

N1 *type1* users each have a private high-speed AP and download from a
streaming server whose access link has capacity ``N1*C1``; they may open a
second MPTCP subflow through a shared AP of capacity ``N2*C2``, which also
serves N2 single-path *type2* users.  All RTTs are equal.

With LIA, writing ``z = sqrt(p1/p2)``, the capacity constraints and the
LIA fixed point (Eq. 2) give Eq. (10)::

    z + (N1/N2) * z^2 / (1 + 2 z^2) = C2 / C1

Type1 users always obtain ``C1`` (their bottleneck is the server), so
upgrading them to MPTCP brings them nothing, while type2 users drop to
``y = z * C1`` — problem P1.

The *theoretical optimum with probing cost* sends one packet per RTT on
the shared AP: ``y = C2 - (N1/N2)/rtt``; OLIA achieves this by Theorem 1.

All capacities are per-user values in packets/s; rates returned are
per-user packets/s.
"""

from __future__ import annotations

from dataclasses import dataclass

from .roots import bisect_increasing
from .tcp import loss_for_rate


@dataclass
class ScenarioAResult:
    """Per-user rates and loss probabilities for one scenario A setting."""

    n1: int
    n2: int
    c1: float
    c2: float
    rtt: float
    x1: float           # type1 rate over the private AP
    x2: float           # type1 rate over the shared AP
    y: float            # type2 rate
    p1: float           # loss probability at the server access link
    p2: float           # loss probability at the shared AP

    @property
    def type1_normalized(self) -> float:
        """Normalized type1 throughput ``(x1+x2)/C1``."""
        return (self.x1 + self.x2) / self.c1

    @property
    def type2_normalized(self) -> float:
        """Normalized type2 throughput ``y/C2``."""
        return self.y / self.c2


def lia_fixed_point(n1: int, n2: int, c1: float, c2: float,
                    rtt: float) -> ScenarioAResult:
    """LIA equilibrium of scenario A via Eq. (10).

    Returns per-user rates; only the ratios ``C1/C2`` and ``N1/N2``
    determine the normalized throughputs, but absolute values fix the
    loss probabilities.
    """
    _validate(n1, n2, c1, c2, rtt)
    ratio_users = n1 / n2
    target = c2 / c1

    def eq10(z: float) -> float:
        return z + ratio_users * z * z / (1.0 + 2.0 * z * z) - target

    # eq10 is increasing in z; bracket generously.
    z = bisect_increasing(eq10, 1e-12, max(10.0 * target, 10.0))
    p1 = loss_for_rate(c1, rtt)      # C1 = sqrt(2/p1)/rtt
    p2 = p1 / (z * z)
    x2 = c1 * z * z / (2.0 * z * z + 1.0)   # x2 = C1 / (2 + p2/p1)
    x1 = c1 - x2
    y = z * c1
    return ScenarioAResult(n1=n1, n2=n2, c1=c1, c2=c2, rtt=rtt,
                           x1=x1, x2=x2, y=y, p1=p1, p2=p2)


def optimum_with_probing(n1: int, n2: int, c1: float, c2: float,
                         rtt: float) -> ScenarioAResult:
    """Theoretical optimum with probing cost (Appendix A.2).

    The shared AP cannot help type1 users, so an optimal window-based
    algorithm parks the second subflow at the 1-packet-per-RTT floor.
    """
    _validate(n1, n2, c1, c2, rtt)
    probe = 1.0 / rtt
    x2 = probe
    # The type1 total remains capped at C1 by the server access link.
    x1 = max(c1 - x2, 0.0)
    y = c2 - (n1 / n2) * probe
    if y <= 0:
        raise ValueError(
            "probing traffic alone saturates the shared AP; "
            "increase c2*rtt or reduce n1/n2")
    p1 = loss_for_rate(c1, rtt)
    p2 = loss_for_rate(y, rtt)
    return ScenarioAResult(n1=n1, n2=n2, c1=c1, c2=c2, rtt=rtt,
                           x1=x1, x2=x2, y=y, p1=p1, p2=p2)


def olia_prediction(n1: int, n2: int, c1: float, c2: float,
                    rtt: float) -> ScenarioAResult:
    """OLIA's predicted equilibrium.

    By Theorem 1 OLIA uses only the best path.  A type1 user's shared-AP
    path crosses both the server link and the shared AP (loss
    ``p1 + p2 > p1``), so it is never best: OLIA sends only probing
    traffic there, matching the optimum with probing cost.
    """
    return optimum_with_probing(n1, n2, c1, c2, rtt)


def _validate(n1: int, n2: int, c1: float, c2: float, rtt: float) -> None:
    if n1 <= 0 or n2 <= 0:
        raise ValueError("user counts must be positive")
    if c1 <= 0 or c2 <= 0:
        raise ValueError("capacities must be positive")
    if rtt <= 0:
        raise ValueError("rtt must be positive")
