"""Queueing disciplines: drop-tail and RED (the testbed's configuration).

The paper's testbed routers use RED with ``min_th = 25``, ``max_th = 50``,
``p_max = 0.1`` and a *gentle* region where the drop probability rises
linearly from ``p_max`` at ``max_th`` to 1 at ``2 max_th``, with a hard
queue limit of 300 packets — all per 10 Mbps of link capacity, scaled
proportionally for other capacities.  The htsim experiments of Section
VI-B use plain drop-tail queues; both are provided.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Optional

from .packet import Packet


class DropTailQueue:
    """FIFO queue with a hard limit in packets."""

    __slots__ = ("limit", "_items")

    def __init__(self, limit: int = 100) -> None:
        if limit < 1:
            raise ValueError("queue limit must be at least 1 packet")
        self.limit = limit
        self._items: Deque[Packet] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def try_enqueue(self, packet: Packet) -> bool:
        """Accept or drop ``packet``; True when accepted."""
        if len(self._items) >= self.limit:
            return False
        self._items.append(packet)
        return True

    def dequeue(self) -> Optional[Packet]:
        """Next packet to transmit, or None when empty."""
        if self._items:
            return self._items.popleft()
        return None


class REDQueue(DropTailQueue):
    """Random Early Detection with a gentle region (paper parameters).

    The drop probability is computed from an exponentially averaged queue
    occupancy (weight 1.0 = instantaneous, as the paper's description
    uses plain queue size):

    * below ``min_th``: never drop;
    * ``min_th``..``max_th``: linear 0 -> ``p_max``;
    * ``max_th``..``2 max_th``: linear ``p_max`` -> 1 (gentle mode);
    * above ``2 max_th`` or at the hard ``limit``: always drop.
    """

    __slots__ = ("rng", "min_th", "max_th", "p_max", "ewma_weight", "avg")

    def __init__(self, rng: random.Random, min_th: float = 25.0,
                 max_th: float = 50.0, p_max: float = 0.1,
                 limit: int = 300, ewma_weight: float = 1.0) -> None:
        super().__init__(limit=limit)
        if not 0 < min_th < max_th:
            raise ValueError("need 0 < min_th < max_th")
        if not 0 < p_max <= 1:
            raise ValueError("need 0 < p_max <= 1")
        if not 0 < ewma_weight <= 1:
            raise ValueError("need 0 < ewma_weight <= 1")
        self.rng = rng
        self.min_th = min_th
        self.max_th = max_th
        self.p_max = p_max
        self.ewma_weight = ewma_weight
        self.avg = 0.0

    @classmethod
    def for_capacity_mbps(cls, rng: random.Random, capacity_mbps: float,
                          ewma_weight: float = 1.0) -> "REDQueue":
        """RED queue with the paper's thresholds scaled to the capacity.

        The paper configures min_th=25/max_th=50/limit=300 for 10 Mbps
        and scales proportionally; thresholds are floored so very slow
        links still mark sensibly.
        """
        scale = max(capacity_mbps / 10.0, 0.1)
        return cls(rng,
                   min_th=max(25.0 * scale, 5.0),
                   max_th=max(50.0 * scale, 10.0),
                   limit=max(int(300 * scale), 30),
                   ewma_weight=ewma_weight)

    def drop_probability(self) -> float:
        """Current RED drop probability given the averaged occupancy."""
        avg = self.avg
        if avg < self.min_th:
            return 0.0
        if avg < self.max_th:
            frac = (avg - self.min_th) / (self.max_th - self.min_th)
            return self.p_max * frac
        gentle_top = 2.0 * self.max_th
        if avg < gentle_top:
            frac = (avg - self.max_th) / (gentle_top - self.max_th)
            return self.p_max + (1.0 - self.p_max) * frac
        return 1.0

    def try_enqueue(self, packet: Packet) -> bool:
        occupancy = len(self._items)
        self.avg += self.ewma_weight * (occupancy - self.avg)
        if occupancy >= self.limit:
            return False
        if self.drop_probability() > self.rng.random():
            return False
        self._items.append(packet)
        return True
