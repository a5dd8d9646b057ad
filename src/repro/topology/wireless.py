"""Time-varying (LTE/WiFi-like) link dynamics and handover events.

The paper's testbed links are wired and constant; the wireless scenario
families the roadmap opens up need links whose capacity and delay wander
over time and occasionally black out while the device switches cells.
This module drives an ordinary :class:`~repro.sim.link.Link` — whose
``rate_bps``/``delay`` are mutable mid-run and whose propagation pipe
stays FIFO under shrinking delays — from one rearmable
:class:`~repro.sim.engine.Timer` per process, with every random draw
coming from a private seeded generator so runs stay reproducible.

Two processes, both Poisson-clocked:

* **fading**: at mean ``change_interval`` the capacity takes a
  multiplicative log-normal step (clamped into ``rate_range``) and the
  propagation delay is re-jittered around its base value — the
  coarse-grained shape of LTE rate traces;
* **handover**: at mean ``handover_interval`` the link collapses to
  :data:`OUTAGE_RATE_BPS` for ``handover_outage`` seconds, then comes
  back with a fresh uniform capacity draw (a new cell).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Tuple

from ..sim.engine import Simulator
from ..sim.link import Link

__all__ = ["LinkDynamics", "TimeVaryingLink", "OUTAGE_RATE_BPS"]

#: Residual capacity during a handover outage: effectively stalled, but
#: the link object stays valid (rates must be positive).
OUTAGE_RATE_BPS = 1e4


@dataclass(frozen=True)
class LinkDynamics:
    """How one wireless link's service varies over time.

    Attributes
    ----------
    rate_range : (float, float)
        Bounds (bits/s) the capacity random walk is clamped into; also
        the redraw range after a handover.
    change_interval : float
        Mean seconds between fading steps (exponential gaps).
    rate_sigma : float
        Standard deviation of the log-normal multiplicative capacity
        step.  ``0`` freezes the capacity (delay may still jitter).
    delay_jitter : float
        Fractional jitter applied to the base propagation delay at each
        fading step: the delay is redrawn uniformly in
        ``base * [1 - delay_jitter, 1 + delay_jitter]``.
    loss_rate : float
        Channel (non-congestion) loss probability the scenario builder
        configures on the link itself; kept here so one object fully
        describes a family's radio model.
    handover_interval : float
        Mean seconds between handovers (``0`` disables them).
    handover_outage : float
        Outage duration of each handover, seconds.
    """

    rate_range: Tuple[float, float]
    change_interval: float = 0.25
    rate_sigma: float = 0.3
    delay_jitter: float = 0.2
    loss_rate: float = 0.0
    handover_interval: float = 0.0
    handover_outage: float = 0.05

    def __post_init__(self) -> None:
        low, high = self.rate_range
        if not 0 < low <= high:
            raise ValueError(f"bad rate_range {self.rate_range}")
        if self.change_interval <= 0:
            raise ValueError("change_interval must be positive")
        if self.rate_sigma < 0:
            raise ValueError("rate_sigma cannot be negative")
        if not 0.0 <= self.delay_jitter < 1.0:
            raise ValueError("delay_jitter must be in [0, 1)")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.handover_interval < 0:
            raise ValueError("handover_interval cannot be negative")
        if self.handover_interval > 0 and self.handover_outage <= 0:
            raise ValueError("handovers need a positive outage duration")


class TimeVaryingLink:
    """Drives one link's rate/delay from seeded fading + handover clocks.

    The driver owns a private :class:`random.Random` so the sequence of
    capacity/delay values is a pure function of ``(dynamics, seed)`` —
    independent of event interleaving with other links or flows.
    """

    def __init__(self, sim: Simulator, link: Link,
                 dynamics: LinkDynamics, seed: int) -> None:
        self.sim = sim
        self.link = link
        self.dynamics = dynamics
        self.rng = random.Random(seed)
        self.base_delay = link.delay
        self.changes = 0
        self.handovers = 0
        self._running = False
        self._in_outage = False
        self._step_timer = sim.timer(self._step)
        self._handover_timer = sim.timer(self._handover)

    # -- lifecycle --------------------------------------------------------------
    def start(self, at: Optional[float] = None) -> None:
        """Arm the fading/handover clocks from time ``at`` (default now)."""
        self._running = True
        base = self.sim.clock.now if at is None else at
        d = self.dynamics
        if d.rate_sigma > 0 or d.delay_jitter > 0:
            self._step_timer.arm_at(base + self._gap(d.change_interval))
        if d.handover_interval > 0:
            self._handover_timer.arm_at(
                base + self._gap(d.handover_interval))

    def stop(self) -> None:
        """Freeze the link at its current state."""
        self._running = False
        self._step_timer.cancel()
        self._handover_timer.cancel()

    def _gap(self, mean: float) -> float:
        return self.rng.expovariate(1.0 / mean)

    # -- fading -----------------------------------------------------------------
    def _step(self) -> None:
        if not self._running:
            return
        d = self.dynamics
        if not self._in_outage:
            if d.rate_sigma > 0:
                low, high = d.rate_range
                rate = self.link.rate_bps * math.exp(
                    self.rng.gauss(0.0, d.rate_sigma))
                self.link.rate_bps = min(max(rate, low), high)
            if d.delay_jitter > 0:
                factor = 1.0 + self.rng.uniform(-d.delay_jitter,
                                                d.delay_jitter)
                self.link.delay = self.base_delay * factor
            self.changes += 1
        self._step_timer.arm(self._gap(d.change_interval))

    # -- handover ---------------------------------------------------------------
    def _handover(self) -> None:
        if not self._running or self._in_outage:
            return
        d = self.dynamics
        self.handovers += 1
        self._in_outage = True
        self.link.rate_bps = OUTAGE_RATE_BPS
        self.sim.schedule(d.handover_outage, self._reattach)

    def _reattach(self) -> None:
        """Outage over: come back on a fresh cell."""
        self._in_outage = False
        if not self._running:
            return
        d = self.dynamics
        low, high = d.rate_range
        self.link.rate_bps = self.rng.uniform(low, high)
        if d.delay_jitter > 0:
            factor = 1.0 + self.rng.uniform(-d.delay_jitter,
                                            d.delay_jitter)
            self.link.delay = self.base_delay * factor
        self._handover_timer.arm(self._gap(d.handover_interval))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TimeVaryingLink({self.link.name}, "
                f"changes={self.changes}, handovers={self.handovers})")
