"""Euler integration of the fluid dynamics, with probing-rate floor.

The congestion windows of real window-based protocols never drop below
1 MSS, so each established route always carries at least one packet per
RTT.  The integrator mirrors this with a projection ``x_r >= floor_r``
(``floor_packets / rtt_r``); setting ``floor_packets = 0`` recovers the
idealised fluid model of the theorems.

The right-hand side of OLIA's dynamics is discontinuous (the sets ``M``
and ``B`` jump); the explicit Euler scheme with a small step behaves like
a sliding-mode integration whose averaged trajectory follows the
differential inclusion (Eqs. 8-9).

Batching: :class:`BatchFluidIntegrator` stacks K sweep points (K
topologically-identical networks) into a single ``(K, n_routes)`` state
matrix and advances them all in one vectorized Euler update, so the
per-step Python overhead is paid once instead of K times.  The classic
1-D :func:`integrate` is a thin K=1 wrapper around it; because every
operation works row-wise along the last axis, a batched row is
bitwise-identical to the corresponding sequential integration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .dynamics import FluidAlgorithm
from .network import BatchFluidNetwork, FluidNetwork


@dataclass
class FluidTrajectory:
    """Recorded trajectory of route rates over time."""

    network: FluidNetwork
    times: np.ndarray
    rates: np.ndarray  # shape (n_samples, n_routes)

    @property
    def final_rates(self) -> np.ndarray:
        """Route rates at the last recorded instant."""
        return self.rates[-1]

    def user_totals(self) -> np.ndarray:
        """Per-user total rates over time, shape (n_samples, n_users)."""
        totals = np.zeros((self.rates.shape[0], self.network.n_users))
        users = np.asarray(self.network.user_of_route, dtype=int)
        np.add.at(totals, (slice(None), users), self.rates)
        return totals

    def tail_average(self, fraction: float = 0.25) -> np.ndarray:
        """Time-average of the last ``fraction`` of the trajectory.

        OLIA's alpha term makes trajectories oscillate around the
        equilibrium; averaging the tail gives the fixed point the
        differential inclusion converges to.
        """
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        start = int(self.rates.shape[0] * (1.0 - fraction))
        return self.rates[start:].mean(axis=0)

    def settling_time(self, rel_tol: float = 0.05) -> float:
        """Earliest time after which every rate stays within ``rel_tol``
        (relative to the rate scale) of its final value.

        This is the responsiveness metric used by the convergence
        experiments: a smaller settling time means the algorithm adapts
        faster after a change in path quality.  Returns ``inf`` when the
        trajectory has not settled by its end.
        """
        final = self.tail_average(fraction=0.1)
        scale = max(float(np.max(final)), 1e-9)
        within = np.all(np.abs(self.rates - final) <= rel_tol * scale,
                        axis=1)
        outside = np.where(~within)[0]
        if len(outside) == 0:
            return float(self.times[0])
        last_bad = int(outside[-1])
        if last_bad + 1 >= len(self.times):
            return float("inf")
        return float(self.times[last_bad + 1])


@dataclass
class BatchFluidTrajectory:
    """Trajectories of K batched sweep points, advanced in lock-step."""

    batch_network: BatchFluidNetwork
    times: np.ndarray
    rates: np.ndarray  # shape (n_samples, K, n_routes)

    @property
    def n_points(self) -> int:
        return self.rates.shape[1]

    @property
    def final_rates(self) -> np.ndarray:
        """Route rates at the last recorded instant, shape (K, n_routes)."""
        return self.rates[-1]

    def trajectory(self, point: int) -> FluidTrajectory:
        """The classic 1-D trajectory of one sweep point (a view)."""
        return FluidTrajectory(network=self.batch_network.networks[point],
                               times=self.times,
                               rates=self.rates[:, point, :])

    def trajectories(self) -> List[FluidTrajectory]:
        """All K per-point trajectories."""
        return [self.trajectory(k) for k in range(self.n_points)]

    def tail_average(self, fraction: float = 0.25) -> np.ndarray:
        """Tail time-average per point, shape (K, n_routes)."""
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        start = int(self.rates.shape[0] * (1.0 - fraction))
        return self.rates[start:].mean(axis=0)


def _resolve_algorithms(n_users: int, algorithms) -> List[FluidAlgorithm]:
    """Normalise the ``algorithms`` argument to one instance per user.

    Accepts algorithm names, :class:`~repro.core.registry.AlgorithmSpec`
    instances, or :class:`FluidAlgorithm` instances (per user or
    shared); names/specs resolve through the cross-layer registry.
    """
    from ..core.registry import AlgorithmSpec, make_fluid_algorithm
    if isinstance(algorithms, (str, FluidAlgorithm, AlgorithmSpec)):
        algorithms = {user: algorithms for user in range(n_users)}
    resolved = []
    for user in range(n_users):
        algo = algorithms[user]
        if isinstance(algo, (str, AlgorithmSpec)):
            algo = make_fluid_algorithm(algo)
        resolved.append(algo)
    return resolved


class BatchFluidIntegrator:
    """Vectorized Euler integration of K stacked sweep points.

    ``networks`` is either a :class:`BatchFluidNetwork` or a sequence of
    topologically-identical :class:`FluidNetwork` instances; ``algorithms``
    is a single algorithm (name or instance) or a ``user -> algorithm``
    mapping shared by every point.  The state is a ``(K, n_routes)``
    matrix and each Euler step costs one pass of numpy work regardless
    of K.
    """

    def __init__(self, networks, algorithms, *,
                 dt: float = 1e-3,
                 floor_packets: float = 1.0,
                 record_every: int = 10) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        if record_every < 1:
            raise ValueError("record_every must be >= 1")
        self.batch_network = (networks if isinstance(networks,
                                                     BatchFluidNetwork)
                              else BatchFluidNetwork(networks))
        self.per_user = _resolve_algorithms(self.batch_network.n_users,
                                            algorithms)
        self.dt = dt
        self.record_every = record_every
        self.rtts = self.batch_network.rtts  # (K, n_routes)
        self.floor = (floor_packets / self.rtts if floor_packets > 0
                      else np.zeros_like(self.rtts))
        self._plan = self._build_plan()

    @staticmethod
    def _columns(routes: List[int]):
        """Column selector for a route-id list: a basic slice when the
        ids are consecutive (selects views, no copy), else an index
        array."""
        if routes == list(range(routes[0], routes[0] + len(routes))):
            return slice(routes[0], routes[0] + len(routes))
        return np.asarray(routes, dtype=int)

    def _build_plan(self) -> List[tuple]:
        """Derivative execution plan: users grouped so the number of
        derivative calls per step is (nearly) independent of n_users.

        Two groupings, neither of which changes a single bit of the
        result:

        * users whose algorithm is *elementwise* (no per-user reductions;
          see :attr:`FluidAlgorithm.elementwise`) and identical in type
          and parameters merge into one flat entry — the plain-TCP
          competitor crowds of the scenario networks evaluate in a
          single call;
        * coupled users with the same algorithm (type and parameters)
          and the same route count stack into a ``(U, m)`` index matrix:
          selecting those columns yields a ``(K, U, m)`` tensor, and
          every derivative reduces along ``axis=-1``, i.e. row by row,
          exactly as it would per user.
        """
        groups: dict = {}
        order: List[tuple] = []
        for user, algo in enumerate(self.per_user):
            routes = self.batch_network.routes_of_user[user]
            if not routes:      # routeless users contribute nothing
                continue
            try:
                key = (type(algo), tuple(sorted(vars(algo).items())),
                       None if algo.elementwise else len(routes))
            except TypeError:   # unhashable algorithm state: no grouping
                key = (id(algo), user)
            if key not in groups:
                groups[key] = (algo, [])
                order.append(key)
            groups[key][1].append(list(routes))

        plan: List[tuple] = []
        for key in order:
            algo, route_lists = groups[key]
            if algo.elementwise:
                flat = sorted(route
                              for routes in route_lists for route in routes)
                plan.append((self._columns(flat), algo))
            elif len(route_lists) == 1:
                plan.append((self._columns(route_lists[0]), algo))
            else:
                plan.append((np.asarray(route_lists, dtype=int), algo))
        return plan

    def initial_state(self, x0: np.ndarray | None = None) -> np.ndarray:
        """The clamped ``(K, n_routes)`` start state."""
        if x0 is None:
            return np.maximum(self.floor.copy(), 1.0 / self.rtts)
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != self.rtts.shape:
            raise ValueError(
                f"x0 must have shape {self.rtts.shape}, got {x0.shape}")
        return np.maximum(x0.copy(), self.floor)

    def run(self, t_end: float,
            x0: np.ndarray | None = None) -> BatchFluidTrajectory:
        """Integrate all K points for ``t_end`` seconds from ``x0``."""
        if t_end <= 0:
            raise ValueError("t_end must be positive")
        dt = self.dt
        x = self.initial_state(x0)
        n_steps = int(round(t_end / dt))
        times: List[float] = [0.0]
        samples: List[np.ndarray] = [x.copy()]
        network = self.batch_network
        floor = self.floor
        rtts = self.rtts

        route_loss_probs = network.route_loss_probs
        plan = self._plan
        # Every route belongs to exactly one plan entry, so each step
        # overwrites all of dx and the buffer can be reused across steps.
        dx = np.empty_like(x)
        for step in range(1, n_steps + 1):
            p_routes = route_loss_probs(x)
            for idx, algo in plan:
                dx[..., idx] = algo.derivative(x[..., idx],
                                               p_routes[..., idx],
                                               rtts[..., idx])
            x = np.maximum(x + dt * dx, floor)
            if step % self.record_every == 0 or step == n_steps:
                times.append(step * dt)
                samples.append(x.copy())

        return BatchFluidTrajectory(batch_network=network,
                                    times=np.asarray(times),
                                    rates=np.stack(samples))


def integrate_batch(networks, algorithms, *,
                    t_end: float, dt: float = 1e-3,
                    x0: np.ndarray | None = None,
                    floor_packets: float = 1.0,
                    record_every: int = 10) -> BatchFluidTrajectory:
    """One-shot batched integration of K sweep points (see
    :class:`BatchFluidIntegrator`)."""
    integrator = BatchFluidIntegrator(networks, algorithms, dt=dt,
                                      floor_packets=floor_packets,
                                      record_every=record_every)
    return integrator.run(t_end, x0=x0)


def integrate(network: FluidNetwork, algorithms, *,
              t_end: float, dt: float = 1e-3,
              x0: np.ndarray | None = None,
              floor_packets: float = 1.0,
              record_every: int = 10) -> FluidTrajectory:
    """Integrate the fluid dynamics from ``x0`` for ``t_end`` seconds.

    A thin K=1 wrapper over :class:`BatchFluidIntegrator`, so sequential
    and batched sweeps share one code path (and produce bitwise-equal
    trajectories).

    Parameters
    ----------
    algorithms:
        Either a single algorithm (name or instance) used by every user, or
        a mapping ``user id -> algorithm``.
    floor_packets:
        Minimum window in packets; route rates are clamped to
        ``floor_packets / rtt_r`` (probing traffic).  Use 0 to disable.
    record_every:
        Record one sample every this many Euler steps.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    batch = integrate_batch(
        [network], algorithms, t_end=t_end, dt=dt,
        x0=None if x0 is None else np.asarray(x0, dtype=float)[None, :],
        floor_packets=floor_packets, record_every=record_every)
    return batch.trajectory(0)


def integrate_to_equilibrium(network: FluidNetwork, algorithms, *,
                             dt: float = 1e-3, chunk: float = 5.0,
                             max_time: float = 500.0, rel_tol: float = 1e-4,
                             floor_packets: float = 1.0,
                             x0: np.ndarray | None = None) -> FluidTrajectory:
    """Integrate in chunks until the tail-averaged rates stop moving.

    Convergence is declared when the tail averages of two consecutive
    chunks differ by less than ``rel_tol`` relative to the rate scale.
    Returns the trajectory of the final chunk.
    """
    previous = None
    x_start = x0
    elapsed = 0.0
    trajectory = None
    while elapsed < max_time:
        trajectory = integrate(network, algorithms, t_end=chunk, dt=dt,
                               x0=x_start, floor_packets=floor_packets)
        current = trajectory.tail_average()
        if previous is not None:
            scale = max(float(np.max(np.abs(current))), 1e-9)
            if float(np.max(np.abs(current - previous))) < rel_tol * scale:
                return trajectory
        previous = current
        x_start = trajectory.final_rates
        elapsed += chunk
    return trajectory
