"""Shared plumbing for simulation experiments: warmup, measure, repeat.

The paper's testbed methodology runs each Iperf session for 120 s, lets
flows reach equilibrium, and reports averages over 5 runs with random
flow start order.  ``measure`` mirrors that: random staggered starts,
a warmup period excluded from every statistic, then a measurement
window over which goodputs and loss probabilities are averaged.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.engine import Simulator
from ..sim.link import Link
from ..sim.monitors import FlowMeter


@dataclass
class MeasureResult:
    """Goodputs (pkt/s) and per-link loss probabilities for one run."""

    goodput_pps: Dict[str, float]
    link_loss: Dict[str, float]
    link_utilization: Dict[str, float]
    duration: float

    def group_mean(self, prefix: str) -> float:
        """Mean goodput over flows whose name starts with ``prefix``."""
        values = [v for k, v in self.goodput_pps.items()
                  if k.startswith(prefix)]
        if not values:
            raise KeyError(f"no flows with prefix {prefix!r}")
        return sum(values) / len(values)


def staggered_starts(rng: random.Random, n_flows: int,
                     spread: float = 1.0) -> List[float]:
    """Random flow start times in ``[0, spread)`` (random Iperf order)."""
    return [rng.uniform(0.0, spread) for _ in range(n_flows)]


def measure(sim: Simulator, flows: Dict[str, object],
            links: Sequence[Link], *, warmup: float,
            duration: float) -> MeasureResult:
    """Run ``warmup`` then measure goodput/losses for ``duration``.

    ``flows`` maps names to objects with an ``acked_packets`` attribute;
    flows must already be started.
    """
    if warmup < 0 or duration <= 0:
        raise ValueError("need warmup >= 0 and duration > 0")
    if warmup >= duration:
        raise ValueError(
            f"warmup ({warmup}s) must be smaller than the measurement "
            f"duration ({duration}s) — a warmup at least as long as the "
            "window almost always means swapped or mis-scaled arguments "
            "and yields statistics over too few samples to mean anything")
    meter = FlowMeter(sim, flows)
    sim.run(until=sim.now + warmup)
    meter.reset()
    for link in links:
        link.stats.reset(sim.now)
    sim.run(until=sim.now + duration)
    return MeasureResult(
        goodput_pps=meter.goodput_pps(),
        link_loss={link.name: link.stats.loss_probability
                   for link in links},
        link_utilization={
            link.name: link.stats.utilization(sim.now, link.rate_bps)
            for link in links},
        duration=duration)


@dataclass(frozen=True)
class RunSpec:
    """Pure-function run descriptor: a picklable, hashable experiment point.

    A sweep point is fully described by a module-level callable, its
    keyword arguments (stored as a sorted tuple so two specs with the
    same content compare and hash equal) and an optional deterministic
    seed.  Because the description is pure data, points can be shipped to
    worker processes and their results cached by content hash.
    """

    fn: Callable[..., Any]
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    seed: Optional[int] = None

    @classmethod
    def make(cls, fn: Callable[..., Any], *, seed: Optional[int] = None,
             **kwargs: Any) -> "RunSpec":
        """Build a spec from a callable and plain keyword arguments."""
        if fn.__name__ == "<lambda>" or fn.__qualname__ != fn.__name__:
            raise ValueError(
                "RunSpec needs a module-level function (picklable by "
                f"reference); got {fn.__qualname__!r}")
        return cls(fn=fn, kwargs=tuple(sorted(kwargs.items())), seed=seed)

    def execute(self) -> Any:
        """Run the point in-process and return its result."""
        kwargs = dict(self.kwargs)
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return self.fn(**kwargs)

    def content_hash(self) -> str:
        """Stable digest of (function identity+bytecode, arguments, seed,
        source of the ``repro`` package).

        Used as the result-cache key.  Mixing in :func:`code_digest`
        invalidates cached results whenever any ``repro`` source file
        changes — the point function or anything it calls — and hashing
        the function's bytecode covers point functions that live outside
        the package.  Over-invalidating is safe: a miss only recomputes.
        Argument values are hashed via ``repr``, which is stable for the
        plain scalars/strings/tuples sweeps are built from.
        """
        code = getattr(self.fn, "__code__", None)
        bytecode = code.co_code if code is not None else b""
        payload = "|".join((self.fn.__module__, self.fn.__qualname__,
                            repr(self.kwargs), repr(self.seed),
                            code_digest())).encode()
        return hashlib.sha256(payload + b"|" + bytecode).hexdigest()


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """sha256 over every ``*.py`` and ``*.c`` file of the ``repro`` package.

    Files are taken in order of their path relative to the package (so
    the digest does not depend on where the tree is checked out), each
    framed by that path and its length; ``__pycache__`` and built
    extensions are not source and stay out.  Computed once per process.
    """
    root = Path(__file__).resolve().parent.parent
    sources = sorted(
        (path.relative_to(root).as_posix(), path)
        for path in root.rglob("*")
        if path.suffix in (".py", ".c") and "__pycache__" not in path.parts)
    digest = hashlib.sha256()
    for name, path in sources:
        data = path.read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


@dataclass
class RepeatedStat:
    """Mean and 95% confidence interval over repeated runs."""

    mean: float
    half_width: float    # 95% CI half-width (Student t)
    samples: List[float]

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g}"


#: Two-sided 95% Student-t quantiles for small sample counts
#: (index = degrees of freedom); enough for the paper's 5-run protocol.
_T95 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
        7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228}


def summarize_samples(samples: Sequence[float]) -> RepeatedStat:
    """Mean ± 95% CI of a list of per-run measurements."""
    values = list(samples)
    if not values:
        raise ValueError("need at least one sample")
    mean = statistics.fmean(values)
    if len(values) < 2:
        return RepeatedStat(mean=mean, half_width=0.0, samples=values)
    dof = len(values) - 1
    t_quantile = _T95.get(dof, 1.96)
    stderr = statistics.stdev(values) / math.sqrt(len(values))
    return RepeatedStat(mean=mean, half_width=t_quantile * stderr,
                        samples=values)


def repeat(run_fn: Callable[[int], Dict[str, float]], *,
           repetitions: int = 5,
           base_seed: int = 1) -> Dict[str, RepeatedStat]:
    """Run an experiment ``repetitions`` times and summarise each metric.

    ``run_fn(seed)`` must return a flat ``{metric: value}`` dict; the
    paper's testbed protocol (5 measurements, random flow order, 95%
    confidence intervals) corresponds to the defaults.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    per_metric: Dict[str, List[float]] = {}
    for i in range(repetitions):
        result = run_fn(base_seed + i)
        for metric, value in result.items():
            per_metric.setdefault(metric, []).append(float(value))
    return {metric: summarize_samples(values)
            for metric, values in per_metric.items()}
