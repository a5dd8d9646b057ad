"""Measurement core shared by the four end-to-end workloads.

Everything here is timed *from outside* the program: the workloads call
public functions of ``repro`` and this module only supplies the clock
discipline around those calls.

**Blocks and units.**  A run is cut into equal-work *blocks*; a block is
a fixed sequence of *units* (a simulated-time slice, a lease, a request
chunk, a batch), so unit ``j`` of every block does comparable work.

**Quiet-quartile estimator.**  The hosts this runs on are 2-vCPU
microVMs whose neighbours slow the guest in bursts of tens of
milliseconds to minutes (measured while building this harness: the same
seeded DES block took 2.3 s to 4.6 s within one hour, a 45 ms pure-
python loop 44 ms to 91 ms within one second, with process CPU time
inflating alongside wall time).  The noise is one-sided — nothing makes
a unit run *faster* than the quiet machine — so every time-like number
is the **lower quartile** over blocks, taken per unit position and
summed: ``T = sum_j q25_b(t[b][j])``.  With one unit per block this is
the fastest-quartile block; with many units it recovers the
quiet-machine time even when no whole block ran undisturbed.  A block
median (what the issue first proposed) needs more than half of the
blocks undisturbed; the lower quartile needs a quarter.  What neither
removes is the host's speed drifting by +-5% over minutes, which is why
the regression bounds in ``BENCHMARK.json`` are as wide as they are.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

#: Quantile of per-unit times taken as the quiet-machine time.
QUIET_Q = 0.25

#: Every rate is an estimate over at least this many blocks, and exact
#: counts are summed over exactly this many (the block count of a run
#: depends on the host's speed; the first MIN_BLOCKS always exist).
MIN_BLOCKS = 5


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default), pure python."""
    ranked = sorted(values)
    if not ranked:
        raise ValueError("quantile of no values")
    pos = q * (len(ranked) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ranked) - 1)
    return ranked[lo] + (ranked[hi] - ranked[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def quiet_sum(rows: Sequence[Sequence[float]]) -> float:
    """``sum_j q25_b(rows[b][j])`` — see the module docstring."""
    return sum(quantile(column, QUIET_Q) for column in zip(*rows))


@dataclass
class Block:
    """What one block of a workload measured."""

    work: float                      # work units done (same every block)
    wall: List[float]                # seconds per unit
    cpu: List[float]                 # process CPU seconds per unit
    latency_ms: List[float]          # per-operation latencies
    span: Optional[int] = None       # id of its bench.block span, if traced
    counts: Dict[str, int] = field(default_factory=dict)   # exact counts
    outputs: Any = None              # whatever the output check needs

    @property
    def traced(self) -> bool:
        return self.span is not None

    @property
    def seconds(self) -> float:
        return sum(self.wall)


class BlockLoop:
    """Closed loop over blocks: at least ``min_blocks``, then until
    ``seconds`` of wall clock have passed since the first block began.

    A traced run traces every other block, so the same run yields the
    spans and the untraced time they are compared with.
    """

    def __init__(self, seconds: float, tracer: "Tracer",
                 min_blocks: int = MIN_BLOCKS) -> None:
        self.seconds = seconds
        self.tracer = tracer
        self.min_blocks = min_blocks
        self.done = 0
        self._start: Optional[float] = None

    def more(self) -> bool:
        now = time.perf_counter()
        if self._start is None:
            self._start = now
        if self.done >= self.min_blocks and now - self._start >= self.seconds:
            self.tracer.on = False
            return False
        self.tracer.on = self.tracer.enabled and self.done % 2 == 0
        # Garbage of the previous block is collected here, outside any
        # timed unit, so peak RSS does not depend on the block count.
        gc.collect()
        self.done += 1
        return True

    @property
    def index(self) -> int:
        """Index of the block ``more()`` just admitted."""
        return self.done - 1

    @property
    def work_index(self) -> int:
        """Which inputs the block runs.  A traced run gives each traced
        block and the untraced block after it the same inputs, so the
        tracing overhead compares like with like; workloads whose
        blocks must never repeat (a cold store) use ``index``."""
        return self.index // 2 if self.tracer.enabled else self.index


class UnitClock:
    """Wall and CPU stopwatch that laps once per unit."""

    def __init__(self) -> None:
        self.wall: List[float] = []
        self.cpu: List[float] = []
        self._wall = time.perf_counter()
        self._cpu = time.process_time()

    def lap(self) -> float:
        wall, cpu = time.perf_counter(), time.process_time()
        elapsed = wall - self._wall
        self.wall.append(elapsed)
        self.cpu.append(cpu - self._cpu)
        self._wall, self._cpu = wall, cpu
        return elapsed


# -- end-to-end metrics -------------------------------------------------------
def end_to_end(blocks: Sequence[Block]) -> Dict[str, float]:
    """The bounded metrics of a run, from its untraced blocks only."""
    blocks = [block for block in blocks if not block.traced]
    p50, p95 = latency_percentiles(blocks)
    return {
        "work_per_s": blocks[0].work / quiet_sum([b.wall for b in blocks]),
        "cpu_s": quiet_sum([b.cpu for b in blocks]),
        "p50_ms": p50,
        # The tail as a ratio: a uniformly slower host cancels out of
        # it, which the absolute p95 (a per-layer metric) does not.
        "tail_ratio": p95 / p50,
        "peak_rss_mb": peak_rss_mb(),
    }


def latency_percentiles(blocks: Sequence[Block]):
    """Quiet p50 and p95 in ms: per-block percentiles of the operation
    latencies, then the lower quartile over (untraced) blocks."""
    blocks = [block for block in blocks if not block.traced]
    return tuple(
        quantile([quantile(b.latency_ms, q) for b in blocks], QUIET_Q)
        for q in (0.50, 0.95))


def block_spread(blocks: Sequence[Block]) -> float:
    """IQR / median of the whole-block rates: how noisy the host was."""
    rates = [block.work / block.seconds for block in blocks]
    return (quantile(rates, 0.75) - quantile(rates, 0.25)) / median(rates)


def trace_overhead_share(blocks: Sequence[Block]) -> float:
    """Traced over untraced quiet block time, minus one."""
    traced = [b.wall for b in blocks if b.traced]
    plain = [b.wall for b in blocks if not b.traced]
    if not traced or not plain:
        return 0.0
    return quiet_sum(traced) / quiet_sum(plain) - 1.0


def exact_counts(blocks: Sequence[Block]) -> Dict[str, int]:
    """Counts summed over the first MIN_BLOCKS blocks (always present)."""
    totals: Dict[str, int] = {}
    for block in blocks[:MIN_BLOCKS]:
        for name, value in block.counts.items():
            totals[name] = totals.get(name, 0) + value
    return totals


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- tracing ------------------------------------------------------------------
class _Span:
    __slots__ = ("record",)

    def __init__(self, record: dict) -> None:
        self.record = record

    def __enter__(self) -> int:
        self.record["t0"] = time.perf_counter()
        return self.record["id"]

    def __exit__(self, *exc_info) -> bool:
        self.record["t1"] = time.perf_counter()
        return False


class _NoSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NO_SPAN = _NoSpan()


class Tracer:
    """In-memory spans ``{id, parent, name, workload, op, t0, t1}``.

    Spans wrap the harness's own calls into each layer's public
    functions.  The parent is passed explicitly (two asyncio
    connections interleave, so a stack would lie).  ``on`` is flipped
    per block by :class:`BlockLoop`.
    """

    def __init__(self, workload: str, enabled: bool = False) -> None:
        self.workload = workload
        self.enabled = enabled
        self.on = False
        self.spans: List[dict] = []

    def span(self, name: str, parent: Optional[int] = None,
             op: Any = None):
        if not self.on:
            return _NO_SPAN
        record = {"id": len(self.spans), "parent": parent, "name": name,
                  "workload": self.workload, "op": op, "t0": 0.0, "t1": 0.0}
        self.spans.append(record)
        return _Span(record)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"workload": self.workload, "spans": self.spans},
                      handle)
            handle.write("\n")


def _covered(intervals: List[tuple]) -> float:
    """Length of the union of ``(t0, t1)`` intervals."""
    total, end = 0.0, -math.inf
    for t0, t1 in sorted(intervals):
        if t1 > end:
            total += t1 - max(t0, end)
            end = t1
    return total


def self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Self seconds per span name: duration minus what children cover.

    Siblings of one name are taken together — the union of their
    intervals minus the union of their children's — so concurrent
    spans (128 callers waiting on one batch) count the wall clock once.
    For sequential spans this is the plain sum of self times.
    """
    by_parent: Dict[Any, List[dict]] = {}
    for span in spans:
        by_parent.setdefault(span["parent"], []).append(span)
    totals: Dict[str, float] = {}
    for siblings in by_parent.values():
        for name in {span["name"] for span in siblings}:
            group = [span for span in siblings if span["name"] == name]
            children = [(child["t0"], child["t1"]) for span in group
                        for child in by_parent.get(span["id"], [])]
            own = (_covered([(s["t0"], s["t1"]) for s in group])
                   - _covered(children))
            totals[name] = totals.get(name, 0.0) + own
    return totals


def layer_self_shares(spans: Sequence[dict]) -> Dict[str, float]:
    """``<layer>.self_share``: each layer's self time as a share of the
    traced blocks' wall clock (``bench`` is the harness's own code)."""
    total = sum(s["t1"] - s["t0"] for s in spans if s["parent"] is None)
    shares: Dict[str, float] = {}
    for name, seconds in self_times(spans).items():
        key = name.split(".")[0] + ".self_share"
        shares[key] = shares.get(key, 0.0) + seconds / total
    return shares


def durations(spans: Sequence[dict], name: str,
              parent: Optional[int] = None) -> List[float]:
    """Seconds of every span called ``name`` (under ``parent`` if given)."""
    return [s["t1"] - s["t0"] for s in spans if s["name"] == name
            and (parent is None or s["parent"] == parent)]


# -- small timing helpers for the per-layer numbers ---------------------------
def time_calls(fn, calls: int, repeats: int = 5) -> float:
    """Quiet seconds per call of ``fn()``: lower quartile of repeats."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return quantile(samples, QUIET_Q)


def loadavg() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return 0.0
