"""Parallel sweep execution: a resumable, cached point queue.

Every figure of the paper is a parameter sweep: N independent runs of a
pure function over a grid of scenario parameters.  :class:`SweepRunner`
executes such a sweep

* **in order** — results always come back in the order the points were
  given, whatever the number of worker processes or hosts;
* **deterministically** — each point carries its own seed inside its
  :class:`~repro.experiments.runner.RunSpec`, so ``jobs=8`` computes the
  exact same numbers as ``jobs=1``;
* **incrementally** — results are cached on disk by the spec's content
  hash *as each point completes*, so an interrupted sweep (Ctrl-C, OOM,
  a killed worker box) resumes where it stopped: re-running only
  recomputes the points whose results never made it to disk;
* **across hosts** — with ``serve=(host, port)`` the cache-missing
  points are leased out by a :class:`~repro.dist.SweepCoordinator` on
  that address; the runner works them itself and any number of
  ``python -m repro sweep work --connect HOST:PORT`` processes on other
  machines lease from the same queue, streaming their results back over
  TCP (no shared filesystem needed);
* **observably** — a ``progress`` callback fires after every completed
  point, which is what makes 10k-point grids operable.

Worker processes import the spec's function by module path (standard
pickling of module-level callables), which is why ``RunSpec`` insists on
module-level functions.
"""

from __future__ import annotations

import os
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait as futures_wait,
)
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..serve.store import ResultStore
from .runner import RunSpec

_CACHE_MISS = object()


@dataclass(frozen=True)
class SweepProgress:
    """Snapshot handed to the ``progress`` callback after each point.

    Attributes
    ----------
    index : int
        Position of the just-finished point in the input spec list.
    done : int
        Points finished so far (computed + cache hits), out of ``total``.
    total : int
        Number of points in the sweep.
    cache_hits : int
        How many of the points came from the cache.
    from_cache : bool
        Whether *this* point was a cache hit.
    """

    index: int
    done: int
    total: int
    cache_hits: int
    from_cache: bool


ProgressCallback = Callable[[SweepProgress], None]


def _execute_spec(spec: RunSpec) -> Any:
    """Module-level trampoline so specs can run in worker processes."""
    return spec.execute()


class SweepRunner:
    """Dispatch independent experiment points over a process pool.

    Parameters
    ----------
    jobs : int
        Number of worker processes; ``1`` (the default) runs everything
        in-process, which is also the fallback when a sweep has a single
        uncached point.
    cache_dir : str or path-like, optional
        Directory for the content-hash result cache; ``None`` disables
        caching.  Entries are small pickles named ``<sha256>.pkl``,
        written atomically as each point completes — this doubles as the
        resume journal.
    serve : tuple of (str, int), optional
        ``(host, port)``: :meth:`run` hands the cache-missing points to a
        :class:`~repro.dist.SweepCoordinator` bound to that address and
        works them with an in-process :class:`~repro.dist.SweepWorker`
        of ``jobs`` processes; remote ``repro sweep work`` processes
        lease from the same queue.  Points are leased ``jobs`` at a
        time, so give helpers the same ``--jobs``.  The coordinator
        completes the grid into ``cache_dir`` (required) and the results
        are read back from it in input order.  :meth:`run_batched`
        ignores it: a single vectorized call is not worth leasing.

    Attributes
    ----------
    cache_hits, cache_misses : int
        Running counters over all :meth:`run` calls.
    """

    def __init__(self, jobs: int = 1,
                 cache_dir: "str | os.PathLike | None" = None,
                 serve: Optional[Tuple[str, int]] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if serve is not None and cache_dir is None:
            raise ValueError(
                "serving a sweep needs a cache_dir: the coordinator "
                "completes the grid into it and run() reads the results "
                "back from it")
        self.jobs = jobs
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.serve = serve
        # The disk layer is the shared, unbounded ResultStore the serve
        # layer also speaks: a sweep cache and a serve store pointed at
        # the same directory exchange results.  The memory LRU stays off
        # — sweeps hold their results list anyway.
        self._store = (ResultStore(self.cache_dir, memory_entries=0)
                       if self.cache_dir is not None else None)
        self.cache_hits = 0
        self.cache_misses = 0

    # -- cache ------------------------------------------------------------------
    def _load_cached(self, spec: RunSpec) -> Any:
        if self._store is None:
            return _CACHE_MISS
        return self._store.get(spec.content_hash(), _CACHE_MISS)

    def _store_cached(self, spec: RunSpec, result: Any) -> None:
        # Write-then-rename (via ResultStore/atomics) so a crashed run
        # never leaves a torn entry.  Caching is best-effort: an
        # unpicklable result (or a full disk) must not fail a run whose
        # points all computed fine.
        if self._store is not None:
            self._store.put(spec.content_hash(), result)

    # -- execution --------------------------------------------------------------
    def run(self, specs: Iterable[RunSpec], *,
            progress: Optional[ProgressCallback] = None) -> List[Any]:
        """Execute all ``specs``; results in input order.

        Cached points are served from ``cache_dir``; the rest run
        in-process, on a pool of ``jobs`` workers, or (with ``serve``)
        through the lease fabric.  Every computed result is written to
        the cache *before* its progress tick, so interrupting a run
        never loses completed points.

        Parameters
        ----------
        specs : iterable of RunSpec
            The sweep points, in the order results should come back.
        progress : callable, optional
            Called with a :class:`SweepProgress` after each point
            finishes (including cache hits; a served grid ticks its
            computed points once it has drained).  Exceptions raised by
            the callback abort the sweep — completed points stay cached.

        Returns
        -------
        list
            One result per spec, in input order.
        """
        return self._run(list(specs), progress=progress, batch_fn=None)

    def run_batched(self, specs: Iterable[RunSpec],
                    batch_fn: Callable[[List[RunSpec]], Sequence[Any]], *,
                    progress: Optional[ProgressCallback] = None
                    ) -> List[Any]:
        """Like :meth:`run`, but pending points compute as one batch.

        For sweeps whose points can be evaluated vectorized (e.g. a
        grid stacked into one
        :func:`~repro.fluid.solve_fixed_point_batch` call), this keeps
        the queue semantics — content-hash caching, progress ticks —
        while replacing per-point execution with a single ``batch_fn``
        call over exactly the points that are uncached.  ``jobs`` and
        ``serve`` are irrelevant here (the batch call is expected to be
        vectorized internally, and always runs locally).

        Parameters
        ----------
        specs : iterable of RunSpec
            The sweep points, in the order results should come back.
        batch_fn : callable
            Receives the pending specs (a subset of ``specs``, input
            order preserved) and must return one result per spec, in
            the same order, each bitwise-identical to what
            ``spec.execute()`` would return so cache entries stay
            interchangeable with per-point execution.
        progress : callable, optional
            As in :meth:`run`; computed points tick after the batch
            call returns.

        Returns
        -------
        list
            One result per spec, in input order.
        """
        return self._run(list(specs), progress=progress, batch_fn=batch_fn)

    def _run(self, specs: List[RunSpec],
             progress: Optional[ProgressCallback],
             batch_fn) -> List[Any]:
        results: List[Any] = [None] * len(specs)
        pending: List[int] = []
        hit_indices: List[int] = []
        for index, spec in enumerate(specs):
            cached = self._load_cached(spec)
            if cached is _CACHE_MISS:
                pending.append(index)
            else:
                results[index] = cached
                hit_indices.append(index)
        hits = len(hit_indices)
        self.cache_hits += hits
        self.cache_misses += len(pending)

        total = len(specs)
        done = 0
        if progress is not None:
            for index in hit_indices:
                done += 1
                progress(SweepProgress(index=index, done=done,
                                       total=total, cache_hits=hits,
                                       from_cache=True))

        def finish(index: int, value: Any, *, store: bool = True) -> None:
            nonlocal done
            results[index] = value
            if store:
                self._store_cached(specs[index], value)
            done += 1
            if progress is not None:
                progress(SweepProgress(index=index, done=done, total=total,
                                       cache_hits=hits,
                                       from_cache=False))

        if not pending:
            return results
        if batch_fn is not None:
            values = list(batch_fn([specs[i] for i in pending]))
            if len(values) != len(pending):
                raise ValueError(
                    f"batch_fn returned {len(values)} results "
                    f"for {len(pending)} pending specs")
            for index, value in zip(pending, values):
                finish(index, value)
        elif self.serve is not None:
            for index, value in zip(pending, self._serve_pending(
                    [specs[i] for i in pending])):
                finish(index, value, store=False)
        elif self.jobs == 1 or len(pending) == 1:
            for index in pending:
                finish(index, _execute_spec(specs[index]))
        else:
            # Rolling window over a process pool: a new point is
            # submitted only as a worker frees up, so no worker idles
            # behind a chunk barrier waiting for a slow point.
            queue = iter(pending)
            in_flight: Dict[Any, int] = {}
            with ProcessPoolExecutor(self.jobs) as executor:
                while True:
                    for index in islice(queue, self.jobs - len(in_flight)):
                        in_flight[executor.submit(
                            _execute_spec, specs[index])] = index
                    if not in_flight:
                        break
                    completed, _ = futures_wait(
                        in_flight, return_when=FIRST_COMPLETED)
                    for future in completed:
                        finish(in_flight.pop(future), future.result())
        return results

    def _serve_pending(self, specs: List[RunSpec]) -> List[Any]:
        """Lease ``specs`` out on ``serve`` and work them until drained.

        The coordinator writes every result into ``cache_dir``; the
        values are read back from it in ``specs`` order.
        """
        from ..dist import CoordinatorThread, SweepCoordinator, SweepWorker

        host, port = self.serve
        thread = CoordinatorThread(
            SweepCoordinator(specs, self.cache_dir, lease_size=self.jobs,
                             resume=False),
            host, port)
        bound = thread.start()
        summary = None
        try:
            # A wildcard bind address (0.0.0.0, ::) dials as the local
            # host.
            summary = SweepWorker(host, bound, jobs=self.jobs).run()
        finally:
            # A drained grid lingers until helpers still polling have
            # heard "done"; anything else stops the coordinator now.
            if summary is None or summary.reason != "done":
                thread.stop()
            thread.result()
        if summary.reason != "done":
            raise RuntimeError(f"sweep worker stopped: {summary.reason}")
        values = [self._load_cached(spec) for spec in specs]
        lost = [i for i, value in enumerate(values) if value is _CACHE_MISS]
        if lost:
            raise RuntimeError(
                f"served sweep lost {len(lost)} point(s) (first: "
                f"{dict(specs[lost[0]].kwargs)}): no cache entry under "
                f"{self.cache_dir}")
        return values
