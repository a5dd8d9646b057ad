"""Parallel sweep execution: a shardable, resumable, cached point queue.

Every figure of the paper is a parameter sweep: N independent runs of a
pure function over a grid of scenario parameters.  :class:`SweepRunner`
executes such a sweep

* **in order** — results always come back in the order the points were
  given, whatever the number of worker processes;
* **deterministically** — each point carries its own seed inside its
  :class:`~repro.experiments.runner.RunSpec`, so ``jobs=8`` computes the
  exact same numbers as ``jobs=1``;
* **incrementally** — results are cached on disk by the spec's content
  hash *as each point completes*, so an interrupted sweep (Ctrl-C, OOM,
  a killed worker box) resumes where it stopped: re-running only
  recomputes the points whose results never made it to disk;
* **sharded** — with ``shard=(i, n)`` a runner only computes the points
  it owns (``index % n == i``); n runners pointed at the same
  ``cache_dir`` (a shared filesystem) split a 10k-point grid between
  them, and a final unsharded run assembles the full result list from
  cache without recomputing anything;
* **work-stealing** — with ``shard="steal"`` ownership is dynamic
  instead of positional: each runner *claims* cache-missing points one
  by one through ``O_EXCL`` lock files in the shared ``cache_dir``, so
  any number of runners started against the same directory balance a
  grid whose point costs vary wildly (a modular split would leave the
  unlucky shard running long after the others finished);
* **observably** — a ``progress`` callback fires after every completed
  point, which is what makes 10k-point grids operable.

For launching shards on machines that don't share the Python driver
script, :func:`write_shards` spills the ``RunSpec`` queue itself to disk
(a ``manifest.json`` plus one pickle per shard) and :func:`load_shard`
reads one shard's specs back.

Worker processes import the spec's function by module path (standard
pickling of module-level callables), which is why ``RunSpec`` insists on
module-level functions.
"""

from __future__ import annotations

import json
import os
import pickle
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait as futures_wait,
)
from dataclasses import dataclass
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
from ..util.atomics import release_claim, try_claim
from .runner import RunSpec

_CACHE_MISS = object()


class _PendingType:
    """Singleton placeholder for points owned by another shard."""

    def __repr__(self) -> str:
        return "PENDING"

    __str__ = __repr__


#: Returned in place of a result when a sharded run does not own the
#: point and no cached result exists yet.
SWEEP_PENDING = _PendingType()


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
        Number of points this runner is accountable for (cache hits plus
        the points it owns; excludes points left to other shards).  In a
        work-stealing run, ownership is decided point by point, so
        ``total`` shrinks across ticks as points are lost to other
        runners.
    cache_hits : int
        How many of the finished points came from the cache.
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
        resume journal and as the result store sharded runs merge
        through.
    shard : tuple of (int, int) or "steal", optional
        ``(shard_index, shard_count)``: this runner computes only the
        points whose position satisfies ``index % shard_count ==
        shard_index``.  ``"steal"``: ownership is decided at run time —
        immediately before computing each cache-missing point the
        runner claims it by atomically creating ``<hash>.claim`` in
        ``cache_dir`` (at most ``jobs`` claims are held at any moment —
        except under :meth:`run_batched`, whose single vectorized call
        claims its whole batch — so concurrent runners always find work
        and split the grid by actual point cost rather than position);
        points another runner already claimed are skipped.  Claims are
        removed once the point's result is stored (and any still-held
        claims are released when a run raises), so re-running an
        interrupted stealer resumes cleanly; a *hard-killed* runner
        leaves its in-flight claims stale — those points stay PENDING
        for stealers, and an unsharded merge run (which ignores claims)
        computes whatever is missing.  Both modes require
        ``cache_dir`` (it is the store shards merge through); points
        owned by another shard come back as :data:`SWEEP_PENDING`
        unless already cached.
    claim_ttl : float, optional
        Age in seconds after which another runner's claim counts as
        abandoned (a hard-killed worker never releases its claims) and
        is reaped: the stale claim file is unlinked and this runner
        claims the point itself.  ``None`` (the default) never reaps —
        matching the historical behavior where stale claims park their
        points as PENDING until an unsharded merge run recomputes them.
        Set it comfortably above the cost of the slowest point; a value
        too low only costs duplicate compute (entry writes are atomic
        and idempotent), never correctness.

    Attributes
    ----------
    cache_hits, cache_misses : int
        Running counters over all :meth:`run` calls.
    skipped : int
        Points left to other shards (uncached, not owned/claimed) so
        far.
    """

    def __init__(self, jobs: int = 1,
                 cache_dir: "str | os.PathLike | None" = None,
                 shard: "Tuple[int, int] | str | None" = None,
                 claim_ttl: Optional[float] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if claim_ttl is not None and not claim_ttl > 0:
            raise ValueError("claim_ttl must be > 0 seconds or None")
        if isinstance(shard, str):
            if shard != "steal":
                raise ValueError(
                    f"shard must be (index, count) or 'steal', "
                    f"got {shard!r}")
            if cache_dir is None:
                raise ValueError(
                    "work-stealing sweeps need a cache_dir: it holds "
                    "the claim files and the results the stealers "
                    "merge through")
        elif shard is not None:
            index, count = shard
            if count < 1 or not 0 <= index < count:
                raise ValueError(
                    f"shard must be (index, count) with 0 <= index < "
                    f"count, got {shard}")
            if count > 1 and cache_dir is None:
                raise ValueError(
                    "sharded sweeps need a cache_dir: it is the shared "
                    "store the shards' results are merged through")
            shard = (index, count)
        self.jobs = jobs
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.shard = shard
        self.claim_ttl = claim_ttl
        # The disk layer is the shared, unbounded ResultStore the serve
        # layer also speaks: a sweep cache and a serve store pointed at
        # the same directory exchange results.  The memory LRU stays off
        # — sweeps hold their results list anyway.
        self._store = (ResultStore(self.cache_dir, memory_entries=0)
                       if self.cache_dir is not None else None)
        self.cache_hits = 0
        self.cache_misses = 0
        self.skipped = 0

    # -- cache ------------------------------------------------------------------
    def _cache_path(self, spec: RunSpec) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{spec.content_hash()}.pkl"

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

    def _owns(self, index: int) -> bool:
        if self.shard is None:
            return True
        shard_index, shard_count = self.shard
        return index % shard_count == shard_index

    # -- work stealing ----------------------------------------------------------
    def _claim_path(self, spec: RunSpec) -> Path:
        return self.cache_dir / f"{spec.content_hash()}.claim"

    def _try_claim(self, spec: RunSpec) -> bool:
        """Atomically claim a point; False when another runner holds it.

        ``O_CREAT | O_EXCL`` (see :func:`repro.util.atomics.try_claim`)
        is atomic on POSIX filesystems (including NFS v3+), which is all
        the coordination work stealing needs — no daemon, no queue
        service, just the shared ``cache_dir``.  With ``claim_ttl`` set,
        a claim older than the TTL is reaped as abandoned.
        """
        return try_claim(self._claim_path(spec), ttl=self.claim_ttl)

    def _release_claim(self, spec: RunSpec) -> None:
        release_claim(self._claim_path(spec))

    # -- execution --------------------------------------------------------------
    def run(self, specs: Iterable[RunSpec], *,
            progress: Optional[ProgressCallback] = None) -> List[Any]:
        """Execute all ``specs``; results in input order.

        Cached points are served from ``cache_dir``; the rest run
        in-process or on a pool of ``jobs`` workers.  Every computed
        result is written to the cache *before* the next progress tick,
        so interrupting a run never loses completed points.

        Parameters
        ----------
        specs : iterable of RunSpec
            The sweep points, in the order results should come back.
        progress : callable, optional
            Called with a :class:`SweepProgress` after each point
            finishes (including cache hits).  Exceptions raised by the
            callback abort the sweep — completed points stay cached.

        Returns
        -------
        list
            One result per spec, in input order.  In a sharded run,
            uncached points owned by other shards are
            :data:`SWEEP_PENDING`.
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
        the queue semantics — content-hash caching, shard ownership,
        progress ticks — while replacing per-point execution with a
        single ``batch_fn`` call over exactly the points that are
        uncached and owned by this shard.  ``jobs`` is irrelevant here
        (the batch call is expected to be vectorized internally).

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
            One result per spec, in input order (``SWEEP_PENDING`` for
            uncached points owned by other shards).
        """
        return self._run(list(specs), progress=progress, batch_fn=batch_fn)

    def _run(self, specs: List[RunSpec],
             progress: Optional[ProgressCallback],
             batch_fn) -> List[Any]:
        results: List[Any] = [None] * len(specs)
        pending: List[int] = []
        hit_indices: List[int] = []
        stealing = self.shard == "steal"
        for index, spec in enumerate(specs):
            cached = self._load_cached(spec)
            if cached is _CACHE_MISS:
                # In steal mode every miss stays a *candidate*: claims
                # are taken one point at a time right before execution
                # (an upfront claim sweep would hand this runner the
                # whole grid and starve concurrent stealers).
                if stealing or self._owns(index):
                    pending.append(index)
                else:
                    self.skipped += 1
                    results[index] = SWEEP_PENDING
            else:
                self.cache_hits += 1
                results[index] = cached
                hit_indices.append(index)

        # ``total`` shrinks in a stealing run as candidates are lost to
        # other runners; each tick snapshots the current value.
        hits = len(hit_indices)
        total = hits + len(pending)
        done = 0
        if progress is not None:
            for index in hit_indices:
                done += 1
                progress(SweepProgress(index=index, done=done,
                                       total=total, cache_hits=hits,
                                       from_cache=True))

        # Claims this runner holds for points whose results are not on
        # disk yet.
        held_claims: set = set()

        def finish(index: int, value: Any) -> None:
            nonlocal done
            results[index] = value
            self._store_cached(specs[index], value)
            if stealing:
                # Result is on disk: drop the claim so other runners
                # (and future resumes) see a completed, unclaimed point.
                self._release_claim(specs[index])
                held_claims.discard(index)
            done += 1
            if progress is not None:
                progress(SweepProgress(index=index, done=done, total=total,
                                       cache_hits=hits,
                                       from_cache=False))

        def lose(index: int) -> None:
            nonlocal total
            self.skipped += 1
            results[index] = SWEEP_PENDING
            total -= 1

        def serve_cached(index: int, value: Any) -> None:
            nonlocal done, hits
            self.cache_hits += 1
            hits += 1
            results[index] = value
            done += 1
            if progress is not None:
                progress(SweepProgress(index=index, done=done, total=total,
                                       cache_hits=hits, from_cache=True))

        queue_pos = 0

        def take(limit: int) -> List[int]:
            """Take up to ``limit`` still-missing points to compute now.

            When stealing, each point is claimed first: the cache is
            re-checked (another stealer may have completed — and
            unclaimed — the point meanwhile) and points whose claim is
            held elsewhere are left as PENDING.
            """
            nonlocal queue_pos
            chunk: List[int] = []
            while queue_pos < len(pending) and len(chunk) < limit:
                index = pending[queue_pos]
                queue_pos += 1
                if stealing:
                    cached = self._load_cached(specs[index])
                    if cached is not _CACHE_MISS:
                        serve_cached(index, cached)
                        continue
                    if not self._try_claim(specs[index]):
                        lose(index)
                        continue
                    held_claims.add(index)
                self.cache_misses += 1
                chunk.append(index)
            return chunk

        executor = None
        try:
            if batch_fn is not None:
                # One vectorized call computes every point at once, so a
                # stealer claims the whole batch together (concurrent
                # batch stealers race for the batch, not for points).
                chunk = take(len(pending))
                if chunk:
                    values = list(batch_fn([specs[i] for i in chunk]))
                    if len(values) != len(chunk):
                        raise ValueError(
                            f"batch_fn returned {len(values)} results "
                            f"for {len(chunk)} pending specs")
                    for index, value in zip(chunk, values):
                        finish(index, value)
            elif self.jobs == 1 or len(pending) == 1:
                # Claim-as-you-go: a stealer holds exactly one point at
                # any moment, so concurrent stealers always find work and
                # an interrupted run leaves at most one claim stale.
                while queue_pos < len(pending):
                    for index in take(1):
                        finish(index, _execute_spec(specs[index]))
            else:
                # Rolling window over a process pool: a new point is
                # taken only as a worker frees up, so at most ``jobs``
                # claims are held at any moment and no worker idles
                # behind a chunk barrier waiting for a slow point.
                in_flight: Dict[Any, int] = {}
                while True:
                    while len(in_flight) < self.jobs \
                            and queue_pos < len(pending):
                        for index in take(1):
                            if executor is None:
                                executor = ProcessPoolExecutor(self.jobs)
                            future = executor.submit(_execute_spec,
                                                     specs[index])
                            in_flight[future] = index
                    if not in_flight:
                        break
                    completed, _ = futures_wait(
                        in_flight, return_when=FIRST_COMPLETED)
                    for future in completed:
                        finish(in_flight.pop(future), future.result())
        finally:
            # An aborted stealer never parks its unfinished points.
            for index in held_claims:
                self._release_claim(specs[index])
            if executor is not None:
                executor.shutdown()
        return results

    def map(self, fn: Callable[..., Any],
            points: Sequence[Dict[str, Any]], *,
            base_seed: Optional[int] = None,
            progress: Optional[ProgressCallback] = None) -> List[Any]:
        """Convenience: run ``fn(**point)`` for every point, in order.

        Parameters
        ----------
        fn : callable
            Module-level function executed per point.
        points : sequence of dict
            Keyword arguments of each point.
        base_seed : int, optional
            When set, each point additionally receives a ``seed=``
            keyword derived deterministically from the point's content
            (stable under reordering and insertion of points).
        progress : callable, optional
            Forwarded to :meth:`run`.

        Returns
        -------
        list
            One result per point, in input order.
        """
        specs = []
        for point in points:
            spec = RunSpec.make(fn, **point)
            if base_seed is not None:
                spec = RunSpec(fn=spec.fn, kwargs=spec.kwargs,
                               seed=spec.derived_seed(base_seed))
            specs.append(spec)
        return self.run(specs, progress=progress)


def pending_attr(result: Any, name: str) -> Any:
    """``getattr`` that passes :data:`SWEEP_PENDING` through unchanged.

    Table builders use this to render partial (sharded) sweeps: cells
    whose point another shard owns print as ``PENDING`` instead of
    crashing the table assembly.
    """
    return result if result is SWEEP_PENDING else getattr(result, name)


def pending_row(row: Any, width: int) -> Sequence[Any]:
    """Expand :data:`SWEEP_PENDING` into ``width`` PENDING cells.

    For sweeps whose points return whole table rows as tuples: a point
    another shard owns becomes a row of ``PENDING`` placeholders.
    """
    return (SWEEP_PENDING,) * width if row is SWEEP_PENDING else row


# -- spec spill: shard files on disk -----------------------------------------

#: Schema stamp written into every ``manifest.json``; bumped on layout
#: changes so a loader meeting a foreign or stale spill fails loudly
#: (naming the path and both versions) instead of surfacing a KeyError
#: from deep inside a sweep.  Version 2 added the stamp itself.
MANIFEST_SCHEMA = 2

#: The keys every manifest must carry; checked up front by
#: :func:`load_manifest` so a truncated rewrite fails with the path and
#: the missing key, not an anonymous ``KeyError`` later.
_MANIFEST_KEYS = ("schema", "total", "shard_count", "shards",
                  "spec_hashes")


def write_shards(specs: Sequence[RunSpec], directory: "str | os.PathLike",
                 shard_count: int) -> List[Path]:
    """Spill a sweep's spec queue to ``directory`` as shard files.

    Writes ``shard-NNNN.pkl`` (a pickled list of this shard's specs,
    round-robin by position so shards stay balanced even when cost
    correlates with grid position) plus a ``manifest.json`` recording
    the sweep's size, shard layout and per-spec content hashes — enough
    for any machine to pick up one shard with :func:`load_shard`, run it
    against the shared cache, and for a merge run to verify
    completeness.

    Parameters
    ----------
    specs : sequence of RunSpec
        The full sweep, in result order.
    directory : str or path-like
        Created if missing.
    shard_count : int
        Number of shard files to write (>= 1).

    Returns
    -------
    list of Path
        The shard file paths, indexed by shard number.
    """
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    specs = list(specs)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for shard_index in range(shard_count):
        owned = [spec for index, spec in enumerate(specs)
                 if index % shard_count == shard_index]
        path = directory / f"shard-{shard_index:04d}.pkl"
        with path.open("wb") as fh:
            pickle.dump(owned, fh)
        paths.append(path)
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "total": len(specs),
        "shard_count": shard_count,
        "shards": [p.name for p in paths],
        "spec_hashes": [spec.content_hash() for spec in specs],
    }
    with (directory / "manifest.json").open("w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return paths


def load_manifest(directory: "str | os.PathLike") -> Dict[str, Any]:
    """Read and validate the ``manifest.json`` of a spec spill.

    Every failure mode names the offending path and what was expected:
    a missing manifest, undecodable JSON (truncated write), a non-dict
    payload, a missing key, or a schema stamp other than
    :data:`MANIFEST_SCHEMA` (a spill written by a different revision of
    :func:`write_shards` — re-spill rather than guessing at the layout).
    """
    path = Path(directory) / "manifest.json"
    try:
        with path.open() as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise FileNotFoundError(
            f"no spec-spill manifest at {path}: expected the "
            "manifest.json written by write_shards()") from None
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"unreadable spec-spill manifest {path}: {exc} — the file "
            "is truncated or not JSON; re-run write_shards()") from exc
    if not isinstance(manifest, dict):
        raise ValueError(
            f"malformed spec-spill manifest {path}: expected a JSON "
            f"object, got {type(manifest).__name__}")
    schema = manifest.get("schema", 1)
    if schema != MANIFEST_SCHEMA:
        raise ValueError(
            f"spec-spill manifest {path} has schema version {schema}, "
            f"this revision reads version {MANIFEST_SCHEMA}: the spill "
            "was written by a different code revision — re-run "
            "write_shards() with the current one")
    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing:
        raise ValueError(
            f"truncated spec-spill manifest {path}: missing key(s) "
            f"{', '.join(missing)} (expected {', '.join(_MANIFEST_KEYS)})")
    if len(manifest["spec_hashes"]) != manifest["total"] or \
            len(manifest["shards"]) != manifest["shard_count"]:
        raise ValueError(
            f"inconsistent spec-spill manifest {path}: "
            f"{len(manifest['spec_hashes'])} spec hash(es) for total="
            f"{manifest['total']}, {len(manifest['shards'])} shard "
            f"file(s) for shard_count={manifest['shard_count']}")
    return manifest


def load_shard(directory: "str | os.PathLike",
               shard_index: int) -> List[RunSpec]:
    """Read one shard's specs back from a :func:`write_shards` spill.

    Parameters
    ----------
    directory : str or path-like
        The spill directory holding ``manifest.json``.
    shard_index : int
        Which shard to load, ``0 <= shard_index < shard_count``.

    Returns
    -------
    list of RunSpec
        The specs owned by that shard; run them with a
        :class:`SweepRunner` pointed at the sweep's shared ``cache_dir``.
    """
    manifest = load_manifest(directory)
    if not 0 <= shard_index < manifest["shard_count"]:
        raise ValueError(
            f"shard_index must be in [0, {manifest['shard_count']}), "
            f"got {shard_index}")
    path = Path(directory) / manifest["shards"][shard_index]
    try:
        with path.open("rb") as fh:
            specs = pickle.load(fh)
    except FileNotFoundError:
        raise FileNotFoundError(
            f"spec spill is missing shard file {path} (manifest "
            f"{Path(directory) / 'manifest.json'} names it): the spill "
            "is incomplete — re-run write_shards()") from None
    except (pickle.UnpicklingError, EOFError, AttributeError,
            ImportError) as exc:
        raise ValueError(
            f"unreadable shard file {path}: {type(exc).__name__}: {exc} "
            "— truncated write or a spill from an incompatible code "
            "revision; re-run write_shards()") from exc
    expected = manifest["spec_hashes"][shard_index::manifest["shard_count"]]
    actual = [spec.content_hash() for spec in specs]
    if actual != expected:
        raise ValueError(
            f"shard file {path} does not match its manifest: expected "
            f"{len(expected)} spec(s) with the manifest's hashes, got "
            f"{len(actual)}"
            + ("" if len(actual) != len(expected) else
               " with differing content hashes — the point functions "
               "changed since the spill was written; re-run "
               "write_shards()"))
    return specs


def load_all_specs(directory: "str | os.PathLike") -> List[RunSpec]:
    """Reassemble a spill's full spec list in original result order.

    The inverse of :func:`write_shards`: loads every shard (each
    validated against the manifest's hashes) and interleaves them back
    — shard ``i`` owns positions ``i, i + count, ...``.  This is how a
    sweep coordinator (``python -m repro sweep serve --spill DIR``)
    ingests a grid another host laid out.
    """
    manifest = load_manifest(directory)
    count = manifest["shard_count"]
    shards = [load_shard(directory, index) for index in range(count)]
    specs: List[Optional[RunSpec]] = [None] * manifest["total"]
    for shard_index, owned in enumerate(shards):
        for position, spec in enumerate(owned):
            specs[shard_index + position * count] = spec
    return specs
