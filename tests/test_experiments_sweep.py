"""Tests for the parallel sweep runner, RunSpec and measure validation."""

import os
import pickle
import shutil
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.dist import SweepWorker
from repro.experiments.ablation import flappiness_point
from repro.experiments.rtt_heterogeneity import rtt_sweep_point
from repro.experiments.runner import RunSpec, measure, summarize_samples
from repro.experiments.sweep import SweepRunner
from repro.sim.engine import Simulator


def _rtt_specs():
    return [RunSpec.make(rtt_sweep_point, algorithm="olia", base_rtt=0.1,
                         ratio=ratio, n_tcp=2)
            for ratio in (0.5, 1.0, 2.0, 4.0)]


def _seeded_specs():
    """DES points whose results depend on their seeds."""
    return [RunSpec.make(flappiness_point, algorithm="olia",
                         capacity_mbps=10.0, duration=3.0, seed=seed)
            for seed in (1, 2, 3, 4)]


class TestRunSpec:
    def test_content_hash_ignores_kwarg_order(self):
        a = RunSpec.make(rtt_sweep_point, algorithm="olia", base_rtt=0.1,
                         ratio=1.0, n_tcp=2)
        b = RunSpec.make(rtt_sweep_point, ratio=1.0, n_tcp=2,
                         base_rtt=0.1, algorithm="olia")
        assert a == b
        assert a.content_hash() == b.content_hash()

    def test_content_hash_sensitive_to_args_and_seed(self):
        base = RunSpec.make(rtt_sweep_point, algorithm="olia",
                            base_rtt=0.1, ratio=1.0, n_tcp=2)
        other = RunSpec.make(rtt_sweep_point, algorithm="lia",
                             base_rtt=0.1, ratio=1.0, n_tcp=2)
        seeded = RunSpec.make(rtt_sweep_point, algorithm="olia",
                              base_rtt=0.1, ratio=1.0, n_tcp=2, seed=3)
        assert base.content_hash() != other.content_hash()
        assert base.content_hash() != seeded.content_hash()

    def test_rejects_non_module_level_functions(self):
        with pytest.raises(ValueError):
            RunSpec.make(lambda: None)

        def nested():
            return None

        with pytest.raises(ValueError):
            RunSpec.make(nested)

    def test_execute_injects_seed(self):
        spec = RunSpec.make(flappiness_point, algorithm="olia",
                            capacity_mbps=10.0, duration=2.0, seed=5)
        again = spec.execute()
        assert again == flappiness_point(algorithm="olia",
                                         capacity_mbps=10.0,
                                         duration=2.0, seed=5)

    def test_content_hash_follows_source_edits(self, tmp_path):
        """The key covers the whole ``repro`` tree, not only the point
        function: the same tree keys the same in two processes wherever
        it is checked out, and editing a callee (here ``sim/link.py``)
        changes the key."""
        tree = tmp_path / "src"
        shutil.copytree(Path(repro.__file__).parent, tree / "repro",
                        ignore=shutil.ignore_patterns("__pycache__", "*.so"))
        probe = ("from repro.experiments.runner import RunSpec, "
                 "summarize_samples\n"
                 "print(RunSpec.make(summarize_samples, samples=(1.0,))"
                 ".content_hash())")

        def key():
            env = dict(os.environ, PYTHONPATH=str(tree))
            return subprocess.run(
                [sys.executable, "-c", probe], env=env, cwd=tmp_path,
                capture_output=True, text=True, check=True).stdout.strip()

        here = RunSpec.make(summarize_samples, samples=(1.0,)).content_hash()
        assert key() == key() == here
        link = tree / "repro" / "sim" / "link.py"
        link.write_text(link.read_text()
                        + "\n\ndef _helper():\n    return 1\n")
        assert key() != here


class TestSweepRunnerDeterminism:
    def test_jobs2_matches_jobs1_order_fixed_seed(self):
        """The PR's regression criterion: a pool of 2 workers returns the
        exact same results in the exact same order as in-process runs."""
        serial = SweepRunner(jobs=1).run(_seeded_specs())
        parallel = SweepRunner(jobs=2).run(_seeded_specs())
        assert parallel == serial

    def test_jobs2_matches_jobs1_fluid_sweep(self):
        serial = SweepRunner(jobs=1).run(_rtt_specs())
        parallel = SweepRunner(jobs=2).run(_rtt_specs())
        assert parallel == serial

    def test_single_point_runs_in_process(self):
        specs = _rtt_specs()[:1]
        assert SweepRunner(jobs=4).run(specs) == \
            SweepRunner(jobs=1).run(specs)

    def test_invalid_jobs(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)


class TestSweepRunnerCache:
    def test_second_run_is_all_hits(self, tmp_path):
        runner = SweepRunner(jobs=1, cache_dir=tmp_path)
        first = runner.run(_rtt_specs())
        assert runner.cache_misses == 4
        again = SweepRunner(jobs=1, cache_dir=tmp_path)
        second = again.run(_rtt_specs())
        assert again.cache_hits == 4
        assert again.cache_misses == 0
        assert second == first

    def test_pool_run_populates_cache(self, tmp_path):
        runner = SweepRunner(jobs=2, cache_dir=tmp_path)
        first = runner.run(_seeded_specs())
        again = SweepRunner(jobs=2, cache_dir=tmp_path)
        second = again.run(_seeded_specs())
        assert again.cache_hits == 4
        assert second == first

    def test_partial_cache_only_recomputes_missing(self, tmp_path):
        specs = _rtt_specs()
        SweepRunner(jobs=1, cache_dir=tmp_path).run(specs[:2])
        runner = SweepRunner(jobs=1, cache_dir=tmp_path)
        results = runner.run(specs)
        assert runner.cache_hits == 2
        assert runner.cache_misses == 2
        assert results == SweepRunner(jobs=1).run(specs)

    def test_no_cache_dir_recomputes(self):
        runner = SweepRunner(jobs=1)
        runner.run(_rtt_specs()[:1])
        runner.run(_rtt_specs()[:1])
        assert runner.cache_hits == 0
        assert runner.cache_misses == 2


class TestRunBatched:
    @staticmethod
    def _batch_eval(pending):
        return [spec.execute() for spec in pending]

    def test_matches_per_point_run(self):
        specs = _rtt_specs()
        batched = SweepRunner(jobs=1).run_batched(specs, self._batch_eval)
        assert batched == SweepRunner(jobs=1).run(specs)

    def test_batch_fn_sees_only_uncached_points(self, tmp_path):
        specs = _rtt_specs()
        SweepRunner(jobs=1, cache_dir=tmp_path).run(specs[:1])
        seen = []

        def spy(pending):
            seen.extend(pending)
            return self._batch_eval(pending)

        runner = SweepRunner(jobs=1, cache_dir=tmp_path)
        results = runner.run_batched(specs, spy)
        # Point 0 was cached: only points 1-3 reach the batch call.
        assert seen == specs[1:]
        assert results == SweepRunner(jobs=1).run(specs)
        assert runner.cache_hits == 1

    def test_batch_fn_fills_cache_for_later_runs(self, tmp_path):
        specs = _rtt_specs()
        SweepRunner(jobs=1, cache_dir=tmp_path).run_batched(
            specs, self._batch_eval)
        again = SweepRunner(jobs=1, cache_dir=tmp_path)
        assert again.run(specs) == SweepRunner(jobs=1).run(specs)
        assert again.cache_hits == len(specs)

    def test_wrong_result_count_rejected(self):
        with pytest.raises(ValueError, match="batch_fn"):
            SweepRunner(jobs=1).run_batched(
                _rtt_specs(), lambda pending: pending[:-1])


class _StopSweep(Exception):
    """Stand-in for Ctrl-C during a long sweep."""


class TestSweepResumeAfterInterrupt:
    def test_interrupted_run_keeps_completed_points(self, tmp_path):
        """The PR's resume criterion: a sweep killed mid-flight resumes
        from the on-disk cache and recomputes only the missing points."""
        specs = _rtt_specs()
        runner = SweepRunner(jobs=1, cache_dir=tmp_path)

        def interrupt(progress):
            if progress.done == 2:
                raise _StopSweep()

        with pytest.raises(_StopSweep):
            runner.run(specs, progress=interrupt)

        resumed = SweepRunner(jobs=1, cache_dir=tmp_path)
        results = resumed.run(specs)
        assert resumed.cache_hits == 2
        assert resumed.cache_misses == 2
        assert results == SweepRunner(jobs=1).run(specs)

    def test_pool_run_stores_incrementally(self, tmp_path):
        """Worker results hit the cache as they complete, not at the
        end, so a crashed pool run is resumable too."""
        specs = _seeded_specs()
        seen = []

        def watch(progress):
            # Every completed point is already on disk by the time the
            # progress callback observes it.
            seen.append(len(list(tmp_path.glob("*.pkl"))))

        SweepRunner(jobs=2, cache_dir=tmp_path).run(specs, progress=watch)
        assert seen == [1, 2, 3, 4]


class TestSweepProgress:
    def test_progress_counts_all_points(self):
        ticks = []
        SweepRunner(jobs=1).run(_rtt_specs(),
                                progress=lambda p: ticks.append(p))
        assert [p.done for p in ticks] == [1, 2, 3, 4]
        assert all(p.total == 4 for p in ticks)
        assert sorted(p.index for p in ticks) == [0, 1, 2, 3]
        assert not any(p.from_cache for p in ticks)

    def test_progress_reports_cache_hits(self, tmp_path):
        specs = _rtt_specs()
        SweepRunner(jobs=1, cache_dir=tmp_path).run(specs[:2])
        ticks = []
        SweepRunner(jobs=1, cache_dir=tmp_path).run(
            specs, progress=lambda p: ticks.append(p))
        assert [p.from_cache for p in ticks] == [True, True, False, False]
        assert ticks[-1].cache_hits == 2


def slow_point(*, value):
    """A point slow enough for a second worker to take a share."""
    time.sleep(0.05)
    return {"value": value, "square": value * value}


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestServedSweep:
    """``serve=(host, port)``: the grid goes through the lease fabric."""

    def test_served_grid_matches_in_process_run(self, tmp_path):
        specs = [RunSpec.make(slow_point, value=i) for i in range(8)]
        port = _free_port()
        helper = SweepWorker("127.0.0.1", port, name="helper",
                             reconnect_attempts=10, reconnect_delay=0.01)
        summaries = []
        thread = threading.Thread(
            target=lambda: summaries.append(helper.run()))
        thread.start()
        runner = SweepRunner(cache_dir=tmp_path,
                             serve=("127.0.0.1", port))
        served = runner.run(specs)
        thread.join(30)
        assert [pickle.dumps(v) for v in served] == \
            [pickle.dumps(v) for v in SweepRunner(jobs=1).run(specs)]
        assert runner.cache_misses == len(specs)
        assert summaries[0].reason == "done"
        assert summaries[0].computed >= 1       # the helper took a share

    def test_second_run_over_a_full_cache_starts_no_coordinator(
            self, tmp_path):
        specs = _rtt_specs()
        first = SweepRunner(cache_dir=tmp_path,
                            serve=("127.0.0.1", _free_port())).run(specs)
        # The address is taken: a coordinator could not bind it.
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            serve = ("127.0.0.1", taken.getsockname()[1])
            ticks = []
            runner = SweepRunner(cache_dir=tmp_path, serve=serve)
            again = runner.run(specs, progress=ticks.append)
            batched = SweepRunner(cache_dir=tmp_path / "batch",
                                  serve=serve).run_batched(
                specs, lambda pending: [s.execute() for s in pending])
        assert again == first == batched
        assert runner.cache_hits == len(specs)
        assert len(ticks) == len(specs)
        assert all(tick.from_cache for tick in ticks)

    def test_serve_requires_cache_dir(self):
        with pytest.raises(ValueError, match="cache_dir"):
            SweepRunner(serve=("127.0.0.1", 8653))


class TestMeasureValidation:
    def test_warmup_must_be_smaller_than_duration(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="warmup"):
            measure(sim, {}, [], warmup=5.0, duration=5.0)
        with pytest.raises(ValueError, match="warmup"):
            measure(sim, {}, [], warmup=10.0, duration=2.0)

    def test_valid_warmup_still_accepted(self):
        sim = Simulator()
        result = measure(sim, {}, [], warmup=0.5, duration=1.0)
        assert result.duration == 1.0
