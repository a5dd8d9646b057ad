"""Fault-injection and integration tests for the distributed sweep fabric.

The scenarios the ISSUE names: a worker killed mid-lease (the
coordinator reaps and requeues, no point lost or doubled), a
coordinator killed and resumed from the shared cache, a torn result
file healed through the atomics path, and a two-worker run whose merged
output is bitwise-equal to a single-worker reference.

In-process tests drive :class:`SweepWorker` on threads against a
:class:`CoordinatorThread`; the end-to-end test spawns real
``python -m repro sweep work`` processes through the bench harness.
"""

import pickle
import threading
import time

import pytest

from repro.dist import (PROTOCOL_VERSION, CoordinatorThread,
                        JsonLineConnection, ProtocolError, SweepCoordinator,
                        SweepWorker, decode_payload, encode_payload,
                        parse_hostport)
from repro.dist import coordinator as coordinator_module
from repro.dist.bench import merge_results
from repro.experiments import runner as runner_module
from repro.experiments.runner import RunSpec
from repro.experiments.sweep import SweepRunner
from repro.serve.store import MISSING, ResultStore


def grid_point(*, value, scale=1.0, seed=None):
    """Cheap deterministic point function (module-level for RunSpec)."""
    return {"value": value, "scale": scale, "seed": seed,
            "result": value * scale + (seed or 0)}


def bulky_point(*, size):
    """A point whose result is ``size`` bytes on the wire (and more)."""
    return "x" * size


def _grid(n=12):
    return [RunSpec.make(grid_point, value=i, scale=2.0, seed=7)
            for i in range(n)]


def _coordinator(specs, cache_dir, **kwargs):
    kwargs.setdefault("heartbeat_interval", 0.1)
    kwargs.setdefault("heartbeat_timeout", 1.0)
    kwargs.setdefault("lease_size", 3)
    return SweepCoordinator(specs, cache_dir, **kwargs)


def _run_workers(port, count, **kwargs):
    kwargs.setdefault("reconnect_attempts", 3)
    kwargs.setdefault("reconnect_delay", 0.05)
    workers = [SweepWorker("127.0.0.1", port, name=f"w{i}", **kwargs)
               for i in range(count)]
    summaries = [None] * count
    def run(i):
        summaries[i] = workers[i].run()
    threads = [threading.Thread(target=run, args=(i,))
               for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert all(s is not None for s in summaries), "a worker hung"
    return summaries


class TestProtocol:
    def test_payload_round_trip(self):
        spec = _grid(1)[0]
        assert decode_payload(encode_payload(spec)) == spec
        assert decode_payload(encode_payload({"a": [1, None]})) == \
            {"a": [1, None]}

    def test_parse_hostport(self):
        assert parse_hostport("10.0.0.5:9000") == ("10.0.0.5", 9000)
        assert parse_hostport("somehost") == ("somehost", 8653)
        assert parse_hostport(":9000") == ("127.0.0.1", 9000)
        assert parse_hostport("[::1]:8653") == ("::1", 8653)
        assert parse_hostport("[::1]", 9000) == ("::1", 9000)

    def test_parse_hostport_rejects_garbage(self):
        with pytest.raises(ValueError, match="numeric port"):
            parse_hostport("host:abc")
        with pytest.raises(ValueError, match="port must be in"):
            parse_hostport("host:99999")
        with pytest.raises(ValueError, match="needs brackets"):
            parse_hostport("::1")
        for text in ("[::1", "[::1]8653"):
            with pytest.raises(ValueError, match=r"\[HOST\]:PORT"):
                parse_hostport(text)

    def test_register_rejects_protocol_mismatch(self, tmp_path):
        thread = CoordinatorThread(_coordinator(_grid(2), tmp_path))
        port = thread.start()
        try:
            with JsonLineConnection("127.0.0.1", port) as conn:
                with pytest.raises(ProtocolError,
                                   match="protocol version mismatch"):
                    conn.request("register", name="old", jobs=1,
                                 protocol=PROTOCOL_VERSION + 1)
        finally:
            thread.stop()
            thread.result()

    def test_unknown_op_is_in_band_error(self, tmp_path):
        thread = CoordinatorThread(_coordinator(_grid(2), tmp_path))
        port = thread.start()
        try:
            with JsonLineConnection("127.0.0.1", port) as conn:
                with pytest.raises(ProtocolError, match="unknown op"):
                    conn.request("frobnicate")
                # The connection survives the error (in-band reporting).
                status = conn.request("status")
                assert status["total"] == 2
        finally:
            thread.stop()
            thread.result()


    def test_over_limit_line_is_in_band_error(self, tmp_path, monkeypatch):
        """A line over the coordinator's limit is answered, and neither
        this connection nor the next one pays for it (the parent raised
        out of the handler: the peer saw EOF and no reply)."""
        monkeypatch.setattr(coordinator_module, "MAX_LINE_BYTES", 1 << 16,
                            raising=False)
        thread = CoordinatorThread(_coordinator(_grid(2), tmp_path))
        port = thread.start()
        try:
            with JsonLineConnection("127.0.0.1", port) as conn:
                with pytest.raises(ProtocolError, match="line limit"):
                    conn.request("status", pad="x" * 100_000)
                assert conn.request("status")["total"] == 2
            with JsonLineConnection("127.0.0.1", port) as conn:
                assert conn.request("status")["total"] == 2
        finally:
            thread.stop()
            thread.result()


class TestTwoWorkerIntegration:
    def test_merged_output_bitwise_equal_to_single_worker(self, tmp_path):
        specs = _grid(14)
        reference = SweepRunner(jobs=1).run(specs)

        thread = CoordinatorThread(
            _coordinator(specs, tmp_path / "dist", resume=False))
        port = thread.start()
        summaries = _run_workers(port, 2)
        stats = thread.result()

        assert stats["done"] and stats["completed"] == 14
        merged = merge_results(specs, tmp_path / "dist")
        assert [pickle.dumps(v) for v in merged] == \
            [pickle.dumps(v) for v in reference]
        assert all(s.reason == "done" for s in summaries)
        # Every point computed exactly once across the fleet.
        assert sum(s.computed for s in summaries) == 14
        assert stats["duplicate_results"] == 0

    def test_merged_progress_counts_per_worker(self, tmp_path):
        specs = _grid(10)
        thread = CoordinatorThread(_coordinator(specs, tmp_path))
        port = thread.start()
        _run_workers(port, 2)
        stats = thread.result()
        assert stats["total"] == 10
        by_worker = stats["workers"]
        assert sum(w["completed"] for w in by_worker.values()) == 10
        assert stats["leases_granted"] >= 1
        assert stats["results_received"] == 10


    def test_late_worker_still_hears_done(self, tmp_path):
        """Complete the grid with one worker, *then* start the second:
        a coordinator told to expect two is still there to answer it
        (it used to close with the first worker's connection, and the
        late one gave up ``coordinator-gone``)."""
        specs = _grid(6)
        thread = CoordinatorThread(
            _coordinator(specs, tmp_path, resume=False, expected_workers=2),
            linger=20.0)
        port = thread.start()
        (first,) = _run_workers(port, 1)
        assert first.reason == "done" and first.computed == 6
        time.sleep(0.3)     # well past the open-connection grace
        (late,) = _run_workers(port, 1)
        assert late.reason == "done" and late.computed == 0
        started = time.time()
        stats = thread.result()
        # Both expected workers have been answered: no further wait.
        assert time.time() - started < 5.0
        assert stats["done"] and stats["completed"] == 6

    def test_without_a_count_the_coordinator_closes_as_before(self,
                                                               tmp_path):
        specs = _grid(6)
        thread = CoordinatorThread(
            _coordinator(specs, tmp_path, resume=False), linger=20.0)
        port = thread.start()
        _run_workers(port, 1)
        started = time.time()
        assert thread.result()["done"]
        assert time.time() - started < 5.0      # not the 20 s linger
        (late,) = _run_workers(port, 1)
        assert late.reason == "coordinator-gone"

    def test_expected_worker_that_never_comes_costs_only_the_linger(
            self, tmp_path):
        specs = _grid(4)
        thread = CoordinatorThread(
            _coordinator(specs, tmp_path, resume=False, expected_workers=2),
            linger=0.5)
        port = thread.start()
        _run_workers(port, 1)
        assert thread.result(timeout=10.0)["done"]


class TestWorkerKilledMidLease:
    def test_eof_requeues_lease_no_point_lost_or_doubled(self, tmp_path):
        specs = _grid(9)
        coordinator = _coordinator(specs, tmp_path, lease_size=4)
        thread = CoordinatorThread(coordinator)
        port = thread.start()

        # A worker registers, leases 4 points, and dies (EOF) without
        # reporting anything.
        doomed = JsonLineConnection("127.0.0.1", port)
        hello = doomed.request("register", name="doomed", jobs=1,
                               protocol=PROTOCOL_VERSION)
        lease = doomed.request("lease", worker_id=hello["worker_id"],
                               max_points=4)
        assert len(lease["points"]) == 4
        doomed.close()
        time.sleep(0.2)     # let the server observe the EOF

        summaries = _run_workers(port, 1)
        stats = thread.result()
        assert stats["done"] and stats["completed"] == 9
        assert stats["reassigned_points"] == 4
        assert stats["duplicate_results"] == 0
        # The survivor computed every point exactly once.
        assert summaries[0].computed == 9
        merged = merge_results(specs, tmp_path)
        assert merged == SweepRunner(jobs=1).run(specs)

    def test_silent_worker_reaped_by_heartbeat_timeout(self, tmp_path):
        specs = _grid(6)
        coordinator = _coordinator(specs, tmp_path, lease_size=2,
                                   heartbeat_interval=0.1,
                                   heartbeat_timeout=0.4)
        thread = CoordinatorThread(coordinator)
        port = thread.start()

        # This worker keeps its connection open but goes silent after
        # leasing — a hung process, not a dead one.  Only the reaper
        # can recover its lease.
        hung = JsonLineConnection("127.0.0.1", port)
        hello = hung.request("register", name="hung", jobs=1,
                             protocol=PROTOCOL_VERSION)
        lease = hung.request("lease", worker_id=hello["worker_id"],
                             max_points=2)
        assert len(lease["points"]) == 2
        time.sleep(0.8)     # > heartbeat_timeout: reaper fires

        summaries = _run_workers(port, 1)
        stats = thread.result()
        hung.close()
        assert stats["done"] and stats["completed"] == 6
        assert stats["reassigned_points"] == 2
        assert stats["dead_workers"] == 1
        assert summaries[0].computed == 6

    def test_late_result_from_reaped_worker_is_deduplicated(
            self, tmp_path):
        specs = _grid(4)
        coordinator = _coordinator(specs, tmp_path, lease_size=2)
        thread = CoordinatorThread(coordinator)
        port = thread.start()

        straggler = JsonLineConnection("127.0.0.1", port)
        hello = straggler.request("register", name="straggler", jobs=1,
                                  protocol=PROTOCOL_VERSION)
        lease = straggler.request("lease", worker_id=hello["worker_id"],
                                  max_points=2)
        point = lease["points"][0]
        value = decode_payload(point["spec"]).execute()

        # A second worker reports the straggler's point first (the
        # reassignment race, with the timing pinned down): the late
        # copy must be acknowledged as a duplicate, not double-counted.
        other = JsonLineConnection("127.0.0.1", port)
        hello2 = other.request("register", name="other", jobs=1,
                               protocol=PROTOCOL_VERSION)
        first = other.request("result", worker_id=hello2["worker_id"],
                              index=point["index"], hash=point["hash"],
                              payload=encode_payload(value),
                              from_cache=False)
        assert first["duplicate"] is False
        late = straggler.request(
            "result", worker_id=hello["worker_id"],
            index=point["index"], hash=point["hash"],
            payload=encode_payload(value), from_cache=False)
        assert late["duplicate"] is True
        status = straggler.request("status")
        assert status["duplicate_results"] == 1
        straggler.close()
        other.close()
        thread.stop()
        thread.result()

    def test_worker_from_another_checkout_refuses_the_lease(
            self, tmp_path, monkeypatch):
        """A worker whose code keys a point differently must not compute
        it under the coordinator's key: it stops, names the mismatch,
        writes nothing, and its lease goes back to the queue."""
        specs = _grid(4)
        thread = CoordinatorThread(_coordinator(specs, tmp_path))
        port = thread.start()
        monkeypatch.setattr(runner_module, "code_digest",
                            lambda: "another checkout")
        try:
            summary = SweepWorker("127.0.0.1", port, name="stale",
                                  reconnect_attempts=1).run()
            assert "content hash mismatch" in summary.reason
            assert summary.computed == 0
            deadline = time.time() + 5.0
            while thread.coordinator.status()["leased"] and \
                    time.time() < deadline:
                time.sleep(0.02)
            status = thread.coordinator.status()
            assert (status["leased"], status["queued"]) == (0, 4)
            assert list(tmp_path.glob("*.pkl")) == []
        finally:
            thread.stop()
            thread.result()

    def test_result_hash_mismatch_rejected(self, tmp_path):
        specs = _grid(2)
        thread = CoordinatorThread(_coordinator(specs, tmp_path))
        port = thread.start()
        try:
            with JsonLineConnection("127.0.0.1", port) as conn:
                hello = conn.request("register", name="liar", jobs=1,
                                     protocol=PROTOCOL_VERSION)
                with pytest.raises(ProtocolError, match="hash mismatch"):
                    conn.request("result", worker_id=hello["worker_id"],
                                 index=0, hash="0" * 64,
                                 payload=encode_payload({"fake": 1}),
                                 from_cache=False)
        finally:
            thread.stop()
            thread.result()


class TestCoordinatorKilledAndResumed:
    def test_restart_resumes_from_shared_cache(self, tmp_path):
        specs = _grid(8)
        cache = tmp_path / "cache"

        # First coordinator: a manual worker completes 3 points, then
        # the coordinator is killed.
        first = _coordinator(specs, cache)
        thread_a = CoordinatorThread(first)
        port_a = thread_a.start()
        with JsonLineConnection("127.0.0.1", port_a) as conn:
            hello = conn.request("register", name="partial", jobs=1,
                                 protocol=PROTOCOL_VERSION)
            lease = conn.request("lease", worker_id=hello["worker_id"],
                                 max_points=3)
            for point in lease["points"]:
                value = decode_payload(point["spec"]).execute()
                conn.request("result", worker_id=hello["worker_id"],
                             index=point["index"], hash=point["hash"],
                             payload=encode_payload(value),
                             from_cache=False)
        thread_a.stop()
        stats_a = thread_a.result()
        assert stats_a["completed"] == 3 and not stats_a["done"]

        # Second coordinator on the same cache: resumes the 3 completed
        # points and only hands out the remaining 5.
        second = _coordinator(specs, cache)
        assert second.resumed_points == 3
        thread_b = CoordinatorThread(second)
        port_b = thread_b.start()
        summaries = _run_workers(port_b, 1)
        stats_b = thread_b.result()
        assert stats_b["done"] and stats_b["completed"] == 8
        assert stats_b["resumed_points"] == 3
        assert summaries[0].computed == 5    # zero lost, zero recomputed
        assert merge_results(specs, cache) == SweepRunner(jobs=1).run(specs)

    def test_worker_exits_cleanly_when_coordinator_never_returns(self):
        # Nothing is listening on this port: the worker must give up
        # after its reconnect budget, not hang or crash.
        worker = SweepWorker("127.0.0.1", 1, reconnect_attempts=2,
                             reconnect_delay=0.05)
        summary = worker.run()
        assert summary.reason == "coordinator-gone"
        assert summary.computed == 0
        assert summary.reconnects == 2

    def test_worker_redials_until_coordinator_appears(self, tmp_path):
        specs = _grid(5)
        coordinator = _coordinator(specs, tmp_path)
        thread = CoordinatorThread(coordinator)

        # Start the worker against a port with no listener yet; start
        # the coordinator on that port after a delay.  The reconnect
        # loop must pick it up and finish the grid.
        import socket
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        thread.port = port

        worker = SweepWorker("127.0.0.1", port, name="patient",
                             reconnect_attempts=20, reconnect_delay=0.1)
        result = []
        runner = threading.Thread(target=lambda: result.append(worker.run()))
        runner.start()
        time.sleep(0.3)
        assert thread.start() == port
        runner.join(30)
        stats = thread.result()
        assert result and result[0].reason == "done"
        assert stats["done"] and stats["completed"] == 5


class TestTornResultHealing:
    def test_torn_cache_entry_recomputed_on_resume(self, tmp_path):
        specs = _grid(6)
        cache = tmp_path / "cache"
        # A completed sweep...
        SweepRunner(jobs=1, cache_dir=cache).run(specs)
        # ...with one entry torn by a crashed writer.
        store = ResultStore(cache, memory_entries=0)
        victim = store.path_for(specs[2].content_hash())
        victim.write_bytes(b"\x80\x04 torn mid-write")

        coordinator = _coordinator(specs, cache)
        # The resume scan heals (deletes) the torn entry and marks the
        # point incomplete instead of serving garbage.
        assert coordinator.resumed_points == 5
        assert store.get(specs[2].content_hash(), MISSING) is MISSING

        thread = CoordinatorThread(coordinator)
        port = thread.start()
        summaries = _run_workers(port, 1)
        stats = thread.result()
        assert stats["done"]
        assert summaries[0].computed == 1    # only the healed point reran
        assert merge_results(specs, cache) == SweepRunner(jobs=1).run(specs)

    def test_already_complete_grid_serves_without_workers(self, tmp_path):
        specs = _grid(4)
        cache = tmp_path / "cache"
        SweepRunner(jobs=1, cache_dir=cache).run(specs)
        coordinator = _coordinator(specs, cache)
        assert coordinator.resumed_points == 4 and coordinator.done
        thread = CoordinatorThread(coordinator)
        thread.start()
        stats = thread.result()    # serve() returns immediately: done
        assert stats["done"] and stats["completed"] == 4
        assert stats["results_received"] == 0


class TestCoordinatorValidation:
    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one spec"):
            SweepCoordinator([], tmp_path)

    def test_unknown_worker_id_rejected(self, tmp_path):
        thread = CoordinatorThread(_coordinator(_grid(2), tmp_path))
        port = thread.start()
        try:
            with JsonLineConnection("127.0.0.1", port) as conn:
                with pytest.raises(ProtocolError, match="unknown worker"):
                    conn.request("lease", worker_id="w999", max_points=1)
        finally:
            thread.stop()
            thread.result()

    def test_rejected_result_stops_the_worker(self, tmp_path, monkeypatch):
        """A result the coordinator refuses (here: over its line limit)
        ends the worker with that error.  Reconnecting would lease the
        same point and fail the same way, forever."""
        monkeypatch.setattr(coordinator_module, "MAX_LINE_BYTES", 1 << 16,
                            raising=False)
        specs = [RunSpec.make(bulky_point, size=100_000)]
        thread = CoordinatorThread(_coordinator(specs, tmp_path))
        port = thread.start()
        worker = SweepWorker("127.0.0.1", port, name="bulky",
                             reconnect_attempts=3, reconnect_delay=0.05)
        summaries = []
        runner = threading.Thread(
            target=lambda: summaries.append(worker.run()), daemon=True)
        runner.start()
        runner.join(10)
        try:
            assert not runner.is_alive(), "worker keeps re-leasing the point"
            assert "line limit" in summaries[0].reason
            assert summaries[0].computed == 0
            assert thread.coordinator.status()["leases_granted"] == 1
        finally:
            worker.stop()
            thread.stop()
            thread.result()

    def test_heartbeat_timeout_must_exceed_interval(self, tmp_path):
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            SweepCoordinator(_grid(2), tmp_path, heartbeat_interval=5.0,
                             heartbeat_timeout=1.0)


class TestWorkerJobs:
    def test_jobs_fan_out_over_processes(self, tmp_path):
        specs = _grid(10)
        thread = CoordinatorThread(
            _coordinator(specs, tmp_path, lease_size=5))
        port = thread.start()
        summaries = _run_workers(port, 1, jobs=2)
        stats = thread.result()
        assert stats["done"] and stats["completed"] == 10
        assert summaries[0].computed == 10
        assert merge_results(specs, tmp_path) == \
            SweepRunner(jobs=1).run(specs)

    def test_jobs_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            SweepWorker("127.0.0.1", 1, jobs=0)
        with pytest.raises(ValueError, match="reconnect_attempts"):
            SweepWorker("127.0.0.1", 1, reconnect_attempts=0)


class TestEndToEndBench:
    def test_subprocess_workers_bitwise_equal(self):
        # The real deployment path: actual `python -m repro sweep work`
        # processes against a coordinator thread, tiny smoke grid.
        from repro.dist.bench import run_dist_bench
        report = run_dist_bench(smoke=True, worker_counts=(1, 2),
                                seeds=1, log=lambda _msg: None)
        assert report["benchmark"] == "dist"
        assert report["bitwise_equal"] is True
        assert report["grid"]["points"] == 8
        for count in ("1", "2"):
            run = report["workers"][count]
            assert run["completed"] == 8
            assert run["bitwise_equal"] is True
        assert "scaling_vs_1" in report["workers"]["2"]
