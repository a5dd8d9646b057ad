"""Tests for the allocation-query service (repro.serve.service)."""

import asyncio
import json

import pytest

from repro.serve.service import (
    AllocationQuery,
    AllocationService,
    LinkSpec,
    RouteSpec,
    UserSpec,
    run_server,
    solve_query,
)
from repro.serve.store import ResultStore


def _query(algorithm="olia", capacity=1000.0, rtt=0.1, tcp_rtt=0.12,
           **solver):
    return AllocationQuery(
        links=(LinkSpec(capacity=capacity, model="sharp"),
               LinkSpec(capacity=capacity * 1.2, model="power",
                        p_at_capacity=0.02)),
        users=(UserSpec(algorithm=algorithm), UserSpec("tcp")),
        routes=(RouteSpec(0, (0,), rtt), RouteSpec(0, (1,), rtt * 1.3),
                RouteSpec(1, (1,), tcp_rtt)),
        **solver)


def _run(coro):
    return asyncio.run(coro)


class TestQueryValidation:
    def test_unknown_algorithm_fails_at_admission(self):
        query = _query(algorithm="definitely-not-registered")

        async def go():
            service = AllocationService()
            try:
                with pytest.raises(KeyError):
                    await service.query(query)
            finally:
                service.close()

        _run(go())

    def test_bad_route_indices_rejected(self):
        with pytest.raises(ValueError):
            AllocationQuery(links=(LinkSpec(100.0),),
                            users=(UserSpec(),),
                            routes=(RouteSpec(5, (0,), 0.1),))
        with pytest.raises(ValueError):
            AllocationQuery(links=(LinkSpec(100.0),),
                            users=(UserSpec(),),
                            routes=(RouteSpec(0, (3,), 0.1),))

    def test_bad_loss_model_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec(100.0, model="bernoulli")

    def test_content_hash_canonicalizes_param_order(self):
        a = UserSpec("olia", params=(("a", 1), ("b", 2)))
        b = UserSpec("olia", params=(("b", 2), ("a", 1)))
        assert a == b

    def test_structure_key_ignores_capacities_and_rtts(self):
        a = _query(capacity=500.0, rtt=0.05)
        b = _query(capacity=900.0, rtt=0.2)
        assert a.structure_key() == b.structure_key()
        assert a.content_hash() != b.content_hash()

    def test_structure_key_varies_with_solver_knobs(self):
        assert _query().structure_key() \
            != _query(damping=0.1).structure_key()

    def test_from_dict_roundtrip(self):
        query = _query()
        payload = {
            "links": [{"capacity": link.capacity, "model": link.model,
                       "p_at_capacity": link.p_at_capacity}
                      for link in query.links],
            "users": [{"algorithm": user.algorithm,
                       "params": dict(user.params)}
                      for user in query.users],
            "routes": [{"user": r.user, "links": list(r.links),
                        "rtt": r.rtt} for r in query.routes],
        }
        assert AllocationQuery.from_dict(payload).content_hash() \
            == query.content_hash()


class TestBatchingAndDedup:
    def test_concurrent_same_structure_queries_coalesce(self):
        queries = [_query(algorithm="lia", capacity=400.0 + 40 * i,
                          rtt=0.05 + 0.01 * i)
                   for i in range(8)]

        async def go():
            service = AllocationService(batch_window=0.01, max_batch=64)
            try:
                results = await asyncio.gather(
                    *(service.query(q) for q in queries))
                await service.drain()
                return service.stats(), results
            finally:
                service.close()

        stats, results = _run(go())
        assert stats["admitted"] == 8
        assert stats["batches"] == 1
        assert stats["max_batch_size"] == 8
        assert all(r["converged"] for r in results)

    def test_batch_results_bitwise_equal_sequential(self):
        queries = [_query(algorithm=algo, capacity=cap)
                   for algo in ("lia", "olia", "balia", "wvegas", "tcp")
                   for cap in (500.0, 800.0)]

        async def go():
            service = AllocationService(batch_window=0.01, max_batch=64)
            try:
                results = await asyncio.gather(
                    *(service.query(q) for q in queries))
                await service.drain()
                return service.stats(), results
            finally:
                service.close()

        stats, results = _run(go())
        assert stats["batches"] == 1      # one structure, one batch
        for query, served in zip(queries, results):
            assert served == solve_query(query)

    def test_max_batch_fires_immediately(self):
        queries = [_query(capacity=300.0 + i) for i in range(6)]

        async def go():
            service = AllocationService(batch_window=60.0, max_batch=3)
            try:
                results = await asyncio.gather(
                    *(service.query(q) for q in queries))
                await service.drain()
                return service.stats(), results
            finally:
                service.close()

        stats, results = _run(go())
        # A one-minute window would hang forever if the size cap did
        # not flush; reaching here at all proves it fired.
        assert stats["batches"] == 2
        assert stats["batch_histogram"] == {"3": 2}
        assert len(results) == 6

    def test_different_structures_do_not_mix(self):
        a = _query()                       # 2 users
        b = AllocationQuery(               # 1 user: different incidence
            links=(LinkSpec(500.0),), users=(UserSpec("tcp"),),
            routes=(RouteSpec(0, (0,), 0.1),))

        async def go():
            service = AllocationService(batch_window=0.01)
            try:
                await asyncio.gather(service.query(a), service.query(b))
                await service.drain()
                return service.stats()
            finally:
                service.close()

        stats = _run(go())
        assert stats["batches"] == 2
        assert stats["batch_histogram"] == {"1": 2}

    def test_identical_inflight_queries_share_one_solve(self):
        query = _query()

        async def go():
            service = AllocationService(batch_window=0.01)
            try:
                results = await asyncio.gather(
                    *(service.query(query) for _ in range(5)))
                await service.drain()
                return service.stats(), results
            finally:
                service.close()

        stats, results = _run(go())
        assert stats["admitted"] == 1
        assert stats["dedup_hits"] == 4
        assert all(r == results[0] for r in results)


class TestMemoization:
    def test_store_hit_skips_the_solver(self, tmp_path):
        query = _query()
        store = ResultStore(tmp_path)

        async def go():
            service = AllocationService(store, batch_window=0.001)
            try:
                first = await service.query(query)
                again = await service.query(query)
                return service.stats(), first, again
            finally:
                service.close()

        stats, first, again = _run(go())
        assert stats["admitted"] == 1
        assert stats["store_hits"] == 1
        assert first == again

    def test_memoized_result_survives_service_restart(self, tmp_path):
        query = _query()

        async def fill():
            service = AllocationService(ResultStore(tmp_path),
                                        batch_window=0.001)
            try:
                return await service.query(query)
            finally:
                service.close()

        async def reuse():
            service = AllocationService(ResultStore(tmp_path),
                                        batch_window=0.001)
            try:
                result = await service.query(query)
                return service.stats(), result
            finally:
                service.close()

        first = _run(fill())
        stats, second = _run(reuse())
        assert stats["store_hits"] == 1
        assert stats["admitted"] == 0
        assert first == second == solve_query(query)


class TestServer:
    def test_json_lines_roundtrip_and_stats(self):
        query = _query()
        payload = {
            "links": [{"capacity": link.capacity, "model": link.model,
                       "p_at_capacity": link.p_at_capacity}
                      for link in query.links],
            "users": [{"algorithm": user.algorithm} for user in query.users],
            "routes": [{"user": r.user, "links": list(r.links),
                        "rtt": r.rtt} for r in query.routes],
        }

        async def go():
            import socket
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                port = probe.getsockname()[1]
            service = AllocationService(batch_window=0.001)
            ready = asyncio.Event()
            server = asyncio.ensure_future(
                run_server("127.0.0.1", port, service=service,
                           ready=ready))
            await asyncio.wait_for(ready.wait(), timeout=10)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer.write((json.dumps(payload) + "\n").encode())
                writer.write((json.dumps({"op": "stats"}) + "\n").encode())
                await writer.drain()
                answer = json.loads(await reader.readline())
                stats = json.loads(await reader.readline())
                bad = dict(payload, users=[{"algorithm": "nope"}] * 2)
                writer.write((json.dumps(bad) + "\n").encode())
                await writer.drain()
                error = json.loads(await reader.readline())
                writer.close()
                return answer, stats, error
            finally:
                server.cancel()
                try:
                    await server
                except (asyncio.CancelledError, Exception):
                    pass
                service.close()

        answer, stats, error = _run(go())
        assert answer["ok"] and answer["result"] == solve_query(query)
        assert stats["ok"] and stats["result"]["admitted"] == 1
        assert not error["ok"] and "nope" in error["error"]

    def test_over_limit_line_gets_in_band_error(self):
        """A line over ``MAX_LINE_BYTES`` (1 MiB) is answered in-band and
        costs neither this connection nor the next one; a line over
        asyncio's 64 KiB default is just a request.  (The parent raised
        out of the handler on both: the peer saw EOF and no reply.)"""
        def stats_line(pad):
            return (json.dumps({"op": "stats", "pad": "x" * pad})
                    + "\n").encode()

        async def ask(port, *lines):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            answers = []
            for line in lines:
                writer.write(line)
                await writer.drain()
                answers.append(json.loads(
                    await asyncio.wait_for(reader.readline(), timeout=10)))
            writer.close()
            return answers

        async def go():
            import socket
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                port = probe.getsockname()[1]
            service = AllocationService(batch_window=0.001)
            ready = asyncio.Event()
            server = asyncio.ensure_future(
                run_server("127.0.0.1", port, service=service,
                           ready=ready))
            await asyncio.wait_for(ready.wait(), timeout=10)
            try:
                same = await ask(port, stats_line(70_000),
                                 stats_line(2 << 20), stats_line(0))
                fresh = await ask(port, stats_line(0))
                return same, fresh
            finally:
                server.cancel()
                try:
                    await server
                except (asyncio.CancelledError, Exception):
                    pass
                service.close()

        (padded, error, after), (fresh,) = _run(go())
        assert padded["ok"] and after["ok"] and fresh["ok"]
        assert not error["ok"] and "line limit" in error["error"]


class TestWhatTheResponseSays:
    def test_exit_reason_and_evaluation_count(self):
        response = solve_query(_query())
        assert response["exit_reason"] in ("newton", "tie", "fallback")
        assert response["converged"] is True
        assert isinstance(response["iterations"], int)
        assert response["iterations"] >= 1
        assert 0.0 <= response["residual"] < _query().tol

    def test_a_starved_budget_is_served_unconverged_and_counted(self):
        query = _query(max_iter=3)

        async def go():
            service = AllocationService()
            try:
                return await service.query(query), service.stats()
            finally:
                service.close()

        response, stats = _run(go())
        assert response["converged"] is False
        assert response["exit_reason"] == "budget"
        assert response["iterations"] <= 3
        assert stats["unconverged"] == 1 and stats["solved"] == 1

    def test_solver_version_is_part_of_the_content_hash(self, monkeypatch):
        from repro.serve import service as service_module
        before = _query().content_hash()
        monkeypatch.setattr(service_module, "SOLVER_VERSION",
                            service_module.SOLVER_VERSION + 1)
        assert _query().content_hash() != before


class TestImportFootprint:
    def test_the_server_imports_neither_scipy_nor_the_simulator(self):
        """A serve process answers equilibrium queries; the load
        harness's names stay importable from the package, lazily."""
        import subprocess
        import sys
        code = (
            "import repro.serve.service, sys\n"
            "heavy = {'scipy', 'repro.sim', 'repro.topology'}\n"
            "assert not heavy & set(sys.modules), heavy & set(sys.modules)\n"
            "from repro.serve import run_loadgen, LoadGenConfig, "
            "write_report\n"
            "assert 'repro.topology' in sys.modules\n")
        subprocess.run([sys.executable, "-c", code], check=True)
