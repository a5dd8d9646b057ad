"""Tests for the million-query load harness (repro.serve.loadgen)."""

import json

import pytest

from repro.serve.loadgen import (
    GeneratorConfig,
    LoadGenConfig,
    _build_pools,
    _equilibrium_mix,
    _latency_query,
    _phase_rng,
    _random_query,
    format_report,
    run_loadgen,
    write_report,
)


def _tiny_config(**overrides):
    """A config small enough for a unit test (~seconds, not minutes)."""
    base = dict(
        queries=120,
        latency_queries=16,
        concurrency=8,
        hot_set=4,
        cold_pool=24,
        baseline_samples=4,
        max_batch=16,
        generator=GeneratorConfig(n_flows=8, n_links=4),
    )
    base.update(overrides)
    return LoadGenConfig(**base)


class TestQueryGeneration:
    def test_phase_rng_is_deterministic(self):
        config = _tiny_config()
        a = _phase_rng(config, "cold", 7)
        b = _phase_rng(config, "cold", 7)
        assert a.random() == b.random()

    def test_phase_rng_varies_by_phase_and_index(self):
        config = _tiny_config()
        assert _phase_rng(config, "cold", 7).random() \
            != _phase_rng(config, "warm", 7).random()
        assert _phase_rng(config, "cold", 7).random() \
            != _phase_rng(config, "cold", 8).random()

    def test_random_query_reproducible(self):
        config = _tiny_config()
        q1 = _random_query(_phase_rng(config, "x", 3), config,
                           ["olia"], [1.0], n_tcp=2)
        q2 = _random_query(_phase_rng(config, "x", 3), config,
                           ["olia"], [1.0], n_tcp=2)
        assert q1 == q2
        assert q1.content_hash() == q2.content_hash()

    def test_latency_query_reproducible_and_distinct(self):
        config = _tiny_config()
        q1 = _latency_query(config, ["olia"], [1.0], 5)
        q2 = _latency_query(config, ["olia"], [1.0], 5)
        q3 = _latency_query(config, ["olia"], [1.0], 6)
        assert q1.content_hash() == q2.content_hash()
        assert q1.content_hash() != q3.content_hash()

    def test_build_pools_sizes_and_determinism(self):
        config = _tiny_config()
        names = [n for n, _ in config.generator.algorithm_mix]
        weights = [w for _, w in config.generator.algorithm_mix]
        hot1, pool1 = _build_pools(config, names, weights)
        hot2, pool2 = _build_pools(config, names, weights)
        assert len(hot1) == config.hot_set
        assert len(pool1) == config.cold_pool
        assert [q.content_hash() for q in hot1] \
            == [q.content_hash() for q in hot2]
        assert [q.content_hash() for q in pool1] \
            == [q.content_hash() for q in pool2]

    def test_equilibrium_mix_covers_registered_algorithms(self):
        names, weights = _equilibrium_mix(
            [("lia", 0.5), ("olia", 0.3), ("wvegas", 0.2)])
        assert set(names) == {"lia", "olia", "wvegas"}
        assert all(w > 0 for w in weights)

    def test_equilibrium_mix_rejects_unknown_algorithm(self):
        with pytest.raises(KeyError):
            _equilibrium_mix([("not-an-algorithm", 1.0)])


class TestSmokeMode:
    def test_smoke_caps_every_size_knob(self):
        full = LoadGenConfig()
        smoke = full.smoke()
        assert smoke.queries < full.queries
        assert smoke.latency_queries < full.latency_queries
        assert smoke.concurrency <= full.concurrency
        assert smoke.hot_set <= full.hot_set
        assert smoke.cold_pool < full.cold_pool

    @pytest.mark.parametrize("value,expected",
                             [("", False), ("0", False), ("1", True)])
    def test_one_parser_for_the_smoke_toggle(self, monkeypatch, value,
                                             expected):
        """Every harness reads REPRO_BENCH_SMOKE through the same
        function, so ``0`` means full size everywhere."""
        import repro.benchreport
        import repro.dist.bench
        import repro.experiments.scale
        import repro.serve.loadgen
        from repro.util import smoke_mode

        monkeypatch.setenv("REPRO_BENCH_SMOKE", value)
        assert smoke_mode() is expected
        for module in (repro.benchreport, repro.dist.bench,
                       repro.experiments.scale, repro.serve.loadgen):
            assert module.smoke_mode is smoke_mode, module.__name__


class TestRunLoadgen:
    def test_report_shape_and_invariants(self, tmp_path):
        report = run_loadgen(_tiny_config())
        assert report["benchmark"] == "serve"
        assert set(report) >= {"config", "sequential_baseline", "cold",
                               "warm", "replay", "store",
                               "bitwise_equal"}
        assert report["bitwise_equal"] is True
        assert report["sequential_baseline"]["qps"] > 0
        for phase in ("cold", "warm", "replay"):
            stats = report[phase]
            assert stats["qps"] > 0
            assert stats["p50_ms"] > 0
            assert stats["p50_ms"] <= stats["p99_ms"]
        # The warm phase replays the cold latency set against the now
        # populated store: every query must be a hit.
        assert report["warm"]["hit_rate"] == 1.0
        assert report["warm"]["p50_improvement"] > 1.0
        # The replay phase mixes hot-set repeats with pool queries, so
        # the store serves most but not necessarily all of them.
        assert 0.0 < report["replay"]["hit_rate"] <= 1.0
        # Formatting and writing must accept the real report.
        text = format_report(report)
        assert "cold" in text and "replay" in text
        out = tmp_path / "BENCH_serve.json"
        write_report(report, out)
        assert json.loads(out.read_text())["benchmark"] == "serve"

    def test_report_says_the_mode_it_ran(self, monkeypatch):
        """The ``smoke`` field is the mode the run used, not the
        environment toggle (the bench gate picks its floors by it)."""
        monkeypatch.delenv("REPRO_BENCH_SMOKE", raising=False)
        assert run_loadgen(_tiny_config(), smoke=True)["smoke"] is True
        monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
        assert run_loadgen(_tiny_config(), smoke=False)["smoke"] is False

    def test_reports_are_deterministic_in_structure(self):
        a = run_loadgen(_tiny_config())
        b = run_loadgen(_tiny_config())
        # Timings differ run to run; the workload must not.
        assert a["config"] == b["config"]
        assert a["cold"]["queries"] == b["cold"]["queries"]
        assert a["replay"]["service"]["admitted"] \
            == b["replay"]["service"]["admitted"]

        # Whether a repeated query lands as a store hit or an in-flight
        # dedup hit is a race against the batching window; only their
        # sum (queries answered without a fresh solve) is deterministic.
        def served_without_solving(report):
            dedup = sum(report[phase]["service"]["dedup_hits"]
                        for phase in ("cold", "replay"))
            return report["store"]["hits"] + dedup

        assert served_without_solving(a) == served_without_solving(b)
