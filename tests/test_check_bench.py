"""Tests for the CI bench regression checker (benchmarks/check_bench.py)."""

import importlib.util
import json
import pathlib

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_bench",
    pathlib.Path(__file__).parent.parent / "benchmarks" / "check_bench.py")
check_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_bench)


def _report(*, fluid_speedup=30.0, eq_speedup=4.0, engine_speedup=1.4,
            loaded_speedup=3.0, churn_speedup=8.0,
            balia_fluid_speedup=20.0, balia_eq_speedup=4.0,
            compiled_speedup=7.5, compiled_available=True,
            n_points=64, n_events=200_000, n_ticks=2000, bitwise=True,
            balia_bitwise=True):
    compiled = {"available": compiled_available, "n_events": n_events,
                "n_pending": 20_000}
    if compiled_available:
        compiled["speedup"] = compiled_speedup
    return {
        "fluid_sweep": {"n_points": n_points, "speedup": fluid_speedup,
                        "bitwise_equal": bitwise},
        "equilibrium_sweep": {"n_points": n_points, "speedup": eq_speedup,
                              "bitwise_equal": bitwise},
        "fluid_sweep_balia": {"algorithm": "balia", "n_points": n_points,
                              "speedup": balia_fluid_speedup,
                              "bitwise_equal": balia_bitwise},
        "equilibrium_sweep_balia": {"algorithm": "balia",
                                    "n_points": n_points,
                                    "speedup": balia_eq_speedup,
                                    "bitwise_equal": balia_bitwise},
        "engine": {"n_events": n_events, "speedup": engine_speedup},
        "engine_loaded": {"n_events": n_events, "n_pending": 20_000,
                          "speedup": loaded_speedup},
        "engine_compiled": compiled,
        "timer_churn": {"n_timers": 32, "n_ticks": n_ticks,
                        "speedup": churn_speedup},
    }


def _scale_report(**overrides):
    record = {
        "preset": "medium",
        "n_flows": 1000,
        "events_per_sec": 250_000.0,
        "wall_seconds": 1.2,
        "events": 300_000,
        "peak_pending": 8000,
        "goodput_mean_pps": 40.0,
        "goodput_p50_pps": 12.0,
    }
    record.update(overrides)
    return {"benchmark": "BENCH_scale", "smoke": False,
            "presets": {"medium": record}}


class TestCheckReport:
    def test_identical_reports_pass(self):
        assert check_bench.check_report(_report(), _report()) == []

    def test_halved_speedup_at_same_size_still_passes(self):
        new = _report(fluid_speedup=15.1)
        assert check_bench.check_report(new, _report(), factor=2.0) == []

    def test_more_than_2x_regression_fails(self):
        new = _report(fluid_speedup=14.0)
        failures = check_bench.check_report(new, _report(), factor=2.0)
        assert len(failures) == 1
        assert "fluid_sweep" in failures[0]

    def test_bitwise_mismatch_fails(self):
        new = _report(bitwise=False)
        failures = check_bench.check_report(new, _report())
        assert len(failures) == 2
        assert all("bitwise" in f for f in failures)

    def test_balia_bitwise_mismatch_fails(self):
        """BALIA's sweep rows are validated exactly like the others."""
        new = _report(balia_bitwise=False)
        failures = check_bench.check_report(new, _report())
        assert len(failures) == 2
        assert all("bitwise" in f and "balia" in f for f in failures)

    def test_balia_regression_fails(self):
        new = _report(balia_fluid_speedup=5.0)
        failures = check_bench.check_report(new, _report(), factor=2.0)
        assert len(failures) == 1
        assert "fluid_sweep_balia" in failures[0]

    def test_missing_balia_section_fails(self):
        new = _report()
        del new["equilibrium_sweep_balia"]
        failures = check_bench.check_report(new, _report())
        assert any("equilibrium_sweep_balia" in f and "missing" in f
                   for f in failures)

    def test_smoke_sizes_use_absolute_floors(self):
        """A smoke report (smaller workloads) is not held to the
        full-size baseline's speedup, only to the documented floors."""
        new = _report(fluid_speedup=5.0, eq_speedup=2.0,
                      loaded_speedup=1.5, churn_speedup=4.0,
                      n_points=8, n_events=20_000, n_ticks=300)
        assert check_bench.check_report(new, _report()) == []
        too_slow = _report(fluid_speedup=1.5, n_points=8,
                           n_events=20_000, n_ticks=300)
        failures = check_bench.check_report(too_slow, _report())
        assert len(failures) == 1
        assert "smoke floor" in failures[0]

    def test_timer_churn_regression_fails(self):
        new = _report(churn_speedup=3.0)
        failures = check_bench.check_report(new, _report(), factor=2.0)
        assert len(failures) == 1
        assert "timer_churn" in failures[0]

    def test_engine_loaded_below_smoke_floor_fails(self):
        new = _report(loaded_speedup=1.0, n_points=8,
                      n_events=20_000, n_ticks=300)
        failures = check_bench.check_report(new, _report())
        assert len(failures) == 1
        assert "engine_loaded" in failures[0]

    def test_missing_section_in_new_report_fails(self):
        new = _report()
        del new["equilibrium_sweep"]
        failures = check_bench.check_report(new, _report())
        assert any("missing" in f for f in failures)

    def test_missing_engine_section_fails(self):
        """Every tracked section must be present — the gate must not
        pass because a benchmark stopped being emitted."""
        new = _report()
        del new["engine"]
        failures = check_bench.check_report(new, _report())
        assert any("engine" in f and "missing" in f for f in failures)

    def test_section_without_speedup_fails(self):
        new = _report()
        del new["engine"]["speedup"]
        failures = check_bench.check_report(new, _report())
        assert any("engine" in f and "missing" in f for f in failures)

    def test_baseline_without_section_falls_back_to_floor(self):
        """Old committed baselines predate the equilibrium section."""
        baseline = _report()
        del baseline["equilibrium_sweep"]
        assert check_bench.check_report(_report(), baseline) == []

    def test_nan_speedup_fails_instead_of_passing(self):
        """NaN < bound is False, so without the finiteness check a
        broken benchmark would silently pass the gate."""
        new = _report(engine_speedup=float("nan"))
        failures = check_bench.check_report(new, _report())
        assert len(failures) == 1
        assert "engine" in failures[0] and "finite" in failures[0]

    def test_compiled_regression_fails(self):
        new = _report(compiled_speedup=2.0)
        failures = check_bench.check_report(new, _report(), factor=2.0)
        assert len(failures) == 1
        assert "engine_compiled" in failures[0]

    def test_compiled_below_smoke_floor_fails(self):
        new = _report(compiled_speedup=1.0, n_points=8,
                      n_events=20_000, n_ticks=300)
        failures = check_bench.check_report(new, _report())
        assert len(failures) == 1
        assert "engine_compiled" in failures[0]
        assert "smoke floor" in failures[0]

    def test_unavailable_compiled_section_is_skipped(self):
        """A report from a pure-python checkout (available: false, no
        speedup recorded) must pass — the fallback lane in CI runs
        exactly this configuration on purpose."""
        new = _report(compiled_available=False)
        assert check_bench.check_report(new, _report()) == []

    def test_missing_compiled_section_still_fails(self):
        """available=false is a deliberate skip; the section vanishing
        from the report entirely is a regression like any other."""
        new = _report()
        del new["engine_compiled"]
        failures = check_bench.check_report(new, _report())
        assert any("engine_compiled" in f and "missing" in f
                   for f in failures)

    def test_baseline_from_pure_checkout_uses_the_floor(self):
        """Baseline recorded without the extension has no speedup —
        the new (compiled) report is held to the smoke floor."""
        baseline = _report(compiled_available=False)
        assert check_bench.check_report(_report(), baseline) == []
        slow = _report(compiled_speedup=1.0)
        failures = check_bench.check_report(slow, baseline)
        assert len(failures) == 1
        assert "engine_compiled" in failures[0]


class TestCheckScaleReport:
    def test_valid_report_passes(self):
        assert check_bench.check_scale_report(_scale_report()) == []

    def test_empty_report_fails(self):
        assert check_bench.check_scale_report({"presets": {}})
        assert check_bench.check_scale_report({})

    def test_missing_metric_fails(self):
        report = _scale_report()
        del report["presets"]["medium"]["events_per_sec"]
        failures = check_bench.check_scale_report(report)
        assert any("events_per_sec" in f and "missing" in f
                   for f in failures)

    def test_nan_metric_fails(self):
        report = _scale_report(goodput_mean_pps=float("nan"))
        failures = check_bench.check_scale_report(report)
        assert any("goodput_mean_pps" in f and "finite" in f
                   for f in failures)

    def test_non_positive_events_per_sec_fails(self):
        report = _scale_report(events_per_sec=0.0)
        failures = check_bench.check_scale_report(report)
        assert any("positive" in f for f in failures)

    def test_non_positive_wall_seconds_fails(self):
        report = _scale_report(wall_seconds=-1.0)
        failures = check_bench.check_scale_report(report)
        assert any("wall_seconds" in f and "positive" in f
                   for f in failures)

    def test_truncated_report_fails_without_traceback(self):
        """A half-written BENCH_scale.json must produce FAIL lines,
        not an AttributeError before anything is printed."""
        for broken in (
                [1, 2, 3],
                {"presets": {"medium": None}},
                {"presets": {"medium": []}},
                # The retired one-entry-per-engine-backend shape.
                {"presets": {"medium": {"backends": {"heap": {}}}}}):
            failures = check_bench.check_scale_report(broken)
            assert failures, broken
            # The markdown writer must survive the same inputs (it
            # runs before the failures are reported).
            if isinstance(broken, dict):
                check_bench.summary_markdown(None, None, broken)


def _serve_report(*, cold_speedup=6.0, warm_improvement=500.0,
                  replay_speedup=50.0, warm_hit_rate=1.0,
                  replay_hit_rate=0.99, bitwise=True, smoke=False,
                  **top):
    report = {
        "benchmark": "serve",
        "bitwise_equal": bitwise,
        "config": {"queries": 1_000_000, "latency_queries": 2000,
                   "concurrency": 128},
        "sequential_baseline": {"qps": 50.0, "p50_ms": 20.0},
        "cold": {"qps": 50.0 * cold_speedup, "p50_ms": 400.0,
                 "p99_ms": 900.0,
                 "speedup_vs_sequential": cold_speedup},
        "warm": {"qps": 10_000.0, "p50_ms": 20.0 / warm_improvement,
                 "p99_ms": 0.2, "p50_improvement": warm_improvement,
                 "hit_rate": warm_hit_rate},
        "replay": {"qps": 50.0 * replay_speedup, "p50_ms": 0.1,
                   "p99_ms": 5.0,
                   "speedup_vs_sequential": replay_speedup,
                   "hit_rate": replay_hit_rate},
        "store": {"hits": 900_000, "misses": 100_000},
    }
    if smoke:
        report["smoke"] = True
    report.update(top)
    return report


class TestCheckServeReport:
    def test_good_report_passes(self):
        assert check_bench.check_serve_report(_serve_report()) == []

    def test_wrong_benchmark_field_fails_fast(self):
        failures = check_bench.check_serve_report(
            _serve_report(benchmark="fluid"))
        assert len(failures) == 1
        assert "wrong file" in failures[0]

    def test_non_dict_report_rejected(self):
        assert check_bench.check_serve_report(["not", "a", "dict"])

    def test_bitwise_divergence_fails(self):
        failures = check_bench.check_serve_report(
            _serve_report(bitwise=False))
        assert any("bitwise" in f for f in failures)

    def test_cold_speedup_floor(self):
        failures = check_bench.check_serve_report(
            _serve_report(cold_speedup=3.0))
        assert any("cold_speedup" in f and "5x" in f for f in failures)

    def test_warm_p50_floor(self):
        failures = check_bench.check_serve_report(
            _serve_report(warm_improvement=4.0))
        assert any("warm_p50_improvement" in f for f in failures)

    def test_smoke_floors_are_looser_on_cold_only(self):
        smoke = _serve_report(cold_speedup=2.0, smoke=True)
        assert check_bench.check_serve_report(smoke) == []
        assert check_bench.check_serve_report(
            _serve_report(cold_speedup=2.0))
        # The memoized win is scale-independent: same bar in smoke.
        failures = check_bench.check_serve_report(
            _serve_report(warm_improvement=4.0, smoke=True))
        assert any("warm_p50_improvement" in f for f in failures)

    def test_warm_hit_rate_below_099_fails(self):
        failures = check_bench.check_serve_report(
            _serve_report(warm_hit_rate=0.9))
        assert any("persistent store" in f for f in failures)

    def test_hit_rate_outside_unit_interval_fails(self):
        failures = check_bench.check_serve_report(
            _serve_report(replay_hit_rate=1.5))
        assert any("not in [0, 1]" in f for f in failures)

    def test_nan_metric_fails(self):
        report = _serve_report()
        report["cold"]["qps"] = float("nan")
        failures = check_bench.check_serve_report(report)
        assert any("cold.qps" in f for f in failures)

    def test_missing_metric_fails(self):
        report = _serve_report()
        del report["replay"]["p50_ms"]
        assert check_bench.check_serve_report(report)

    def test_unconverged_share_above_one_percent_fails(self):
        report = _serve_report()
        report["cold"].update(queries=2000, unconverged=21)
        failures = check_bench.check_serve_report(report)
        assert any("cold.unconverged" in f for f in failures)
        report["cold"]["unconverged"] = 20      # exactly 1%: allowed
        assert check_bench.check_serve_report(report) == []
        # A report from before the key existed is not judged on it.
        del report["cold"]["unconverged"]
        assert check_bench.check_serve_report(report) == []

    def test_baseline_ratio_regression_fails(self):
        new = _serve_report(cold_speedup=6.0, replay_speedup=20.0)
        baseline = _serve_report(cold_speedup=6.0, replay_speedup=100.0)
        failures = check_bench.check_serve_report(new, baseline=baseline)
        assert any("replay_speedup" in f and "baseline" in f
                   for f in failures)
        # Within the 2x slack the same baseline passes.
        ok = _serve_report(cold_speedup=6.0, replay_speedup=60.0)
        assert check_bench.check_serve_report(ok, baseline=baseline) == []

    def test_baseline_of_different_size_only_floors_apply(self):
        new = _serve_report(replay_speedup=20.0)
        baseline = _serve_report(replay_speedup=100.0)
        baseline["config"]["queries"] = 10_000
        assert check_bench.check_serve_report(new,
                                              baseline=baseline) == []


class TestStepSummary:
    def test_markdown_mentions_every_section(self):
        text = check_bench.summary_markdown(_report(), _report(),
                                            _scale_report())
        for section in check_bench.SIZE_KEYS:
            assert section in text
        assert "Scale harness" in text and "| medium | 1000 |" in text

    def test_written_when_env_set(self, tmp_path, monkeypatch):
        target = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(target))
        check_bench.write_step_summary("## Bench check\n")
        check_bench.write_step_summary("more\n")
        assert target.read_text() == "## Bench check\nmore\n"

    def test_skipped_when_env_unset(self, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        check_bench.write_step_summary("ignored")   # must not raise


class TestMain:
    def test_cli_round_trip(self, tmp_path, capsys):
        new_path = tmp_path / "new.json"
        base_path = tmp_path / "base.json"
        new_path.write_text(json.dumps(_report()))
        base_path.write_text(json.dumps(_report()))
        assert check_bench.main([str(new_path),
                                 "--baseline", str(base_path)]) == 0
        bad = _report(fluid_speedup=1.0)
        new_path.write_text(json.dumps(bad))
        assert check_bench.main([str(new_path),
                                 "--baseline", str(base_path)]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_cli_validates_scale_report(self, tmp_path, capsys):
        new_path = tmp_path / "new.json"
        base_path = tmp_path / "base.json"
        scale_path = tmp_path / "scale.json"
        new_path.write_text(json.dumps(_report()))
        base_path.write_text(json.dumps(_report()))
        scale_path.write_text(json.dumps(_scale_report()))
        assert check_bench.main([str(new_path), "--baseline",
                                 str(base_path), "--scale",
                                 str(scale_path)]) == 0
        scale_path.write_text(json.dumps(
            _scale_report(events_per_sec=float("nan"))))
        assert check_bench.main([str(new_path), "--baseline",
                                 str(base_path), "--scale",
                                 str(scale_path)]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_cli_scale_only_mode(self, tmp_path, capsys):
        """The nightly tier validates BENCH_scale.json standalone —
        no throwaway smoke bench needed just to fill the positional."""
        scale_path = tmp_path / "scale.json"
        scale_path.write_text(json.dumps(_scale_report()))
        assert check_bench.main(["--scale", str(scale_path)]) == 0
        assert "bench check OK" in capsys.readouterr().out
        scale_path.write_text(json.dumps({"presets": {}}))
        assert check_bench.main(["--scale", str(scale_path)]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_cli_serve_only_mode(self, tmp_path, capsys):
        serve_path = tmp_path / "serve.json"
        serve_path.write_text(json.dumps(_serve_report()))
        assert check_bench.main(["--serve", str(serve_path)]) == 0
        serve_path.write_text(json.dumps(
            _serve_report(cold_speedup=1.1)))
        assert check_bench.main(["--serve", str(serve_path)]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_cli_serve_with_baseline(self, tmp_path, capsys):
        serve_path = tmp_path / "serve.json"
        base_path = tmp_path / "serve_base.json"
        serve_path.write_text(json.dumps(_serve_report()))
        base_path.write_text(json.dumps(_serve_report()))
        assert check_bench.main(["--serve", str(serve_path),
                                 "--serve-baseline",
                                 str(base_path)]) == 0

    def test_cli_requires_some_report(self, capsys):
        with pytest.raises(SystemExit):
            check_bench.main([])
        assert "nothing to check" in capsys.readouterr().err

    def test_cli_writes_step_summary(self, tmp_path, monkeypatch):
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        new_path = tmp_path / "new.json"
        base_path = tmp_path / "base.json"
        new_path.write_text(json.dumps(_report()))
        base_path.write_text(json.dumps(_report()))
        assert check_bench.main([str(new_path),
                                 "--baseline", str(base_path)]) == 0
        assert "Bench check" in summary.read_text()


def _dist_run(workers, *, points=10000, pps=100.0, scaling=None,
              **overrides):
    run = {
        "workers": workers,
        "wall_seconds": points / pps,
        "points_per_sec": pps,
        "completed": points,
        "reassigned_points": 0,
        "duplicate_results": 0,
        "dead_workers": 0,
        "leases_granted": points // 8,
        "core_limited": False,
        "bitwise_equal": True,
    }
    if scaling is not None:
        run["scaling_vs_1"] = scaling
        run["efficiency"] = scaling / workers
    run.update(overrides)
    return run


def _dist_report(*, smoke=False, points=10000, scaling=1.8, **overrides):
    report = {
        "benchmark": "dist",
        "smoke": smoke,
        "python": "3.11.7",
        "cpu_count": 4,
        "grid": {"points": points, "families": ["wired"],
                 "schedulers": ["minrtt"], "algorithms": ["olia"],
                 "seeds": 1, "max_flows": 2, "horizon": 6.0},
        "reference": {"wall_seconds": points / 110.0,
                      "points_per_sec": 110.0},
        "workers": {
            "1": _dist_run(1, points=points, pps=100.0),
            "2": _dist_run(2, points=points, pps=100.0 * scaling,
                           scaling=scaling),
        },
        "bitwise_equal": True,
    }
    report.update(overrides)
    return report


class TestCheckDistReport:
    def test_good_report_passes(self):
        assert check_bench.check_dist_report(_dist_report()) == []

    def test_wrong_benchmark_kind_fails(self):
        failures = check_bench.check_dist_report({"benchmark": "serve"})
        assert any("expected 'dist'" in f for f in failures)

    def test_bitwise_mismatch_fails(self):
        report = _dist_report(bitwise_equal=False)
        failures = check_bench.check_dist_report(report)
        assert any("bitwise-equal" in f for f in failures)

    def test_per_run_bitwise_mismatch_fails(self):
        report = _dist_report()
        report["workers"]["2"]["bitwise_equal"] = False
        failures = check_bench.check_dist_report(report)
        assert any("2 worker(s)" in f and "bitwise-equal" in f
                   for f in failures)

    def test_lost_points_fail(self):
        report = _dist_report()
        report["workers"]["2"]["completed"] = 9999
        failures = check_bench.check_dist_report(report)
        assert any("lost work" in f for f in failures)

    def test_nan_points_per_sec_fails(self):
        report = _dist_report()
        report["workers"]["1"]["points_per_sec"] = float("nan")
        failures = check_bench.check_dist_report(report)
        assert any("points_per_sec" in f for f in failures)

    def test_missing_workers_section_fails(self):
        report = _dist_report()
        report["workers"] = {}
        failures = check_bench.check_dist_report(report)
        assert any("no fabric runs" in f for f in failures)

    def test_negative_counter_fails(self):
        report = _dist_report()
        report["workers"]["1"]["reassigned_points"] = -1
        failures = check_bench.check_dist_report(report)
        assert any("reassigned_points" in f for f in failures)

    def test_scaling_below_full_floor_fails(self):
        report = _dist_report(scaling=1.4)
        failures = check_bench.check_dist_report(report)
        assert any("below the 1.6x floor" in f for f in failures)

    def test_smoke_floor_is_lower(self):
        assert check_bench.check_dist_report(
            _dist_report(smoke=True, scaling=1.3)) == []
        failures = check_bench.check_dist_report(
            _dist_report(smoke=True, scaling=1.05))
        assert any("below the 1.1x floor" in f for f in failures)

    def test_core_limited_run_skips_scaling_floor(self):
        report = _dist_report(scaling=0.9)
        report["workers"]["2"]["core_limited"] = True
        assert check_bench.check_dist_report(report) == []

    def test_scaling_stale_run_skips_scaling_floor(self):
        report = _dist_report(scaling=0.9)
        report["workers"]["2"]["scaling_stale"] = True
        assert check_bench.check_dist_report(report) == []

    def test_missing_scaling_ratio_fails_when_not_skipped(self):
        report = _dist_report()
        del report["workers"]["2"]["scaling_vs_1"]
        failures = check_bench.check_dist_report(report)
        assert any("scaling_vs_1" in f for f in failures)

    def test_cli_dist_only(self, tmp_path, capsys):
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(_dist_report()))
        assert check_bench.main(["--dist", str(path)]) == 0
        path.write_text(json.dumps(_dist_report(scaling=1.2)))
        assert check_bench.main(["--dist", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_dist_section_in_step_summary(self, tmp_path, monkeypatch):
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(_dist_report()))
        assert check_bench.main(["--dist", str(path)]) == 0
        text = summary.read_text()
        assert "Distributed sweep fabric" in text
        assert "1.80x" in text
