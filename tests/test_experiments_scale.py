"""The scale harness: points, report assembly, smoke caps, CLI verb."""

import importlib.util
import json
import math
import pathlib

import pytest

from repro.cli import main
from repro.experiments.scale import (
    SMOKE_DURATION,
    SMOKE_MAX_FLOWS,
    FamilyRun,
    ScaleRun,
    family_table,
    report_table,
    run_family_point,
    run_scale_point,
    scale_report,
    write_report,
)
from repro.experiments.sweep import SweepRunner

_SPEC = importlib.util.spec_from_file_location(
    "check_bench",
    pathlib.Path(__file__).parent.parent / "benchmarks" / "check_bench.py")
check_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_bench)

# One in-process point everybody below reuses (module-level so the
# numbers stay comparable across asserts without re-running).
_POINT_KWARGS = dict(preset="tiny", duration=0.4, warmup=0.1, seed=2)


@pytest.fixture(scope="module")
def tiny_run():
    return run_scale_point(**_POINT_KWARGS)


class TestRunScalePoint:
    def test_reports_real_work(self, tiny_run):
        assert isinstance(tiny_run, ScaleRun)
        assert tiny_run.n_flows == 24
        assert tiny_run.events > 1000
        assert tiny_run.events_per_sec > 0
        assert 0 < tiny_run.wall_seconds
        assert tiny_run.peak_pending >= tiny_run.final_pending > 0
        assert tiny_run.build_seconds > 0

    def test_goodput_distribution_is_ordered_and_finite(self, tiny_run):
        assert math.isfinite(tiny_run.goodput_mean_pps)
        assert (tiny_run.goodput_p10_pps <= tiny_run.goodput_p50_pps
                <= tiny_run.goodput_p90_pps)

    def test_same_seed_same_simulation(self, tiny_run):
        again = run_scale_point(**_POINT_KWARGS)
        # Wall-clock differs run to run; the simulation must not.
        assert again.events == tiny_run.events
        assert again.goodput_mean_pps == tiny_run.goodput_mean_pps
        assert again.peak_pending == tiny_run.peak_pending

    def test_unknown_preset_fails(self):
        with pytest.raises(ValueError, match="bogus"):
            run_scale_point(preset="bogus")

    def test_algorithm_override_changes_the_mix(self, tiny_run):
        run = run_scale_point(**dict(_POINT_KWARGS,
                                     algorithms=("balia", "tcp")))
        assert run.n_flows == tiny_run.n_flows
        assert run.events > 1000
        # A different mix is a different simulation.
        assert run.events != tiny_run.events


class TestScaleReportAlgorithms:
    def test_algorithms_recorded_and_validated(self):
        report = scale_report(["tiny"], duration=0.3, warmup=0.1, seed=3,
                              smoke=False, algorithms=("balia",))
        assert report["algorithms"] == ["balia"]
        assert check_bench.check_scale_report(report) == []
        with pytest.raises(KeyError, match="known"):
            scale_report(["tiny"], algorithms=("not-an-algo",))
        with pytest.raises(ValueError, match="no packet layer"):
            scale_report(["tiny"], algorithms=("epsilon",))


class TestScaleReport:
    def test_one_record_per_preset(self, tmp_path):
        report = scale_report(["tiny"], duration=0.3, warmup=0.1, seed=3,
                              smoke=False)
        record = report["presets"]["tiny"]
        assert record["preset"] == "tiny" and record["from_cache"] is False
        assert math.isfinite(record["events_per_sec"])
        # The report satisfies the CI validator it is gated by.
        assert check_bench.check_scale_report(report) == []
        path = tmp_path / "BENCH_scale.json"
        write_report(report, str(path))
        assert json.loads(path.read_text())["benchmark"] == "BENCH_scale"

    def test_smoke_env_caps_the_workload(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
        report = scale_report(["tiny"], duration=0.3, warmup=0.1)
        assert report["smoke"] is True
        run = report["presets"]["tiny"]
        assert run["n_flows"] <= SMOKE_MAX_FLOWS
        assert run["duration"] <= min(0.3, SMOKE_DURATION)

    def test_cached_grid_is_served_verbatim(self, tmp_path):
        kwargs = dict(duration=0.3, warmup=0.1, seed=4, smoke=False,
                      runner=SweepRunner(cache_dir=tmp_path))
        first = scale_report(["tiny"], **kwargs)
        assert list(tmp_path.glob("*.pkl"))
        second = scale_report(["tiny"], **kwargs)
        one = first["presets"]["tiny"]
        two = second["presets"]["tiny"]
        # Cache provenance is tracked per cell; everything else —
        # wall-clock fields included — is served verbatim from disk.
        assert one.pop("from_cache") is False
        assert two.pop("from_cache") is True
        assert one == two

    def test_unknown_preset_and_backend_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            scale_report(["bogus"])
        # There is one event store: the engine-backend axis is gone.
        with pytest.raises(TypeError, match="backends"):
            scale_report(["tiny"], backends=("heap",))
        with pytest.raises(ValueError, match="presets"):
            scale_report([])

    def test_table_renders_every_cell(self):
        report = scale_report(["tiny"], duration=0.3, warmup=0.1,
                              smoke=False)
        text = str(report_table(report))
        run = report["presets"]["tiny"]
        assert "tiny" in text and str(run["peak_pending"]) in text


class TestFamilyGrid:
    def test_family_point_finishes_its_transfers(self):
        run = run_family_point(family="wired", scheduler="roundrobin",
                               algorithm="olia", max_flows=6,
                               horizon=20.0, seed=7)
        assert isinstance(run, FamilyRun)
        assert run.transfers_completed == run.transfers_total > 0
        assert run.transfer_mean_s is not None
        assert 0 < run.transfer_p50_s <= run.transfer_p90_s

    def test_family_point_is_deterministic(self):
        kwargs = dict(family="dual_lte", scheduler="minrtt",
                      algorithm="olia", max_flows=4, horizon=15.0,
                      seed=9)
        one = run_family_point(**kwargs)
        two = run_family_point(**kwargs)
        assert one.transfer_mean_s == two.transfer_mean_s
        assert one.link_changes == two.link_changes > 0
        assert one.events == two.events

    def test_unknown_family_scheduler_algorithm_rejected(self):
        with pytest.raises(ValueError, match="family"):
            run_family_point(family="bogus")
        with pytest.raises(KeyError, match="known"):
            run_family_point(family="wired", scheduler="fifo")
        with pytest.raises(ValueError, match="no packet layer"):
            run_family_point(family="wired", algorithm="epsilon")

    def test_report_grid_validates_and_renders(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
        report = scale_report(
            ["tiny"], families=("wired",),
            schedulers=("minrtt", "redundant"), duration=0.3,
            warmup=0.1, seed=3)
        assert report["schedulers"] == ["minrtt", "redundant"]
        cells = report["families"]["wired"]["schedulers"]
        assert set(cells) == {"minrtt", "redundant"}
        for by_algo in cells.values():
            assert set(by_algo) == {"olia"}
            run = by_algo["olia"]
            assert run["transfers_completed"] == run["transfers_total"]
        assert check_bench.check_scale_report(report) == []
        text = str(family_table(report))
        assert "wired" in text and "redundant" in text

    def test_validator_rejects_bad_family_cells(self):
        record = {"transfers_total": 4, "transfers_completed": 4,
                  "transfer_mean_s": 1.0, "transfer_p50_s": 1.0,
                  "transfer_p90_s": 1.5}
        def rep(rec):
            return {"presets": {"tiny": {}},
                    "families": {"wired": {"schedulers":
                                           {"minrtt": {"olia": rec}}}}}
        base = [f for f in check_bench.check_scale_report(rep(record))
                if f.startswith("scale[wired")]
        assert base == []
        stuck = dict(record, transfers_completed=3)
        assert any("3" in f and "4" in f
                   for f in check_bench.check_scale_report(rep(stuck)))
        # NaN round-trips through JSON as a float; it must FAIL loudly.
        poisoned = dict(record, transfer_mean_s=float("nan"))
        assert any("transfer_mean_s" in f
                   for f in check_bench.check_scale_report(rep(poisoned)))

    def test_unknown_packet_scheduler_rejected_in_report(self):
        with pytest.raises(KeyError, match="known"):
            scale_report(["tiny"], families=("wired",),
                         schedulers=("fifo",))
        with pytest.raises(ValueError, match="packet schedulers"):
            scale_report(["tiny"], families=("wired",), schedulers=())


class TestCliVerb:
    def test_scale_round_trip(self, tmp_path, capsys):
        output = tmp_path / "BENCH_scale.json"
        code = main(["scale", "--preset", "tiny", "--duration", "0.3",
                     "--warmup", "0.1", "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Scale harness" in out
        report = json.loads(output.read_text())
        assert "tiny" in report["presets"]
        assert check_bench.check_scale_report(report) == []

    def test_unknown_backend_exits_2(self, tmp_path, capsys):
        """The engine-backend flag went with the backend axis; argparse
        rejects it before anything runs."""
        with pytest.raises(SystemExit) as excinfo:
            main(["scale", "--preset", "tiny", "--engine-backends", "heap",
                  "--output", str(tmp_path / "x.json")])
        assert excinfo.value.code == 2
        assert "--engine-backends" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_serve_requires_resume(self, tmp_path, capsys):
        code = main(["scale", "--preset", "tiny", "--serve",
                     "127.0.0.1:8653", "--output", str(tmp_path / "x.json")])
        assert code == 2
        assert "--resume" in capsys.readouterr().err
