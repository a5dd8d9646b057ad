"""Tests for the CLI and the repeated-measurement statistics."""

import pytest

from repro.cli import _experiments, build_parser, main
from repro.experiments import repeat, summarize_samples
from repro.experiments.sweep import SweepRunner


class TestSummarizeSamples:
    def test_single_sample_zero_width(self):
        stat = summarize_samples([4.2])
        assert stat.mean == pytest.approx(4.2)
        assert stat.half_width == 0.0

    def test_five_runs_t_interval(self):
        samples = [10.0, 11.0, 9.0, 10.5, 9.5]
        stat = summarize_samples(samples)
        assert stat.mean == pytest.approx(10.0)
        # stdev ~= 0.7906, stderr ~= 0.3536, t(4) = 2.776.
        assert stat.half_width == pytest.approx(2.776 * 0.3536, rel=1e-3)
        assert stat.low < 10.0 < stat.high

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_samples([])

    def test_str_format(self):
        text = str(summarize_samples([1.0, 2.0, 3.0]))
        assert "±" in text


class TestRepeat:
    def test_aggregates_metrics_across_seeds(self):
        def run(seed):
            return {"metric": float(seed), "constant": 7.0}

        stats = repeat(run, repetitions=3, base_seed=10)
        assert stats["metric"].mean == pytest.approx(11.0)
        assert stats["metric"].samples == [10.0, 11.0, 12.0]
        assert stats["constant"].half_width == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            repeat(lambda seed: {}, repetitions=0)

    def test_repeat_real_simulation_metrics_stable(self):
        """Scenario C single-path throughput: CI over 3 seeds is tight
        relative to the mean (the paper's error bars are small)."""
        from repro.experiments import scenario_c

        def run(seed):
            result = scenario_c.simulate(
                "lia", n1=5, n2=5, c1_mbps=1.0, c2_mbps=1.0,
                duration=10.0, warmup=6.0, seed=seed)
            return {"sp": result.singlepath_normalized}

        stats = repeat(run, repetitions=3)
        assert stats["sp"].half_width < 0.5 * stats["sp"].mean


class TestCli:
    def test_list_names(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1b", "table1", "fig13a", "fig17"):
            assert name in out

    def test_registry_names_are_callable(self):
        registry = _experiments(fast=True)
        assert all(callable(fn) for fn in registry.values())
        assert len(registry) >= 15

    def test_run_analysis_experiment(self, capsys):
        assert main(["run", "fig17"]) == 0
        out = capsys.readouterr().out
        assert "RTT" in out
        assert "fig17" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_run_multiple(self, capsys):
        assert main(["run", "fig4", "fig5b"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out and "Fig. 5(b)" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fast_flag_parses(self):
        args = build_parser().parse_args(["run", "all", "--fast"])
        assert args.fast is True
        assert args.experiments == ["all"]

    def test_jobs_and_backend_flags_parse(self):
        args = build_parser().parse_args(["run", "rtt-sweep", "--jobs", "4"])
        assert args.jobs == 4
        # The fluid sweeps have one (batched) solve path: no switch.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "x", "--backend", "batch"])

    def test_registry_accepts_jobs_and_backend(self):
        """Jobs reach the grids inside the runner; there is no backend."""
        registry = _experiments(fast=True, runner=SweepRunner(jobs=2))
        assert "rtt-sweep" in registry and "stability" in registry
        with pytest.raises(TypeError):
            _experiments(fast=True, backend="batch")

    def test_run_and_scale_share_the_sweep_flags(self, tmp_path, capsys):
        """One parent parser, one validator: the same flags, the same
        rules (a 1-shard 'split' needs no shared cache) on both verbs."""
        flags = ["--jobs", "2", "--resume", str(tmp_path), "--shard",
                 "1/4", "--claim-ttl", "30"]
        for verb in (["run", "fig4"], ["scale"]):
            args = build_parser().parse_args([*verb, *flags])
            assert (args.jobs, args.resume, args.shard, args.claim_ttl) == \
                (2, str(tmp_path), (1, 4), 30.0)
        out = str(tmp_path / "s.json")
        for verb in (["run", "fig4"], ["scale", "--output", out]):
            assert main([*verb, "--jobs", "0"]) == 2
            assert "--jobs" in capsys.readouterr().err
            assert main([*verb, "--shard", "steal"]) == 2
            assert "--resume" in capsys.readouterr().err
            assert main([*verb, "--claim-ttl", "0"]) == 2
            assert "--claim-ttl" in capsys.readouterr().err
        assert main(["run", "fig4", "--shard", "0/1"]) == 0
        assert main(["scale", "--preset", "tiny", "--duration", "0.3",
                     "--warmup", "0.1", "--shard", "0/1",
                     "--output", out]) == 0

    def test_algorithms_verb_prints_layer_table(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "balia" in out and "equilibrium" in out
        assert "reno,uncoupled" in out   # aliases rendered

    def test_run_algorithm_override(self, capsys):
        assert main(["run", "stability", "--algorithm", "balia"]) == 0
        assert "BALIA" in capsys.readouterr().out

    def test_run_algorithm_unknown_fails_before_running(self, capsys):
        assert main(["run", "stability", "--algorithm", "nope"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_run_algorithm_wrong_layer_fails_up_front(self, capsys):
        """stcp (packet-only) and epsilon (needs a param) are known
        names the selected experiments cannot construct — they must
        fail before any experiment runs, scoped to the layer each
        selected experiment actually uses."""
        assert main(["run", "stability", "--algorithm", "stcp"]) == 2
        assert "has no fluid layer" in capsys.readouterr().err
        assert main(["run", "rtt-sweep", "--algorithm", "epsilon"]) == 2
        assert "requires parameter(s) epsilon" in capsys.readouterr().err

    def test_run_algorithm_checked_only_for_selected_layers(self, capsys):
        """epsilon is equilibrium-only: fine for rtt-sweep's layer
        check to be the one that fires, but stability (fluid) must
        reject it while an unaffected experiment just warns."""
        assert main(["run", "fig17", "--algorithm", "balia"]) == 0
        assert "has no effect" in capsys.readouterr().err

    def test_bench_subcommand(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
        output = tmp_path / "BENCH_sweep.json"
        assert main(["bench", "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "batch backend" in out
        import json
        report = json.loads(output.read_text())
        assert report["smoke"] is True
        assert report["fluid_sweep"]["bitwise_equal"] is True
        assert report["engine"]["after_events_per_sec"] > 0
