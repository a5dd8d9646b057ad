"""Tests for background traffic, RTT heterogeneity, and calibration."""

import random

import pytest

from repro.experiments import calibration, rtt_heterogeneity
from repro.experiments.runner import RunSpec
from repro.experiments.sweep import SweepRunner
from repro.sim import (
    BackgroundTraffic,
    DropTailQueue,
    Link,
    Simulator,
    single_path_tcp,
)


def make_link(sim, mbps=1.0):
    return Link(sim, rate_bps=mbps * 1e6, delay=0.04,
                queue=DropTailQueue(limit=100), name="bn")


class TestBackgroundTraffic:
    def test_cbr_rate_accurate(self):
        sim = Simulator()
        link = make_link(sim, mbps=10.0)
        bg = BackgroundTraffic(sim, (link,), rate_pps=100.0,
                               poisson=False)
        bg.start(0.0)
        sim.run(until=10.0)
        assert bg.packets_sent == pytest.approx(1000, abs=2)
        assert bg.delivery_ratio > 0.99

    def test_poisson_rate_statistical(self):
        sim = Simulator()
        link = make_link(sim, mbps=10.0)
        bg = BackgroundTraffic(sim, (link,), rate_pps=200.0,
                               rng=random.Random(3))
        bg.start(0.0)
        sim.run(until=10.0)
        assert bg.packets_sent == pytest.approx(2000, rel=0.1)

    def test_background_steals_tcp_throughput(self):
        """A TCP flow sharing with unresponsive traffic gets less."""
        def tcp_goodput(bg_pps):
            sim = Simulator()
            link = make_link(sim, mbps=1.0)
            flow = single_path_tcp(sim, (link,), 0.04)
            flow.start(0.0)
            if bg_pps:
                bg = BackgroundTraffic(sim, (link,), rate_pps=bg_pps,
                                       rng=random.Random(1))
                bg.start(0.0)
            sim.run(until=40.0)
            return flow.acked_packets / 40.0

        clean = tcp_goodput(0)
        loaded = tcp_goodput(40.0)  # ~half the link
        assert loaded < 0.75 * clean

    def test_stop_halts_emission(self):
        sim = Simulator()
        link = make_link(sim)
        bg = BackgroundTraffic(sim, (link,), rate_pps=100.0,
                               poisson=False)
        bg.start(0.0)
        sim.run(until=1.0)
        bg.stop()
        sent = bg.packets_sent
        sim.run(until=2.0)
        assert bg.packets_sent == sent

    def test_validation(self):
        sim = Simulator()
        link = make_link(sim)
        with pytest.raises(ValueError):
            BackgroundTraffic(sim, (), rate_pps=1.0, poisson=False)
        with pytest.raises(ValueError):
            BackgroundTraffic(sim, (link,), rate_pps=0.0, poisson=False)
        with pytest.raises(ValueError):
            BackgroundTraffic(sim, (link,), rate_pps=1.0)  # needs rng

    def test_olia_beats_lia_with_background_noise(self):
        """Scenario-C-like setup plus unresponsive noise on the shared
        AP: the OLIA > LIA ordering survives (paper future-work factor)."""
        from repro.topology.scenarios import build_scenario_c
        from repro.sim.apps import BulkTransfer
        from repro.experiments.runner import measure

        def run(algorithm):
            sim = Simulator()
            rng = random.Random(5)
            topo = build_scenario_c(sim, rng, n1=10, n2=10, c1_mbps=1.0,
                                    c2_mbps=1.0)
            flows = {}
            for i in range(10):
                bulk = BulkTransfer(sim, algorithm, topo.multipath_paths,
                                    start_time=rng.uniform(0, 1),
                                    name=f"mp.{i}")
                bulk.start()
                flows[f"mp.{i}"] = bulk
            for i in range(10):
                bulk = BulkTransfer(sim, "tcp", [topo.singlepath_path],
                                    start_time=rng.uniform(0, 1),
                                    name=f"sp.{i}")
                bulk.start()
                flows[f"sp.{i}"] = bulk
            noise = BackgroundTraffic(sim, topo.singlepath_path.links,
                                      rate_pps=80.0, rng=rng)
            noise.start(0.0)
            result = measure(sim, flows, [topo.ap1, topo.ap2],
                             warmup=8.0, duration=12.0)
            return result.group_mean("sp")

        assert run("olia") > run("lia")


_RTT_SWEEP = dict(algorithm="olia", base_rtt=0.1, n_tcp=3)


def _rtt_specs(ratios):
    """The per-point reference specs of an RTT sweep."""
    return [RunSpec.make(rtt_heterogeneity.rtt_sweep_point, ratio=ratio,
                         **_RTT_SWEEP)
            for ratio in ratios]


class TestRttHeterogeneity:
    def test_best_path_crossover(self):
        table = rtt_heterogeneity.best_path_criterion_table(
            p1=0.005, p2=0.02, rtt_ratios=(0.5, 1.0, 2.0, 4.0))
        best = table.column("best path")
        # Crossover at sqrt(p2/p1) = 2: path1 wins below, loses above.
        assert best[0] == "path1"
        assert best[1] == "path1"
        assert best[3] == "path2"

    def test_low_rtt_path_users_squeezed(self):
        """Remark 3: a short-RTT path attracts the TCP-compatible
        multipath user, hurting that path's TCP users."""
        table = rtt_heterogeneity.rtt_sweep_table(
            algorithm="olia", rtt_ratios=(0.25, 1.0, 4.0))
        tcp_ap1 = table.column("tcp@AP1 rate")
        assert tcp_ap1[0] < tcp_ap1[1] < tcp_ap1[2]

    def test_mp_traffic_follows_low_rtt(self):
        table = rtt_heterogeneity.rtt_sweep_table(
            algorithm="olia", rtt_ratios=(0.25, 1.0, 4.0))
        ap1 = table.column("mp rate on AP1")
        ap2 = table.column("mp rate on AP2")
        assert ap1[0] > ap1[1] > ap1[2]   # decreasing in rtt1
        assert ap2[2] > ap2[0]            # shifts to AP2 at high rtt1

    def test_equal_rtts_split_evenly(self):
        table = rtt_heterogeneity.rtt_sweep_table(
            algorithm="olia", rtt_ratios=(1.0,))
        ap1 = table.column("mp rate on AP1")[0]
        ap2 = table.column("mp rate on AP2")[0]
        assert ap1 == pytest.approx(ap2, rel=0.2)

    def test_batch_backend_matches_loop_bitwise(self):
        ratios = (0.25, 0.5, 1.0, 2.0)
        batch = rtt_heterogeneity.rtt_sweep_table(
            rtt_ratios=ratios, **_RTT_SWEEP)
        reference = [spec.execute() for spec in _rtt_specs(ratios)]
        assert [tuple(r) for r in batch.rows] == reference

    def test_batch_backend_composes_with_cache(self, tmp_path):
        """--resume DIR must fill the cache under the per-point specs'
        hashes: a plain runner serves them without computing."""
        ratios = (0.25, 0.5, 1.0, 2.0)
        rtt_heterogeneity.rtt_sweep_table(
            rtt_ratios=ratios, **_RTT_SWEEP,
            runner=SweepRunner(cache_dir=tmp_path))
        merger = SweepRunner(cache_dir=tmp_path)
        merged = merger.run(_rtt_specs(ratios))
        assert (merger.cache_hits, merger.cache_misses) == (4, 0)
        direct = rtt_heterogeneity.rtt_sweep_table(
            rtt_ratios=ratios, **_RTT_SWEEP)
        assert merged == [tuple(r) for r in direct.rows]


class TestCalibration:
    def test_formula_validation_ratios_near_one(self):
        table = calibration.formula_validation_table(
            capacities_mbps=(2.0,), flow_counts=(2,),
            duration=30.0, warmup=10.0)
        ratios = table.column("ratio")
        assert all(0.6 < r < 1.6 for r in ratios)

    def test_more_flows_higher_loss(self):
        table = calibration.formula_validation_table(
            capacities_mbps=(2.0,), flow_counts=(2, 5),
            duration=20.0, warmup=10.0)
        losses = table.column("measured p")
        assert losses[1] > losses[0]
