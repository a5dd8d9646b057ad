"""Integration tests for the FatTree and short-flow experiments."""

import math

import pytest

from repro.experiments import ablation, fattree, shortflows, traces
from repro.experiments.runner import RunSpec
from repro.experiments.sweep import SweepRunner


class TestFatTreePermutation:
    @pytest.fixture(scope="class")
    def runs(self):
        olia = fattree.run_permutation("olia", n_subflows=4, k=4,
                                       duration=2.0, warmup=1.0)
        tcp = fattree.run_permutation("tcp", k=4, duration=2.0,
                                      warmup=1.0)
        return olia, tcp

    def test_mptcp_exploits_path_diversity(self, runs):
        """Fig. 13(a): MPTCP reaches near-optimal, TCP does not."""
        olia, tcp = runs
        assert olia.percent_of_optimal > 80.0
        assert tcp.percent_of_optimal < 70.0
        assert olia.percent_of_optimal > tcp.percent_of_optimal + 15.0

    def test_per_flow_lists_complete(self, runs):
        olia, tcp = runs
        assert len(olia.flow_percents) == 16
        assert len(olia.ranked()) == 16
        assert olia.ranked() == sorted(olia.flow_percents)

    def test_mptcp_fairer_than_tcp(self, runs):
        """Fig. 13(b): the worst TCP flows starve; MPTCP's do not."""
        olia, tcp = runs
        assert min(olia.ranked()) > min(tcp.ranked())

    def test_more_subflows_help(self):
        two = fattree.run_permutation("olia", n_subflows=2, k=4,
                                      duration=2.0, warmup=1.0)
        four = fattree.run_permutation("olia", n_subflows=4, k=4,
                                       duration=2.0, warmup=1.0)
        assert four.percent_of_optimal >= two.percent_of_optimal - 5.0

    def test_figure13a_table(self):
        table = fattree.figure13a_table(k=4, subflow_counts=(2, 4),
                                        duration=1.5, warmup=0.5)
        assert len(table.rows) == 2
        tcp_col = table.column("TCP")
        olia_col = table.column("OLIA")
        assert all(o > t for o, t in zip(olia_col, tcp_col))


class TestShortFlows:
    @pytest.fixture(scope="class")
    def runs(self):
        lia = shortflows.run_dynamic("lia", k=4, duration=8.0, warmup=1.0)
        tcp = shortflows.run_dynamic("tcp", k=4, duration=8.0, warmup=1.0)
        return lia, tcp

    def test_flows_complete(self, runs):
        lia, _ = runs
        assert len(lia.completion_times) > 30
        assert not math.isnan(lia.mean_fct_ms)

    def test_tcp_low_utilization(self, runs):
        """Table III: regular TCP leaves the core underused."""
        lia, tcp = runs
        assert tcp.core_utilization < lia.core_utilization

    def test_tcp_fastest_short_flows(self, runs):
        """Table III: TCP long flows interfere least with short flows."""
        lia, tcp = runs
        assert tcp.mean_fct_ms < lia.mean_fct_ms * 1.1

    def test_histogram_sums_to_one(self, runs):
        lia, _ = runs
        hist = lia.histogram(bin_ms=50.0, max_ms=500.0)
        assert sum(frac for _, frac in hist) == pytest.approx(1.0)

    def test_table3_renders(self):
        table = shortflows.table3(k=4, duration=5.0, warmup=1.0,
                                  algorithms=("lia", "tcp"))
        text = str(table)
        assert "LIA" in text and "Regular TCP" in text


class TestTraces:
    def test_asymmetric_separation(self):
        """Fig. 8: OLIA's congested-path window below LIA's."""
        olia = traces.run_two_path_trace("olia", competing=(5, 10),
                                         duration=60.0)
        lia = traces.run_two_path_trace("lia", competing=(5, 10),
                                        duration=60.0)
        assert olia.mean_windows[1] < lia.mean_windows[1]
        # Both use the good path heavily.
        assert olia.mean_windows[0] > 5.0
        assert lia.mean_windows[0] > 5.0

    def test_symmetric_no_abandonment(self):
        """Fig. 7: both paths keep substantial windows under OLIA."""
        trace = traces.run_two_path_trace("olia", competing=(5, 5),
                                          duration=60.0)
        w1, w2 = trace.mean_windows
        assert w1 > 3.0 and w2 > 3.0
        assert trace.window_imbalance() < 0.6

    def test_trace_records_alphas(self):
        trace = traces.run_two_path_trace("olia", competing=(5, 5),
                                          duration=20.0)
        assert len(trace.alphas) == len(trace.windows)
        assert any(any(a != 0 for a in row) for row in trace.alphas)

    def test_lia_alphas_are_zero(self):
        trace = traces.run_two_path_trace("lia", competing=(5, 5),
                                          duration=20.0)
        assert all(all(a == 0 for a in row) for row in trace.alphas)


_EPSILON_NETWORK = dict(n1=10, n2=10, c1_mbps=1.0, c2_mbps=1.0, rtt=0.15)


def _epsilon_specs(epsilons):
    """The per-point reference specs of an epsilon sweep."""
    return [RunSpec.make(ablation.epsilon_sweep_point, epsilon=epsilon,
                         **_EPSILON_NETWORK)
            for epsilon in epsilons]


class TestAblation:
    def test_epsilon_sweep_monotone_aggression(self):
        """Larger epsilon -> multipath keeps more of the shared AP."""
        table = ablation.epsilon_sweep_table(epsilons=(0.0, 1.0, 2.0))
        shares = table.column("mp share of AP2 (%)")
        assert shares[0] < shares[1] < shares[2]
        sp_rates = table.column("sp rate (pkt/s)")
        assert sp_rates[0] > sp_rates[2]

    def test_epsilon_batch_backend_matches_loop_bitwise(self):
        """The whole epsilon grid solved as one per-point-rule batch
        (plus an OLIA batch for eps=0) must reproduce the per-point
        reference exactly — same floats, not approximately."""
        epsilons = (0.0, 0.5, 1.0, 1.5, 2.0)
        batch = ablation.epsilon_sweep_table(epsilons=epsilons,
                                             **_EPSILON_NETWORK)
        reference = [spec.execute() for spec in _epsilon_specs(epsilons)]
        assert [tuple(r) for r in batch.rows] == reference

    def test_epsilon_batch_composes_with_cache(self, tmp_path):
        """A batched run fills the cache under the per-point specs'
        hashes: a plain runner serves them without computing."""
        epsilons = (0.5, 1.0, 1.5, 2.0)
        ablation.epsilon_sweep_table(
            epsilons=epsilons, **_EPSILON_NETWORK,
            runner=SweepRunner(cache_dir=tmp_path))
        merger = SweepRunner(cache_dir=tmp_path)
        merged = merger.run(_epsilon_specs(epsilons))
        assert (merger.cache_hits, merger.cache_misses) == (4, 0)
        direct = ablation.epsilon_sweep_table(epsilons=epsilons,
                                              **_EPSILON_NETWORK)
        assert merged == [tuple(r) for r in direct.rows]

    def test_epsilon_batch_rejects_negative_like_loop(self):
        """A negative epsilon is a ValueError up front (not a KeyError
        from the batch grouping, not an OLIA row from the point
        function's ``eps > 0`` test)."""
        with pytest.raises(ValueError, match="non-negative"):
            ablation.epsilon_sweep_table(epsilons=(-1.0, 0.5))

    def test_flappiness_coupled_worse(self):
        table = ablation.flappiness_table(duration=60.0, seeds=(1, 2, 3))
        rows = {row[0]: row for row in table.rows}
        olia_onesided = rows["olia"][4]
        coupled_onesided = rows["coupled"][4]
        assert coupled_onesided > olia_onesided
