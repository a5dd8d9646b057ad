"""Ablation benchmarks for the design choices ``experiments/ablation.py`` varies."""

from conftest import record_table

from repro.experiments import ablation


def test_epsilon_family(benchmark):
    """The epsilon trade-off of Section II on the scenario C network."""
    table = benchmark.pedantic(
        lambda: ablation.epsilon_sweep_table(
            epsilons=(0.0, 0.5, 1.0, 1.5, 2.0)),
        rounds=1, iterations=1)
    record_table(benchmark, "ablation_epsilon", table)
    shares = table.column("mp share of AP2 (%)")
    assert shares == sorted(shares)  # monotone in epsilon


def test_alpha_term_flappiness(benchmark):
    """OLIA minus alpha (fully coupled) is flappier on symmetric paths."""
    table = benchmark.pedantic(
        lambda: ablation.flappiness_table(duration=90.0),
        rounds=1, iterations=1)
    record_table(benchmark, "ablation_alpha", table)
    rows = {row[0]: row for row in table.rows}
    # One-sided fraction: share of time one path is starved (>60/40).
    assert rows["coupled"][4] > rows["olia"][4]


def test_queue_discipline(benchmark):
    """The OLIA > LIA ordering survives RED vs drop-tail queues."""
    table = benchmark.pedantic(
        lambda: ablation.queue_discipline_table(duration=15.0,
                                                warmup=8.0),
        rounds=1, iterations=1)
    record_table(benchmark, "ablation_queue", table)
    by_key = {(row[0], row[1]): row[2] for row in table.rows}
    for queue in ("red", "droptail"):
        assert by_key[(queue, "olia")] > by_key[(queue, "lia")]
