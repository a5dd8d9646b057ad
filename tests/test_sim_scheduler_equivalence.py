"""Property test: full DES scenarios are trace-identical run to run.

The engine dispatches in exact ``(time, seq)`` order, which makes whole
simulations deterministic: same event sequence, same RNG draws, same
floats everywhere.  This test runs the paper's scenario A — MPTCP bulk
transfers through a shared AP competing with regular TCP, RED queues,
staggered random starts — under both accepted ``scheduler`` names and
on both engines (pure python and, when built, the compiled core),
across seeds, and requires

* the dispatched event traces to be identical (time, callback, and
  argument shape of every single event), and
* the measured figure statistics (goodputs, loss probabilities,
  utilizations) to be exactly equal, not approximately.
"""

import random

import pytest

from repro.experiments.runner import measure, staggered_starts
from repro.sim import BulkTransfer, Simulator
from repro.sim.engine import COMPILED_AVAILABLE
from repro.topology.scenarios import build_scenario_a


def _run_scenario_a(backend: str, seed: int, trace: list,
                    compiled=None):
    """One scenario-A run under a ``scheduler`` name, recording its
    trace."""
    def hook(time, fn, args):
        trace.append((time, getattr(fn, "__qualname__", repr(fn)),
                      len(args)))

    sim = Simulator(backend, trace=hook, compiled=compiled)
    rng = random.Random(seed)
    topo = build_scenario_a(sim, rng, n1=2, n2=2, c1_mbps=1.0,
                            c2_mbps=1.0)
    flows = {}
    starts = staggered_starts(rng, 4)
    for i in range(2):
        bulk = BulkTransfer(sim, "olia", topo.type1_paths,
                            start_time=starts[i], name=f"type1.{i}")
        bulk.start()
        flows[f"type1.{i}"] = bulk
    for i in range(2):
        bulk = BulkTransfer(sim, "tcp", [topo.type2_path],
                            start_time=starts[2 + i], name=f"type2.{i}")
        bulk.start()
        flows[f"type2.{i}"] = bulk
    result = measure(sim, flows, [topo.server_link, topo.shared_ap],
                     warmup=2.0, duration=6.0)
    return sim, result


@pytest.mark.parametrize("backend", ["auto"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scenario_a_trace_identical_across_backends(seed, backend):
    heap_trace, other_trace = [], []
    heap_sim, heap_result = _run_scenario_a("heap", seed, heap_trace)
    other_sim, other_result = _run_scenario_a(backend, seed, other_trace)

    # The runs did real work (thousands of events), under both names.
    assert heap_sim.events_processed > 1000
    assert heap_sim.events_processed == other_sim.events_processed

    # Event order is identical, entry by entry.
    assert len(heap_trace) == len(other_trace)
    for heap_entry, other_entry in zip(heap_trace, other_trace):
        assert heap_entry == other_entry

    # Final monitor statistics are *exactly* equal — same floats.
    assert heap_result.goodput_pps == other_result.goodput_pps
    assert heap_result.link_loss == other_result.link_loss
    assert heap_result.link_utilization == other_result.link_utilization


def test_scenario_a_traces_differ_across_seeds():
    """Sanity: the equality above is not vacuous — different seeds give
    different traces, so identical traces really mean determinism."""
    trace_a, trace_b = [], []
    _run_scenario_a("heap", 1, trace_a)
    _run_scenario_a("heap", 2, trace_b)
    assert trace_a != trace_b


@pytest.mark.skipif(not COMPILED_AVAILABLE,
                    reason="compiled kernels not built")
@pytest.mark.parametrize("seed", [1, 2])
def test_scenario_a_compiled_engine_matches_pure(seed):
    """The compiled EngineCore is trace-identical to the pure loop on
    the full scenario-A workload, entry by entry."""
    pure_trace, compiled_trace = [], []
    pure_sim, pure_result = _run_scenario_a("heap", seed, pure_trace,
                                            compiled=False)
    comp_sim, comp_result = _run_scenario_a("heap", seed,
                                            compiled_trace,
                                            compiled=True)

    assert not pure_sim.compiled and comp_sim.compiled
    assert pure_sim.events_processed > 1000
    assert pure_sim.events_processed == comp_sim.events_processed
    assert pure_trace == compiled_trace
    assert pure_result.goodput_pps == comp_result.goodput_pps
    assert pure_result.link_loss == comp_result.link_loss
    assert pure_result.link_utilization == comp_result.link_utilization
