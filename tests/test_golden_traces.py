"""Golden-trace regression corpus for the DES engine.

``tests/golden/*.trace`` pins the *complete* event trace of small
scenario-A runs — one line per dispatched event, ``repr(time)`` (exact
shortest-roundtrip float), the callback qualname, and the argument
count.  Both the pure-python engine and (when built) the compiled
engine must reproduce every file byte for byte: any change to event
ordering, timer arithmetic, RNG consumption, or callback plumbing in
either engine shows up as a diff against a file under version control,
with the first divergent line naming the exact event.

``tests/golden/digests.json`` widens the oracle beyond what full
trace files can afford: for each case in :data:`DIGEST_CASES` it pins
the sha256 of the same line format plus ``(events, acked, retransmits,
timeouts)`` summed over every subflow the run ever dispatched to.  The
cases reach what the scenario-A files do not — every packet controller
in the generator's mix, churn sources, two-hop paths and drop-tail
queues (``tiny`` preset), the scheduler gate under all four packet
schedulers with ``TimeVaryingLink`` fading, handovers and channel loss
(``wifi_lte``/``handover`` families), and RED thresholds above their
floor with the BALIA and fully-coupled controllers (scenario A at
4 Mbps).  Like the trace files, every digest must match on both
engines.  A mismatching hash cannot name the divergent event; the counters say
roughly where to look, and the scenario-A files localise exactly.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python tests/test_golden_traces.py --regen

(which refuses to run if pure and compiled engines disagree with each
other).
"""

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.experiments.runner import staggered_starts
from repro.sim import BulkTransfer, Simulator
from repro.sim.engine import COMPILED_AVAILABLE
from repro.sim.tcp import TcpSubflow
from repro.topology.generator import (build_random_scenario, family_config,
                                      generate_preset)
from repro.topology.scenarios import build_scenario_a

GOLDEN_DIR = Path(__file__).parent / "golden"
DIGEST_FILE = GOLDEN_DIR / "digests.json"

#: (file stem, seed, multipath algorithm) — tiny scenario-A variants.
CASES = [
    ("scenario_a_olia_seed1", 1, "olia"),
    ("scenario_a_olia_seed2", 2, "olia"),
    ("scenario_a_lia_seed1", 1, "lia"),
]

#: Simulated horizon (seconds); long enough for slow-start, losses and
#: congestion avoidance on both flow types, short enough to keep the
#: corpus a few hundred kilobytes.
UNTIL = 3.0


def _line(time, fn, args):
    return (f"{time!r} {getattr(fn, '__qualname__', repr(fn))} "
            f"{len(args)}")


def _trace_lines(seed, algorithm, compiled):
    """The full event trace of one small scenario-A run, as lines."""
    lines = []

    def hook(time, fn, args):
        lines.append(_line(time, fn, args))

    sim = Simulator("heap", trace=hook, compiled=compiled)
    rng = random.Random(seed)
    topo = build_scenario_a(sim, rng, n1=1, n2=1, c1_mbps=1.0,
                            c2_mbps=1.0)
    starts = staggered_starts(rng, 2)
    mp = BulkTransfer(sim, algorithm, topo.type1_paths,
                      start_time=starts[0], name="type1.0")
    sp = BulkTransfer(sim, "tcp", [topo.type2_path],
                      start_time=starts[1], name="type2.0")
    mp.start()
    sp.start()
    sim.run(until=UNTIL)
    return lines


def _golden(name):
    return (GOLDEN_DIR / f"{name}.trace").read_text().splitlines()


@pytest.mark.parametrize("name,seed,algorithm", CASES)
def test_pure_engine_reproduces_golden_trace(name, seed, algorithm):
    lines = _trace_lines(seed, algorithm, compiled=False)
    golden = _golden(name)
    assert len(lines) > 500, "degenerate run: corpus lost its coverage"
    # Compare a first-divergence-friendly way before the full equality.
    for i, (got, want) in enumerate(zip(lines, golden)):
        assert got == want, f"{name}: first divergence at event {i}"
    assert len(lines) == len(golden), \
        f"{name}: {len(lines)} events vs golden {len(golden)}"


@pytest.mark.skipif(not COMPILED_AVAILABLE,
                    reason="compiled kernels not built")
@pytest.mark.parametrize("name,seed,algorithm", CASES)
def test_compiled_engine_reproduces_golden_trace(name, seed, algorithm):
    lines = _trace_lines(seed, algorithm, compiled=True)
    golden = _golden(name)
    for i, (got, want) in enumerate(zip(lines, golden)):
        assert got == want, f"{name}: first divergence at event {i}"
    assert len(lines) == len(golden)


# -- digest corpus ------------------------------------------------------------
def _preset_case(seed):
    def build(sim):
        generate_preset(sim, "tiny", seed=seed).start()
        return 3.0
    return build


def _family_case(family, scheduler, algorithm):
    def build(sim):
        config = dataclasses.replace(
            family_config(family).scaled(12),
            scheduler_mix=((scheduler, 1.0),),
            algorithm_mix=((algorithm, 1.0),))
        build_random_scenario(sim, random.Random(7), config).start()
        return 5.0
    return build


def _scenario_a_red_case(algorithm):
    def build(sim):
        rng = random.Random(3)
        topo = build_scenario_a(sim, rng, n1=2, n2=2, c1_mbps=4.0,
                                c2_mbps=4.0, queue="red")
        starts = staggered_starts(rng, 4)
        for i in range(2):
            BulkTransfer(sim, algorithm, topo.type1_paths,
                         start_time=starts[i], name=f"type1.{i}").start()
            BulkTransfer(sim, "tcp", [topo.type2_path],
                         start_time=starts[2 + i],
                         name=f"type2.{i}").start()
        return 3.0
    return build


DIGEST_CASES = {
    **{f"preset_tiny_seed{seed}": _preset_case(seed) for seed in (1, 2, 3)},
    **{f"{family}_{scheduler}_{algorithm}":
       _family_case(family, scheduler, algorithm)
       for family in ("wifi_lte", "handover")
       for scheduler in ("minrtt", "roundrobin", "redundant", "qaware")
       for algorithm in ("olia", "balia")},
    **{f"scenario_a_red_{algorithm}": _scenario_a_red_case(algorithm)
       for algorithm in ("balia", "coupled")},
}


def _digest(name, compiled):
    """Trace hash and transport counters of one digest case."""
    sha = hashlib.sha256()
    subflows = {}

    def hook(time, fn, args):
        sha.update(_line(time, fn, args).encode() + b"\n")
        owner = getattr(fn, "__self__", None)
        if isinstance(owner, TcpSubflow):
            # Holding the object keeps its id from being reused by a
            # later churn flow.
            subflows[id(owner)] = owner

    sim = Simulator(trace=hook, compiled=compiled)
    sim.run(until=DIGEST_CASES[name](sim))
    flows = subflows.values()
    return {
        "sha256": sha.hexdigest(),
        "events": sim.events_processed,
        "acked": sum(sf.acked_packets for sf in flows),
        "retransmits": sum(sf.retransmits for sf in flows),
        "timeouts": sum(sf.timeouts for sf in flows),
    }


def _pinned_digests():
    return json.loads(DIGEST_FILE.read_text())


def test_digest_file_lists_exactly_the_cases():
    assert sorted(_pinned_digests()) == sorted(DIGEST_CASES)


@pytest.mark.parametrize("name", sorted(DIGEST_CASES))
def test_pure_engine_reproduces_digest(name):
    assert _digest(name, compiled=False) == _pinned_digests()[name]


@pytest.mark.skipif(not COMPILED_AVAILABLE,
                    reason="compiled kernels not built")
@pytest.mark.parametrize("name", sorted(DIGEST_CASES))
def test_compiled_engine_reproduces_digest(name):
    assert _digest(name, compiled=True) == _pinned_digests()[name]


def _regen():
    GOLDEN_DIR.mkdir(exist_ok=True)
    digests = {}
    for name in sorted(DIGEST_CASES):
        digests[name] = _digest(name, compiled=False)
        if COMPILED_AVAILABLE \
                and _digest(name, compiled=True) != digests[name]:
            raise SystemExit(
                f"{name}: pure and compiled digests disagree — fix the "
                f"engines before pinning")
    DIGEST_FILE.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {DIGEST_FILE} ({len(digests)} cases)")
    for name, seed, algorithm in CASES:
        pure = _trace_lines(seed, algorithm, compiled=False)
        if COMPILED_AVAILABLE:
            compiled = _trace_lines(seed, algorithm, compiled=True)
            if compiled != pure:
                raise SystemExit(
                    f"{name}: pure and compiled traces disagree — fix "
                    f"the engines before pinning a golden file")
        path = GOLDEN_DIR / f"{name}.trace"
        path.write_text("\n".join(pure) + "\n")
        print(f"wrote {path} ({len(pure)} events)")


if __name__ == "__main__":
    import sys
    if "--regen" in sys.argv:
        _regen()
    else:
        raise SystemExit("usage: python tests/test_golden_traces.py --regen")
