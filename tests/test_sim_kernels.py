"""Property tests for the compiled DES engine core (optional extension).

The C ``EngineCore`` must be *invisible*: under any stream of
schedules, cancellations, ``run(until)`` slices and a final
``run_until_empty`` it dispatches the pure-python engine's exact trace,
and it fails with the pure engine's exact messages.  The whole module
skips when the extension is not built (the pure-fallback CI lane).
"""

import math
import random

import pytest

_kernels = pytest.importorskip("repro.sim._kernels")

from repro.sim.engine import Simulator

#: Delay scales the random workload draws from: same-instant bursts,
#: link and ACK timescales, RTOs, and far-future timers out to ~4 months.
HORIZONS = (1e-4, 5e-3, 0.3, 2.0, 80.0, 2e4, 1e7)


def _random_run(sim, seed, n_roots=400, n_slices=20):
    """Drive ``sim`` through one seeded random workload; return its log.

    Every callback draws from one RNG, so two engines that dispatch in
    the same order consume identical draws and write identical logs;
    the first event out of order shows up as a divergence in the log.
    Callbacks spawn children (``schedule``, and ``schedule_at`` on a
    10 ms grid so that many events share a timestamp and FIFO order
    among them is compared too) and cancel random pending events; the
    run advances in random ``run(until)`` slices, each with one event
    due exactly at its end, and ends with ``run_until_empty``.
    """
    rng = random.Random(seed)
    log = []
    live = {}                   # tag -> handle of a still-pending event
    tags = iter(range(10**9))

    def spawn(depth, at=None):
        tag = next(tags)
        delay = rng.random() * rng.choice(HORIZONS)
        if at is None and rng.random() < 0.3:
            at = math.ceil((sim.now + delay) * 100) / 100
        if at is None:
            live[tag] = sim.schedule(delay, fire, tag, depth)
        else:
            live[tag] = sim.schedule_at(at, fire, tag, depth)

    def fire(tag, depth):
        del live[tag]
        log.append((sim.now, tag))
        if depth < 3:
            for _ in range(rng.randint(0, 2)):
                spawn(depth + 1)
        if live and rng.random() < 0.2:
            live.pop(rng.choice(sorted(live))).cancel()

    for _ in range(n_roots):
        spawn(0)
    until = 0.0
    for _ in range(n_slices):
        until += rng.random() * rng.choice(HORIZONS[:5])
        spawn(0, at=until)
        sim.run(until=until)
        log.append(("slice", sim.now, sim.pending_events,
                    sim.events_processed))
    sim.run_until_empty()
    log.append(("end", sim.now, sim.pending_events, sim.events_processed))
    return log


@pytest.mark.parametrize("seed", range(5))
def test_compiled_engine_matches_pure_engine(seed):
    runs = []
    for compiled in (False, True):
        trace = []
        sim = Simulator(compiled=compiled,
                        trace=lambda t, fn, args, trace=trace:
                        trace.append((t, fn.__qualname__, len(args))))
        assert sim.compiled is compiled
        runs.append((_random_run(sim, seed), trace))
    (pure_log, pure_trace), (core_log, core_trace) = runs
    assert len(pure_trace) > 500        # real work, cancellations included
    times = [t for t, _, _ in pure_trace]
    assert len(times) - len(set(times)) > 20    # timestamp ties happen
    assert any(entry[0] == "slice" and entry[2] for entry in pure_log)
    assert core_log == pure_log
    assert core_trace == pure_trace


class TestEngineCoreContract:
    def test_trace_is_the_only_argument(self):
        with pytest.raises(TypeError):
            _kernels.EngineCore("heap")
        assert len(_kernels.EngineCore(trace=None)) == 0

    def test_error_messages_match_the_pure_engine(self):
        core = _kernels.EngineCore()
        with pytest.raises(ValueError) as excinfo:
            core.schedule(-1.0, print)
        assert str(excinfo.value) == \
            "cannot schedule in the past (delay=-1.0)"
        core.run(until=5.0)
        with pytest.raises(ValueError) as excinfo:
            core.schedule_at(1.0, print)
        assert str(excinfo.value) == \
            "cannot schedule at 1.0 before now (5.0)"

    def test_budget_guard_message(self):
        core = _kernels.EngineCore()

        def forever():
            core.schedule(1.0, forever)

        core.schedule(0.0, forever)
        with pytest.raises(RuntimeError,
                           match="run_until_empty exceeded 100 events"):
            core.run_until_empty(max_events=100)

    def test_cancelled_events_are_skipped_and_recycled(self):
        core = _kernels.EngineCore()
        log = []
        event = core.schedule(1.0, log.append, "no")
        keep = core.schedule(2.0, log.append, "yes")
        event.cancel()
        core.run(until=3.0)
        assert log == ["yes"]
        assert core.events_processed == 1
        assert keep.fn is None      # dispatched handles are stripped
