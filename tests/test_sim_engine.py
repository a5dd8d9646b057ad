"""Unit tests for the event engine."""

import pytest

from repro.sim import Simulator, Timer
from repro.sim.engine import COMPILED_AVAILABLE

#: Both engines: the pure loop always, the compiled core when built.
ENGINES = [False, pytest.param(True, marks=pytest.mark.skipif(
    not COMPILED_AVAILABLE, reason="compiled kernels not built"))]


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, log.append, "late")
        sim.schedule(1.0, log.append, "early")
        sim.run(until=3.0)
        assert log == ["early", "late"]

    def test_fifo_for_simultaneous_events(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule(1.0, log.append, i)
        sim.run(until=2.0)
        assert log == [0, 1, 2, 3, 4]

    def test_clock_advances_to_until(self):
        sim = Simulator()
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_events_beyond_until_stay_queued(self):
        sim = Simulator()
        log = []
        sim.schedule(10.0, log.append, "x")
        sim.run(until=5.0)
        assert log == []
        sim.run(until=15.0)
        assert log == ["x"]

    def test_schedule_during_run(self):
        sim = Simulator()
        log = []

        def chain(n):
            log.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run(until=10.0)
        assert log == [0, 1, 2, 3]

    def test_now_visible_inside_callback(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run(until=3.0)
        assert seen == [2.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.run(until=5.0)
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        log = []
        event = sim.schedule(1.0, log.append, "no")
        event.cancel()
        sim.run(until=2.0)
        assert log == []

    def test_cancel_is_lazy_but_counts_stay_consistent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        assert sim.pending_events == 1
        sim.run(until=2.0)
        assert sim.events_processed == 0


class TestRunUntilEmpty:
    def test_processes_everything(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, 1)
        sim.schedule(5.0, log.append, 2)
        sim.run_until_empty()
        assert log == [1, 2]
        assert sim.now == 5.0

    def test_event_budget_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(RuntimeError):
            sim.run_until_empty(max_events=100)


class TestRunUntilInThePast:
    @pytest.mark.parametrize("compiled", ENGINES)
    def test_rewinding_the_clock_is_rejected(self, compiled):
        """``run(until)`` behind the clock must not rewind ``now``: a
        rewound clock let a later ``schedule_at(1.5)`` dispatch after
        the event at 2.0.  Both engines fail with one message."""
        sim = Simulator(compiled=compiled)
        log = []
        sim.schedule_at(2.0, log.append, 2.0)
        sim.schedule_at(4.0, log.append, 4.0)
        sim.run(until=3.0)
        with pytest.raises(ValueError) as excinfo:
            sim.run(until=1.0)
        assert str(excinfo.value) == "cannot run until 1.0 before now (3.0)"
        assert sim.now == 3.0
        with pytest.raises(ValueError):
            sim.schedule_at(1.5, log.append, 1.5)
        sim.run(until=3.0)          # until == now stays a no-op
        assert sim.now == 3.0 and log == [2.0]
        sim.run_until_empty()
        assert log == [2.0, 4.0]


class TestPublicSurface:
    """One API whichever engine drives it (the documented slots
    included)."""

    @staticmethod
    def _public(obj):
        return {name for name in dir(obj) if not name.startswith("_")}

    @pytest.mark.skipif(not COMPILED_AVAILABLE,
                        reason="compiled kernels not built")
    def test_pure_and_compiled_expose_the_same_attributes(self):
        pure = Simulator(compiled=False)
        core = Simulator(compiled=True)
        assert self._public(pure) == self._public(core)
        assert self._public(pure.schedule(1.0, print)) \
            == self._public(core.schedule(1.0, print))

    @pytest.mark.parametrize("compiled", ENGINES)
    def test_clock_is_the_time_source(self, compiled):
        sim = Simulator(compiled=compiled)
        sim.run(until=0.5)
        assert sim.clock.now == sim.now == 0.5

    def test_timer_deadline_and_wakeup_are_slots(self):
        assert {"deadline", "wakeup"} <= set(Timer.__slots__)
        timer = Simulator().timer(print)
        assert not hasattr(timer, "__dict__")
        timer.arm(1.0)
        assert timer.deadline == 1.0 and timer.wakeup is not None
