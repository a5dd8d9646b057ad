"""Unit tests for the Timer and the Simulator's ``scheduler`` argument.

``"auto"`` and ``"heap"`` are the accepted names of the one event store
(a binary heap); every other name is rejected loudly.
"""

import pytest

from repro.sim import Simulator, Timer


class TestSimulatorBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="fibheap"):
            Simulator("fibheap")

    def test_wheel_is_gone(self):
        """The removed timer wheel is an unknown name like any other;
        the message lists what is accepted."""
        with pytest.raises(ValueError) as excinfo:
            Simulator("wheel")
        assert "'auto', 'heap'" in str(excinfo.value)


class TestTimer:
    def test_fires_at_deadline(self):
        sim = Simulator()
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        timer.arm(1.5)
        assert timer.armed and timer.deadline == 1.5
        sim.run(until=2.0)
        assert fired == [1.5]
        assert not timer.armed

    def test_carries_bound_args(self):
        sim = Simulator()
        fired = []
        timer = sim.timer(fired.append, "payload")
        timer.arm(0.1)
        sim.run(until=1.0)
        assert fired == ["payload"]

    def test_rearm_later_moves_the_deadline(self):
        sim = Simulator()
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        timer.arm(1.0)
        timer.arm(3.0)          # extend before the first wakeup
        sim.run(until=10.0)
        assert fired == [3.0]

    def test_rearm_extends_without_scheduler_traffic(self):
        sim = Simulator()
        timer = sim.timer(lambda: None)
        timer.arm(1.0)
        pending = sim.pending_events
        for _ in range(100):
            timer.arm(1.0)      # monotone rearms reuse the wakeup
        assert sim.pending_events == pending

    def test_cancel_suppresses_firing(self):
        sim = Simulator()
        fired = []
        timer = sim.timer(fired.append, 1)
        timer.arm(1.0)
        timer.cancel()
        assert not timer.armed
        sim.run(until=2.0)
        assert fired == []

    def test_rearm_from_inside_callback(self):
        sim = Simulator()
        fired = []

        def periodic():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.arm(1.0)

        timer = sim.timer(periodic)
        timer.arm(1.0)
        sim.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_rearm_after_cancel(self):
        sim = Simulator()
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        timer.arm(1.0)
        timer.cancel()
        sim.run(until=2.0)
        timer.arm(1.0)
        sim.run(until=5.0)
        assert fired == [3.0]

    def test_earlier_rearm_fires_at_pending_wakeup(self):
        """Documented lazy contract: a deadline moved *earlier* than the
        pending wakeup takes effect at that wakeup (never before the
        live deadline, possibly later)."""
        sim = Simulator()
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        timer.arm(2.0)
        timer.arm(1.0)
        sim.run(until=3.0)
        assert fired == [2.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        timer = sim.timer(lambda: None)
        with pytest.raises(ValueError):
            timer.arm(-0.5)

    def test_arm_in_past_rejected(self):
        sim = Simulator()
        sim.run(until=5.0)
        timer = sim.timer(lambda: None)
        with pytest.raises(ValueError):
            timer.arm_at(1.0)

    @pytest.mark.parametrize("backend", ["heap", "auto"])
    def test_same_firing_sequence_on_both_backends(self, backend):
        sim = Simulator(backend)
        fired = []
        timers = [sim.timer(fired.append, i) for i in range(5)]
        for i, timer in enumerate(timers):
            timer.arm(0.1 * (i + 1))
        timers[0].arm(0.55)     # extend past everyone else
        timers[3].cancel()
        sim.run(until=1.0)
        assert fired == [1, 2, 4, 0]

    def test_timer_is_a_public_type(self):
        sim = Simulator()
        assert isinstance(sim.timer(lambda: None), Timer)
