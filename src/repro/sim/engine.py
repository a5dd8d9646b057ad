"""Discrete-event simulation engine.

The :class:`Simulator` owns a virtual clock and dispatches callbacks in
exact ``(time, seq)`` order: a sequence number makes event ordering
deterministic for simultaneous events (FIFO within a timestamp), which
keeps whole simulations exactly reproducible for a fixed seed.  Pending
events live in one binary heap of pre-bound ``(time, seq, fn, args,
event)`` entries: dispatching an event reads the callback and its
arguments straight out of the popped tuple, and the unique ``(time,
seq)`` prefix means tuple comparison never reaches the callables.
Handle objects are recycled through a free list once their entry
leaves the heap, so steady-state simulation performs no per-event
allocations beyond the entry tuple itself.

For repeating deadlines, :meth:`Simulator.timer` returns a rearmable
:class:`Timer`: re-arming one whose wakeup is still pending is a single
write to its ``deadline`` slot — no heap traffic at all — which is
what removes the schedule-then-lazy-cancel churn of RTO-style timers.

When the optional C extension (``repro.sim._kernels``, built with
``python setup.py build_ext --inplace``) is importable, the Simulator
swaps the whole hot path — heap *and* dispatch loop — for the compiled
:class:`~repro.sim._kernels.EngineCore` behind the same API: entries
live as C structs (no per-event tuple), Event handles are a recycled C
type, and ``run``/``run_until_empty`` dispatch without re-entering the
interpreter between events.  The pure-python loop remains the
reference: both dispatch identical ``(time, seq)`` traces (enforced by
the golden traces and ``tests/test_sim_kernels.py``),
``REPRO_SIM_COMPILED=0`` or ``Simulator(compiled=False)`` forces the
pure path, and a missing extension is never an error.  The same switch
picks the link: a compiled Simulator gets the compiled
:class:`~repro.sim._kernels.Link` (see :mod:`repro.sim.link`).
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

try:                            # optional compiled engine core
    from . import _kernels as _compiled
except ImportError:             # pure-python fallback: always valid
    _compiled = None

#: True when the optional C extension (``repro.sim._kernels``) built
#: and imported; the Simulator falls back to the pure loop when not.
COMPILED_AVAILABLE = _compiled is not None

#: Names the ``scheduler`` argument accepts; both mean the binary heap.
SCHEDULER_NAMES = ("auto", "heap")

#: Environment switch for the compiled engine core: ``"0"`` forces the
#: pure-python loop even when the extension is importable.  Any other
#: value (or unset) means "use it when available" — absence of the
#: extension is never an error on this path, so un-built checkouts run
#: everywhere.
COMPILED_ENV = "REPRO_SIM_COMPILED"


class Event:
    """A scheduled callback; cancel by calling :meth:`cancel`.

    Handle lifetime contract: a handle is valid from ``schedule`` until
    its callback runs (or, for a cancelled event, until the engine pops
    and discards it).  The engine then *recycles* the object for a later
    ``schedule`` call, so holders must drop (or overwrite) their
    reference when the callback fires and must not call :meth:`cancel`
    afterwards — the idiom used throughout :mod:`repro.sim` is to null
    the stored handle first thing in the callback.  (A :class:`Timer` is
    the safer alternative for recurring deadlines: it is owned by its
    holder and never recycled.)
    """

    __slots__ = ("time", "fn", "args", "cancelled")

    def __init__(self, time: float, fn: Callable, args: tuple) -> None:
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the engine skips it (lazy deletion)."""
        self.cancelled = True


class _Clock:
    """The pure-python engine's clock: ``now``, written by the run loops."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0


class Timer:
    """A rearmable deadline callback bound to one :class:`Simulator`.

    Unlike a raw :class:`Event`, a Timer is a *persistent* handle: the
    holder owns it for the lifetime of the component, re-arming it as
    deadlines move instead of scheduling a fresh event (and lazily
    cancelling the old one) on every rearm.  It keeps at most one
    pending wakeup in the event heap and tracks the live deadline in an
    attribute, so

    * extending the deadline (``arm``/``arm_at`` past the pending
      wakeup — the RTO pattern, where every ACK pushes the deadline
      out) is one attribute write and costs the heap nothing;
    * when the wakeup fires early (the deadline moved), the timer
      silently re-inserts itself at the live deadline;
    * ``cancel`` clears the deadline and lets any pending wakeup pop as
      a no-op.

    Firing contract: the callback runs at the first wakeup whose time is
    at-or-after the live deadline.  For the monotone-deadline pattern
    this is exact; re-arming *earlier* than an already-pending wakeup
    takes effect only at that wakeup (the timer never fires before the
    live deadline, but may fire late by the difference).  Components
    that need exact earlier deadlines should use a fresh timer.

    After firing, the timer is disarmed and may be re-armed — including
    from inside its own callback (periodic pacing/spawn loops).

    Two slots are part of the interface, for holders that re-arm once
    per packet: ``deadline`` (the live deadline, ``None`` when
    disarmed) and ``wakeup`` (the pending wakeup event, ``None``
    when there is none).  While ``wakeup`` is not ``None``,
    ``timer.deadline = t`` *is* ``timer.arm_at(t)`` minus the call and
    the past-deadline check — the holder must know ``t >= now`` (the
    RTO re-arm writes ``now + rto`` with ``rto >= min_rto > 0``).  With
    no wakeup pending, call :meth:`arm_at`.
    """

    __slots__ = ("_sim", "_clock", "fn", "args", "deadline", "wakeup")

    def __init__(self, sim: "Simulator", fn: Callable, args: tuple) -> None:
        self._sim = sim
        self._clock = sim.clock
        self.fn = fn
        self.args = args
        self.deadline: Optional[float] = None
        self.wakeup: Optional[Event] = None

    @property
    def armed(self) -> bool:
        """True while a deadline is set (callback will eventually run)."""
        return self.deadline is not None

    def arm(self, delay: float) -> None:
        """(Re-)arm to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot arm a timer in the past ({delay})")
        self.arm_at(self._clock.now + delay)

    def arm_at(self, time: float) -> None:
        """(Re-)arm to fire at absolute ``time``."""
        now = self._clock.now
        if time < now:
            raise ValueError(
                f"cannot arm a timer at {time} before now ({now})")
        self.deadline = time
        if self.wakeup is None:
            self.wakeup = self._sim.schedule_at(time, self._on_wakeup)

    def cancel(self) -> None:
        """Disarm; a pending wakeup (if any) pops as a no-op."""
        self.deadline = None

    def _on_wakeup(self) -> None:
        self.wakeup = None
        deadline = self.deadline
        if deadline is None:
            return
        if self._clock.now < deadline - 1e-12:
            # The deadline moved forward since this wakeup was
            # scheduled; chase it.
            self.wakeup = self._sim.schedule_at(deadline, self._on_wakeup)
            return
        self.deadline = None
        self.fn(*self.args)


class Simulator:
    """Event loop with a virtual clock (seconds).

    ``clock`` is the object whose ``now`` attribute is the current
    time: the compiled core when one drives the run, a one-slot object
    otherwise.  ``sim.now`` reads it; per-packet components keep
    ``sim.clock`` and read ``clock.now`` themselves, one lookup and no
    property call.

    Parameters
    ----------
    scheduler : str
        ``"auto"`` (the default) or ``"heap"``; both name the one event
        store, a binary heap.  Any other name raises ``ValueError``.
    trace : callable, optional
        Debug hook called as ``trace(time, fn, args)`` before each
        dispatched event — the instrumentation behind the golden traces
        and the compiled-vs-pure equivalence tests.  Slows the loop;
        leave None in production runs.
    compiled : bool, optional
        ``None`` (default): use the compiled engine core
        (``repro.sim._kernels.EngineCore``) when the extension is
        importable and ``REPRO_SIM_COMPILED`` is not ``"0"``; fall back
        to the pure-python loop otherwise.  ``True``: require the
        extension (``RuntimeError`` when absent).  ``False``: force the
        pure-python loop.  Both loops dispatch identical ``(time,
        seq)`` traces — the compiled core is purely a speed-up.
    """

    def __init__(self, scheduler: str = "auto", *,
                 trace: Optional[Callable] = None,
                 compiled: Optional[bool] = None) -> None:
        if scheduler not in SCHEDULER_NAMES:
            expected = ", ".join(repr(n) for n in SCHEDULER_NAMES)
            raise ValueError(
                f"unknown scheduler {scheduler!r} (expected one of "
                f"{expected})")
        self._trace = trace
        self._core = None
        if compiled is None:
            use_compiled = (_compiled is not None
                            and os.environ.get(COMPILED_ENV) != "0")
        elif compiled:
            if _compiled is None:
                raise RuntimeError(
                    "Simulator(compiled=True) requires the "
                    "repro.sim._kernels extension; build it with "
                    "`python setup.py build_ext --inplace` or pass "
                    "compiled=None to fall back automatically")
            use_compiled = True
        else:
            use_compiled = False
        if use_compiled:
            # The core holds the heap and is the clock (``core.now`` is
            # its C getter).  The hot API is rebound to the core's C
            # methods: attribute lookup finds the instance binding
            # first, so callers pay zero wrapper overhead per event.
            core = _compiled.EngineCore(trace=trace)
            self._core = self.clock = core
            self.schedule = core.schedule
            self.schedule_at = core.schedule_at
            self.run = core.run
            self.run_until_empty = core.run_until_empty
            return
        self._heap: List[tuple] = []
        self._free: List[Event] = []
        self.clock = _Clock()
        self._counter = 0
        self._processed = 0

    @property
    def compiled(self) -> bool:
        """True when the compiled engine core is driving this run."""
        return self._core is not None

    @property
    def now(self) -> float:
        """Current simulation time in seconds (``self.clock.now``)."""
        return self.clock.now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (performance metric)."""
        core = self._core
        if core is not None:
            return core.events_processed
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        core = self._core
        if core is not None:
            return len(core)
        return len(self._heap)

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay`` seconds; returns the event."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        # Inlined schedule_at: this is the hottest API in the simulator,
        # and a second Python call per event costs a measurable slice of
        # the event loop.
        time = self.clock.now + delay
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.fn = fn
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, fn, args)
        self._counter += 1
        heappush(self._heap, (time, self._counter, fn, args, event))
        return event

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute ``time``; returns the event."""
        now = self.clock.now
        if time < now:
            raise ValueError(
                f"cannot schedule at {time} before now ({now})")
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.fn = fn
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, fn, args)
        self._counter += 1
        heappush(self._heap, (time, self._counter, fn, args, event))
        return event

    def timer(self, fn: Callable, *args: Any) -> Timer:
        """A disarmed :class:`Timer` that will run ``fn(*args)``."""
        return Timer(self, fn, args)

    def run(self, until: float) -> None:
        """Process events in order until the clock reaches ``until``.

        ``until`` earlier than ``now`` raises ``ValueError``: rewinding
        the clock would let later schedules dispatch out of order.
        """
        clock = self.clock
        if until < clock.now:
            raise ValueError(
                f"cannot run until {until} before now ({clock.now})")
        heap = self._heap
        free = self._free
        trace = self._trace
        while heap and heap[0][0] <= until:
            time, _, fn, args, event = heappop(heap)
            if not event.cancelled:
                clock.now = time
                self._processed += 1
                if trace is not None:
                    trace(time, fn, args)
                fn(*args)
            event.fn = None
            event.args = ()
            free.append(event)
        clock.now = until

    def run_until_empty(self, max_events: int = 10_000_000) -> None:
        """Process every queued event (bounded by ``max_events``)."""
        heap = self._heap
        clock = self.clock
        free = self._free
        trace = self._trace
        budget = max_events
        while heap and budget > 0:
            time, _, fn, args, event = heappop(heap)
            if not event.cancelled:
                clock.now = time
                self._processed += 1
                budget -= 1
                if trace is not None:
                    trace(time, fn, args)
                fn(*args)
            event.fn = None
            event.args = ()
            free.append(event)
        if heap:
            raise RuntimeError(
                f"run_until_empty exceeded {max_events} events")
