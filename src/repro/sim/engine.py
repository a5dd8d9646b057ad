"""Discrete-event simulation engine.

The :class:`Simulator` owns a virtual clock and dispatches callbacks in
exact ``(time, seq)`` order: a sequence number makes event ordering
deterministic for simultaneous events (FIFO within a timestamp), which
keeps whole simulations exactly reproducible for a fixed seed.  Event
*storage* is delegated to a scheduler backend
(:mod:`repro.sim.scheduler`):

* ``"wheel"`` — a hierarchical timer wheel with an overflow heap: O(1)
  inserts for the near-future bulk (link service, propagation, ACK
  clocks, RTO wakeups) regardless of how many events are pending;
* ``"heap"`` — the classic binary heap, kept as the reference backend;

* ``"auto"`` (the default) — an adaptive wrapper that starts on the
  heap (better constants while the pending set is small) and migrates
  to the wheel when the observed pending population crosses a
  calibrated threshold (and back, with hysteresis).

All backends pop in the same total order, so a simulation's trace is
backend-independent — including across ``auto``'s mid-run migrations
(property-tested in ``tests/test_sim_scheduler_equivalence.py`` and
``tests/test_sim_scheduler_auto.py``); ``REPRO_SIM_SCHEDULER``
overrides the default for a whole process, and an unknown value (from
either the argument or the environment) raises ``ValueError``
immediately rather than silently falling back.

Two hot-path optimisations keep the event loop allocation-light:

* **Pre-bound heap entries** — schedulers store ``(time, seq, fn, args,
  event)`` tuples, so dispatching an event reads the callback and its
  arguments straight out of the popped tuple instead of chasing
  attributes on the :class:`Event` object.  The unique ``(time, seq)``
  prefix means tuple comparison never reaches the callables.
* **An Event free-list** — handle objects are recycled once their entry
  leaves the queue, so steady-state simulation performs no per-event
  allocations beyond the entry tuple itself.

For repeating deadlines, :meth:`Simulator.timer` returns a rearmable
:class:`Timer`: re-arming one whose wakeup is still pending is a single
write to its ``deadline`` slot — no scheduler traffic at all — which is
what removes the schedule-then-lazy-cancel churn of RTO-style timers.

When the optional C extension (``repro.sim._kernels``, built with
``python setup.py build_ext --inplace``) is importable, the Simulator
swaps the whole hot path — scheduler storage *and* dispatch loop —
for the compiled :class:`~repro.sim._kernels.EngineCore` behind the
same API: entries live as C structs (no per-event tuple), Event
handles are a recycled C type, and ``run``/``run_until_empty``
dispatch without re-entering the interpreter between events.  The
pure-python loop above remains the reference: both dispatch identical
``(time, seq)`` traces (enforced by the scenario-A trace-identity
suite), ``REPRO_SIM_COMPILED=0`` or ``Simulator(compiled=False)``
forces the pure path, and a missing extension is never an error.
"""

from __future__ import annotations

import os
from itertools import repeat
from typing import Any, Callable, List, Optional

from .scheduler import (
    AUTO_SAMPLE_PERIOD,
    COMPILED_AVAILABLE,
    AdaptiveScheduler,
    HeapScheduler,
    WheelScheduler,
    calibrated_thresholds,
)

try:                            # optional compiled engine core
    from . import _kernels as _compiled
except ImportError:             # pure-python fallback: always valid
    _compiled = None

#: Environment override for the default scheduler backend.
SCHEDULER_ENV = "REPRO_SIM_SCHEDULER"

#: Recognised scheduler backend names.
SCHEDULER_NAMES = ("auto", "wheel", "heap")

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
    pending wakeup in the scheduler and tracks the live deadline in an
    attribute, so

    * extending the deadline (``arm``/``arm_at`` past the pending
      wakeup — the RTO pattern, where every ACK pushes the deadline
      out) is one attribute write and costs the scheduler nothing;
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
    disarmed) and ``wakeup`` (the pending scheduler event, ``None``
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


def _resolve_scheduler_name(scheduler: Optional[str]) -> str:
    """The backend to use, validating the argument or env override.

    An unrecognised name must fail loudly *here*, whichever way it
    arrived: a typo'd ``REPRO_SIM_SCHEDULER`` silently falling back to
    the default would invalidate every measurement made under it.
    """
    if scheduler is not None:
        name, origin = scheduler, "Simulator(scheduler=...)"
    else:
        name, origin = (os.environ.get(SCHEDULER_ENV) or "auto",
                        f"the {SCHEDULER_ENV} environment variable")
    if name not in SCHEDULER_NAMES:
        expected = ", ".join(repr(n) for n in SCHEDULER_NAMES)
        raise ValueError(
            f"unknown scheduler {name!r} from {origin} "
            f"(expected one of {expected})")
    return name


def _make_scheduler(name: str, wheel_tick: float):
    if name == "auto":
        return AdaptiveScheduler(tick=wheel_tick)
    if name == "wheel":
        return WheelScheduler(tick=wheel_tick)
    return HeapScheduler()


class Simulator:
    """Event loop with a virtual clock (seconds).

    ``clock`` is the object whose ``now`` attribute is the current
    time: the compiled core when one drives the run, a one-slot object
    otherwise.  ``sim.now`` reads it; per-packet components keep
    ``sim.clock`` and read ``clock.now`` themselves, one lookup and no
    property call.

    Parameters
    ----------
    scheduler : str, optional
        Event-store backend: ``"auto"``, ``"wheel"`` or ``"heap"``.
        Defaults to the ``REPRO_SIM_SCHEDULER`` environment variable,
        else ``"auto"``.  All backends dispatch in identical
        ``(time, seq)`` order, so the choice is purely speed: the
        wheel's cost is flat in the pending-event population (the
        scaling target of this repo's roadmap — 10k+ flow scenarios),
        at ~10% worse constants on the small shipped figure scenarios,
        where the heap is the faster pick; ``"auto"`` samples the
        observed pending population and migrates between the two, so
        neither regime pays the other's constants.  An unknown name —
        argument or environment — raises ``ValueError``.
    wheel_tick : float
        Level-0 slot width of the wheel backend in seconds (default
        1 ms); ignored by the heap backend.
    trace : callable, optional
        Debug hook called as ``trace(time, fn, args)`` before each
        dispatched event — the instrumentation used by the
        wheel-vs-heap equivalence tests.  Slows the loop; leave None in
        production runs.
    compiled : bool, optional
        ``None`` (default): use the compiled engine core
        (``repro.sim._kernels.EngineCore``) when the extension is
        importable and ``REPRO_SIM_COMPILED`` is not ``"0"``; fall back
        to the pure-python loop otherwise.  ``True``: require the
        extension (``RuntimeError`` when absent).  ``False``: force the
        pure-python loop.  Both loops dispatch identical ``(time,
        seq)`` traces — the compiled core is purely a speed-up,
        enforced by the scenario-A trace-identity suite.
    """

    def __init__(self, scheduler: Optional[str] = None, *,
                 wheel_tick: float = 1e-3,
                 trace: Optional[Callable] = None,
                 compiled: Optional[bool] = None) -> None:
        name = _resolve_scheduler_name(scheduler)
        self.scheduler_name = name
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
            promote, demote = calibrated_thresholds(compiled=True)
            core = _compiled.EngineCore(
                name, tick=wheel_tick, promote=promote, demote=demote,
                period=AUTO_SAMPLE_PERIOD, trace=trace)
            self._core = core
            # The core *is* the scheduler (it stores entries as C
            # structs); exposing it as _sched keeps the introspection
            # surface (len, .migrations) identical to the pure engine.
            # It is also the clock: ``core.now`` is its C getter.
            self._sched = self.clock = core
            # Rebind the hot API to the core's C methods: attribute
            # lookup finds the instance binding first, so callers pay
            # zero wrapper overhead per event.
            self.schedule = core.schedule
            self.schedule_at = core.schedule_at
            self.run = core.run
            self.run_until_empty = core.run_until_empty
            return
        self._sched = _make_scheduler(name, wheel_tick)
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
        return len(self._sched)

    @property
    def active_backend(self) -> str:
        """The event store in use right now, ``"heap"`` or ``"wheel"``.

        Equal to ``scheduler_name`` for the fixed backends; under
        ``"auto"`` it reports whichever side of the crossover the
        adaptive scheduler currently sits on.
        """
        core = self._core
        if core is not None:
            return core.backend_name
        sched = self._sched
        if isinstance(sched, AdaptiveScheduler):
            return sched.backend_name
        return self.scheduler_name

    @property
    def migrations(self) -> int:
        """Backend switches performed so far (always 0 when fixed)."""
        core = self._core
        if core is not None:
            return core.migrations
        sched = self._sched
        if isinstance(sched, AdaptiveScheduler):
            return sched.migrations
        return 0

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
        self._sched.push((time, self._counter, fn, args, event))
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
        self._sched.push((time, self._counter, fn, args, event))
        return event

    def timer(self, fn: Callable, *args: Any) -> Timer:
        """A disarmed :class:`Timer` that will run ``fn(*args)``."""
        return Timer(self, fn, args)

    def run(self, until: float) -> None:
        """Process events in order until the clock reaches ``until``.

        Under the adaptive backend the loop is *chunked*: the pending
        population is sampled (and the backend possibly migrated)
        between chunks of ``AdaptiveScheduler.period`` events, and
        inside a chunk events pop straight off the active inner
        backend — the adaptive machinery costs nothing on the
        per-event fast path.
        """
        sched = self._sched
        if isinstance(sched, AdaptiveScheduler):
            self._run_adaptive(sched, until)
            return
        pop = sched.pop_due
        clock = self.clock
        free = self._free
        trace = self._trace
        while True:
            entry = pop(until)
            if entry is None:
                break
            event = entry[4]
            if event.cancelled:
                event.fn = None
                event.args = ()
                free.append(event)
                continue
            clock.now = entry[0]
            self._processed += 1
            if trace is not None:
                trace(entry[0], entry[2], entry[3])
            entry[2](*entry[3])
            event.fn = None
            event.args = ()
            free.append(event)
        clock.now = until

    def _run_adaptive(self, sched: AdaptiveScheduler, until: float) -> None:
        """The chunked variant of :meth:`run` for the auto backend.

        A separate loop rather than a flag in :meth:`run`: the fixed-
        backend loop keeps no counter at all, and here the chunk is a
        ``repeat(None, period)`` iteration — the cheapest loop CPython
        has (~8 ns/event over a bare loop, vs ~40 ns for an integer
        countdown) — so steady state runs at the active backend's
        native speed.
        """
        clock = self.clock
        free = self._free
        trace = self._trace
        period = sched.period
        while True:
            sched.sample()
            pop = sched.inner.pop_due
            for _ in repeat(None, period):
                entry = pop(until)
                if entry is None:
                    clock.now = until
                    return
                event = entry[4]
                if event.cancelled:
                    event.fn = None
                    event.args = ()
                    free.append(event)
                    continue
                clock.now = entry[0]
                self._processed += 1
                if trace is not None:
                    trace(entry[0], entry[2], entry[3])
                entry[2](*entry[3])
                event.fn = None
                event.args = ()
                free.append(event)

    def run_until_empty(self, max_events: int = 10_000_000) -> None:
        """Process every queued event (bounded by ``max_events``)."""
        sched = self._sched
        if isinstance(sched, AdaptiveScheduler):
            if self._run_until_empty_adaptive(sched, max_events):
                return
        else:
            pop = sched.pop_next
            clock = self.clock
            free = self._free
            trace = self._trace
            budget = max_events
            while budget > 0:
                entry = pop()
                if entry is None:
                    return
                event = entry[4]
                if event.cancelled:
                    event.fn = None
                    event.args = ()
                    free.append(event)
                    continue
                clock.now = entry[0]
                self._processed += 1
                budget -= 1
                if trace is not None:
                    trace(entry[0], entry[2], entry[3])
                entry[2](*entry[3])
                event.fn = None
                event.args = ()
                free.append(event)
        if len(self._sched):
            raise RuntimeError(
                f"run_until_empty exceeded {max_events} events")

    def _run_until_empty_adaptive(self, sched: AdaptiveScheduler,
                                  max_events: int) -> bool:
        """Chunked :meth:`run_until_empty`; True when fully drained."""
        clock = self.clock
        free = self._free
        trace = self._trace
        budget = max_events
        while budget > 0:
            sched.sample()
            pop = sched.inner.pop_next
            before = self._processed
            for _ in repeat(None, min(sched.period, budget)):
                entry = pop()
                if entry is None:
                    return True
                event = entry[4]
                if event.cancelled:
                    event.fn = None
                    event.args = ()
                    free.append(event)
                    continue
                clock.now = entry[0]
                self._processed += 1
                if trace is not None:
                    trace(entry[0], entry[2], entry[3])
                entry[2](*entry[3])
                event.fn = None
                event.args = ()
                free.append(event)
            budget -= self._processed - before
        return len(self._sched) == 0
