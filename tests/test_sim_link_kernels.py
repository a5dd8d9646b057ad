"""Oracle for the compiled ``Link`` (optional extension).

On a compiled engine ``Link(sim, ...)`` is ``repro.sim._kernels.Link``;
the Python class stays the reference.  The C link must be invisible:
driven through the same seeded scenarios — random arrivals, drop-tail
overflow, channel loss, rate and delay changes mid-run (a shrinking
delay included), RED through the Python queue path, multi-hop paths
that mix C links with a Python ``ScriptedLink`` — it dispatches the
reference's exact trace, delivers the same packets at the same times
and ends with the same counters, with or without a trace hook.  The
reference runs on both engines (a Python subclass keeps the Python
class on a compiled engine).  The whole module skips when the
extension is not built (the pure-fallback CI lane).
"""

import gc
import math
import random
import weakref

import pytest

_kernels = pytest.importorskip("repro.sim._kernels")

from repro.sim import DropTailQueue, Link, Packet, REDQueue, Simulator


class ReferenceLink(Link):
    """The Python Link on any engine: subclasses are never swapped."""

    __slots__ = ()


#: (compiled engine?, link class): the C link, and the reference on
#: both engines.
IMPLEMENTATIONS = {
    "compiled-link": (True, Link),
    "reference-on-compiled-engine": (True, ReferenceLink),
    "reference-on-pure-engine": (False, Link),
}


class ScriptedLink(Link):
    """A Python hop that drops the sequence numbers in ``drops``."""

    __slots__ = ("drops",)

    def __init__(self, sim, drops, **kwargs):
        super().__init__(sim, **kwargs)
        self.drops = drops

    def receive(self, packet):
        if packet.seq in self.drops:
            self.stats.arrivals += 1
            self.stats.drops += 1
            return
        super().receive(packet)


class Sink:
    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def on_data(self, packet):
        self.received.append((packet.seq, self.sim.now))


def _scenario(seed, compiled, make, trace):
    """One seeded run: (trace lines, sink log, observations, final link
    states, events dispatched)."""
    lines = []
    hook = None
    if trace:
        def hook(time, fn, args):
            lines.append(f"{time!r} {fn.__qualname__} {len(args)}")
    sim = Simulator(trace=hook, compiled=compiled)
    rng = random.Random(seed)
    links = {
        # Integer rates stay integers on both sides.
        "access": make(sim, rng.choice([12_000_000, 9.6e6]), 0.004,
                       queue=DropTailQueue(limit=rng.randint(2, 5)),
                       name="access"),
        "lossy": make(sim, 8e6, 0.01, queue=DropTailQueue(limit=6),
                      name="lossy", loss_rate=0.15,
                      loss_rng=random.Random(seed + 100)),
        "red": make(sim, 2e6, 0.002,
                    queue=REDQueue(random.Random(seed + 200), min_th=1.0,
                                   max_th=4.0, limit=12),
                    name="red"),
        "default": make(sim, 20e6, 0.0, name="default"),
        "scripted": ScriptedLink(
            sim, set(rng.sample(range(600), 40)), rate_bps=10e6,
            delay=0.003, queue=DropTailQueue(limit=8), name="scripted"),
    }
    paths = [
        ("access",), ("access", "lossy"), ("lossy", "red"),
        ("access", "scripted", "red"), ("red", "default", "access"),
        ("scripted", "default"), ("default", "lossy", "scripted"),
    ]
    paths = [tuple(links[name] for name in path) for path in paths]
    sink = Sink(sim)
    log = []

    def send(seq, path):
        path[0].receive(Packet(sink, seq, path, size_bytes=rng.choice(
            [1500, 1500, 40, 576])))

    for seq in range(600):
        # A 1 ms grid makes simultaneous arrivals (FIFO ties) common.
        at = math.floor(rng.random() * 400) / 1000
        sim.schedule_at(at, send, seq, rng.choice(paths))

    def change(name, attribute, value):
        setattr(links[name], attribute, value)

    def observe():
        log.append([(len(link.queue), link.stats.arrivals, link.stats.drops)
                    for link in links.values()])

    def reset(name):
        observe()
        links[name].stats.reset(sim.now)

    for _ in range(12):
        name = rng.choice(sorted(links))
        at = rng.random() * 0.45
        if rng.random() < 0.5:
            sim.schedule_at(at, change, name, "rate_bps",
                            rng.choice([2e6, 5_000_000, 30e6]))
        else:
            # Long delays, then short ones: the wire's tail clamps.
            sim.schedule_at(at, change, name, "delay",
                            rng.choice([0.05, 0.03, 0.0005, 0.0]))
        sim.schedule_at(rng.random() * 0.5, observe)
    sim.schedule_at(0.2, reset, "access")
    sim.schedule_at(0.25, reset, "red")
    sim.run(until=0.3)
    sim.run_until_empty()
    observe()
    now = sim.now
    states = {
        name: (type(link.queue).__name__, len(link.queue), link.rate_bps,
               link.delay, link.stats.arrivals, link.stats.drops,
               link.stats.bytes_sent, link.stats.since,
               link.stats.loss_probability,
               link.stats.utilization(now, link.rate_bps))
        for name, link in links.items()}
    return lines, sink.received, log, states, sim.events_processed


@pytest.mark.parametrize("seed", range(5))
def test_compiled_link_matches_the_reference(seed):
    runs = {}
    for label, (compiled, make) in IMPLEMENTATIONS.items():
        for trace in (True, False):
            runs[label, trace] = _scenario(seed, compiled, make, trace)
    lines, received, log, states, events = runs[
        "reference-on-pure-engine", True]
    assert len(lines) == events > 2000
    assert len(received) > 300
    # The scenario reaches every mechanism it is meant to compare: drops
    # on every link but the roomy default one (overflow, channel loss,
    # RED, scripted), and simultaneous deliveries.
    names = list(states)
    dropped = {name for sample in log
               for name, (_, _, drops) in zip(names, sample) if drops}
    assert dropped >= {"access", "lossy", "red", "scripted"}
    assert any(a == b for (_, a), (_, b) in zip(received, received[1:]))
    for key, run in runs.items():
        assert run[1:] == (received, log, states, events), key
        if key[1]:
            assert run[0] == lines, key


def test_the_compiled_run_really_uses_the_compiled_link():
    sim = Simulator(compiled=True)
    assert type(Link(sim, 1e6, 0.01)) is _kernels.Link
    assert type(ReferenceLink(sim, 1e6, 0.01)) is ReferenceLink
    assert type(Link(Simulator(compiled=False), 1e6, 0.01)) is Link


def test_a_shrinking_delay_clamps_to_the_wire_tail():
    """Packets put on the wire after the delay shrank leave behind the
    ones already propagating, at the tail's time, on both links."""
    service = 1500 * 8.0 / 12e6
    tail = (service + service) + 0.05
    for make in (Link, ReferenceLink):
        sim = Simulator(compiled=True)
        link = make(sim, 12e6, 0.05, queue=DropTailQueue(limit=10))
        sink = Sink(sim)
        for seq in range(4):
            link.receive(Packet(sink, seq, (link,)))
        sim.schedule(2.5 * service, setattr, link, "delay", 0.001)
        sim.run_until_empty()
        assert sink.received == [(0, service + 0.05), (1, tail),
                                 (2, tail), (3, tail)]


class TestPublicSurface:
    """One API whichever class carries the link."""

    @staticmethod
    def _public(obj):
        return {name for name in dir(obj) if not name.startswith("_")}

    def _pair(self, **kwargs):
        return (Link(Simulator(compiled=False), 12_000_000, 0.01, **kwargs),
                Link(Simulator(compiled=True), 12_000_000, 0.01, **kwargs))

    def test_same_public_attributes(self):
        pure, core = self._pair()
        assert type(core).__module__ == "repro.sim._kernels"
        assert self._public(pure) == self._public(core)
        assert self._public(pure.stats) == self._public(core.stats)
        assert repr(pure) == repr(core)

    def test_attributes_read_back_what_was_assigned(self):
        rng = random.Random(1)
        for link in self._pair():
            assert link.rate_bps == 12_000_000
            assert type(link.rate_bps) is int
            assert link.name == "link" and link.loss_rate == 0.0
            assert type(link.queue) is DropTailQueue
            assert link.clock is link.sim.clock
            link.rate_bps, link.delay = 5e6, 0.002
            link.loss_rate, link.loss_rng = 0.1, rng
            assert (link.rate_bps, link.delay, link.loss_rate) == \
                (5e6, 0.002, 0.1)
            assert link.loss_rng is rng
            link.name = "renamed"
            assert link.name == "renamed"
        queue = REDQueue(rng)
        for link in self._pair(queue=queue):
            assert link.queue is queue

    def test_stats_are_writable_and_keep_their_methods(self):
        for link in self._pair():
            stats = link.stats
            stats.arrivals += 4
            stats.drops += 1
            stats.bytes_sent += 3000
            stats.since = 0.5
            assert stats.loss_probability == 0.25
            assert stats.utilization(1.5, link.rate_bps) == \
                3000 * 8.0 / (12_000_000 * 1.0)
            assert stats.utilization(0.5, link.rate_bps) == 0.0
            stats.reset(2.0)
            assert (stats.arrivals, stats.drops, stats.bytes_sent,
                    stats.since) == (0, 0, 0, 2.0)
            assert stats.loss_probability == 0.0

    @pytest.mark.parametrize("args,kwargs,message", [
        ((0.0, 0.01), {}, "link rate must be positive"),
        ((1e6, -0.1), {}, "propagation delay cannot be negative"),
        ((1e6, 0.01), {"loss_rate": 1.0}, r"loss_rate must be in \[0, 1\)"),
        ((1e6, 0.01), {"loss_rate": 0.1}, "needs a loss_rng"),
    ])
    def test_same_validation(self, args, kwargs, message):
        for compiled in (False, True):
            with pytest.raises(ValueError, match=message):
                Link(Simulator(compiled=compiled), *args, **kwargs)

    def test_errors_in_the_next_hop_propagate(self):
        class Broken:
            def on_data(self, packet):
                raise KeyError("endpoint")

        for compiled in (False, True):
            sim = Simulator(compiled=compiled)
            link = Link(sim, 1e6, 0.01)
            link.receive(Packet(Broken(), 0, (link,)))
            with pytest.raises(KeyError, match="endpoint"):
                sim.run(until=1.0)


def test_a_finished_simulation_is_collected():
    """Link -> packet -> endpoint -> path -> link is a cycle; the C link
    takes part in the GC, so a dropped Simulator with packets still
    queued and on the wire is freed."""
    sim = Simulator(compiled=True)
    path = (Link(sim, 1e6, 0.05, queue=DropTailQueue(limit=50)),
            Link(sim, 1e6, 0.05))
    sink = Sink(sim)
    for seq in range(20):
        path[0].receive(Packet(sink, seq, path))
    sim.run(until=0.08)
    assert len(path[0].queue) and sim.pending_events
    ref = weakref.ref(sim)
    del sim, path, sink
    gc.collect()
    assert ref() is None
