"""White-box tests of TCP loss recovery using deterministic loss injection.

A ``ScriptedLink`` drops an exact set of (seq, transmission-count) pairs,
so each recovery mechanism — fast retransmit, NewReno partial ACKs,
RTO, Karn's algorithm, backoff — can be exercised in isolation.
"""

import random

import pytest

from repro.sim import (DropTailQueue, Link, MptcpConnection, PathSpec,
                       Simulator, single_path_tcp)
from repro.sim.engine import COMPILED_AVAILABLE


class ScriptedLink(Link):
    """Drops the n-th transmission of selected sequence numbers.

    ``drops`` maps seq -> set of transmission indices to drop (0 = the
    first copy).  Every other packet is forwarded normally.
    """

    __slots__ = ("drops", "seen", "dropped_log")

    def __init__(self, sim, drops, rate_bps=12_000_000, delay=0.01):
        super().__init__(sim, rate_bps=rate_bps, delay=delay,
                         queue=DropTailQueue(limit=10_000),
                         name="scripted")
        self.drops = {seq: set(indices) for seq, indices in drops.items()}
        self.seen: dict[int, int] = {}
        self.dropped_log = []

    def receive(self, packet):
        attempt = self.seen.get(packet.seq, 0)
        self.seen[packet.seq] = attempt + 1
        if attempt in self.drops.get(packet.seq, ()):
            self.stats.arrivals += 1
            self.stats.drops += 1
            self.dropped_log.append((packet.seq, attempt))
            return
        super().receive(packet)


def make_flow(sim, link, size=None):
    fcts = []
    flow = single_path_tcp(sim, (link,), reverse_delay=0.01,
                           size_packets=size,
                           on_complete=fcts.append)
    return flow, fcts


class TestFastRetransmit:
    def test_single_loss_recovers_without_timeout(self):
        sim = Simulator()
        link = ScriptedLink(sim, drops={20: {0}})
        flow, fcts = make_flow(sim, link, size=60)
        flow.start(0.0)
        sim.run(until=30.0)
        assert flow.completed
        assert flow.timeouts == 0
        assert flow.retransmits == 1
        assert link.dropped_log == [(20, 0)]

    def test_window_halved_exactly_once(self):
        sim = Simulator()
        link = ScriptedLink(sim, drops={30: {0}})
        flow, _ = make_flow(sim, link, size=80)
        flow.start(0.0)
        # Sample the window just before and after the loss event.
        observed = []

        def watch():
            observed.append(flow.cwnd)
            if not flow.completed:
                sim.schedule(0.005, watch)

        sim.schedule(0.0, watch)
        sim.run(until=30.0)
        assert flow.completed
        peak = max(observed)
        # A single halving: the minimum post-loss window is >= peak/2 - 1.
        after_loss = min(w for w in observed[observed.index(peak):])
        assert after_loss >= peak / 2.0 - 1.5

    def test_two_losses_in_different_windows_two_halvings(self):
        sim = Simulator()
        link = ScriptedLink(sim, drops={20: {0}, 60: {0}})
        flow, _ = make_flow(sim, link, size=100)
        flow.start(0.0)
        sim.run(until=40.0)
        assert flow.completed
        assert flow.retransmits == 2
        assert flow.timeouts == 0


class TestNewRenoPartialAcks:
    def test_multiple_losses_one_window_single_halving(self):
        """Three drops in one flight: one fast-retransmit halving, the
        other holes repaired by partial-ACK retransmissions."""
        sim = Simulator()
        link = ScriptedLink(sim, drops={30: {0}, 32: {0}, 34: {0}})
        flow, _ = make_flow(sim, link, size=80)
        flow.start(0.0)
        sim.run(until=40.0)
        assert flow.completed
        assert flow.rcv_nxt == 80
        # All three holes repaired by retransmission.
        assert flow.retransmits >= 3

    def test_no_duplicate_delivery(self):
        sim = Simulator()
        link = ScriptedLink(sim, drops={10: {0}, 11: {0}, 12: {0}})
        flow, _ = make_flow(sim, link, size=40)
        flow.start(0.0)
        sim.run(until=40.0)
        assert flow.completed
        assert flow.snd_una == 40


class TestTimeout:
    def test_tail_loss_needs_rto(self):
        """Dropping the final packets leaves no dupacks: only RTO saves."""
        sim = Simulator()
        link = ScriptedLink(sim, drops={38: {0}, 39: {0}})
        flow, fcts = make_flow(sim, link, size=40)
        flow.start(0.0)
        sim.run(until=60.0)
        assert flow.completed
        assert flow.timeouts >= 1
        # RTO is at least min_rto=200ms: FCT reflects the stall.
        assert fcts[0] > 0.2

    def test_repeated_loss_of_same_packet_backs_off(self):
        """The same segment dropped 3 times: exponential backoff."""
        sim = Simulator()
        link = ScriptedLink(sim, drops={39: {0, 1, 2}})
        flow, fcts = make_flow(sim, link, size=40)
        flow.start(0.0)
        sim.run(until=120.0)
        assert flow.completed
        # First RTO ~0.2s, then ~0.4s, then ~0.8s before success.
        assert fcts[0] > 0.2 + 0.4
        assert flow.timeouts >= 2

    def test_window_collapses_to_one_on_timeout(self):
        sim = Simulator()
        link = ScriptedLink(sim, drops={39: {0}})
        flow, _ = make_flow(sim, link, size=40)
        flow.start(0.0)
        windows = []

        def watch():
            windows.append(flow.cwnd)
            if not flow.completed:
                sim.schedule(0.01, watch)

        sim.schedule(0.0, watch)
        sim.run(until=30.0)
        assert flow.completed
        assert min(windows) == pytest.approx(1.0)


class TestKarnAndRtt:
    def test_retransmission_never_pollutes_rtt(self):
        """Even with many drops, srtt stays near the true path RTT
        because retransmitted segments are never sampled."""
        sim = Simulator()
        drops = {seq: {0} for seq in range(10, 200, 17)}
        link = ScriptedLink(sim, drops=drops)
        flow, _ = make_flow(sim, link, size=300)
        flow.start(0.0)
        sim.run(until=120.0)
        assert flow.completed
        # True RTT = 2 * 10ms prop + 1ms service ~ 21ms.
        assert flow.srtt < 0.1

    def test_rtt_samples_resume_after_recovery(self):
        sim = Simulator()
        link = ScriptedLink(sim, drops={20: {0}})
        flow, _ = make_flow(sim, link, size=200)
        flow.start(0.0)
        sim.run(until=60.0)
        assert flow.completed
        assert flow.rtt_estimator.srtt is not None


class TestReceiverRobustness:
    def test_duplicate_segments_ignored(self):
        """A spurious retransmission (drop of an ACK-path event is not
        modelled, so simulate via double transmission) does not corrupt
        the stream."""
        sim = Simulator()
        link = ScriptedLink(sim, drops={})
        flow, _ = make_flow(sim, link, size=30)
        flow.start(0.0)
        sim.run(until=1.0)
        # Force a spurious retransmission of an already-delivered seq.
        flow._retransmit(0)
        sim.run(until=20.0)
        assert flow.completed
        assert flow.rcv_nxt == 30

    def test_out_of_order_buffer_drains(self):
        sim = Simulator()
        link = ScriptedLink(sim, drops={5: {0}})
        flow, _ = make_flow(sim, link, size=30)
        flow.start(0.0)
        sim.run(until=20.0)
        assert flow.completed
        assert not flow._out_of_order


class TestRtoCache:
    """``TcpSubflow._rto`` caches ``rto x backoff`` and the RTO timer is
    re-armed by writing its ``deadline`` slot; check both after every
    event of a run that samples RTTs, fast-retransmits and times out."""

    @pytest.mark.parametrize("compiled", [
        False,
        pytest.param(True, marks=pytest.mark.skipif(
            not COMPILED_AVAILABLE, reason="compiled kernels not built"))])
    def test_cache_and_deadline_hold_after_every_event(self, compiled):
        subflows = []
        last = {"time": 0.0, "deadlines": {}}

        def check_after_event():
            ran_at = last["time"]
            for sf in subflows:
                if not sf.started or sf.completed:
                    continue
                assert sf._rto == sf.rtt_estimator.rto * sf.backoff
                timer = sf._rto_timer
                if sf.in_flight > 0:
                    # What lets a new ACK re-arm with a bare write.
                    assert timer.armed and timer.wakeup is not None
                if timer.deadline != last["deadlines"].get(id(sf)):
                    # Re-armed by the event that just ran: never into
                    # the past (arm_at checks; the inline write cannot).
                    assert timer.deadline is None \
                        or timer.deadline >= ran_at
                    last["deadlines"][id(sf)] = timer.deadline

        def hook(time, fn, args):
            check_after_event()
            last["time"] = time

        sim = Simulator(trace=hook, compiled=compiled)
        rng = random.Random(5)
        lossy = [Link(sim, rate_bps=2e6, delay=0.01,
                      queue=DropTailQueue(limit=8), name=f"l{i}",
                      loss_rate=0.05, loss_rng=random.Random(rng.random()))
                 for i in range(2)]
        mptcp = MptcpConnection(
            sim, "olia", [PathSpec((link,), 0.01) for link in lossy])
        tcp = single_path_tcp(sim, (lossy[0],), reverse_delay=0.03)
        subflows.extend(mptcp.subflows + [tcp])
        mptcp.start(0.0)
        tcp.start(0.1)
        sim.run(until=20.0)
        check_after_event()
        assert sum(sf.timeouts for sf in subflows) >= 3
        assert sum(sf.retransmits for sf in subflows) >= 20
        assert all(sf.rtt_estimator.srtt is not None for sf in subflows)
