"""Behavioural tests for MPTCP with coupled controllers (Figs. 6-8)."""

import random

import pytest

from repro.core import OliaController
from repro.sim import (
    Link,
    MptcpConnection,
    PathSpec,
    REDQueue,
    Simulator,
    WindowTracer,
    single_path_tcp,
)
from repro.sim.engine import COMPILED_AVAILABLE
from repro.units import mbps_to_pps


def two_bottleneck_setup(n_tcp_path1=5, n_tcp_path2=5, mbps=1.0, seed=1):
    """Fig. 6: a two-path MPTCP user, each path shared with TCP flows."""
    sim = Simulator()
    rng = random.Random(seed)
    links = []
    for name in ("bn1", "bn2"):
        queue = REDQueue.for_capacity_mbps(rng, mbps)
        links.append(Link(sim, rate_bps=mbps * 1e6, delay=0.04,
                          queue=queue, name=name))
    tcp_flows = []
    for i in range(n_tcp_path1):
        flow = single_path_tcp(sim, (links[0],), 0.04, name=f"t1.{i}")
        flow.start(i * 0.1)
        tcp_flows.append(flow)
    for i in range(n_tcp_path2):
        flow = single_path_tcp(sim, (links[1],), 0.04, name=f"t2.{i}")
        flow.start(i * 0.1)
        tcp_flows.append(flow)
    return sim, links, tcp_flows


class TestConstruction:
    def test_needs_paths(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            MptcpConnection(sim, "olia", [])

    def test_accepts_controller_instance(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1e6, delay=0.01)
        controller = OliaController()
        conn = MptcpConnection(sim, controller,
                               [PathSpec((link,), 0.01)])
        assert conn.controller is controller

    def test_multipath_subflows_use_1mss_ssthresh(self):
        """Paper Section IV-B: ssthresh floor of 1 MSS for multipath."""
        sim = Simulator()
        l1 = Link(sim, rate_bps=1e6, delay=0.01)
        l2 = Link(sim, rate_bps=1e6, delay=0.01)
        conn = MptcpConnection(sim, "olia", [PathSpec((l1,), 0.01),
                                             PathSpec((l2,), 0.01)])
        assert all(sf.min_ssthresh == 1.0 for sf in conn.subflows)

    def test_single_path_keeps_tcp_ssthresh(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1e6, delay=0.01)
        conn = MptcpConnection(sim, "olia", [PathSpec((link,), 0.01)])
        assert conn.subflows[0].min_ssthresh == 2.0

    def test_pathspec_validation(self):
        with pytest.raises(ValueError):
            PathSpec((), 0.01)
        with pytest.raises(ValueError):
            PathSpec((object(),), -1.0)


class TestSymmetricScenario:
    def test_olia_uses_both_paths(self):
        """Fig. 7: equal paths -> both windows well above the minimum.

        At 3 Mbps shared with 5 TCP flows, a fair per-path MPTCP share is
        ~21 pkt/s, i.e. a window of ~3.4 packets at ~160 ms RTT.
        """
        sim, links, _ = two_bottleneck_setup(5, 5, mbps=3.0)
        conn = MptcpConnection(
            sim, "olia",
            [PathSpec((links[0],), 0.04), PathSpec((links[1],), 0.04)])
        tracer = WindowTracer(sim, conn, period=0.2)
        conn.start(1.0)
        tracer.start()
        sim.run(until=60.0)
        w1, w2 = tracer.mean_windows(skip_fraction=0.3)
        assert w1 > 2.0 and w2 > 2.0
        assert 0.4 < w1 / w2 < 2.5

    def test_lia_uses_both_paths(self):
        sim, links, _ = two_bottleneck_setup(5, 5, mbps=3.0)
        conn = MptcpConnection(
            sim, "lia",
            [PathSpec((links[0],), 0.04), PathSpec((links[1],), 0.04)])
        tracer = WindowTracer(sim, conn, period=0.2)
        conn.start(1.0)
        tracer.start()
        sim.run(until=60.0)
        w1, w2 = tracer.mean_windows(skip_fraction=0.3)
        assert w1 > 2.0 and w2 > 2.0

    def test_alpha_sums_to_zero_throughout(self):
        sim, links, _ = two_bottleneck_setup(5, 5)
        conn = MptcpConnection(
            sim, "olia",
            [PathSpec((links[0],), 0.04), PathSpec((links[1],), 0.04)])
        tracer = WindowTracer(sim, conn, period=0.5)
        conn.start(1.0)
        tracer.start()
        sim.run(until=30.0)
        for alphas in tracer.alphas:
            assert sum(alphas) == pytest.approx(0.0, abs=1e-12)


class TestAsymmetricScenario:
    def test_olia_avoids_congested_path(self):
        """Fig. 8: path 2 shared with 10 TCP flows -> OLIA's window there
        stays near the minimum while the good path carries the traffic."""
        sim, links, _ = two_bottleneck_setup(5, 10, mbps=3.0)
        conn = MptcpConnection(
            sim, "olia",
            [PathSpec((links[0],), 0.04), PathSpec((links[1],), 0.04)])
        tracer = WindowTracer(sim, conn, period=0.2)
        conn.start(1.0)
        tracer.start()
        sim.run(until=90.0)
        w_good, w_bad = tracer.mean_windows(skip_fraction=0.3)
        assert w_bad < 3.0
        assert w_good > 1.5 * w_bad

    def test_lia_sends_more_than_olia_on_congested_path(self):
        """Fig. 8(b): LIA keeps significant traffic on the bad path."""
        def run(algorithm):
            sim, links, _ = two_bottleneck_setup(5, 10, seed=3)
            conn = MptcpConnection(
                sim, algorithm,
                [PathSpec((links[0],), 0.04), PathSpec((links[1],), 0.04)])
            tracer = WindowTracer(sim, conn, period=0.2)
            conn.start(1.0)
            tracer.start()
            sim.run(until=90.0)
            return tracer.mean_windows(skip_fraction=0.3)

        _, lia_bad = run("lia")
        _, olia_bad = run("olia")
        assert lia_bad > olia_bad

    def test_goodput_positive_and_bounded(self):
        sim, links, _ = two_bottleneck_setup(5, 10)
        conn = MptcpConnection(
            sim, "olia",
            [PathSpec((links[0],), 0.04), PathSpec((links[1],), 0.04)])
        conn.start(1.0)
        sim.run(until=60.0)
        goodput = conn.acked_packets / 59.0
        assert goodput > 0
        assert goodput < 2 * mbps_to_pps(2.0)


def _transfer_with_event(compiled, scheduler, event):
    """600 packets over two 5 Mb/s paths, ``event(conn)`` at t = 0.5 s."""
    sim = Simulator(compiled=compiled)
    paths = [PathSpec((Link(sim, rate_bps=5e6, delay=0.02, name=f"p{i}"),),
                      0.02)
             for i in range(2)]
    finished = []
    conn = MptcpConnection(sim, "lia", paths, scheduler=scheduler,
                           size_packets=600, on_complete=finished.append)
    conn.start()
    sim.schedule(0.5, event, conn)
    sim.run(until=10.0)
    return conn, finished


class TestTeardownMidTransfer:
    @pytest.mark.parametrize("compiled", [
        False,
        pytest.param(True, marks=pytest.mark.skipif(
            not COMPILED_AVAILABLE, reason="compiled engine not built"))])
    @pytest.mark.parametrize("scheduler",
                             ["minrtt", "roundrobin", "redundant", "qaware"])
    def test_subflow_removal_and_stop(self, compiled, scheduler):
        """Removing a subflow returns its unfulfilled grants to the
        stream; stopping the connection cancels the transfer."""
        def remove_first(conn):
            conn.remove_subflow(conn.subflows[0])

        conn, finished = _transfer_with_event(compiled, scheduler,
                                              remove_first)
        assert conn.complete and finished == [conn.transfer_time]
        assert len(conn.subflows) == 1
        if not conn.scheduler.duplicates:
            assert conn.acked_packets == 600   # the reclaim is exact
        reference, _ = _transfer_with_event(False, scheduler, remove_first)
        assert conn.transfer_time == reference.transfer_time

        conn, finished = _transfer_with_event(compiled, scheduler,
                                              MptcpConnection.stop)
        assert not conn.complete and conn.transfer_time is None
        assert finished == [] and conn.subflows == []
        assert 0 < conn.acked_packets < 600
