"""The packet-scheduler axis: registry resolution, policies, the gate.

Congestion control decides *how much* each subflow may send; the packet
scheduler decides *which* subflow carries the next packet of a finite
transfer.  This suite covers the axis end to end: name resolution
through :func:`repro.core.registry.make_scheduler` (aliases, defaults,
parameter validation), the ranking behaviour of each builtin policy in
isolation, the scheduler gate on real finite transfers over asymmetric
paths, and the one behavioural ordering the redundant policy promises —
on a lossy latency-dominated path pair a duplicated small transfer
completes no later (in the mean) than a minRTT-partitioned one.
"""

import random
from types import SimpleNamespace

import pytest

from repro.core.registry import (
    available_schedulers,
    get_scheduler_spec,
    make_scheduler,
    scheduler_specs,
)
from repro.sim import Link, MptcpConnection, PathSpec, Simulator
from repro.sim.packet_scheduler import PacketScheduler

SCHEDULERS = ("minrtt", "roundrobin", "redundant", "qaware")


class TestRegistryAxis:
    def test_every_builtin_is_registered(self):
        names = {spec.name for spec in scheduler_specs()}
        assert names == set(SCHEDULERS)

    def test_available_includes_aliases(self):
        names = available_schedulers()
        assert names == sorted(names)
        for alias in ("min-rtt", "rr", "round-robin", "duplicate",
                      "queue-aware", "cross-layer"):
            assert alias in names

    def test_minrtt_is_the_named_default(self):
        assert make_scheduler(None).name == "minrtt"
        assert make_scheduler().name == "minrtt"

    def test_aliases_resolve(self):
        for alias, canonical in (("rr", "roundrobin"),
                                 ("min-rtt", "minrtt"),
                                 ("duplicate", "redundant"),
                                 ("queue-aware", "qaware"),
                                 ("cross-layer", "qaware")):
            assert make_scheduler(alias).name == canonical
            assert get_scheduler_spec(alias).name == canonical

    def test_unknown_name_lists_known_names(self):
        with pytest.raises(KeyError, match="minrtt"):
            make_scheduler("fifo")

    def test_unexpected_parameter_rejected(self):
        with pytest.raises((KeyError, TypeError),
                           match="does not accept"):
            make_scheduler("minrtt", quantum=3)

    def test_each_spec_makes_its_policy(self):
        for spec in scheduler_specs():
            policy = spec.make()
            assert isinstance(policy, PacketScheduler)
            assert policy.name == spec.name

    def test_instances_are_not_shared(self):
        """Stateful policies (roundrobin's cursor) must be per-call."""
        assert make_scheduler("rr") is not make_scheduler("rr")


def _stub(key, srtt, queued=0, rate_bps=1e6):
    head = SimpleNamespace(queue=[None] * queued, rate_bps=rate_bps)
    return SimpleNamespace(key=key, srtt=srtt, path=(head,))


class TestPolicyRanking:
    def test_minrtt_prefers_lowest_srtt_then_key(self):
        policy = make_scheduler("minrtt")
        a, b, c = _stub(0, 0.05), _stub(1, 0.02), _stub(2, 0.02)
        assert policy.choose([a, b, c]) is b

    def test_roundrobin_cycles_in_key_order(self):
        policy = make_scheduler("roundrobin")
        a, b, c = _stub(0, 0.1), _stub(1, 0.1), _stub(2, 0.1)
        granted = []
        for _ in range(6):
            choice = policy.choose([a, b, c])
            policy.on_grant(choice)
            granted.append(choice.key)
        assert granted == [0, 1, 2, 0, 1, 2]

    def test_roundrobin_skips_missing_subflows(self):
        policy = make_scheduler("roundrobin")
        a, c = _stub(0, 0.1), _stub(2, 0.1)
        policy.on_grant(a)
        assert policy.choose([a, c]) is c
        policy.on_grant(c)
        assert policy.choose([a, c]) is a

    def test_roundrobin_cursor_survives_removal_of_others(self):
        policy = make_scheduler("roundrobin")
        a, b = _stub(0, 0.1), _stub(1, 0.1)
        policy.on_grant(b)
        policy.on_subflow_removed(0)     # not the cursor: keep it
        assert policy.choose([a]) is a   # wraps past the removed key
        policy.on_subflow_removed(1)     # the cursor itself: reset
        assert policy.choose([a, b]) is a

    def test_qaware_penalizes_the_backed_up_path(self):
        policy = make_scheduler("qaware")
        # Same srtt, but one first hop has a deep queue at a slow rate:
        # its drain time dwarfs the tie and the empty path must win.
        clear = _stub(0, 0.05, queued=0, rate_bps=1e6)
        jammed = _stub(1, 0.05, queued=40, rate_bps=1e6)
        assert policy.choose([jammed, clear]) is clear

    def test_redundant_is_duplicating(self):
        assert make_scheduler("redundant").duplicates is True
        for name in ("minrtt", "roundrobin", "qaware"):
            assert make_scheduler(name).duplicates is False


def _asymmetric_paths(sim, *, loss_rate=0.0, seed=None):
    """A fast and a slow path, optionally with seeded channel loss."""
    paths = []
    for i, (rate, delay) in enumerate(((8e6, 0.02), (4e6, 0.04))):
        rng = random.Random(2 * seed + i) if loss_rate > 0.0 else None
        link = Link(sim, rate, delay, name=f"p{i}",
                    loss_rate=loss_rate, loss_rng=rng)
        paths.append(PathSpec((link,), delay))
    return paths


def _finite_transfer(scheduler, *, size=40, loss_rate=0.0, seed=None,
                     algorithm="olia", trace=None, horizon=30.0):
    """One finite MPTCP transfer; returns (connection, completions)."""
    sim = Simulator(trace=trace)
    done = []
    conn = MptcpConnection(
        sim, algorithm, _asymmetric_paths(sim, loss_rate=loss_rate,
                                          seed=seed),
        scheduler=scheduler, size_packets=size,
        on_complete=done.append)
    conn.start()
    sim.run(until=horizon)
    return conn, done


class TestSchedulerGate:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_every_scheduler_completes_the_transfer(self, scheduler):
        conn, done = _finite_transfer(scheduler)
        assert conn.complete
        assert done == [conn.transfer_time]
        assert 0 < conn.transfer_time < 30.0

    def test_default_scheduler_is_minrtt_byte_for_byte(self):
        """``scheduler=None`` and ``scheduler='minrtt'`` are the same
        simulation, event for event."""
        traces = []
        for scheduler in (None, "minrtt"):
            lines = []

            def hook(time, fn, args, lines=lines):
                lines.append(
                    f"{time!r} {getattr(fn, '__qualname__', repr(fn))} "
                    f"{len(args)}")

            conn, _ = _finite_transfer(scheduler, trace=hook)
            traces.append((lines, conn.transfer_time))
        (default_trace, default_time), (named_trace, named_time) = traces
        assert default_time == named_time
        assert len(default_trace) > 100
        assert default_trace == named_trace

    def test_partition_schedulers_split_the_stream(self):
        """minrtt partitions: subflow deliveries sum to exactly size."""
        conn, _ = _finite_transfer("minrtt", size=50)
        delivered = sum(sf.snd_una for sf in conn.subflows)
        assert delivered == 50

    def test_redundant_duplicates_the_stream(self):
        """Every subflow is offered the full copy; the union finishes
        the transfer even though no single subflow needs to."""
        conn, _ = _finite_transfer("redundant", size=50)
        assert conn.complete
        for sf in conn.subflows:
            assert sf.size_packets == 50

    def test_policy_instance_accepted(self):
        conn, _ = _finite_transfer(make_scheduler("roundrobin"))
        assert conn.complete
        assert conn.scheduler.name == "roundrobin"

    def test_bulk_connections_never_consult_the_policy(self):
        """Without size_packets the gate is not installed: a policy
        that explodes on contact proves it is never touched."""
        class Landmine(PacketScheduler):
            name = "landmine"

            def choose(self, ready):
                raise AssertionError("bulk flow consulted the scheduler")

        sim = Simulator()
        conn = MptcpConnection(sim, "olia", _asymmetric_paths(sim),
                               scheduler=Landmine())
        conn.start()
        sim.run(until=2.0)
        assert conn.acked_packets > 0
        assert not conn.complete

    def test_unknown_scheduler_name_raises(self):
        sim = Simulator()
        with pytest.raises(KeyError, match="minrtt"):
            MptcpConnection(sim, "olia", _asymmetric_paths(sim),
                            scheduler="fifo", size_packets=10)

    def test_on_complete_requires_a_finite_size(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="size_packets"):
            MptcpConnection(sim, "olia", _asymmetric_paths(sim),
                            on_complete=lambda t: None)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_finite_transfers_are_deterministic(self, scheduler):
        one, _ = _finite_transfer(scheduler, loss_rate=0.05, seed=7)
        two, _ = _finite_transfer(scheduler, loss_rate=0.05, seed=7)
        assert one.transfer_time == two.transfer_time


class TestRedundantVsMinRtt:
    def test_redundant_mean_no_worse_on_lossy_small_transfers(self):
        """The redundant policy's contract, measured: on a lossy
        asymmetric pair, small (latency-dominated) transfers complete
        no later in the mean than under minRTT — a lost packet's
        retransmission timeout is hidden by the other path's copy.
        Per-seed comparison is noise (the two policies consume
        different loss sequences); the mean over 30 seeds is not.
        """
        def mean_time(scheduler):
            times = []
            for seed in range(30):
                conn, _ = _finite_transfer(
                    scheduler, size=16, loss_rate=0.10, seed=seed,
                    horizon=60.0)
                assert conn.complete, f"{scheduler} seed {seed} stuck"
                times.append(conn.transfer_time)
            return sum(times) / len(times)

        assert mean_time("redundant") < 0.9 * mean_time("minrtt")
