"""Tests for per-thread pipeline state and how dispatch reads it.

The producer ring and the fetch-eligibility rules are driven through
``SMTCore._fetch`` with a scripted µop stream (independent integer µops
unless a test hands one in), since dispatch is where they are read.
"""

import random

from repro.common.types import OpClass
from repro.cpu.core import CoreParams
from repro.cpu.thread import FOREVER, RING_SIZE, Inflight, ThreadContext
from repro.workloads.generator import SyntheticStream, Uop
from repro.workloads.spec2000 import get_profile

from tests.cpu.test_frontend import build


def make_thread(rob_size=8):
    stream = SyntheticStream(
        get_profile("gzip"), random.Random(1), thread_id=0, scale=32
    )
    return ThreadContext(0, "gzip", stream, rob_size, random.Random(2))


def node(thread, seq, opc=OpClass.INT_ALU):
    n = Inflight(thread.thread_id, seq, opc, 0, False, 0)
    thread.ring[seq % len(thread.ring)] = n
    return n


def make_core(**params):
    return build([], CoreParams(**params))


def dispatch_one(core, uop, seq):
    """Dispatch ``uop`` as the thread's µop number ``seq`` at cycle 0;
    returns its node."""
    t = core.threads[0]
    t.seq = seq
    t.pending_uop = uop
    assert core._fetch(0) == core.params.fetch_width
    return t.ring[seq % RING_SIZE]


def unresolved(core, seq):
    """Plant a still-unfinished producer with sequence number ``seq``."""
    t = core.threads[0]
    producer = Inflight(0, seq, OpClass.LOAD, 0, False, 0)
    t.ring[seq % RING_SIZE] = producer
    return producer


class TestInflight:
    def test_waiters_lazy(self):
        n = Inflight(0, 0, OpClass.INT_ALU, 0, False, 0)
        assert n.waiters is None
        n.add_waiter("x")
        n.add_waiter("y")
        assert n.waiters == ["x", "y"]


class TestProducerLookup:
    """A dependence waits only on a producer still in the ring."""

    def test_finds_recent_producer(self):
        core = make_core()
        producer = unresolved(core, 0)
        consumer = dispatch_one(core, Uop(OpClass.INT_ALU, dep1=1), 1)
        assert consumer.deps_left == 1
        assert producer.waiters == [consumer]
        assert consumer.finish is None  # not issued before the load

    def test_finished_producer_bounds_ready_time(self):
        core = make_core()
        unresolved(core, 0).finish = 50
        consumer = dispatch_one(core, Uop(OpClass.INT_ALU, dep1=1), 1)
        assert consumer.deps_left == 0
        assert consumer.finish == 50 + 1  # issues at 50, INT_ALU latency

    def test_negative_seq_returns_none(self):
        # A distance reaching before sequence 0 indexes the ring from
        # its end; the node there is some other µop and adds no wait.
        core = make_core()
        stranger = unresolved(core, RING_SIZE - 3)
        consumer = dispatch_one(core, Uop(OpClass.INT_ALU, dep1=5), 2)
        assert consumer.deps_left == 0
        assert stranger.waiters is None
        assert consumer.finish == core.params.frontend_latency + 1

    def test_overwritten_ring_slot_returns_none(self):
        # Sequence 0 has aged out: its slot holds sequence RING_SIZE.
        core = make_core()
        newer = unresolved(core, RING_SIZE)
        consumer = dispatch_one(
            core, Uop(OpClass.INT_ALU, dep1=RING_SIZE + 1), RING_SIZE + 1
        )
        assert consumer.deps_left == 0
        assert newer.waiters is None
        consumer = dispatch_one(
            core, Uop(OpClass.INT_ALU, dep1=RING_SIZE + 1, dep2=1),
            RING_SIZE + 1,
        )
        assert consumer.deps_left == 1
        assert newer.waiters == [consumer]


class TestFetchEligibility:
    def test_blocked_until_respected(self):
        core = make_core()
        core.threads[0].fetch_blocked_until = 10
        assert core._fetch(9) == 0
        assert core.stall_cycles["fetch_blocked"] == 1
        assert core._fetch(10) == core.params.fetch_width

    def test_rob_full_blocks(self):
        core = make_core(rob_size=1)
        t = core.threads[0]
        t.rob.append(node(t, 0))
        assert core._fetch(100) == 0
        assert core.stall_cycles["rob_full"] == 1

    def test_visit_stops_when_the_rob_fills(self):
        core = make_core(rob_size=3)
        t = core.threads[0]
        t.rob.append(node(t, 0))
        assert core._fetch(0) == 2
        assert len(t.rob) == 3
        assert t.fetched == t.unissued == t.iq_int == 2
        assert core.int_iq_used == 2

    def test_forever_sentinel_is_huge(self):
        assert FOREVER > 10**15


class TestProgressTracking:
    def test_measured_committed(self):
        t = make_thread()
        t.committed = 120
        t.warmup_committed = 100
        assert t.measured_committed() == 20
