"""Tests for the core's per-cycle issue records.

The record of a cycle — two lists of thread ids, integer and FP queue
— is at once the cycle's issue-slot occupancy and the batch one marker
event releases from the issue queues (see ``repro.cpu.core``).  The
slot-search behaviour is driven through ``SMTCore._schedule_issue``
with hand-built nodes, the release batching through real runs.
"""

import random

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ConfigError
from repro.common.events import EventQueue
from repro.common.types import OpClass
from repro.cache.hierarchy import HierarchyParams, MemoryHierarchy
from repro.cpu.core import CoreParams, SMTCore
from repro.cpu.thread import Inflight
from repro.workloads.generator import SyntheticStream
from repro.workloads.spec2000 import get_profile

INT_ALU = OpClass.INT_ALU
FP_ALU = OpClass.FP_ALU


def build(threads=1, **params):
    evq = EventQueue()
    hierarchy = MemoryHierarchy(
        HierarchyParams(scale=64, perfect_l3=True, tlb_penalty=0), evq, None
    )
    workloads = [
        ("eon", SyntheticStream(
            get_profile("eon"), random.Random(i), thread_id=i, scale=64
        ))
        for i in range(threads)
    ]
    return SMTCore(
        CoreParams(**params), evq, hierarchy, "icount", workloads,
        [random.Random(100 + i) for i in range(threads)],
    )


def dispatch(core, ready, opc=INT_ALU, tid=0, addr=0):
    """Enter one dependence-free µop into the issue queue, as the
    fetch stage would, and schedule its issue; returns the node."""
    t = core.threads[tid]
    node = Inflight(tid, t.seq, opc, addr, False, ready)
    t.seq += 1
    t.rob.append(node)
    t.unissued += 1
    if opc is FP_ALU:
        core.fp_iq_used += 1
        t.iq_fp += 1
    else:
        core.int_iq_used += 1
        t.iq_int += 1
    core._schedule_issue(node)
    return node


def granted(core, ready, opc=INT_ALU, tid=0):
    """The issue cycle a fresh µop ready at ``ready`` is given."""
    node = dispatch(core, ready, opc, tid)
    return node.finish - core.params.latencies[opc]


class TestSlotSearch:
    def test_fills_width_before_moving_on(self):
        core = build(int_issue_width=2)
        assert [granted(core, 10) for _ in range(5)] == [10, 10, 11, 11, 12]

    def test_width_one_serializes(self):
        core = build(int_issue_width=1)
        assert [granted(core, 3) for _ in range(3)] == [3, 4, 5]

    def test_disjoint_cycles_independent(self):
        core = build(int_issue_width=1)
        assert granted(core, 5) == 5
        assert granted(core, 100) == 100
        assert granted(core, 5) == 6

    def test_out_of_order_requests_allowed(self):
        core = build(int_issue_width=1)
        assert granted(core, 50) == 50
        assert granted(core, 10) == 10  # earlier ready time, later call

    def test_occupancy_reflects_reservations(self):
        core = build(threads=2)
        dispatch(core, 3)
        dispatch(core, 3, tid=1)
        dispatch(core, 3, FP_ALU)
        assert core._issue_records[3] == ([0, 1], [0])
        assert 4 not in core._issue_records

    def test_integer_and_fp_widths_are_separate(self):
        core = build(int_issue_width=1, fp_issue_width=1)
        assert granted(core, 7) == 7
        assert granted(core, 7, FP_ALU) == 7
        assert granted(core, 7, FP_ALU) == 8

    def test_never_issues_in_the_past(self):
        core = build()
        core.event_queue.run_until(20)
        assert granted(core, 5) == 20

    def test_invalid_width_rejected(self):
        with pytest.raises(ConfigError):
            CoreParams(int_issue_width=0)
        with pytest.raises(ConfigError):
            CoreParams(fp_issue_width=0)

    def test_zero_frontend_latency_rejected(self):
        # Dispatch must issue strictly ahead of the cycle being
        # fetched: only an event may join the current cycle's record.
        with pytest.raises(ConfigError):
            CoreParams(frontend_latency=0)


class TestSlotSearchProperties:
    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=1,
                    max_size=60))
    def test_never_exceeds_width(self, readies):
        core = build(int_issue_width=3)
        cycles = [granted(core, ready) for ready in readies]
        for cycle in set(cycles):
            assert cycles.count(cycle) <= 3

    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=1,
                    max_size=60))
    def test_grant_never_before_ready(self, readies):
        core = build(int_issue_width=2)
        for ready in readies:
            assert granted(core, ready) >= ready


class TestBatchedRelease:
    def test_one_marker_per_record_and_none_per_uop(self):
        core = build(threads=2)
        for _ in range(3):
            dispatch(core, 4)
        dispatch(core, 4, FP_ALU, tid=1)
        dispatch(core, 9)
        assert len(core.event_queue) == 2  # cycles 4 and 9

    def test_marker_releases_every_member(self):
        core = build(threads=2)
        dispatch(core, 4)
        dispatch(core, 4, tid=1)
        dispatch(core, 4, FP_ALU, tid=1)
        dispatch(core, 5)
        core.event_queue.run_until(3)
        assert (core.int_iq_used, core.fp_iq_used) == (3, 1)
        core.event_queue.run_until(4)
        assert (core.int_iq_used, core.fp_iq_used) == (1, 0)
        t0, t1 = core.threads
        assert (t0.iq_int, t0.unissued) == (1, 1)
        assert (t1.iq_int, t1.iq_fp, t1.unissued) == (0, 0, 0)
        core.event_queue.run_until(5)
        assert core.int_iq_used == 0 and t0.unissued == 0

    def test_joining_the_pumped_cycle_after_its_release(self):
        core = build(int_issue_width=2)
        dispatch(core, 6)
        late = []
        # Fires after the cycle-6 marker (scheduled later, same time).
        core.event_queue.schedule(6, lambda: late.append(dispatch(core, 6)))
        core.event_queue.run_until(6)
        # Took cycle 6's second slot, and left the queue on the spot.
        assert late[0].finish == 6 + core.params.latencies[INT_ALU]
        assert core._issue_records[6][0] == [0, 0]
        assert core.int_iq_used == 0 and core.threads[0].unissued == 0
        assert len(core.event_queue) == 0
        assert granted(core, 6) == 7  # the cycle is full now

    def test_current_cycle_without_a_record_needs_no_marker(self):
        core = build()
        done = []
        core.event_queue.schedule(6, lambda: done.append(dispatch(core, 2)))
        core.event_queue.run_until(6)
        assert done[0].finish == 6 + core.params.latencies[INT_ALU]
        assert core.int_iq_used == 0
        assert len(core.event_queue) == 0

    def test_released_records_are_dropped(self):
        core = build()
        core.run(2000)
        # Everything behind the clock is gone but the latest release.
        assert all(
            cycle >= core._released_cycle for cycle in core._issue_records
        )
        assert len(core._issue_records) < 64

    def test_issue_coverage_counts_each_integer_cycle_once(self):
        core = build()
        for ready in (4, 4, 4, 5, 9):
            dispatch(core, ready)
        dispatch(core, 12, FP_ALU)
        core.event_queue.run_until(20)
        assert core._int_issue_cycles == 3


class TestOccupancySeenByMemoryOps:
    """A load reports the integer-queue occupancy it would see if
    every µop left the queue through its own, later-scheduled event."""

    def observed(self, core):
        seen = []
        load = core.hierarchy.load

        def watching(addr, thread_id, now, rob_occupancy=0, iq_occupancy=0,
                     callback=None):
            seen.append((now, thread_id, iq_occupancy))
            return load(addr, thread_id, now, rob_occupancy, iq_occupancy,
                        callback)

        core.hierarchy.load = watching
        return seen

    def test_members_scheduled_later_are_still_queued(self):
        core = build(threads=2)
        seen = self.observed(core)
        dispatch(core, 8)                      # before the load: gone
        dispatch(core, 8, OpClass.LOAD)
        dispatch(core, 8)                      # after it: still queued
        dispatch(core, 8, tid=1)               # other thread: not counted
        dispatch(core, 30)                     # later cycle: still queued
        core.event_queue.run_until(8)
        assert seen == [(8, 0, 2)]
        assert core.threads[0].iq_int == 1     # only the cycle-30 µop

    def test_load_joining_after_the_release(self):
        core = build()
        seen = self.observed(core)
        dispatch(core, 8)

        def in_cycle_8():
            dispatch(core, 8, OpClass.LOAD)
            dispatch(core, 8)

        core.event_queue.schedule(8, in_cycle_8)
        core.event_queue.run_until(8)
        assert seen == [(8, 0, 1)]
        assert core.threads[0].iq_int == 0
