"""Tests for DRAM access schedulers (Sections 3 and 5.5)."""

import itertools
from collections import defaultdict
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ConfigError
from repro.common.types import MemAccessType, MemRequest
from repro.dram.schedulers import (
    AgeBasedScheduler,
    FcfsScheduler,
    HitFirstScheduler,
    IqBasedScheduler,
    ReadFirstScheduler,
    RequestBasedScheduler,
    RobBasedScheduler,
    make_scheduler,
    scheduler_names,
)


class FakeContext:
    """Scheduler context with scripted row hits and outstanding counts.

    Every test request targets row 0 of a bank of its own (bank index =
    ``req_id``); the banks of the ``hits`` requests hold row 0 open,
    all others are precharged.
    """

    def __init__(self, hits=(), outstanding=None):
        self.banks = defaultdict(lambda: SimpleNamespace(open_row=None))
        for req_id in hits:
            self.banks[req_id] = SimpleNamespace(open_row=0)
        self.outstanding = outstanding or {}


# Explicit ids mimic MemorySystem.submit's per-simulation numbering
# (bare construction leaves req_id unassigned).
_req_ids = itertools.count(1)


def _own_bank(request):
    request.bank, request.row = request.req_id, 0
    return request


def read(arrival=0, tid=0, rob=0, iq=0):
    return _own_bank(MemRequest(
        0x100, MemAccessType.READ, tid, arrival=arrival,
        rob_occupancy=rob, iq_occupancy=iq, req_id=next(_req_ids),
    ))


def write(arrival=0, tid=0):
    return _own_bank(MemRequest(
        0x200, MemAccessType.WRITE, tid, arrival=arrival,
        req_id=next(_req_ids),
    ))


class TestFcfs:
    def test_picks_oldest(self):
        old, new = read(arrival=1), read(arrival=5)
        chosen = FcfsScheduler().select([new, old], 10, FakeContext())
        assert chosen is old

    def test_reads_bypass_writes(self):
        w, r = write(arrival=0), read(arrival=9)
        chosen = FcfsScheduler().select([w, r], 10, FakeContext())
        assert chosen is r

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            FcfsScheduler().select([], 0, FakeContext())


class TestHitFirst:
    def test_hit_beats_older_miss(self):
        miss, hit = read(arrival=0), read(arrival=9)
        ctx = FakeContext(hits=[hit.req_id])
        assert HitFirstScheduler().select([miss, hit], 10, ctx) is hit

    def test_read_hit_beats_write_hit(self):
        w, r = write(arrival=0), read(arrival=5)
        ctx = FakeContext(hits=[w.req_id, r.req_id])
        assert HitFirstScheduler().select([w, r], 10, ctx) is r

    def test_arrival_breaks_ties(self):
        a, b = read(arrival=1), read(arrival=2)
        assert HitFirstScheduler().select([b, a], 10, FakeContext()) is a


class TestReadFirst:
    def test_read_miss_beats_write_hit(self):
        w, r = write(arrival=0), read(arrival=9)
        ctx = FakeContext(hits=[w.req_id])
        assert ReadFirstScheduler().select([w, r], 10, ctx) is r


class TestAgeBased:
    def test_behaves_like_hit_first_under_threshold(self):
        miss, hit = read(arrival=0), read(arrival=9)
        ctx = FakeContext(hits=[hit.req_id])
        assert AgeBasedScheduler().select([miss, hit], 10, ctx) is hit

    def test_oldest_promoted_when_backlogged(self):
        requests = [read(arrival=i + 1) for i in range(9)]
        hit = requests[-1]  # newest is a hit
        ctx = FakeContext(hits=[hit.req_id])
        chosen = AgeBasedScheduler(backlog_threshold=8).select(
            requests, 100, ctx
        )
        assert chosen is requests[0]  # oldest wins despite the hit

    def test_threshold_validated(self):
        with pytest.raises(ConfigError):
            AgeBasedScheduler(backlog_threshold=0)


class TestRequestBased:
    def test_fewest_outstanding_first(self):
        a, b = read(arrival=0, tid=0), read(arrival=0, tid=1)
        ctx = FakeContext(outstanding={0: 5, 1: 1})
        assert RequestBasedScheduler().select([a, b], 10, ctx) is b

    def test_hit_first_enforced_ahead(self):
        # Paper 3.2: a read hit beats a read miss even from a thread
        # with more pending requests.
        busy_hit = read(arrival=0, tid=0)
        idle_miss = read(arrival=0, tid=1)
        ctx = FakeContext(
            hits=[busy_hit.req_id], outstanding={0: 9, 1: 0}
        )
        chosen = RequestBasedScheduler().select([busy_hit, idle_miss], 10, ctx)
        assert chosen is busy_hit

    def test_arrival_breaks_outstanding_ties(self):
        a, b = read(arrival=3, tid=0), read(arrival=1, tid=1)
        ctx = FakeContext(outstanding={0: 2, 1: 2})
        assert RequestBasedScheduler().select([a, b], 10, ctx) is b


class TestRobBased:
    def test_most_rob_entries_first(self):
        light = read(arrival=0, tid=0, rob=10)
        heavy = read(arrival=5, tid=1, rob=200)
        chosen = RobBasedScheduler().select([light, heavy], 10, FakeContext())
        assert chosen is heavy

    def test_uses_piggybacked_snapshot_not_live_state(self):
        # The ROB value travels with the request (possibly stale).
        a = read(arrival=0, tid=0, rob=100)
        b = read(arrival=0, tid=1, rob=50)
        ctx = FakeContext(outstanding={0: 0, 1: 0})
        assert RobBasedScheduler().select([a, b], 10, ctx) is a


class TestIqBased:
    def test_most_iq_entries_first(self):
        light = read(arrival=0, tid=0, iq=2)
        heavy = read(arrival=5, tid=1, iq=40)
        chosen = IqBasedScheduler().select([light, heavy], 10, FakeContext())
        assert chosen is heavy


class TestFactory:
    def test_all_names_construct(self):
        for name in scheduler_names():
            assert make_scheduler(name).name == name

    def test_paper_set_present(self):
        names = set(scheduler_names())
        assert {
            "fcfs", "hit-first", "age-based",
            "request-based", "rob-based", "iq-based",
        } <= names

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            make_scheduler("lottery")


class TestDeterminism:
    def test_req_id_breaks_exact_ties(self):
        a, b = read(arrival=0), read(arrival=0)
        for scheduler_name in scheduler_names():
            scheduler = make_scheduler(scheduler_name)
            assert scheduler.select([a, b], 10, FakeContext()) is a
            assert scheduler.select([b, a], 10, FakeContext()) is a


class TestCriticalFirst:
    def test_near_full_rob_request_wins(self):
        from repro.dram.schedulers import CriticalFirstScheduler

        relaxed = read(arrival=0, tid=0, rob=10)
        critical = read(arrival=9, tid=1, rob=250)
        chosen = CriticalFirstScheduler().select(
            [relaxed, critical], 10, FakeContext()
        )
        assert chosen is critical

    def test_hits_still_lead(self):
        from repro.dram.schedulers import CriticalFirstScheduler

        critical_miss = read(arrival=0, tid=0, rob=250)
        relaxed_hit = read(arrival=5, tid=1, rob=10)
        ctx = FakeContext(hits=[relaxed_hit.req_id])
        chosen = CriticalFirstScheduler().select(
            [critical_miss, relaxed_hit], 10, ctx
        )
        assert chosen is relaxed_hit

    def test_threshold_configurable(self):
        from repro.dram.schedulers import CriticalFirstScheduler

        low = CriticalFirstScheduler(rob_threshold=5)
        a = read(arrival=0, tid=0, rob=6)
        b = read(arrival=1, tid=1, rob=4)
        assert low.select([b, a], 10, FakeContext()) is a

    def test_invalid_threshold(self):
        from repro.dram.schedulers import CriticalFirstScheduler

        with pytest.raises(ConfigError):
            CriticalFirstScheduler(rob_threshold=0)

    def test_in_factory(self):
        assert make_scheduler("critical-first").name == "critical-first"


# One thread's candidates: (bank, row, access, arrival, rob, iq) each.
_one_thread_candidates = st.lists(
    st.tuples(
        st.integers(0, 3), st.integers(0, 3),
        st.sampled_from([MemAccessType.READ, MemAccessType.WRITE]),
        st.integers(0, 40), st.integers(0, 256), st.integers(0, 64),
    ),
    min_size=1, max_size=10,
)


class TestOneThread:
    """On one thread, which thread-aware scheme *is* its base policy?

    ``request-based`` keys every candidate of a thread by one number
    (the thread's outstanding count), so on one thread it is hit-first
    and a single-thread baseline under it may be shared with
    hit-first's.  ``rob-based`` and ``iq-based`` key by occupancy
    stamped on each request when it left the core, which differs
    between requests of the same thread, so they are not.
    """

    @given(
        specs=_one_thread_candidates,
        open_rows=st.lists(
            st.one_of(st.none(), st.integers(0, 3)), min_size=4, max_size=4
        ),
        outstanding=st.integers(0, 16),
        tid=st.integers(0, 7),
    )
    def test_request_based_is_hit_first(
        self, specs, open_rows, outstanding, tid
    ):
        candidates = []
        for req_id, (bank, row, access, arrival, rob, iq) in enumerate(specs):
            request = MemRequest(
                0x100, access, tid, arrival=arrival, rob_occupancy=rob,
                iq_occupancy=iq, req_id=req_id + 1,
            )
            request.bank, request.row = bank, row
            candidates.append(request)
        ctx = SimpleNamespace(
            banks=[SimpleNamespace(open_row=r) for r in open_rows],
            outstanding={tid: outstanding} if outstanding else {},
        )
        assert RequestBasedScheduler().select(candidates, 50, ctx) is (
            HitFirstScheduler().select(candidates, 50, ctx)
        )

    def test_rob_based_is_not_hit_first(self):
        # Two row misses of one thread: hit-first serves the older, but
        # the younger left the core with a fuller ROB.
        older = read(arrival=0, tid=0, rob=10)
        younger = read(arrival=5, tid=0, rob=200)
        ctx = FakeContext()
        assert HitFirstScheduler().select([older, younger], 10, ctx) is older
        assert RobBasedScheduler().select([older, younger], 10, ctx) is younger

    def test_one_thread_run_identical_under_request_based(self):
        """A fig10 single-thread baseline (scale 8, 1 800 instructions,
        seed 2005): request-based gives hit-first's result, field for
        field; rob-based does not (it reorders 10 of mcf's 83 picks)."""
        import pickle

        from repro.experiments.config import SystemConfig
        from repro.experiments.runner import run_mix

        config = SystemConfig(
            scale=8, instructions_per_thread=1800, warmup_instructions=150,
            seed=2005, scheduler="hit-first",
        )

        def fields(scheduler):
            result = run_mix(config.with_(scheduler=scheduler), ("mcf",))
            return {
                name: pickle.dumps(getattr(result, name))
                for name in ("apps", "core", "dram", "hierarchy", "metrics")
            }

        hit_first = fields("hit-first")
        assert fields("request-based") == hit_first
        assert fields("rob-based")["core"] != hit_first["core"]
