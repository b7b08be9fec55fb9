"""Tests for the SMT core: dispatch, issue, commit, policies, invariants.

These tests drive the real core with tiny synthetic workloads and a
real (scaled-down) memory system, asserting structural invariants
rather than exact cycle counts.
"""

import pytest

from repro.common.errors import ConfigError
from repro.common.events import EventQueue
from repro.common.rng import child_rng
from repro.cache.hierarchy import HierarchyParams, MemoryHierarchy
from repro.cache.prewarm import prewarm
from repro.cpu.core import CoreParams, SMTCore
from repro.dram.system import MemorySystem
from repro.workloads.generator import SyntheticStream
from repro.workloads.spec2000 import get_profile

SCALE = 32


def build_core(apps, params=None, policy="dwarn", seed=5, perfect_l3=False):
    evq = EventQueue()
    memory = None if perfect_l3 else MemorySystem.ddr(evq)
    hierarchy = MemoryHierarchy(
        HierarchyParams(scale=SCALE, perfect_l3=perfect_l3), evq, memory
    )
    workloads = []
    rngs = []
    for i, app in enumerate(apps):
        workloads.append((
            app,
            SyntheticStream(
                get_profile(app), child_rng(seed, f"{app}:{i}"),
                thread_id=i, scale=SCALE,
            ),
        ))
        rngs.append(child_rng(seed, f"ic:{i}"))
    core = SMTCore(params or CoreParams(), evq, hierarchy, policy,
                   workloads, rngs)
    prewarm(hierarchy, [stream.footprint() for _, stream in workloads])
    return core, memory, hierarchy


class TestBasicRuns:
    def test_single_thread_reaches_target(self):
        core, _, _ = build_core(["eon"])
        result = core.run(500, warmup_instructions=100)
        assert result.reached_all_targets
        assert result.threads[0].committed == 500
        assert result.threads[0].ipc > 0

    def test_multi_thread_all_reach_targets(self):
        core, _, _ = build_core(["gzip", "eon"])
        result = core.run(400, warmup_instructions=100)
        assert result.reached_all_targets
        assert all(t.committed == 400 for t in result.threads)

    def test_max_cycles_caps_run(self):
        core, _, _ = build_core(["mcf"])
        result = core.run(10**9, max_cycles=2000)
        assert not result.reached_all_targets
        assert result.cycles <= 2100

    def test_ipc_sane_for_ilp_app(self):
        core, _, _ = build_core(["eon"])
        result = core.run(800, warmup_instructions=200)
        assert 1.0 < result.threads[0].ipc <= 8.0

    def test_mem_app_slower_than_ilp_app(self):
        ilp_core, _, _ = build_core(["eon"])
        mem_core, _, _ = build_core(["mcf"])
        ilp = ilp_core.run(500, warmup_instructions=100)
        mem = mem_core.run(500, warmup_instructions=100)
        assert mem.threads[0].ipc < ilp.threads[0].ipc

    def test_invalid_budget_rejected(self):
        core, _, _ = build_core(["eon"])
        with pytest.raises(ConfigError):
            core.run(0)

    def test_at_least_one_thread_required(self):
        evq = EventQueue()
        hierarchy = MemoryHierarchy(
            HierarchyParams(scale=SCALE, perfect_l3=True), evq, None
        )
        with pytest.raises(ConfigError):
            SMTCore(CoreParams(), evq, hierarchy, "dwarn", [], [])


class TestDeterminism:
    def test_same_seed_same_result(self):
        a, _, _ = build_core(["gzip", "mcf"], seed=9)
        b, _, _ = build_core(["gzip", "mcf"], seed=9)
        ra = a.run(300, warmup_instructions=50)
        rb = b.run(300, warmup_instructions=50)
        assert ra.cycles == rb.cycles
        assert [t.ipc for t in ra.threads] == [t.ipc for t in rb.threads]

    def test_different_seed_different_result(self):
        a, _, _ = build_core(["gzip", "mcf"], seed=9)
        b, _, _ = build_core(["gzip", "mcf"], seed=10)
        ra = a.run(300, warmup_instructions=50)
        rb = b.run(300, warmup_instructions=50)
        assert ra.cycles != rb.cycles


class TestResourceInvariants:
    def test_queues_drain_after_run(self):
        core, _, hierarchy = build_core(["gzip", "ammp"])
        core.run(300, warmup_instructions=50)
        core.event_queue.run_all()
        assert core.int_iq_used >= 0
        assert core.fp_iq_used >= 0
        assert core.lq_used >= 0
        assert core.sq_used >= 0

    def test_iq_bounded_during_run(self):
        params = CoreParams(int_iq_size=16, fp_iq_size=8)
        core, _, _ = build_core(["mcf", "ammp"], params=params)
        # spot-check bound by instrumenting the fetch/dispatch stage
        # (occupancy only rises inside it)
        original = core._fetch

        def checked(cycle):
            fetched = original(cycle)
            assert core.int_iq_used <= 16
            assert core.fp_iq_used <= 8
            return fetched

        core._fetch = checked
        core.run(300)

    def test_rob_bounded(self):
        params = CoreParams(rob_size=32)
        core, _, _ = build_core(["mcf"], params=params)
        original = core._fetch

        def checked(cycle):
            fetched = original(cycle)
            assert len(core.threads[0].rob) <= 32
            return fetched

        core._fetch = checked
        core.run(300)

    def test_commit_in_program_order(self):
        core, _, _ = build_core(["gzip"])
        committed_seqs = []
        original = core._commit

        def watching(cycle):
            thread = core.threads[0]
            before = len(thread.rob)
            head_seq = thread.rob[0].seq if thread.rob else None
            original(cycle)
            popped = before - len(thread.rob)
            if popped and head_seq is not None:
                committed_seqs.extend(range(head_seq, head_seq + popped))

        core._commit = watching
        core.run(200)
        assert committed_seqs == sorted(committed_seqs)


class TestMemoryInteraction:
    def test_dram_accesses_attributed_to_threads(self):
        # mcf's DRAM visits are clustered, so short prefixes are
        # high-variance: use a budget long enough to cover phases.
        core, memory, _ = build_core(["mcf", "eon"])
        result = core.run(2000, warmup_instructions=500)
        mcf, eon = result.threads
        assert mcf.dram_accesses > 0
        assert mcf.dram_accesses > eon.dram_accesses

    def test_perfect_l3_faster_than_real_memory(self):
        real, _, _ = build_core(["mcf"])
        perfect, _, _ = build_core(["mcf"], perfect_l3=True)
        r = real.run(2000, warmup_instructions=500)
        p = perfect.run(2000, warmup_instructions=500)
        assert p.threads[0].ipc > r.threads[0].ipc

    def test_warmup_excluded_from_measurement(self):
        core, _, _ = build_core(["gzip"])
        result = core.run(300, warmup_instructions=300)
        assert result.threads[0].committed == 300  # measured only


class TestFetchPolicyIntegration:
    @pytest.mark.parametrize(
        "policy", ["round-robin", "icount", "stall", "dg", "dwarn"]
    )
    def test_all_policies_complete(self, policy):
        core, _, _ = build_core(["gzip", "mcf"], policy=policy)
        result = core.run(250, warmup_instructions=50)
        assert result.reached_all_targets
        assert result.fetch_policy == policy


class TestThroughput:
    def test_result_aggregates(self):
        core, _, _ = build_core(["gzip", "eon"])
        result = core.run(300, warmup_instructions=50)
        assert result.total_committed == 600
        assert result.throughput_ipc == pytest.approx(
            sum(t.committed for t in result.threads) / result.cycles
        )
        assert result.ipc_of(0) == result.threads[0].ipc


class TestIssueCoverage:
    def test_reported_between_zero_and_one(self):
        core, _, _ = build_core(["gzip", "eon"])
        result = core.run(300, warmup_instructions=50)
        assert 0.0 < result.int_issue_coverage <= 1.0

    def test_ilp_mix_has_high_coverage(self):
        core, _, _ = build_core(["eon", "sixtrack"])
        result = core.run(400, warmup_instructions=100)
        assert result.int_issue_coverage > 0.5

    def test_absent_extra_defaults_to_zero(self):
        from repro.cpu.stats import CoreResult

        empty = CoreResult(
            cycles=1, threads=(), reached_all_targets=True,
            fetch_policy="x",
        )
        assert empty.int_issue_coverage == 0.0


class TestStallAccounting:
    def test_breakdown_reported(self):
        core, _, _ = build_core(["mcf", "ammp"])
        result = core.run(600, warmup_instructions=100)
        stalls = result.stall_cycles
        assert set(stalls) == {
            "fetch_blocked", "rob_full", "resource_full", "not_selected",
        }
        assert all(v >= 0 for v in stalls.values())
        assert sum(stalls.values()) > 0  # MEM mix surely stalls somewhere
        # dispositions never exceed thread-cycles
        assert sum(stalls.values()) <= 2 * result.cycles

    def test_mem_mix_stalls_more_than_ilp_mix(self):
        mem_core, _, _ = build_core(["mcf", "ammp"])
        ilp_core, _, _ = build_core(["eon", "sixtrack"])
        mem = mem_core.run(500, warmup_instructions=100)
        ilp = ilp_core.run(500, warmup_instructions=100)
        mem_rate = sum(mem.stall_cycles.values()) / (2 * mem.cycles)
        ilp_rate = sum(ilp.stall_cycles.values()) / (2 * ilp.cycles)
        assert mem_rate > ilp_rate

    def test_mispredict_heavy_stream_counts_fetch_blocked(self):
        core, _, _ = build_core(["gzip"])  # 7% mispredict rate
        result = core.run(800, warmup_instructions=100)
        assert result.stall_cycles["fetch_blocked"] > 0
