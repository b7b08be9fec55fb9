"""Property-based cross-checks between the two DRAM controller models."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.events import EventQueue
from repro.dram.bank import PageMode
from repro.dram.controller import Command
from repro.dram.system import MemorySystem

lines_strategy = st.lists(
    st.integers(min_value=0, max_value=1 << 22), min_size=1, max_size=40
)


def serve(model, lines, scheduler="hit-first", page_mode=PageMode.OPEN):
    evq = EventQueue()
    system = MemorySystem.ddr(
        evq, channels=2, scheduler=scheduler, page_mode=page_mode,
        controller_model=model,
    )
    finish = {}
    for i, line in enumerate(lines):
        system.read(
            line, i % 4,
            callback=lambda t, r: finish.__setitem__(r.req_id, t),
        )
    evq.run_all()
    return system, finish


class TestBothModels:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lines=lines_strategy)
    def test_all_requests_complete_in_both_models(self, lines):
        for model in ("request", "command"):
            system, finish = serve(model, lines)
            assert len(finish) == len(lines)
            assert system.outstanding_total == 0
            assert system.stats.reads == len(lines)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lines=lines_strategy)
    def test_row_hit_counts_agree_for_serial_patterns(self, lines):
        # With FCFS, both models should classify hits identically when
        # requests are plentiful but bank state transitions the same way.
        request_sys, _ = serve("request", lines, scheduler="fcfs")
        command_sys, _ = serve("command", lines, scheduler="fcfs")
        assert (
            abs(
                request_sys.stats.row_buffer.hits
                - command_sys.stats.row_buffer.hits
            )
            <= max(2, len(lines) // 4)
        )

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lines=lines_strategy)
    def test_close_page_never_hits(self, lines):
        for model in ("request", "command"):
            system, _ = serve(model, lines, page_mode=PageMode.CLOSE)
            assert system.stats.row_buffer.hits == 0


class TestCommandAccounting:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lines=lines_strategy)
    def test_column_commands_equal_requests(self, lines):
        system, _ = serve("command", lines)
        issued = system.channels[0].commands_issued
        issued1 = system.channels[1].commands_issued
        total_reads = issued[Command.READ] + issued1[Command.READ]
        assert total_reads == len(lines)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lines=lines_strategy)
    def test_activates_bounded_by_requests_plus_banks(self, lines):
        system, _ = serve("command", lines)
        for channel in system.channels:
            issued = channel.commands_issued
            assert issued[Command.ACTIVATE] <= issued[Command.READ] + len(
                channel.banks
            )
            # a PRECHARGE is only ever issued to reopen a bank
            assert issued[Command.PRECHARGE] <= issued[Command.ACTIVATE]

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lines=lines_strategy, seed=st.integers(0, 100))
    def test_latency_monotone_with_arrival(self, lines, seed):
        # FCFS on one bank: completion order equals arrival order.
        system, finish = serve(
            "command", [line * 0 + i * (1 << 16) for i, line in
                        enumerate(lines)],
            scheduler="fcfs",
        )
        times = [finish[rid] for rid in sorted(finish)]
        assert times == sorted(times)
