"""Tests for the command-level DRAM controller."""

import pytest

from repro.common.events import EventQueue
from repro.dram.bank import PageMode
from repro.dram.controller import Command
from repro.dram.system import MemorySystem
from repro.dram.timing import ddr_timing

T = ddr_timing()
OVERHEAD = T.ctrl_request + T.ctrl_response
COLD_READ = OVERHEAD + T.t_row + T.t_col + T.transfer


def build(scheduler="fcfs", page_mode=PageMode.OPEN, channels=2):
    evq = EventQueue()
    system = MemorySystem.ddr(
        evq, channels=channels, scheduler=scheduler, page_mode=page_mode,
        controller_model="command",
    )
    return evq, system


def run_reads(evq, system, lines, tid=0):
    done = {}
    for line in lines:
        system.read(
            line, tid, callback=lambda t, r: done.__setitem__(r.line_addr, t)
        )
    evq.run_all()
    return done


def same_bank_stride(system):
    g = system.geometry
    return g.lines_per_page * g.banks_per_logical_channel * g.logical_channels


class TestCommandSequences:
    def test_cold_read_is_activate_then_read(self):
        evq, system = build()
        done = run_reads(evq, system, [0])
        assert done[0] == COLD_READ
        ctrl = system.channels[0]
        assert ctrl.commands_issued[Command.ACTIVATE] == 1
        assert ctrl.commands_issued[Command.READ] == 1
        assert ctrl.commands_issued[Command.PRECHARGE] == 0

    def test_row_hit_needs_only_column_command(self):
        evq, system = build()
        run_reads(evq, system, [0, 1])
        ctrl = system.channels[0]
        assert ctrl.commands_issued[Command.ACTIVATE] == 1
        assert ctrl.commands_issued[Command.READ] == 2
        assert system.stats.row_buffer.hits == 1

    def test_conflict_needs_precharge(self):
        evq, system = build()
        run_reads(evq, system, [0, same_bank_stride(system)])
        ctrl = system.channels[0]
        assert ctrl.commands_issued[Command.PRECHARGE] == 1
        assert ctrl.commands_issued[Command.ACTIVATE] == 2

    def test_close_page_auto_precharges(self):
        evq, system = build(page_mode=PageMode.CLOSE)
        run_reads(evq, system, [0, 1])
        ctrl = system.channels[0]
        # no explicit PRECHARGE command, but the second access to the
        # same page still needs its own ACTIVATE
        assert ctrl.commands_issued[Command.PRECHARGE] == 0
        assert ctrl.commands_issued[Command.ACTIVATE] == 2
        assert system.stats.row_buffer.hits == 0


class TestTimingConstraints:
    def test_tras_delays_early_precharge(self):
        evq, system = build()
        stride = same_bank_stride(system)
        done = run_reads(evq, system, [0, stride])
        # The conflicting access cannot precharge before ACT+tRAS:
        # ACT at 20; PRE >= 20 + t_ras; then tRP + tRCD + tCAS + burst.
        earliest = (
            20 + T.t_ras + T.t_pre + T.t_row + T.t_col + T.transfer
            + T.ctrl_response
        )
        assert done[stride] >= earliest

    def test_trrd_spaces_activates(self):
        evq, system = build()
        g = system.geometry
        other_bank = g.lines_per_page * g.logical_channels
        system.read(0, 0)
        system.read(other_bank, 0)
        evq.run_all()
        ctrl = system.channels[0]
        assert ctrl.commands_issued[Command.ACTIVATE] == 2

    def test_command_bus_serializes_commands(self):
        # Two cold reads on different banks: the second ACTIVATE cannot
        # share the first's command slot.
        evq, system = build()
        g = system.geometry
        other_bank = g.lines_per_page * g.logical_channels
        done = run_reads(evq, system, [0, other_bank])
        assert done[other_bank] > done[0]

    def test_read_write_turnaround(self):
        evq, system = build()
        done = []
        system.read(0, 0, callback=lambda t, r: done.append(t))
        system.write(1, 0)
        system.read(2, 0, callback=lambda t, r: done.append(t))
        evq.run_all()
        # all served; the interleaved write forces turnaround gaps
        assert system.stats.writes == 1
        assert len(done) == 2


class TestSchedulingParity:
    """Both controller models expose the same scheduling behaviour."""

    def test_hit_first_reorders(self):
        evq, system = build(scheduler="hit-first")
        stride = same_bank_stride(system)
        done = run_reads(evq, system, [0, stride, 1, 2, 3])
        assert max(done[1], done[2], done[3]) < done[stride]

    def test_stats_match_interface_of_request_model(self):
        evq, system = build()
        run_reads(evq, system, [0, 1, 2])
        stats = system.finish()
        assert stats.reads == 3
        assert stats.avg_read_latency > 0
        assert stats.busy_outstanding_distribution()

    @pytest.mark.parametrize("sched", ["fcfs", "hit-first", "request-based"])
    def test_all_schedulers_complete(self, sched):
        evq, system = build(scheduler=sched)
        lines = [i * 997 for i in range(20)]
        done = run_reads(evq, system, lines)
        assert len(done) == 20


class TestModelComparison:
    def test_request_model_is_close_to_command_model(self):
        """The fast model's single-request latency matches the
        command model's exactly for an idle channel."""
        evq_r = EventQueue()
        request_model = MemorySystem.ddr(evq_r)
        evq_c = EventQueue()
        command_model = MemorySystem.ddr(evq_c, controller_model="command")
        lat_r = run_reads(evq_r, request_model, [0])[0]
        lat_c = run_reads(evq_c, command_model, [0])[0]
        assert lat_r == lat_c

    def test_unknown_model_rejected(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            MemorySystem.ddr(EventQueue(), controller_model="quantum")


class TestRefresh:
    def test_refresh_closes_rows_and_counts(self):
        from repro.dram.geometry import ddr_geometry
        from repro.dram.system import MemorySystem
        from repro.dram.timing import DRAMTiming

        evq = EventQueue()
        timing = DRAMTiming(t_refi=2000, t_rfc=200)
        system = MemorySystem(
            evq, ddr_geometry(), timing, controller_model="command"
        )
        # spread reads over a window longer than several tREFIs
        for i in range(12):
            evq.schedule(i * 700, system.read, i, 0)
        evq.run_all()
        ctrl = system.channels[0]
        assert ctrl.refreshes >= 2
        # rows were closed by refresh, so later same-page reads paid
        # fresh ACTIVATEs: more activates than distinct pages touched
        assert ctrl.commands_issued[Command.ACTIVATE] > 1

    def test_refresh_disabled_with_zero_interval(self):
        from repro.dram.geometry import ddr_geometry
        from repro.dram.system import MemorySystem
        from repro.dram.timing import DRAMTiming

        evq = EventQueue()
        timing = DRAMTiming(t_refi=0)
        system = MemorySystem(
            evq, ddr_geometry(), timing, controller_model="command"
        )
        for i in range(5):
            evq.schedule(i * 5000, system.read, i * 999, 0)
        evq.run_all()
        assert system.channels[0].refreshes == 0
