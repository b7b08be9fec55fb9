"""Known answers for the DRAM model, computed by hand from Table 1.

Every other DRAM check is relative (one model against the other, or
today against a committed digest).  These cases are absolute: each
expected latency is a sum of ``repro.dram.timing.ddr_timing`` fields,
written out, and each case runs on both controller models.

One thread drives one channel closed-loop: every read is issued from
the previous read's completion, so the spacing of completions is the
cost of one read with nothing else in flight.  Forty reads stay well
inside one refresh interval of the command model.
"""

import pytest

from repro.common.events import EventQueue
from repro.dram.bank import PageMode
from repro.dram.system import MemorySystem
from repro.dram.timing import ddr_timing

T = ddr_timing()
MODELS = ("request", "command")
READS = 40


def build(model, page_mode=PageMode.OPEN, gang=1):
    """One logical DDR channel (``gang`` physical channels ganged)."""
    return MemorySystem.ddr(
        EventQueue(), channels=gang, gang=gang, page_mode=page_mode,
        scheduler="fcfs", controller_model=model,
    )


def two_rows_one_bank(system):
    """Two lines on one bank of channel 0, in different rows."""
    g = system.geometry
    first, second = 0, g.lines_per_page * g.banks_per_logical_channel
    (ch0, bank0, row0), (ch1, bank1, row1) = (
        system.mapping.map_line(line) for line in (first, second)
    )
    assert (ch0, bank0) == (ch1, bank1) and row0 != row1
    return first, second


def ping_pong(system, reads=READS):
    """Alternate two rows of one bank closed-loop from cycle 0; return
    every read's completion cycle."""
    lines = two_rows_one_bank(system)
    done = []

    def issue_next(now, _request):
        done.append(now)
        if len(done) < reads:
            system.read(lines[len(done) % 2], 0, callback=issue_next)

    system.read(lines[0], 0, callback=issue_next)
    system.event_queue.run_all()
    assert len(done) == reads
    return done


def gaps(times):
    return {b - a for a, b in zip(times, times[1:])}


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("gang", [1, 2, 3])
class TestKnownAnswers:
    def test_closed_bank_read(self, model, gang):
        done = ping_pong(build(model, gang=gang), reads=1)
        assert done == [
            T.ctrl_request + T.t_row + T.t_col + T.transfer_for_gang(gang)
            + T.ctrl_response
        ]

    def test_open_page_ping_pong_pays_precharge_row_and_column(
        self, model, gang
    ):
        done = ping_pong(build(model, gang=gang))
        assert gaps(done) == {
            T.ctrl_request + T.t_pre + T.t_row + T.t_col + T.transfer_for_gang(gang)
            + T.ctrl_response
        }

    def test_close_page_ping_pong_pays_row_and_column(self, model, gang):
        # The response path (ctrl_response) and the next request's
        # path (ctrl_request) overlap the auto-precharge; the bank is
        # still precharging for the cycles t_pre outlasts them.
        done = ping_pong(build(model, PageMode.CLOSE, gang=gang))
        hidden = T.ctrl_response + T.ctrl_request
        assert gaps(done) == {
            T.ctrl_request + T.t_row + T.t_col + T.transfer_for_gang(gang)
            + T.ctrl_response + max(0, T.t_pre - hidden)
        }


def test_table_one_numbers():
    """The hand sums above, spelled out for the paper's DDR channel."""
    assert T.transfer_for_gang(2) == T.transfer // 2
    assert T.ctrl_request + T.t_pre + T.t_row + T.t_col + T.transfer + (
        T.ctrl_response
    ) == 205
    assert T.ctrl_request + T.t_row + T.t_col + T.transfer + (
        T.ctrl_response
    ) == 160
    assert T.t_pre - (T.ctrl_response + T.ctrl_request) == 5
