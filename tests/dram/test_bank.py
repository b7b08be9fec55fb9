"""Tests for bank row-buffer state and page modes, on the live path.

The simulator classifies and serves accesses in
``ChannelController._issue`` (the per-page-mode latencies are flattened
there), so these cases drive one controller on a bare event queue and
observe the bank it owns: hit / closed / conflict latency, and
``open_row`` / ``ready_at`` after service, under both page modes.
"""

from repro.common.events import EventQueue
from repro.common.types import MemAccessType, MemRequest
from repro.dram.bank import PageMode
from repro.dram.controller import ChannelController
from repro.dram.geometry import ddr_geometry
from repro.dram.schedulers import is_row_hit, make_scheduler
from repro.dram.stats import DRAMStats
from repro.dram.timing import ddr_timing

T = ddr_timing()


class _Sink:
    """Stands in for the MemorySystem: takes completions, nothing else."""

    outstanding_by_thread: dict = {}

    def complete(self, request):
        pass


class Channel:
    """One request-level controller, served one request at a time."""

    def __init__(self, page_mode):
        self.evq = EventQueue()
        self.controller = ChannelController(
            0, ddr_geometry(), T, page_mode, make_scheduler("fcfs"),
            self.evq, DRAMStats(), _Sink(),
        )
        self.bank = self.controller.banks[0]
        self._ids = 0

    def request(self, row):
        self._ids += 1
        req = MemRequest(
            0, MemAccessType.READ, 0, self.evq.now, req_id=self._ids
        )
        req.channel, req.bank, req.row = 0, 0, row
        return req

    def serve(self, row):
        """Issue a read to ``row`` on an idle channel and let it finish."""
        req = self.request(row)
        self.controller.enqueue(req)
        self.evq.run_all()
        return req

    def would_hit(self, row):
        return is_row_hit(self.request(row), self.controller)


def command_latency(req):
    """Cycles between issue and the start of the data burst."""
    data_end = req.finish_time - T.ctrl_response
    return data_end - T.transfer - req.issue_time


class TestClassification:
    def test_fresh_bank_is_closed(self):
        ch = Channel(PageMode.OPEN)
        assert ch.bank.open_row is None
        assert not ch.would_hit(5)

    def test_open_same_row_is_hit(self):
        ch = Channel(PageMode.OPEN)
        ch.serve(5)
        assert ch.would_hit(5)

    def test_open_other_row_is_conflict(self):
        ch = Channel(PageMode.OPEN)
        ch.serve(5)
        assert ch.bank.open_row == 5
        assert not ch.would_hit(6)

    def test_close_mode_never_hits(self):
        ch = Channel(PageMode.CLOSE)
        ch.serve(5)
        assert not ch.would_hit(5)
        assert ch.serve(5).row_hit is False


class TestServiceLatency:
    def test_hit_cost(self):
        ch = Channel(PageMode.OPEN)
        ch.serve(5)
        assert command_latency(ch.serve(5)) == T.hit_latency

    def test_closed_cost(self):
        ch = Channel(PageMode.OPEN)
        assert command_latency(ch.serve(5)) == T.closed_latency

    def test_conflict_cost(self):
        ch = Channel(PageMode.OPEN)
        ch.serve(5)
        assert command_latency(ch.serve(9)) == T.conflict_latency

    def test_close_mode_always_closed_cost(self):
        ch = Channel(PageMode.CLOSE)
        ch.serve(5)
        assert command_latency(ch.serve(5)) == T.closed_latency


class TestServe:
    def test_open_mode_keeps_row(self):
        ch = Channel(PageMode.OPEN)
        req = ch.serve(7)
        assert ch.bank.open_row == 7
        assert ch.bank.ready_at == req.finish_time - T.ctrl_response

    def test_close_mode_precharges_and_pays_for_it(self):
        ch = Channel(PageMode.CLOSE)
        req = ch.serve(7)
        assert ch.bank.open_row is None
        data_end = req.finish_time - T.ctrl_response
        assert ch.bank.ready_at == data_end + T.t_pre

    def test_hit_reported(self):
        ch = Channel(PageMode.OPEN)
        assert ch.serve(7).row_hit is False
        assert ch.serve(7).row_hit is True
        assert ch.serve(8).row_hit is False

    def test_hit_counters(self):
        ch = Channel(PageMode.OPEN)
        for row in (7, 7, 9):
            ch.serve(row)
        row_buffer = ch.controller.stats.row_buffer
        assert (row_buffer.total, row_buffer.hits) == (3, 1)
        assert row_buffer.rate == 1 / 3

    def test_row_changes_on_conflict(self):
        ch = Channel(PageMode.OPEN)
        ch.serve(7)
        ch.serve(9)
        assert ch.bank.open_row == 9
