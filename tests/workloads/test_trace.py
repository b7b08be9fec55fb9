"""Tests for trace recording and replay."""

import io

import pytest

from repro.common.errors import ConfigError
from repro.common.rng import child_rng
from repro.common.types import OpClass
from repro.workloads.generator import SyntheticStream, Uop
from repro.workloads.spec2000 import get_profile
from repro.workloads.trace import (
    TraceStream,
    extract_memory_trace,
    load_trace,
    record_trace,
)


def synthetic(app="gzip", seed=3):
    return SyntheticStream(
        get_profile(app), child_rng(seed, app), thread_id=0, scale=16
    )


class TestRoundTrip:
    def test_record_and_replay_identical(self):
        source = synthetic()
        reference = synthetic()
        buffer = io.StringIO()
        n = record_trace(source, 500, buffer)
        assert n == 500
        buffer.seek(0)
        uops, profile_name = load_trace(buffer)
        assert profile_name == "gzip"
        assert len(uops) == 500
        for uop in uops:
            expected = reference.next_uop()
            assert uop.opc is expected.opc
            assert uop.addr == expected.addr
            assert uop.dep1 == expected.dep1
            assert uop.dep2 == expected.dep2
            assert uop.mispredict == expected.mispredict

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.txt"
        with open(path, "w") as handle:
            record_trace(synthetic(), 100, handle)
        stream = TraceStream.from_file(path)
        assert len(stream) == 100
        assert stream.profile.name == "gzip"


class TestTraceStream:
    def test_loops_when_exhausted(self):
        stream = TraceStream([Uop(OpClass.INT_ALU), Uop(OpClass.BRANCH)])
        kinds = [stream.next_uop().opc for _ in range(5)]
        assert kinds == [
            OpClass.INT_ALU, OpClass.BRANCH,
            OpClass.INT_ALU, OpClass.BRANCH, OpClass.INT_ALU,
        ]
        assert stream.generated == 5

    def test_unknown_profile_falls_back(self):
        stream = TraceStream.from_text(
            "# repro-trace v1 profile=doom\nINT_ALU\n"
        )
        assert stream.profile.name == "trace"

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigError):
            TraceStream([])
        with pytest.raises(ConfigError):
            TraceStream.from_text("# just a comment\n")

    def test_runs_on_the_core(self):
        from repro.common.events import EventQueue
        from repro.cache.hierarchy import HierarchyParams, MemoryHierarchy
        from repro.cpu.core import CoreParams, SMTCore

        buffer = io.StringIO()
        record_trace(synthetic(), 400, buffer)
        stream = TraceStream.from_text(buffer.getvalue())
        evq = EventQueue()
        hierarchy = MemoryHierarchy(
            HierarchyParams(scale=32, perfect_l3=True), evq, None
        )
        core = SMTCore(CoreParams(), evq, hierarchy, "icount",
                       [("trace", stream)])
        result = core.run(300)
        assert result.reached_all_targets


class TestParsing:
    def test_bad_opclass_rejected(self):
        with pytest.raises(ConfigError):
            load_trace(io.StringIO("JUMP\n"))

    def test_bad_field_rejected(self):
        with pytest.raises(ConfigError):
            load_trace(io.StringIO("LOAD,z=1\n"))

    @pytest.mark.parametrize(
        "line, field",
        [
            ("LOAD,a=40,d1=x", "d1"),
            ("LOAD,a=zz", "a"),
            ("INT_ALU,d2=1.5", "d2"),
            ("INT_ALU,d1=-3", "d1"),
            ("INT_ALU,d1=2,d2=-1", "d2"),
            ("STORE,a=-40", "a"),
            ("BRANCH,m=yes", "m"),
            ("BRANCH,m=2", "m"),
            ("LOAD", "a"),
            ("STORE,d1=2", "a"),
            ("LOAD,a=40,a=50", "a"),
            ("INT_ALU,d1=1,d1=2", "d1"),
            ("INT_ALU,a=40", "a"),
            ("INT_ALU,m=1", "m"),
            ("LOAD,a=40,m=0", "m"),
        ],
    )
    def test_bad_field_value_rejected(self, line, field):
        with pytest.raises(ConfigError, match=f"trace field {field}="):
            load_trace(io.StringIO(line + "\n"))

    def test_blank_lines_skipped(self):
        uops, _ = load_trace(io.StringIO("INT_ALU\n\n\nBRANCH,m=1\n"))
        assert len(uops) == 2
        assert uops[1].mispredict

    def test_count_validated(self):
        with pytest.raises(ConfigError):
            record_trace(synthetic(), 0, io.StringIO())


class TestMemoryExtraction:
    def test_extracts_only_memory_ops(self):
        uops = [
            Uop(OpClass.INT_ALU),
            Uop(OpClass.LOAD, addr=0x40),
            Uop(OpClass.STORE, addr=0x80),
            Uop(OpClass.BRANCH),
        ]
        assert extract_memory_trace(uops) == [(0x40, False), (0x80, True)]
