"""Crash at any byte: a truncated job log replays to what it proves.

One real scheduler session (a campaign, its completions, a job whose
failing simulation aborts its batch -- a terminal failure -- and a
clean shutdown) writes
``service/jobs.jsonl``.  A kill -9 can stop that file at any
byte, so every prefix must replay without raising, report done
exactly the jobs whose completion record (newline included) is wholly
inside it, and leave pending the submitted jobs that are neither done
nor terminally failed, in submission order.
"""

import functools
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.experiments.config import SystemConfig
from repro.experiments.resilience import JobLog, parse_records, replay
from repro.faults import FaultPlan, FaultSpec
from repro.service.scheduler import CampaignScheduler
from repro.service.store import ResultStore

CONFIG = SystemConfig(
    scale=32, instructions_per_thread=200, warmup_instructions=50, seed=99
)


@functools.cache
def _session_log() -> bytes:
    # The only gzip job fails on every attempt.  Submitted after the
    # campaign, it aborts the batch once the campaign has landed.
    plan = FaultPlan(
        specs=(FaultSpec(kind="exception", apps=("gzip",), attempt=None),)
    )
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(tmp)
        scheduler = CampaignScheduler(store, fault_plan=plan)
        scheduler.submit_campaign("fig10", CONFIG, mixes=["2-MEM"])
        scheduler.submit_job(CONFIG.with_(channels=4), ("gzip",))
        scheduler.start()
        assert scheduler.drain(timeout=300)
        scheduler.stop()
        return (Path(tmp) / "service" / "jobs.jsonl").read_bytes()


def _whole_records(data: bytes, prefix: int) -> list[dict]:
    """Records whose every byte, newline included, is in ``data[:prefix]``."""
    records, start = [], 0
    for line in data.split(b"\n"):
        if line and start + len(line) < prefix:
            records.append(json.loads(line))
        start += len(line) + 1
    return records


def test_session_exercises_every_record_kind():
    events = {r["event"] for r in parse_records(_session_log())}
    assert events >= {
        "log-start", "campaign", "enqueue", "failure", "abort", "release",
        "shutdown",
    }
    assert not events & {"grant", "reclaim"}
    view = replay(parse_records(_session_log()))
    assert len(view["terminal"]) == 1 and not view["pending"]
    assert set(view["done"].values()) == {1}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_any_prefix_replays_to_what_it_proves(data):
    log = _session_log()
    newlines = [i for i, byte in enumerate(log) if byte == ord("\n")]
    prefix = data.draw(st.one_of(
        st.integers(min_value=0, max_value=len(log)),
        # Either side of a record boundary, where torn-tail bugs live.
        st.builds(
            lambda at, delta: min(len(log), max(0, at + delta)),
            st.sampled_from(newlines), st.integers(-1, 1),
        ),
    ))
    view = replay(parse_records(log[:prefix]))

    whole = _whole_records(log, prefix)
    done = {
        r["key"] for r in whole
        if r["event"] == "release" and r["outcome"] == "done"
    }
    terminal = {
        r["key"] for r in whole
        if r["event"] == "release" and r["outcome"] == "failed"
    }
    submitted = list(dict.fromkeys(
        r["key"] for r in whole if r["event"] == "enqueue"
    ))
    assert set(view["done"]) == done
    assert set(view["terminal"]) == terminal
    assert list(view["submitted"]) == submitted
    assert list(view["pending"]) == [
        key for key in submitted if key not in done and key not in terminal
    ]

    # Resuming onto the cut file agrees with the replay and leaves a
    # log whose every line parses.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "jobs.jsonl"
        path.write_bytes(log[:prefix])
        with JobLog(path, resume=True) as resumed:
            assert resumed.view["done"] == view["done"]
            assert resumed.view["pending"] == view["pending"]
            resumed.append({"event": "shutdown", "clean": True})
        lines = path.read_bytes().splitlines()
        assert [json.loads(line)["event"] for line in lines][-1] == "shutdown"
