"""Self-test of the benchmark (not part of tier-1).

    python -m pytest bench/test_bench.py

Runs the whole suite once in ``--smoke`` mode (budgets / 10, one
untraced and one traced pass per workload, well under 30 s) and checks
the contract the later issues rely on.
"""

from __future__ import annotations

import json
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from bench import compare, metrics  # noqa: E402
from bench.trace import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SINGLE_THREADED = ("fig10_cold", "ilp_uop", "dram_direct_rw")


def run_bench(*args: str) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    return done


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One traced smoke run of every workload: (stdout, --out report)."""
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    done = run_bench("--smoke", "--trace", "1", "--out", str(out))
    return done.stdout, json.loads(out.read_text())


def test_benchmark_json_is_the_catalogue_and_within_limits():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == metrics.benchmark_json()
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 2) <= 3420
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    workloads = set(metrics.WORKLOADS)
    for spec in metrics.PER_LAYER.values():
        assert all(metric in metrics.END_TO_END and workload in workloads
                   for metric, workload in spec["moves"])


def test_every_metric_is_printed_by_name_with_its_unit(smoke):
    stdout, report = smoke
    results = [json.loads(line) for line in stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == len(metrics.WORKLOADS)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == set(metrics.PER_LAYER)
        for name, entry in result["metrics"].items():
            assert entry["unit"] == metrics.PER_LAYER[name]["unit"]
    assert set(report["workloads"]) == set(metrics.WORKLOADS)
    for name, workload in report["workloads"].items():
        assert set(workload["end_to_end"]) == set(metrics.END_TO_END)
        for metric, entry in workload["end_to_end"].items():
            assert entry["value"] > 0, (name, metric)
            assert re.search(
                rf"^\s+{re.escape(metric)}\s+[0-9.]+ {re.escape(entry['unit'])}$",
                stdout, re.M,
            )
        assert workload["per_layer"]["trace.overhead_ratio"]["value"] > 0
    context = report["context"]
    assert {"python", "nproc", "timers", "seed"} <= set(context)


def test_untraced_last_line_carries_the_end_to_end_metrics():
    done = run_bench("--smoke", "--workload", "dram_direct_rw",
                     "--seed", "7", "--trace", "0", "--seconds", "1")
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {name: m["unit"] for name, m in metrics.END_TO_END.items()}


@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_traced_self_times_add_up_to_what_was_timed(smoke, workload):
    doc = json.loads((BENCH / "out" / f"trace-{workload}.json").read_text())
    spans = [dict(zip(doc["span_fields"], s)) for s in doc["spans"]]
    hot = [dict(zip(doc["hot_fields"], h)) for h in doc["hot"]]
    total = sum(s["self_ns"] for s in spans) + sum(h["self_ns"] for h in hot)
    assert total == pytest.approx(doc["top_level_ns"], rel=0.02)
    if workload in SINGLE_THREADED:
        (root,) = [s for s in spans if s["name"] == "pass"]
        timed = sum(r["self_ns"] for r in spans + hot
                    if r["phase"] != "setup")
        assert timed == pytest.approx(
            root["end_ns"] - root["start_ns"], rel=0.02
        )
    # Coarse spans carry the content-derived job key as shared id.
    jobs = {s["job"] for s in spans if s["name"] == "run_mix"}
    if workload != "dram_direct_rw":
        assert jobs and all(re.fullmatch(r"[0-9a-f]{64}", j) for j in jobs)


def test_wrappers_are_fully_removed_after_a_traced_pass():
    from repro.common.events import EventQueue
    from repro.experiments import runner
    from repro.experiments.config import SystemConfig

    config = SystemConfig(scale=32, instructions_per_thread=300,
                          warmup_instructions=80, seed=3)
    apps = ("mcf", "gzip")
    schedule = vars(EventQueue)["schedule"]
    before = pickle.dumps(runner.run_mix(config, apps))

    tracer = Tracer().install()
    assert vars(EventQueue)["schedule"] is not schedule
    traced = pickle.dumps(runner.run_mix(config, apps))
    tracer.uninstall()

    assert vars(EventQueue)["schedule"] is schedule
    assert not hasattr(pickle.dumps, "__wrapped__")
    calls = tracer.calls()
    assert calls > 0
    after = pickle.dumps(runner.run_mix(config, apps))
    assert tracer.calls() == calls  # zero wrapper calls once removed
    assert before == traced == after  # tracing never changes a result


def test_compare_verdicts():
    same = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.verdict("wall_s", same, same)[0] == "ok"
    assert compare.verdict("wall_s", same, [v * 1.5 for v in same])[0] == "worse"
    assert compare.verdict(
        "kops_per_cpu_s", same, [v * 0.5 for v in same])[0] == "worse"
    noisy = [1.0, 1.6, 0.7, 1.3, 1.0]
    assert compare.verdict("wall_s", noisy, noisy)[0] == "unresolved"
    assert compare.verdict("wall_s", noisy, [0.1, 0.2, 0.15])[0] == "ok"


def test_two_runs_of_the_same_code_and_seed_repeat_exactly(smoke, tmp_path):
    _, first = smoke
    out = tmp_path / "again.json"
    run_bench("--smoke", "--trace", "1", "--workload", "served_campaign",
              "--out", str(out))
    again = json.loads(out.read_text())
    first = {"context": first["context"], "workloads": {
        "served_campaign": first["workloads"]["served_campaign"]}}
    _, inexact = compare.compare(first, again, out=open(tmp_path / "t", "w"))
    assert inexact == []
