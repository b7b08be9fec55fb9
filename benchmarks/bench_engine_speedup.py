"""Speedup of the fast (and sampled) engines over the reference.

Measures ``run_mix`` under all three engines on the figure-10 mixes and
(optionally) the full figure-10 sweep, and reports *ratios* — the
committed ``BENCH_engine.json`` snapshot is machine-normalized: raw
seconds are recorded for provenance only, the speedup ratios are the
numbers that transfer across machines.

Methodology: reference and fast measurements are interleaved and each
case keeps the best of N ``time.process_time()`` samples.  Process
time ignores scheduler preemption; interleaving cancels slow thermal /
frequency drift that would otherwise bias whichever engine ran second.

Run as a pytest (marked ``slow``) for the regression floors, or
directly to regenerate the committed snapshot::

    PYTHONPATH=src python benchmarks/bench_engine_speedup.py

Both engines run the one ``SMTCore``; the fast engine adds the
stalled-window kernel and the µop stream memo.  The kernel wins where
the reference spends cycles ticking stalled threads: memory-bound
mixes at high thread counts.  On MIX mixes it never opens (the paper's
ILP threads rarely stall long enough to skip), so their ratio is the
memo being warm on the best-of-N repeats — see docs/performance.md
for the full breakdown.
"""

import dataclasses
import json
import os
import time
from pathlib import Path

import pytest

from repro.experiments.config import SystemConfig
from repro.experiments.figures import figure10
from repro.experiments.runner import Runner, run_mix
from repro.workloads.mixes import MIXES

#: Mixes measured individually: the memory-bound column of figure 10
#: (where cycle-skipping pays) plus the ILP-heavy worst case.
_CASE_MIXES = ("2-MEM", "4-MEM", "8-MEM", "8-MIX")
_REPEATS = 3


def _budget() -> int:
    return int(os.environ.get("REPRO_BENCH_INSTRUCTIONS", "2500"))


def _config(instructions: int, engine: str) -> SystemConfig:
    return SystemConfig(
        scale=8,
        instructions_per_thread=instructions,
        warmup_instructions=max(200, instructions // 4),
        seed=2005,
        engine=engine,
    )


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.process_time()
        fn()
        best = min(best, time.process_time() - t0)
    return best


def _measure_pair(ref_fn, fast_fn, repeats: int, sampled_fn=None) -> dict:
    """Interleave single-sample measurements of the engines."""
    ref_best = fast_best = sampled_best = float("inf")
    for _ in range(repeats):
        t0 = time.process_time()
        ref_fn()
        ref_best = min(ref_best, time.process_time() - t0)
        t0 = time.process_time()
        fast_fn()
        fast_best = min(fast_best, time.process_time() - t0)
        if sampled_fn is not None:
            t0 = time.process_time()
            sampled_fn()
            sampled_best = min(sampled_best, time.process_time() - t0)
    stats = {
        "ref_s": round(ref_best, 3),
        "fast_s": round(fast_best, 3),
        "speedup": round(ref_best / fast_best, 3),
    }
    if sampled_fn is not None:
        stats["sampled_s"] = round(sampled_best, 3)
        stats["sampled_speedup"] = round(ref_best / sampled_best, 3)
    return stats


def run_bench(
    instructions: int | None = None,
    repeats: int = _REPEATS,
    full_fig10: bool = False,
) -> dict:
    budget = instructions or _budget()
    cases = {}
    for mix in _CASE_MIXES:
        apps = MIXES[mix].apps
        ref_cfg = _config(budget, "reference")
        fast_cfg = _config(budget, "fast")
        sampled_cfg = _config(budget, "sampled")
        # At this tiny budget the sampled engine degenerates to nearly
        # all-detailed windows, so its ratio tracks the fast engine's;
        # BENCH_sampling.json measures it at a budget where fast-forward
        # regions dominate.  Recorded here so all three engines share
        # one table.
        cases[f"mix_{mix}"] = _measure_pair(
            lambda: run_mix(ref_cfg, apps),
            lambda: run_mix(fast_cfg, apps),
            repeats,
            sampled_fn=lambda: run_mix(sampled_cfg, apps),
        )
    if full_fig10:
        # Fresh Runner per run: the result cache deliberately ignores
        # the engine (bit-identity contract), so a shared runner would
        # hand the second engine the first engine's cached results.
        cases["fig10_end_to_end"] = _measure_pair(
            lambda: figure10(
                config=_config(budget, "reference"), runner=Runner()
            ),
            lambda: figure10(config=_config(budget, "fast"), runner=Runner()),
            repeats=1,
        )
    return {
        "budget_instructions": budget,
        "repeats": repeats,
        "timer": "process_time, interleaved best-of-N",
        "cases": cases,
    }


def _report(stats: dict) -> str:
    lines = [
        f"engine speedup @ {stats['budget_instructions']} "
        f"instructions/thread (best of {stats['repeats']}):"
    ]
    for name, c in stats["cases"].items():
        line = (
            f"  {name:<18} ref {c['ref_s'] * 1e3:7.0f}ms   "
            f"fast {c['fast_s'] * 1e3:7.0f}ms   x{c['speedup']:.2f}"
        )
        if "sampled_s" in c:
            line += (
                f"   sampled {c['sampled_s'] * 1e3:7.0f}ms"
                f"   x{c['sampled_speedup']:.2f}"
            )
        lines.append(line)
    return "\n".join(lines)


@pytest.mark.slow
def test_engine_speedup():
    stats = run_bench()
    print()
    print(_report(stats))
    cases = stats["cases"]
    # Regression floors, deliberately below the measured ratios (see
    # BENCH_engine.json) so machine noise cannot flake the lane: the
    # fast engine must clearly win where stalls dominate and must
    # never lose elsewhere.
    assert cases["mix_8-MEM"]["speedup"] > 1.2
    assert cases["mix_4-MEM"]["speedup"] > 1.0
    for name, c in cases.items():
        assert c["speedup"] > 0.85, f"{name}: fast engine regressed ({c})"


if __name__ == "__main__":
    stats = run_bench(full_fig10=True)
    print(_report(stats))
    out = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    out.write_text(json.dumps(stats, indent=2) + "\n")
    print(f"wrote {out}")
