"""Accuracy and speedup of the sampled engine at a realistic budget.

The exact-engine bench (``bench_engine_speedup.py``) measures at a
tiny budget where cycle-skipping already pays; sampling only pays once
runs are long enough that fast-forward regions dominate detailed
windows, so this bench runs at a much larger budget (default 100k
instructions per thread at the calibration scale 8) and reports, per mix:

* the *aggregate CPI relative error* of the sampled estimate against a
  full reference run — the headline accuracy number of the bounded-
  error contract (``repro engine-diff --candidate sampled``), and
* the wall-clock *speedup* of the sampled run over that reference run.

Error numbers are fully deterministic (both engines are deterministic
simulations of the same seeded workload); only the speedup carries
machine noise.  The committed ``BENCH_sampling.json`` therefore pins
errors exactly and the regression test floors speedup loosely.

The accuracy regime is thread-count dependent (see
docs/performance.md): per-thread window noise averages out across
threads, so the 8-thread memory-bound mix — exactly where sampling is
worth using — meets the 2% bound, while 2-thread mixes do not.  The
floors below gate the headline mix only; the other mixes are recorded
as honest context.

Run as a pytest (marked ``slow``, ~10 minutes — one reference run per
mix) or directly to regenerate the committed snapshot::

    PYTHONPATH=src python benchmarks/bench_sampling.py
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.engine.sampled import SamplingParams
from repro.experiments.config import SystemConfig
from repro.experiments.runner import run_mix
from repro.workloads.mixes import MIXES

#: The headline mix (floored below) plus context mixes (recorded only).
_HEADLINE_MIX = "8-MEM"
_CONTEXT_MIXES = ("4-MEM",)

#: The sampled engine's accuracy bound, as enforced by the CI lane.
_CPI_ERROR_BOUND = 0.02
#: Wall-clock floor for the headline mix, well under the measured
#: ratio (see BENCH_sampling.json) so machine noise cannot flake CI.
_SPEEDUP_FLOOR = 6.0


def _budget() -> int:
    return int(os.environ.get("REPRO_BENCH_SAMPLING_INSTRUCTIONS", "100000"))


def _config(budget: int, engine: str) -> SystemConfig:
    return SystemConfig(
        scale=8,  # the calibration scale (see bench_figures.py)
        instructions_per_thread=budget,
        warmup_instructions=budget // 4,
        seed=2005,
        engine=engine,
    )


def _measure(mix: str, budget: int) -> dict:
    apps = MIXES[mix].apps
    t0 = time.perf_counter()
    ref = run_mix(_config(budget, "reference"), apps)
    ref_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    est = run_mix(_config(budget, "sampled"), apps)
    sampled_s = time.perf_counter() - t0
    thread_errs = [
        abs(e.cycles / e.committed - r.cycles / r.committed)
        / (r.cycles / r.committed)
        for e, r in zip(est.core.threads, ref.core.threads)
    ]
    return {
        "ref_s": round(ref_s, 3),
        "sampled_s": round(sampled_s, 3),
        "speedup": round(ref_s / sampled_s, 3),
        "cpi_rel_err": round(
            abs(est.core.cycles - ref.core.cycles) / ref.core.cycles, 5
        ),
        "max_thread_cpi_rel_err": round(max(thread_errs), 5),
        "windows": est.core.extra["sampling"]["windows"],
        "measured_fraction": round(
            est.core.extra["sampling"]["measured_fraction"], 4
        ),
    }


def run_bench(budget: int | None = None, headline_only: bool = False) -> dict:
    budget = budget or _budget()
    mixes = (_HEADLINE_MIX,) if headline_only else (
        _HEADLINE_MIX, *_CONTEXT_MIXES
    )
    p = SamplingParams()
    return {
        "budget_instructions": budget,
        "scale": 8,
        "engine_pair": ["reference", "sampled"],
        "sampling": {
            "detail_instructions": p.detail_instructions,
            "ff_instructions": p.ff_instructions,
            "window_warmup": p.window_warmup,
            "gap_smoothing": p.gap_smoothing,
        },
        "timer": "perf_counter, single shot (errors are deterministic)",
        "cases": {f"mix_{mix}": _measure(mix, budget) for mix in mixes},
    }


def _report(stats: dict) -> str:
    lines = [
        f"sampled engine @ {stats['budget_instructions']} "
        "instructions/thread:"
    ]
    for name, c in stats["cases"].items():
        lines.append(
            f"  {name:<10} ref {c['ref_s']:6.1f}s   "
            f"sampled {c['sampled_s']:6.1f}s   x{c['speedup']:5.1f}   "
            f"cpi err {c['cpi_rel_err'] * 100:5.2f}%   "
            f"({c['windows']} windows)"
        )
    return "\n".join(lines)


@pytest.mark.slow
def test_sampled_accuracy_and_speedup():
    stats = run_bench(headline_only=True)
    print()
    print(_report(stats))
    headline = stats["cases"][f"mix_{_HEADLINE_MIX}"]
    # Deterministic: this is the bounded-error contract, not a noisy
    # measurement — any drift means the estimator itself changed.
    assert headline["cpi_rel_err"] <= _CPI_ERROR_BOUND, headline
    assert headline["speedup"] > _SPEEDUP_FLOOR, headline


if __name__ == "__main__":
    stats = run_bench()
    print(_report(stats))
    out = Path(__file__).resolve().parent.parent / "BENCH_sampling.json"
    out.write_text(json.dumps(stats, indent=2) + "\n")
    print(f"wrote {out}")
