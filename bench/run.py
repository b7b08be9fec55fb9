#!/usr/bin/env python3
"""The repo's benchmark: one command, four workloads, every metric by name.

    python3 bench/run.py [--workload NAME] [--seed 2005] [--seconds 30]
                         [--trace 0|1] [--smoke] [--out FILE]

Each workload runs as a sequence of **passes, every pass in its own
fresh child process** (so the ``repro.engine.fast`` stream memo, the
import cache and RSS start cold, as they do for a CLI user), one after
the other, until the ``--seconds`` window is used up.  End-to-end
metrics are medians over the untraced passes.  ``--trace 1`` alternates
untraced passes (the base of ``trace.overhead_ratio``) with passes
under the outside-in tracer of ``bench/trace.py``; per-layer metrics
are medians over the traced passes.

Host time is ``time.process_time()`` (``host_cpu_s``) and
``time.perf_counter()`` (``wall_s``); everything counted in cycles or
instructions is *simulated*.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` for the (last)
workload run; with ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
# Run as a script, sys.path[0] is bench/ itself: swap it for the repo
# root so these files import as the ``bench`` package and bench/trace.py
# never shadows the stdlib's ``trace``.
if Path(sys.path[0]).resolve() == BENCH:
    sys.path[0] = str(BENCH.parent)
if str(SRC) not in sys.path:
    sys.path.insert(1, str(SRC))

from bench.metrics import (  # noqa: E402 - needs the path set above
    DEFAULT_SEED, END_TO_END, EXACT_REPEAT, PER_LAYER, RUN_SECONDS, WORKLOADS,
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="budgets / 10, one pass per workload")
    parser.add_argument("--out", type=Path,
                        help="write the full report (per-pass samples, "
                             "per-layer table, machine context) as JSON")
    # Internal: one pass inside a child process.
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--oracle", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# child: one pass


def child_main(args) -> int:
    tracer = None
    if args.trace:
        from bench.trace import Tracer

        # Before any simulator object exists, so bound methods taken at
        # construction time already see the wrappers.
        tracer = Tracer().install()
    from bench.workloads import OUT_DIR, WORKLOADS as CLASSES

    workload = CLASSES[args.workload]()
    try:
        workload.setup(args.seed, args.smoke)
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        if tracer is not None:
            tracer.set_phase("run")
            with tracer.span("bench", "pass"):
                workload.run(tracer)
        else:
            workload.run(None)
        wall_s = time.perf_counter() - wall0
        cpu_s = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
        workload.finish()
        if args.oracle:
            workload.check_oracle()
    finally:
        workload.teardown()
    work_cpu_s = workload.work_cpu_s or cpu_s
    report = {
        "traced": bool(tracer),
        "attempted": workload.attempted,
        "failed": workload.failed,
        "failures": workload.failures[:20],
        "sim_stats_digest": workload.sim_stats_digest,
        "op_samples": len(workload.op_ms),
        "end_to_end": {
            "setup_s": wall0 - args.spawned_at,
            "wall_s": wall_s,
            "host_cpu_s": cpu_s,
            "kops_per_cpu_s": workload.work_k / work_cpu_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_p50_ms": statistics.median(workload.op_ms),
        },
    }
    if tracer is not None:
        from bench.trace import layer_metrics

        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(
            (k, v) for k, v in layer_metrics(tracer).items() if k in layers
        )
        layers.update(workload.sim)
        instr, cycles = layers["cpu.instr_committed"], layers["cpu.sim_cycles"]
        layers["cpu.ns_per_instr"] = (
            layers["cpu.self_s"] * 1e9 / instr if instr else 0.0
        )
        layers["cpu.ns_per_sim_cycle"] = (
            layers["cpu.self_s"] * 1e9 / cycles if cycles else 0.0
        )
        report["per_layer"] = {name: layers[name] for name in PER_LAYER}
        report["self_seconds"] = tracer.self_seconds()
        tracer.dump(OUT_DIR / f"trace-{args.workload}.json", args.workload)
    print(json.dumps(report))
    return 0


# ----------------------------------------------------------------------
# parent: passes, medians, report


def spawn_pass(name: str, args, traced: bool, oracle: bool) -> dict:
    command = [
        sys.executable, str(BENCH / "run.py"), "--child",
        "--workload", name, "--seed", str(args.seed),
        "--trace", str(int(traced)),
        "--spawned-at", repr(time.perf_counter()),
    ]
    if args.smoke:
        command.append("--smoke")
    if oracle:
        command.append("--oracle")
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=150
    )
    if done.returncode != 0:
        raise SystemExit(
            f"bench: {name} pass exited with code {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, args) -> dict:
    """Run passes of one workload until the window is used; aggregate."""
    window = 0.0 if args.smoke else args.seconds
    start = time.perf_counter()
    passes: list[dict] = []
    cost = {False: 0.0, True: 0.0}  # longest pass so far, by kind
    while True:
        # --trace 1 alternates untraced and traced passes.
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        passes.append(spawn_pass(name, args, traced, oracle=not passes))
        cost[traced] = max(cost[traced], time.perf_counter() - t0)
        next_traced = bool(args.trace) and len(passes) % 2 == 1
        enough = len(passes) >= (2 if args.trace else 1)
        # A traced pass has not been timed yet: assume twice untraced.
        expected = cost[next_traced] or 2 * cost[False]
        if enough and time.perf_counter() - start + expected > window:
            break

    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    samples = {
        metric: [p["end_to_end"][metric] for p in untraced]
        for metric in END_TO_END
    }
    result = {
        "passes": len(untraced),
        "traced_passes": len(traced_passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]][:20],
        "sim_stats_digest": sorted({p["sim_stats_digest"] for p in passes}),
        "op_samples_per_pass": untraced[0]["op_samples"],
        "end_to_end": {
            metric: {
                "value": statistics.median(values),
                "unit": END_TO_END[metric]["unit"],
                "samples": values,
            }
            for metric, values in samples.items()
        },
    }
    if traced_passes:
        layers = {
            metric: statistics.median(
                p["per_layer"][metric] for p in traced_passes
            )
            for metric in PER_LAYER
        }
        layers["trace.overhead_ratio"] = (
            statistics.median(
                p["end_to_end"]["host_cpu_s"] for p in traced_passes
            ) / result["end_to_end"]["host_cpu_s"]["value"]
        )
        result["per_layer"] = {
            metric: {"value": value, "unit": PER_LAYER[metric]["unit"]}
            for metric, value in layers.items()
        }
        result["self_seconds"] = traced_passes[-1]["self_seconds"]
    return result


def print_report(name: str, result: dict) -> None:
    print(f"== {name}: {result['passes']} untraced pass(es), "
          f"{result['traced_passes']} traced; "
          f"{result['attempted']} operations+checks attempted, "
          f"{result['failed']} failed; "
          f"{result['op_samples_per_pass']} latency samples per pass")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")
    digests = result["sim_stats_digest"]
    print(f"   sim_stats_digest {' '.join(digests)}"
          + ("" if len(digests) == 1 else "   (PASSES DISAGREE)"))
    for metric, entry in result["end_to_end"].items():
        print(f"   {metric:<34}{entry['value']:>16.4f} {entry['unit']}")
    for metric, entry in result.get("per_layer", {}).items():
        print(f"   {metric:<34}{entry['value']:>16.4f} {entry['unit']}")
    for phase, row in result.get("self_seconds", {}).items():
        if phase == "setup":
            continue
        total = sum(row.values()) or 1.0
        shares = ", ".join(
            f"{layer} {100 * value / total:.1f}%"
            for layer, value in sorted(row.items(), key=lambda kv: -kv[1])
        )
        print(f"   self-time shares [{phase}]: {shares}")


def machine_context(args) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "timers": {
            "wall_s": "time.perf_counter",
            "host_cpu_s": "time.process_time",
            "trace": "time.perf_counter_ns",
        },

        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "exact_repeat": list(EXACT_REPEAT),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("bench: src/repro not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        results[name] = result = run_workload(name, args)
        print_report(name, result)
        table = result["per_layer"] if args.trace else result["end_to_end"]
        print(json.dumps({
            "correct": result["failed"] == 0
            and len(result["sim_stats_digest"]) == 1,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                metric: {"value": entry["value"], "unit": entry["unit"]}
                for metric, entry in table.items()
            },
        }), flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"context": machine_context(args), "workloads": results},
            indent=1,
        ) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
