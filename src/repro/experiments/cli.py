"""Command-line interface: ``python -m repro <experiment>``.

Examples
--------
Run one figure at the default (paper Table 1) configuration::

    python -m repro fig6

Run quickly at a reduced instruction budget, on a subset of mixes::

    python -m repro fig10 --instructions 3000 --mixes 2-MEM 4-MEM

Run a single mix and print raw statistics::

    python -m repro mix 4-MEM --scheduler request-based
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.analysis.cli import add_lint_arguments, run_lint
from repro.common.errors import JobFailureError
from repro.engine import ENGINE_NAMES
from repro.experiments.config import SystemConfig
from repro.experiments.figures import (
    ABLATIONS,
    EXPERIMENTS,
    REGISTRY,
    run_experiment,
)
from repro.experiments.resilience import JobLog, RetryPolicy
from repro.experiments.runner import Runner, new_sanitizer, run_mix
from repro.faults import plan_from_env
from repro.telemetry import EventTracer, Telemetry
from repro.telemetry.manifest import (
    RunManifest,
    RunRecord,
    default_manifest_dir,
)
from repro.workloads.mixes import MIXES, all_mix_names


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--instructions", type=int, default=None,
        help="measured instructions per thread (default: config default)",
    )
    parser.add_argument(
        "--warmup", type=int, default=None,
        help="warm-up instructions per thread",
    )
    parser.add_argument("--seed", type=int, default=None, help="random seed")
    parser.add_argument(
        "--scale", type=int, default=None,
        help="cache/footprint scale divisor (default 8)",
    )
    parser.add_argument(
        "--scheduler", default=None,
        help="DRAM scheduler (fcfs, read-first, hit-first, age-based, "
        "request-based, rob-based, iq-based, critical-first)",
    )
    parser.add_argument(
        "--fetch-policy", default=None,
        help="fetch policy (round-robin, icount, stall, dg, dwarn)",
    )
    parser.add_argument("--channels", type=int, default=None)
    parser.add_argument("--gang", type=int, default=None)
    parser.add_argument("--dram", choices=("ddr", "rdram"), default=None)
    parser.add_argument(
        "--mapping", choices=("page", "xor", "color-xor"), default=None
    )
    parser.add_argument("--page-mode", choices=("open", "close"), default=None)
    parser.add_argument(
        "--controller", choices=("request", "command"), default=None,
        help="DRAM controller model (request-level or command-level)",
    )
    parser.add_argument(
        "--vm", choices=("none", "bin-hopping", "page-coloring", "random"),
        default=None, help="virtual-memory page allocation policy",
    )
    parser.add_argument(
        "--engine", choices=ENGINE_NAMES, default=None,
        help="execution engine (fast: the SMT core plus the "
        "stalled-window skip kernel and the stream memo, the default; "
        "reference: the same core with neither; bit-identical "
        "by contract, enforced by 'engine-diff')",
    )


def _add_sanitize_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sanitize", action="store_true",
        help="check protocol/accounting invariants throughout every "
        "simulation (observe-only: results are bit-identical; fails "
        "on any violation)",
    )


def _add_manifest_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--manifest-dir", default=None, metavar="PATH",
        help="directory for run manifests (default: $REPRO_MANIFEST_DIR "
        "or a stable directory under the system temp dir)",
    )


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for independent simulations (default 1: "
        "serial, the reproducible reference path)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="persist simulation results under PATH and reuse them on "
        "later invocations (off by default)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget; a hung worker is killed and the "
        "job retried or the batch aborted (pooled execution only)",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry crashed/timed-out/transiently-failing jobs up to N "
        "times (default 0: fail fast)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted batch from its job log "
        "(<cache-dir>/jobs.jsonl): jobs recorded complete are served from "
        "the result cache without re-simulating (requires --cache-dir; "
        "results are bit-identical to an uninterrupted run)",
    )
    parser.add_argument(
        "--remote", default=None, metavar="URL",
        help="run every simulation on a remote repro service at URL "
        "(see 'repro serve'); results are bit-identical to local runs",
    )
    parser.add_argument(
        "--remote-store", default=None, metavar="PATH",
        help="like --remote, discovering the URL from the server.json "
        "a running 'repro serve --store PATH' advertises there",
    )
    _add_sanitize_argument(parser)
    _add_manifest_argument(parser)


def _make_runner(args: argparse.Namespace) -> Runner:
    remote = getattr(args, "remote", None)
    remote_store = getattr(args, "remote_store", None)
    if remote or remote_store:
        from repro.service.client import ServiceClient, ServiceRunner

        return ServiceRunner(
            ServiceClient(url=remote, store_dir=remote_store)
        )
    cache_dir = getattr(args, "cache_dir", None)
    resume = getattr(args, "resume", False)
    if resume and not cache_dir:
        raise SystemExit(
            "error: --resume needs --cache-dir (completed jobs are "
            "served from the persistent result store)"
        )
    cache = None
    if cache_dir:
        from repro.service.store import ResultStore

        cache = ResultStore(cache_dir)
    return Runner(
        jobs=getattr(args, "jobs", 1) or 1,
        cache=cache,
        sanitize=getattr(args, "sanitize", False),
        retry_policy=RetryPolicy(
            retries=getattr(args, "retries", 0) or 0,
            timeout_s=getattr(args, "timeout", None),
        ),
        journal=(
            JobLog(Path(cache_dir) / "jobs.jsonl", resume=True)
            if resume else None
        ),
        fault_plan=plan_from_env(),
    )


def _close_runner(runner: Runner) -> None:
    """Close the service connections a ``--remote`` runner holds."""
    client = getattr(runner, "client", None)  # ServiceRunner only
    if client is not None:
        client.close()


def _config_from_args(args: argparse.Namespace) -> SystemConfig:
    overrides = {}
    mapping = {
        "instructions": "instructions_per_thread",
        "warmup": "warmup_instructions",
        "seed": "seed",
        "scale": "scale",
        "scheduler": "scheduler",
        "fetch_policy": "fetch_policy",
        "channels": "channels",
        "gang": "gang",
        "dram": "dram_type",
        "mapping": "mapping",
        "page_mode": "page_mode",
        "controller": "controller_model",
        "vm": "vm_policy",
        "engine": "engine",
    }
    for arg_name, field_name in mapping.items():
        value = getattr(args, arg_name, None)
        if value is not None:
            overrides[field_name] = value
    return SystemConfig(**overrides)


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro-smt-dram",
        description="Reproduction of Zhu & Zhang, 'A Performance Comparison "
        "of DRAM Memory System Optimizations for SMT Processors' (HPCA 2005)",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, spec in REGISTRY.items():
        p = sub.add_parser(name, help=spec.summary)
        _add_config_arguments(p)
        _add_engine_arguments(p)
        p.add_argument(
            "--mixes", nargs="+", default=None,
            help=f"subset of workload mixes ({', '.join(all_mix_names())})",
        )
        p.add_argument(
            "--csv", default=None, metavar="PATH",
            help="also write the result rows as CSV",
        )

    p = sub.add_parser("mix", help="run one workload mix and print statistics")
    p.add_argument("mix_name", choices=all_mix_names())
    _add_config_arguments(p)
    _add_sanitize_argument(p)
    _add_manifest_argument(p)
    p.add_argument(
        "--telemetry", action="store_true",
        help="run with a live metric registry and print a summary",
    )
    p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="also record an event trace and write it to PATH",
    )
    p.add_argument(
        "--trace-format", choices=("chrome", "jsonl"), default="chrome",
        help="trace export format (chrome: open in ui.perfetto.dev)",
    )
    p.add_argument(
        "--trace-capacity", type=int, default=1 << 16, metavar="N",
        help="event ring-buffer size; oldest events drop beyond this",
    )

    p = sub.add_parser(
        "trace",
        help="run one mix with cycle-level event tracing and export it",
    )
    p.add_argument("mix_name", choices=all_mix_names())
    _add_config_arguments(p)
    _add_sanitize_argument(p)
    _add_manifest_argument(p)
    p.add_argument(
        "--trace-out", default="trace.json", metavar="PATH",
        help="output path (default trace.json)",
    )
    p.add_argument(
        "--trace-format", choices=("chrome", "jsonl"), default="chrome",
        help="trace export format (chrome: open in ui.perfetto.dev)",
    )
    p.add_argument(
        "--trace-capacity", type=int, default=1 << 16, metavar="N",
        help="event ring-buffer size; oldest events drop beyond this",
    )

    p = sub.add_parser("all", help="run every figure (full evaluation)")
    _add_config_arguments(p)
    _add_engine_arguments(p)
    p.add_argument("--mixes", nargs="+", default=None)

    p = sub.add_parser(
        "report",
        help="run experiments and write a markdown report",
    )
    _add_config_arguments(p)
    _add_engine_arguments(p)
    p.add_argument("--out", default="report.md", help="output path")
    p.add_argument(
        "--experiments", nargs="+", default=None,
        help="subset of experiment names (default: all figures)",
    )
    p.add_argument(
        "--ablations", action="store_true",
        help="include the ablation studies",
    )

    p = sub.add_parser(
        "engine-diff",
        help="differential engine oracle: run the reference and fast "
        "engines over the fig10 sweep and fail on the first divergence",
    )
    _add_config_arguments(p)
    p.add_argument(
        "--mixes", nargs="+", default=None,
        help="subset of workload mixes to sweep (default: the fig10 "
        "memory-bound mixes)",
    )
    p.add_argument(
        "--fail-fast", action="store_true",
        help="stop at the first diverging configuration (the CI mode)",
    )

    p = sub.add_parser(
        "lint",
        help="run the determinism linter (see repro.analysis)",
    )
    add_lint_arguments(p)

    from repro.service.cli import add_service_parsers

    add_service_parsers(sub)

    sub.add_parser("list", help="list experiments and workload mixes")
    return parser


def _print_runner_manifest(runner: Runner, args: argparse.Namespace) -> None:
    path = runner.write_manifest(getattr(args, "manifest_dir", None))
    print(f"[manifest: {path}]")
    journal = getattr(runner, "journal", None)
    if journal is not None:
        journal.close()
        print(f"[job log: {journal.path}]")


def _print_resilience_summary(runner: Runner) -> None:
    stats = runner.resilience
    if stats.eventful:
        c = stats.counters()
        print(
            "[resilience: "
            f"{c['resumed_jobs']} resumed, {c['retries']} retries, "
            f"{c['timeouts']} timeouts, {c['worker_crashes']} crashes, "
            f"{c['pool_rebuilds']} pool rebuilds, "
            f"{c['serial_fallbacks']} serial fallbacks]"
        )


def _batch_failure(runner: Runner, exc: JobFailureError) -> int:
    """Report an aborted batch; exit code 3 (resumable operational failure)."""
    print(f"error: {exc}", file=sys.stderr)
    journal = getattr(runner, "journal", None)
    if journal is not None:
        journal.close()
        print(
            f"[job log: {journal.path}] completed work is safe; "
            "rerun with --resume to continue from it",
            file=sys.stderr,
        )
    return 3


def _print_single_run_manifest(
    config: SystemConfig,
    apps: tuple[str, ...],
    telemetry: Telemetry | None,
    wall_time_s: float,
    args: argparse.Namespace,
) -> None:
    manifest = RunManifest(
        records=[
            RunRecord.from_run(config, apps, wall_time_s=wall_time_s)
        ],
        metrics=(
            telemetry.snapshot()
            if telemetry is not None and telemetry.registry.enabled
            else {}
        ),
        wall_time_s=wall_time_s,
    )
    directory = getattr(args, "manifest_dir", None) or default_manifest_dir()
    print(f"[manifest: {manifest.write(directory)}]")


def _maybe_sanitized_run(
    config: SystemConfig,
    apps: tuple[str, ...],
    telemetry: Telemetry | None,
    args: argparse.Namespace,
):
    """Run one mix, under a sanitizer when ``--sanitize`` was given.

    Returns ``(result, sanitizer)``; the sanitizer is ``None`` for
    plain runs.
    """
    if not getattr(args, "sanitize", False):
        return run_mix(config, apps, telemetry=telemetry), None
    sanitizer = new_sanitizer(telemetry)
    result = run_mix(config, apps, telemetry=telemetry, sanitizer=sanitizer)
    return result, sanitizer


def _run_figures(names: list[str], args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    runner = _make_runner(args)
    try:
        for name in names:
            start = time.perf_counter()
            result = run_experiment(
                name, config=config, runner=runner,
                mixes=getattr(args, "mixes", None),
            )
            print(result.render())
            csv_path = getattr(args, "csv", None)
            if csv_path:
                result.save_csv(csv_path)
                print(f"[rows written to {csv_path}]")
            print(f"[{name} completed in {time.perf_counter() - start:.1f}s]")
            print()
    except JobFailureError as exc:
        return _batch_failure(runner, exc)
    finally:
        _close_runner(runner)
    _print_resilience_summary(runner)
    _print_runner_manifest(runner, args)
    return 0


def _run_engine_diff(args: argparse.Namespace) -> int:
    """The ``engine-diff`` oracle sweep; exit 0 only on zero divergence.

    Exit codes: 0 all configurations pass, 1 at least one divergence.
    """
    from repro.engine.oracle import run_fig10_sweep, summarize

    config = _config_from_args(args)
    start = time.perf_counter()
    reports = run_fig10_sweep(
        config=config,
        mixes=getattr(args, "mixes", None),
        progress=lambda report: print(report.render(), flush=True),
        fail_fast=args.fail_fast,
    )
    print(f"[swept {len(reports)} configurations "
          f"in {time.perf_counter() - start:.1f}s]")
    print(summarize(reports))
    return 0 if all(r.identical for r in reports) else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "lint":
        return run_lint(args)
    from repro.service.cli import SERVICE_COMMANDS, run_service_command

    if args.command in SERVICE_COMMANDS:
        return run_service_command(args)
    if args.command == "engine-diff":
        return _run_engine_diff(args)
    if args.command == "list":
        print("experiments:")
        for name, spec in EXPERIMENTS.items():
            print(f"  {name:<8} {spec.summary}")
        print("\nablations:")
        for name, spec in ABLATIONS.items():
            print(f"  {name:<18} {spec.summary}")
        print("\nworkload mixes (Table 2):")
        for name in all_mix_names():
            print(f"  {name:<6} {', '.join(MIXES[name].apps)}")
        return 0
    if args.command == "trace":
        config = _config_from_args(args)
        apps = MIXES[args.mix_name].apps
        tracer = EventTracer(capacity=args.trace_capacity)
        telemetry = Telemetry(tracer=tracer)
        start = time.perf_counter()
        result, sanitizer = _maybe_sanitized_run(
            config, apps, telemetry, args
        )
        wall = time.perf_counter() - start
        if args.trace_format == "chrome":
            tracer.write_chrome(args.trace_out)
        else:
            tracer.write_jsonl(args.trace_out)
        print(
            f"{args.mix_name}: {result.core.cycles} cycles, "
            f"{tracer.emitted} events recorded "
            f"({tracer.dropped} dropped by the ring buffer)"
        )
        print(f"[trace written to {args.trace_out} ({args.trace_format})]")
        _print_single_run_manifest(config, apps, telemetry, wall, args)
        if sanitizer is not None:
            print(sanitizer.report())
            if not sanitizer.ok:
                return 1
        return 0
    if args.command == "mix":
        config = _config_from_args(args)
        apps = MIXES[args.mix_name].apps
        tracer = (
            EventTracer(capacity=args.trace_capacity)
            if args.trace_out else None
        )
        telemetry = None
        if args.telemetry or tracer is not None:
            telemetry = Telemetry(tracer=tracer)
        start = time.perf_counter()
        result, sanitizer = _maybe_sanitized_run(
            config, apps, telemetry, args
        )
        wall = time.perf_counter() - start
        print(result.core)
        if result.dram is not None:
            stats = result.dram
            print(
                f"DRAM: {stats.reads} reads, {stats.writes} writes, "
                f"row-buffer hit rate {stats.row_hit_rate:.1%}, "
                f"avg read latency {stats.avg_read_latency:.0f} cycles"
            )
        h = result.hierarchy
        print(
            f"caches: L1D {h.l1d_hit_rate:.1%}, L2 {h.l2_hit_rate:.1%}, "
            f"L3 {h.l3_hit_rate:.1%} hit rates"
        )
        stalls = result.core.stall_cycles
        if stalls:
            total = sum(stalls.values())
            denominator = max(1, result.core.cycles * len(result.apps))
            detail = ", ".join(
                f"{k}={v}" for k, v in stalls.items() if v
            ) or "none"
            print(
                f"front-end stalls: {min(1.0, total / denominator):.1%} "
                f"of thread-cycles ({detail})"
            )
        print(
            f"issue coverage: {result.core.int_issue_coverage:.1%} of "
            f"cycles issued an integer op"
        )
        if telemetry is not None and args.telemetry:
            snap = telemetry.snapshot()
            print(
                f"telemetry: {len(snap['counters'])} counters, "
                f"{len(snap['gauges'])} gauges, "
                f"{len(snap['histograms'])} histograms, "
                f"{len(snap['series'])} series"
            )
        if tracer is not None:
            if args.trace_format == "chrome":
                tracer.write_chrome(args.trace_out)
            else:
                tracer.write_jsonl(args.trace_out)
            print(
                f"[trace written to {args.trace_out} ({args.trace_format})]"
            )
        _print_single_run_manifest(config, apps, telemetry, wall, args)
        if sanitizer is not None:
            print(sanitizer.report())
            if not sanitizer.ok:
                return 1
        return 0
    if args.command == "all":
        return _run_figures(list(EXPERIMENTS), args)
    if args.command == "report":
        from repro.experiments.report import generate_report

        unknown = [e for e in (args.experiments or []) if e not in REGISTRY]
        if unknown:
            print(
                f"error: unknown experiment(s): {', '.join(unknown)}; "
                f"run 'list' to see what is available",
                file=sys.stderr,
            )
            return 2
        runner = _make_runner(args)
        try:
            text = generate_report(
                config=_config_from_args(args),
                experiments=args.experiments,
                include_ablations=args.ablations,
                runner=runner,
                progress=lambda name: print(f"running {name}..."),
            )
        except JobFailureError as exc:
            return _batch_failure(runner, exc)
        finally:
            _close_runner(runner)
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"report written to {args.out}")
        _print_resilience_summary(runner)
        _print_runner_manifest(runner, args)
        return 0
    return _run_figures([args.command], args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
