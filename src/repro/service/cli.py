"""CLI verbs for the service: serve / submit / fetch / campaign / cache.

These register as subcommands of the main ``python -m repro`` parser
(see :mod:`repro.experiments.cli`), so the whole serving story is
operable without writing Python::

    repro serve --store /var/repro-store --workers 8 --resume
    repro submit --store /var/repro-store --experiment fig10 --mixes 4-MEM
    repro campaign wait <id> --store /var/repro-store
    repro fetch <key> --store /var/repro-store --out result.pkl
    repro cache stats /var/repro-store

``repro cache`` works on any ``--cache-dir`` ever written by the
experiment engine (the store is a superset of the cache format), so
operators can inspect, verify, and garbage-collect on-disk results —
including the previously ever-growing ``quarantine/`` — with no
service running at all.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import types
from typing import TYPE_CHECKING

from repro.experiments.config import SystemConfig
from repro.experiments.resilience import RetryPolicy
from repro.faults import FAULT_PLAN_ENV, plan_from_env
from repro.service.jobs import DEFAULT_LRU_ENTRIES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.client import ServiceClient

#: Subcommand names this module owns (dispatched from the main CLI).
SERVICE_COMMANDS = ("serve", "submit", "fetch", "campaign", "cache")


def _add_endpoint_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--url", default=None, metavar="URL",
        help="service endpoint, e.g. http://127.0.0.1:8472",
    )
    group.add_argument(
        "--store", default=None, metavar="PATH",
        help="served store directory; the URL is discovered from the "
        "server.json the running server wrote there",
    )


def _client(args: argparse.Namespace) -> ServiceClient:
    from repro.service.client import ServiceClient

    return ServiceClient(url=args.url, store_dir=args.store)


def add_service_parsers(sub: argparse._SubParsersAction) -> None:
    """Register the service subcommands on the main CLI's subparsers."""
    # Imported lazily: this function runs from build_parser, after
    # repro.experiments.cli has fully loaded (module-level would be a
    # circular import).
    from repro.experiments.cli import _add_config_arguments

    p = sub.add_parser(
        "serve",
        help="run the simulation service (scheduler + HTTP result API)",
    )
    p.add_argument(
        "--store", required=True, metavar="PATH",
        help="result-store directory (shared with any --cache-dir user)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=0, metavar="N",
        help="listen port (default 0: pick an ephemeral port and "
        "advertise it in <store>/service/server.json)",
    )
    p.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for cache-miss simulations",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="replay the job log and finish interrupted work instead "
        "of starting a fresh deployment",
    )
    p.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="per-job retry budget: a job that fails N+1 attempts "
        "fails terminally (default 1)",
    )
    p.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-job wall-clock budget for pooled workers; a job "
        "running longer is killed and retried (default 30; must exceed "
        "the slowest legitimate job)",
    )
    p.add_argument(
        "--lru", type=int, default=DEFAULT_LRU_ENTRIES, metavar="N",
        help="in-memory warm-path cache capacity, in results",
    )
    p.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="admission limit: submits past this queue depth are shed "
        "with 429 + Retry-After (default 64)",
    )

    p = sub.add_parser(
        "submit", help="submit a job or a whole campaign to a service"
    )
    _add_endpoint_arguments(p)
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument(
        "--experiment", default=None, metavar="NAME",
        help="submit a whole figure/ablation campaign (e.g. fig10)",
    )
    what.add_argument(
        "--mix", default=None, metavar="NAME",
        help="submit one workload mix (e.g. 4-MEM)",
    )
    what.add_argument(
        "--apps", nargs="+", default=None, metavar="APP",
        help="submit one explicit app list (e.g. mcf ammp)",
    )
    p.add_argument(
        "--mixes", nargs="+", default=None,
        help="mix subset for --experiment campaigns",
    )
    p.add_argument(
        "--wait", action="store_true",
        help="block until the submission completes",
    )
    p.add_argument(
        "--poll-timeout", type=float, default=600.0, metavar="SECONDS",
        help="how long --wait polls before giving up",
    )
    _add_config_arguments(p)

    p = sub.add_parser("fetch", help="fetch one stored result by key")
    p.add_argument("key", help="content-addressed result key")
    _add_endpoint_arguments(p)
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the raw pickled MixResult to PATH instead of "
        "printing a summary",
    )

    p = sub.add_parser("campaign", help="inspect or await a campaign")
    p.add_argument("action", choices=("status", "wait"))
    p.add_argument("campaign_id")
    _add_endpoint_arguments(p)
    p.add_argument(
        "--poll-timeout", type=float, default=600.0, metavar="SECONDS",
        help="how long 'wait' polls before giving up",
    )

    p = sub.add_parser(
        "cache",
        help="inspect/verify/garbage-collect an on-disk result store",
    )
    p.add_argument("action", choices=("stats", "verify", "gc"))
    p.add_argument("store_dir", metavar="PATH")


# ----------------------------------------------------------------------
# command implementations: each imports the service modules it uses, so
# building the parser loads none of them


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.api import AdmissionPolicy, make_server
    from repro.service.client import write_server_info
    from repro.service.scheduler import CampaignScheduler
    from repro.service.store import ResultStore

    store = ResultStore(args.store)
    policy = RetryPolicy(retries=args.retries, timeout_s=args.timeout)
    fault_plan = plan_from_env()
    if fault_plan is not None:
        print(
            f"[fault plan loaded from ${FAULT_PLAN_ENV}: "
            f"{len(fault_plan.specs)} spec(s), seed {fault_plan.seed}]",
            flush=True,
        )
    scheduler = CampaignScheduler(
        store,
        workers=args.workers,
        policy=policy,
        resume=args.resume,
        fault_plan=fault_plan,
    )
    server = make_server(
        scheduler,
        host=args.host,
        port=args.port,
        lru_entries=args.lru,
        admission=AdmissionPolicy(max_queue_depth=args.max_queue),
    )
    write_server_info(args.store, server.url)
    scheduler.start()
    print(
        f"[serving on {server.url} "
        f"(store: {store.cache_dir}, workers: {args.workers}, "
        f"resume: {args.resume})]",
        flush=True,
    )

    def _terminate(signum: int, frame: types.FrameType | None) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("[shutting down]", flush=True)
    finally:
        server.server_close()
        scheduler.stop()
        print(
            "[supervision] " + json.dumps(
                scheduler.sup_stats.as_dict(), sort_keys=True
            ),
            flush=True,
        )
    return 0


def _submit_config(args: argparse.Namespace) -> SystemConfig:
    from repro.experiments.cli import _config_from_args

    return _config_from_args(args)


def _cmd_submit(args: argparse.Namespace) -> int:
    config = _submit_config(args)
    if args.experiment:
        with _client(args) as client:
            status = client.submit_campaign(
                args.experiment, config=config, mixes=args.mixes
            )
            if args.wait and not status.get("complete"):
                status = client.wait_campaign(
                    status["campaign"], timeout=args.poll_timeout
                )
        status = dict(status)
        status.pop("states", None)  # keep the CLI line readable
        print(json.dumps(status, sort_keys=True))
        return 0
    if args.mix:
        from repro.workloads.mixes import MIXES

        if args.mix not in MIXES:
            print(f"error: unknown mix {args.mix!r}", file=sys.stderr)
            return 2
        apps = list(MIXES[args.mix].apps)
    else:
        apps = list(args.apps)
    with _client(args) as client:
        status = client.submit(config, apps)
        if args.wait and status.get("state") != "done":
            status = client.wait_job(status["key"], timeout=args.poll_timeout)
    print(json.dumps(status, sort_keys=True))
    return 0 if status.get("state") in ("done", "queued", "running") else 1


def _cmd_fetch(args: argparse.Namespace) -> int:
    with _client(args) as client:
        if args.out:
            data = client.fetch_bytes(args.key)
            with open(args.out, "wb") as handle:
                handle.write(data)
            print(f"[{len(data)} bytes written to {args.out}]")
            return 0
        result = client.fetch(args.key)
    print(
        json.dumps(
            {
                "key": args.key,
                "apps": list(result.apps),
                "throughput_ipc": result.throughput,
                "ipcs": result.ipcs,
                "cycles": result.core.cycles,
                "row_buffer_miss_rate": result.row_buffer_miss_rate,
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    with _client(args) as client:
        if args.action == "wait":
            status = client.wait_campaign(
                args.campaign_id, timeout=args.poll_timeout
            )
        else:
            status = client.campaign(args.campaign_id)
    status = dict(status)
    status.pop("states", None)
    print(json.dumps(status, sort_keys=True))
    return 0 if status.get("counts", {}).get("failed", 0) == 0 else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.service.store import ResultStore

    store = ResultStore(args.store_dir)
    if args.action == "stats":
        print(json.dumps(store.stats().as_dict(), sort_keys=True))
        return 0
    if args.action == "verify":
        report = store.verify()
        print(json.dumps(report.as_dict(), sort_keys=True))
        return 0 if report.clean else 1
    report = store.gc()
    print(json.dumps(report.as_dict(), sort_keys=True))
    return 0


def run_service_command(args: argparse.Namespace) -> int:
    """Dispatch one of :data:`SERVICE_COMMANDS` (from the main CLI)."""
    from repro.service.client import ServiceError

    try:
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "fetch":
            return _cmd_fetch(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "cache":
            return _cmd_cache(args)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    raise AssertionError(f"not a service command: {args.command}")


__all__ = ["SERVICE_COMMANDS", "add_service_parsers", "run_service_command"]
