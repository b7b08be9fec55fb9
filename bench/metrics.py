"""The benchmark's names: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` at the repo root is this catalogue in the driver's
schema (``bench/test_bench.py`` checks the two agree).  The schema has
no room for a metric's layer or for the end-to-end metric it is
expected to move, so those live here: a later perf issue names its
claim and its no-change predictions from ``PER_LAYER[...]["moves"]``.
"""

from __future__ import annotations

RUN_SECONDS = 30
DEFAULT_SEED = 2005

#: name -> why it exists (one line each; the long form is in README.md).
WORKLOADS = {
    "fig10_cold": (
        "cold figure 10 (6 mixes x 6 schedulers + baselines, no disk "
        "cache): every simulator layer runs, stall- and "
        "dispatch-dominated mixes both inside"
    ),
    "ilp_uop": (
        "2/4/8-ILP x icount/dwarn: the shared per-uop path does all the "
        "work, DRAM idle and the skip kernel never opens, so DRAM and "
        "skip-kernel changes must show no change"
    ),
    "dram_direct_rw": (
        "seeded request traces driven closed-loop into MemorySystem "
        "over 5 controller configs, no core or cache: dram + event "
        "queue only, incl. writes, command-level, RDRAM, close page"
    ),
    "served_campaign": (
        "in-process store + scheduler + HTTP server, one closed-loop "
        "client: cold fig10 campaign then warm repeats; the harness "
        "(HTTP, pickling, fsyncs, leases, store reads) is what moves"
    ),
}

#: Every workload reports every one of these (untraced passes only).
#: ``bound`` is the share of the parent's median by which the metric
#: may worsen; see "How the bounds were set" in README.md.
END_TO_END = {
    "setup_s": {
        "unit": "s", "better": "lower", "bound": 0.25,
        "what": "child process spawn -> first timed operation: "
                "interpreter start, imports, trace generation, "
                "server/store start (median over the run's passes)",
    },
    "wall_s": {
        "unit": "s", "better": "lower", "bound": 0.25,
        "what": "perf_counter seconds of one pass of the workload "
                "(on served_campaign: first submit -> last byte of "
                "the last warm pass)",
    },
    "host_cpu_s": {
        "unit": "s", "better": "lower", "bound": 0.25,
        "what": "process_time seconds of one pass (all threads of the "
                "child process)",
    },
    "kops_per_cpu_s": {
        "unit": "kops/s", "better": "higher", "bound": 0.25,
       
        "what": "simulated kilo-operations per host CPU second; an "
                "operation is a committed instruction (fig10_cold, "
                "ilp_uop, cold phase of served_campaign) or a "
                "completed DRAM request (dram_direct_rw)",
    },
    "peak_rss_mb": {
        "unit": "MB", "better": "lower", "bound": 0.25,
        "what": "ru_maxrss of the child process",
    },
    "op_p50_ms": {
        "unit": "ms", "better": "lower", "bound": 0.25,
        "what": "median host latency of one operation: a simulation "
                "job (fig10_cold, ilp_uop), one controller config "
                "drained (dram_direct_rw), one HTTP round trip seen "
                "by the client (served_campaign)",
    },
}

_KOPS_SIM = [("kops_per_cpu_s", "ilp_uop"), ("kops_per_cpu_s", "fig10_cold")]
_CPU_SIM = [("host_cpu_s", "ilp_uop"), ("host_cpu_s", "fig10_cold")]
_DRAM = [("kops_per_cpu_s", "dram_direct_rw")]
_EVENTS = [("kops_per_cpu_s", "dram_direct_rw"), ("host_cpu_s", "fig10_cold"),
           ("host_cpu_s", "ilp_uop")]
_FIG = [("wall_s", "fig10_cold")]
_COLD = [("wall_s", "served_campaign")]
_WARM = [("op_p50_ms", "served_campaign"), ("wall_s", "served_campaign")]

FIG10_MIXES = ("2-MIX", "2-MEM", "4-MIX", "4-MEM", "8-MIX", "8-MEM")


def _layer(layer: str, moves: list, entries: list[tuple]) -> dict:
    return {
        f"{layer}.{name}": {
            "layer": layer, "unit": unit, "better": better, "moves": moves,
        }
        for name, unit, better in entries
    }


#: Per-layer metrics of the traced pass.  ``moves`` lists the
#: (end-to-end metric, workload) pairs the metric is expected to move;
#: every pairing not listed is a no-change prediction.
PER_LAYER: dict[str, dict] = {
    **_layer("workloads", _KOPS_SIM, [
        ("uops_generated", "count", "lower"),
        ("self_s", "s", "lower"),
        ("ns_per_uop", "ns", "lower"),
    ]),
    **_layer("engine", [("host_cpu_s", "fig10_cold"),
                        ("peak_rss_mb", "fig10_cold")], [
        ("uops_replayed", "count", "lower"),
        ("stream_memo_hit_ratio", "ratio", "higher"),
    ]),
    **_layer("cpu", _KOPS_SIM, [
        ("self_s", "s", "lower"),
        ("sim_cycles", "count", "lower"),
        ("instr_committed", "count", "higher"),
        ("ns_per_instr", "ns", "lower"),
        ("ns_per_sim_cycle", "ns", "lower"),
    ]),
    **_layer("cache", _CPU_SIM, [
        ("loads", "count", "lower"),
        ("stores", "count", "lower"),
        ("self_s", "s", "lower"),
        ("ns_per_access", "ns", "lower"),
        ("prewarm_s", "s", "lower"),
        ("l1d_hit_rate", "ratio", "higher"),
        ("l2_hit_rate", "ratio", "higher"),
        ("l3_hit_rate", "ratio", "higher"),
        ("mshr_merges", "count", "higher"),
        ("mshr_rejections", "count", "lower"),
    ]),
    **_layer("dram", _DRAM, [
        ("reads", "count", "lower"),
        ("writes", "count", "lower"),
        ("self_s", "s", "lower"),
        ("ns_per_request", "ns", "lower"),
        ("row_hit_rate", "ratio", "higher"),
        ("avg_read_latency_cycles", "cycles", "lower"),
        ("avg_read_queue_delay_cycles", "cycles", "lower"),
    ]),
    **_layer("common", _EVENTS, [
        ("events_scheduled", "count", "lower"),
        ("events_fired", "count", "lower"),
        ("run_until_calls", "count", "lower"),
        ("run_until_empty_ratio", "ratio", "lower"),
        ("self_s", "s", "lower"),
        ("ns_per_event", "ns", "lower"),
    ]),
    **_layer("experiments", _FIG, [
        ("jobs_planned", "count", "lower"),
        ("jobs_simulated", "count", "lower"),
        ("memo_hits", "count", "higher"),
        ("build_system_s", "s", "lower"),
        ("self_s", "s", "lower"),
        *((f"host_s.{mix}", "s", "lower") for mix in FIG10_MIXES),
        ("host_s.baselines", "s", "lower"),
    ]),
    "metrics.fig10_paper_gap": {
        "layer": "metrics", "unit": "ratio", "better": "lower", "moves": [],
    },
    **_layer("service", _COLD, [
        ("cold_submit_to_last_byte_s", "s", "lower"),
        ("submit_ms_p50", "ms", "lower"),
        ("poll_requests", "count", "lower"),
        ("poll_useful_ratio", "ratio", "higher"),
        ("store_publish_s", "s", "lower"),
        ("pickle_dumps_s", "s", "lower"),
        ("fsyncs", "count", "lower"),
        ("fsync_s", "s", "lower"),
        ("lease_records", "count", "lower"),
        ("queue_wait_s_sum", "s", "lower"),
        ("simulate_s", "s", "lower"),
    ]),
    **_layer("service", _WARM, [
        ("http_requests", "count", "lower"),
        ("fetch_ms_p50", "ms", "lower"),
        ("warm_request_p50_ms", "ms", "lower"),
        ("warm_request_p90_ms", "ms", "lower"),
        ("warm_request_p99_ms", "ms", "lower"),
        ("warm_requests_per_s", "1/s", "higher"),
        ("handler_self_s", "s", "lower"),
        ("store_read_s", "s", "lower"),
        ("pickle_loads_s", "s", "lower"),
        ("payload_bytes", "count", "lower"),
    ]),
    "trace.overhead_ratio": {
        "layer": "trace", "unit": "ratio", "better": "lower", "moves": [],
    },
}

#: Simulated or counted quantities that must repeat exactly between
#: two runs of the same code and seed (bench/compare.py enforces it).
#: ``service.http_requests`` and ``service.lease_records`` are not
#: here: the cold phase polls on a 50 ms timer and leases renew on
#: progress, so both depend on host timing.
EXACT_REPEAT = (
    "cpu.sim_cycles", "cpu.instr_committed", "cache.loads", "cache.stores",
    "dram.reads", "dram.writes", "common.events_fired",
    "common.events_scheduled", "workloads.uops_generated",
    "engine.uops_replayed", "experiments.jobs_planned",
    "experiments.jobs_simulated", "metrics.fig10_paper_gap",
)


def benchmark_json() -> dict:
    """The catalogue in the driver's ``BENCHMARK.json`` schema."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": m["unit"], "better": m["better"],
             "bound": m["bound"]}
            for name, m in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": m["unit"], "better": m["better"]}
            for name, m in PER_LAYER.items()
        ],
    }
