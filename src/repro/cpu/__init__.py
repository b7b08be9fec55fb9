"""Cycle-level SMT out-of-order core model.

Models the processor of Table 1: 8-wide fetch from up to two threads
per cycle, shared issue queues (64 int / 32 fp), shared load/store
queues, a 256-entry reorder buffer per thread, an 11-stage pipeline
with a 9-cycle branch-mispredict penalty, and four instruction-fetch
policies (ICOUNT, Fetch-Stall, DG, DWarn) plus round-robin.

The model resolves dependences at dispatch against a per-thread
history ring and charges issue-bandwidth contention with per-cycle
issue records; loads interact with the cache/DRAM simulators at their
issue time, so memory contention, MSHR back-pressure, ROB clog and
issue-queue clog all emerge structurally rather than analytically.
"""

from repro.cpu.branch import BranchTargetBuffer, HybridPredictor
from repro.cpu.core import CoreParams, SMTCore
from repro.cpu.fetch import (
    DGPolicy,
    DWarnPolicy,
    FetchPolicy,
    FetchStallPolicy,
    ICountPolicy,
    RoundRobinPolicy,
    fetch_policy_names,
    make_fetch_policy,
)
from repro.cpu.stats import CoreResult, ThreadResult
from repro.cpu.thread import ThreadContext

__all__ = [
    "BranchTargetBuffer",
    "CoreParams",
    "HybridPredictor",
    "CoreResult",
    "DGPolicy",
    "DWarnPolicy",
    "FetchPolicy",
    "FetchStallPolicy",
    "ICountPolicy",
    "RoundRobinPolicy",
    "SMTCore",
    "ThreadContext",
    "ThreadResult",
    "fetch_policy_names",
    "make_fetch_policy",
]
