"""Golden digests: the one core, shortcuts on and off, against known answers.

Since the per-µop path exists once, a bug in it moves every run
together; this module pins the core itself: one SHA-256 per job over
everything ``oracle.diff_results`` walks (``core`` incl. the ``extra``
stall/rejection/coverage accounting, ``dram``, ``hierarchy``), for the
figure-10 grid (every memory-bound mix x every scheduler the figure
plots), nine single-config variations on 8-MEM that reach the paths
the grid does not, and the three ILP mixes under ``icount`` (the
dispatch-bound shape the grid lacks), at a tier-1 budget.

Every job runs twice against the same digest: with ``SMTCore.shortcuts``
off (tick every cycle, generate µops afresh) and on (the stalled-window
kernel and the stream memo).  That is the differential test the
shortcuts answer to: a kernel that drops an RNG draw or a stall count
fails the shortcuts-on run against a digest the shortcut-free run
still matches.

Three jobs also carry an *occupancy-trace* digest: SHA-256 over the
sequence of ``(now, thread_id, rob_occupancy, iq_occupancy)`` that
``MemoryHierarchy.load`` and ``.store`` receive.  The result digests
see those values only through what the thread-aware DRAM schedulers did
with them; the trace fails on the first access that observes an
issue-queue release out of order inside a cycle (``8-MEM`` at this
budget bounces loads off a full MSHR file, so the retry path is
inside).

``golden_sweep.json`` was generated with the shortcuts off from the
commit *before* the cores were merged, the occupancy traces from the
commit before issue-queue releases were batched per cycle.  A digest
mismatch means simulated behaviour changed; regenerate only for an
intentional model fix, and say so in the PR::

    PYTHONPATH=src python tests/engine/test_golden.py --write
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.cpu.core import SMTCore
from repro.engine.oracle import _slot_names
from repro.experiments.config import SystemConfig
from repro.experiments.figures import FIG10
from repro.experiments.runner import MixResult, build_system, run_mix
from repro.workloads.mixes import MIXES

GOLDEN_PATH = Path(__file__).with_name("golden_sweep.json")

_BASE = SystemConfig(
    scale=32,
    instructions_per_thread=300,
    warmup_instructions=100,
    seed=2005,
)


def _with_core(config: SystemConfig, **core_overrides) -> SystemConfig:
    return config.with_(
        core=dataclasses.replace(config.core, **core_overrides)
    )


#: Single-config variations on the grid's last mix, covering what
#: figure 10 does not reach: the command-level controller, close-page
#: mode, RDRAM timing/geometry, timeline sampling, the hybrid branch
#: predictor, and every fetch policy.
EXTRA_VARIATIONS = (
    ("command-controller", lambda c: c.with_(controller_model="command")),
    ("close-page", lambda c: c.with_(page_mode="close")),
    ("rdram", lambda c: c.with_(dram_type="rdram")),
    ("sampling", lambda c: _with_core(c, sample_interval=200)),
    ("branch-pred", lambda c: _with_core(c, branch_predictor=True)),
    ("round-robin", lambda c: c.with_(fetch_policy="round-robin")),
    ("icount", lambda c: c.with_(fetch_policy="icount")),
    ("stall", lambda c: c.with_(fetch_policy="stall")),
    ("dg", lambda c: c.with_(fetch_policy="dg")),
)


def fig10_sweep_jobs(
    config: SystemConfig,
) -> list[tuple[str, SystemConfig, tuple[str, ...]]]:
    """``(label, config, apps)``: the figure-10 grid, then the extra
    variations on its last mix."""
    jobs = [
        (f"{mix_name} {overrides['scheduler']}",
         config.with_(scheduler=overrides["scheduler"]),
         MIXES[mix_name].apps)
        for mix_name in FIG10.rows
        for _header, overrides in FIG10.columns
    ]
    variation_mix = MIXES[FIG10.rows[-1]]
    jobs.extend(
        (f"{variation_mix.name} {label}", vary(config), variation_mix.apps)
        for label, vary in EXTRA_VARIATIONS
    )
    return jobs


def _jobs() -> dict[str, tuple[SystemConfig, tuple[str, ...]]]:
    jobs = {
        label: (config, apps)
        for label, config, apps in fig10_sweep_jobs(_BASE)
    }
    for name in ("2-ILP", "4-ILP", "8-ILP"):
        jobs[f"{name} icount"] = (
            _BASE.with_(fetch_policy="icount"), MIXES[name].apps
        )
    return jobs


JOBS = _jobs()

#: Jobs whose hierarchy-observed occupancies are pinned access by
#: access: the IQ-based scheduler's own input, a ROB-based run with
#: MSHR-retry traffic, and the widest dispatch-bound mix.
TRACED = ("4-MEM iq-based", "8-MEM rob-based", "8-MIX request-based")
TRACE_PREFIX = "occupancy-trace "


def _canonical(value: object) -> object:
    """Plain nested lists/strings covering what ``diff_values`` walks:
    dataclasses by field, mappings by key, sequences by index, plain
    objects by ``__slots__``/``__dict__``; leaves by ``repr`` (exact
    for floats)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [
            [f.name, _canonical(getattr(value, f.name))]
            for f in dataclasses.fields(value)
        ]
    if isinstance(value, dict):
        return [
            [repr(key), _canonical(value[key])]
            for key in sorted(value, key=repr)
        ]
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, frozenset):
        return sorted(repr(item) for item in value)
    names = _slot_names(value)
    if not names or isinstance(
        value, (int, float, str, bytes, bool, type(None))
    ):
        return repr(value)
    return [
        [name, _canonical(getattr(value, name, "<unset>"))]
        for name in sorted(names)
    ]


def result_digest(result: MixResult) -> str:
    canonical = [
        _canonical(result.core),
        _canonical(result.dram),
        _canonical(result.hierarchy),
    ]
    text = json.dumps(canonical, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _digest_of(label: str) -> str:
    config, apps = JOBS[label]
    return result_digest(run_mix(config, apps))


def occupancy_trace_digest(label: str) -> str:
    """Digest of every occupancy pair the hierarchy is handed."""
    config, apps = JOBS[label]
    core, _memory, hierarchy = build_system(config, apps)
    digest = hashlib.sha256()

    def traced(kind: str):
        inner = getattr(hierarchy, kind)

        def access(addr, thread_id, now, rob_occupancy=0, iq_occupancy=0,
                   *args, **kwargs):
            digest.update(
                f"{kind} {now} {thread_id} {rob_occupancy} "
                f"{iq_occupancy}\n".encode()
            )
            return inner(
                addr, thread_id, now, rob_occupancy, iq_occupancy,
                *args, **kwargs
            )

        return access

    hierarchy.load = traced("load")
    hierarchy.store = traced("store")
    core.run(
        config.instructions_per_thread,
        warmup_instructions=config.warmup_instructions,
        max_cycles=config.max_cycles,
    )
    return digest.hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_exactly_the_jobs(golden):
    traces = [TRACE_PREFIX + label for label in TRACED]
    assert sorted(golden) == sorted([*JOBS, *traces])
    assert len(JOBS) == 48


@pytest.mark.parametrize("label", list(JOBS))
def test_reference_engine_matches_golden(label, golden, monkeypatch):
    """Shortcuts off: ticking every cycle on freshly generated µops."""
    monkeypatch.setattr(SMTCore, "shortcuts", False)
    assert _digest_of(label) == golden[label], (
        f"{label}: results without the core's shortcuts changed; see "
        "the module docstring before regenerating"
    )


@pytest.mark.parametrize("label", list(JOBS))
def test_shortcuts_match_golden(label, golden, monkeypatch):
    """Shortcuts on (the default): the kernel and the memo must give
    the digest the shortcut-free run gives."""
    monkeypatch.setattr(SMTCore, "shortcuts", True)
    assert _digest_of(label) == golden[label], (
        f"{label}: the stalled-window kernel or the stream memo "
        "diverged from ticking every cycle"
    )


@pytest.mark.parametrize("label", TRACED)
def test_occupancy_trace_matches_golden(label, golden, monkeypatch):
    for shortcuts in (False, True):
        monkeypatch.setattr(SMTCore, "shortcuts", shortcuts)
        assert (
            occupancy_trace_digest(label) == golden[TRACE_PREFIX + label]
        ), (
            f"{label} (shortcuts={shortcuts}): a load or store observed "
            "different ROB/IQ occupancy than the committed trace "
            "(release order inside a cycle?)"
        )


def test_digest_sees_nested_accounting():
    """The digest must cover ``extra`` and the DRAM histograms, not
    just headline cycles (a digest that cannot change proves nothing)."""
    label = "2-MEM fcfs"
    config, apps = JOBS[label]
    result = run_mix(config, apps)
    base = result_digest(result)
    result.core.extra["stall_cycles"]["rob_full"] += 1
    bumped = result_digest(result)
    assert bumped != base
    result.core.extra["stall_cycles"]["rob_full"] -= 1
    result.dram.outstanding.finish(result.core.cycles + 10_000_000)
    assert result_digest(result) != base


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    SMTCore.shortcuts = False
    digests = {label: _digest_of(label) for label in JOBS}
    for label in TRACED:
        digests[TRACE_PREFIX + label] = occupancy_trace_digest(label)
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
