"""Golden digests: the reference engine against committed known answers.

Every other engine guarantee is *relative* (fast vs reference); since
the per-µop path exists once, a bug in it moves both engines together
and the differential oracle stays green.  This module pins the
reference engine itself: one SHA-256 per job over everything
``oracle.diff_results`` walks (``core`` incl. the ``extra``
stall/rejection/coverage accounting, ``dram``, ``hierarchy``), for the
45-job fig10 oracle sweep plus the three ILP mixes under ``icount``
(the dispatch-bound shape the sweep lacks), at a tier-1 budget.

``golden_sweep.json`` was generated from the reference engine of the
commit *before* the cores were merged.  A digest mismatch means
simulated behaviour changed; regenerate only for an intentional model
fix, and say so in the PR::

    PYTHONPATH=src python tests/engine/test_golden.py --write
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.engine.oracle import _slot_names, fig10_sweep_jobs
from repro.experiments.config import SystemConfig
from repro.experiments.runner import MixResult, run_mix
from repro.workloads.mixes import MIXES

GOLDEN_PATH = Path(__file__).with_name("golden_sweep.json")

_BASE = SystemConfig(
    scale=32,
    instructions_per_thread=300,
    warmup_instructions=100,
    seed=2005,
    engine="reference",
)


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


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_exactly_the_jobs(golden):
    assert sorted(golden) == sorted(JOBS)
    assert len(JOBS) == 48


@pytest.mark.parametrize("label", list(JOBS))
def test_reference_engine_matches_golden(label, golden):
    assert _digest_of(label) == golden[label], (
        f"{label}: reference-engine results changed; see the module "
        "docstring before regenerating"
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
    GOLDEN_PATH.write_text(
        json.dumps({label: _digest_of(label) for label in JOBS}, indent=1)
        + "\n"
    )
    print(f"wrote {len(JOBS)} digests to {GOLDEN_PATH}")
