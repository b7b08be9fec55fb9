"""Import-set pins: each entry point loads only the modules its work runs.

Every case imports one entry point in a fresh interpreter and lists
which of a set of forbidden modules ended up in ``sys.modules``.  The
DRAM model must not pull in the experiment harness, the lint engine,
the service stack, the process pool or the run-manifest and trace
code; the figure driver must not pull in the lint engine, the service
or ``multiprocessing``; planning a campaign must not pull in the HTTP
stack; the CLI module must not compile the lint engine or the HTTP
API just to build its parser; and running a mix must not load the
differential oracle.  Separately, the core and the ``repro.engine``
modules each import alone: ``repro.cpu.core`` imports the stream memo
from ``repro.engine.fast``, so an import of the core from
``repro/engine/__init__.py`` would be a cycle.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys
{statement}
prefixes = {prefixes!r}
print(json.dumps(sorted(
    name for name in sys.modules
    if any(name == p or name.startswith(p + ".") for p in prefixes)
)))
"""

CASES = {
    "dram": (
        "import repro.dram.system",
        [f"repro.{package}" for package in (
            "experiments", "analysis", "service", "cpu", "cache",
            "workloads", "engine", "faults",
        )] + [
            "repro.telemetry.manifest", "repro.telemetry.tracer",
            "multiprocessing", "concurrent.futures",
        ],
    ),
    "figures+runner": (
        "from repro.experiments import figures\n"
        "from repro.experiments.runner import Runner",
        ["repro.analysis", "repro.service", "multiprocessing", "http.server"],
    ),
    "service.jobs": (
        "from repro.service.jobs import campaign_jobs",
        ["repro.service.api", "repro.service.client",
         "repro.service.scheduler", "repro.service.store", "http.server"],
    ),
    "experiments.cli": (
        "import repro.experiments.cli",
        ["repro.analysis.dataflow", "repro.service.api"],
    ),
    "runner": (
        "from repro.experiments.runner import run_mix",
        ["repro.engine.oracle"],
    ),
}


def loaded(statement: str, prefixes: list[str]) -> list[str]:
    """The modules under ``prefixes`` that ``statement`` loads."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c",
         _PROBE.format(statement=statement, prefixes=prefixes)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)


@pytest.mark.parametrize("case", sorted(CASES))
def test_entry_point_loads_only_what_it_runs(case):
    statement, forbidden = CASES[case]
    assert loaded(statement, forbidden) == []


def test_probe_sees_what_it_looks_for():
    """The probe itself works: a forbidden import does show up."""
    assert loaded("import repro.experiments.cli", ["repro.experiments"]) != []


@pytest.mark.parametrize(
    "module",
    ["repro.cpu.core", "repro.engine", "repro.engine.fast",
     "repro.engine.oracle"],
)
def test_core_and_engine_modules_import_alone(module):
    assert loaded(f"import {module}", [module]) == [module]
