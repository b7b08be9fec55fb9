"""A finished run leaves nothing for the cyclic garbage collector.

``run_mix`` closes the system it built, so reference counting frees the
core, the cache hierarchy and the memory system as the call returns,
also when the run raises.  A component that grows a reference cycle
outliving the run fails these tests: its objects stay alive with
automatic collection off and show up as cyclic garbage.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.analysis.sanitizer import SimSanitizer
from repro.dram.system import MemorySystem
from repro.experiments import runner
from repro.workloads.mixes import get_mix

#: name -> (config changes, mix).  Every case ends with events and
#: misses in flight; ``perfect-l3`` (no DRAM at all) also ends with a
#: mispredicted branch unresolved, the others cover both controller
#: models and RDRAM.
CASES = {
    "4-MEM": ({}, "4-MEM"),
    "command-close": (
        {"controller_model": "command", "page_mode": "close"}, "4-MEM"
    ),
    "rdram": ({"dram_type": "rdram"}, "2-MEM"),
    "perfect-l3": ({"perfect_l3": True}, "2-MIX"),
}


@pytest.fixture
def built(monkeypatch):
    """Weak references to every component ``build_system`` returns."""
    refs: list[weakref.ref] = []
    build_system = runner.build_system

    def spy(*args, **kwargs):
        system = build_system(*args, **kwargs)
        refs.extend(weakref.ref(part) for part in system if part is not None)
        return system

    monkeypatch.setattr(runner, "build_system", spy)
    return refs


def _audit(refs, run):
    """Call ``run()`` with automatic collection off.

    Returns the types of the built components still alive once it has
    returned, and the ``repro`` types a collection then finds among
    the cyclic garbage.
    """
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        alive = [type(ref()).__name__ for ref in refs if ref() is not None]
        gc.collect()
        leaked = sorted({
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage
            if type(obj).__module__.startswith("repro.")
        })
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if enabled:
            gc.enable()
    assert refs, "build_system was never called"
    return alive, leaked


@pytest.mark.parametrize("case", sorted(CASES))
def test_finished_run_frees_its_system(tiny_config, built, case):
    changes, mix = CASES[case]
    config = tiny_config.with_(**changes)
    alive, leaked = _audit(
        built, lambda: runner.run_mix(config, get_mix(mix).apps)
    )
    assert alive == []
    assert leaked == []


def test_sanitized_run_frees_its_system(tiny_config, built):
    """The sanitizer's wrappers close over the components they watch;
    ``finish`` takes them off, so even a caller that keeps the
    sanitizer keeps none of the system."""
    sanitizer = SimSanitizer()
    alive, leaked = _audit(
        built,
        lambda: runner.run_mix(
            tiny_config, get_mix("4-MEM").apps, sanitizer=sanitizer
        ),
    )
    assert sanitizer.ok, sanitizer.report()
    assert alive == []
    assert leaked == []


def test_failed_run_frees_its_system(tiny_config, built, monkeypatch):
    """A run that raises once the core stops, with events and misses
    still in flight, is closed on the way out too."""

    def fail(self, now=None):
        raise RuntimeError("injected")

    monkeypatch.setattr(MemorySystem, "finish", fail)

    def run():
        with pytest.raises(RuntimeError, match="injected"):
            runner.run_mix(tiny_config, get_mix("4-MEM").apps)

    alive, leaked = _audit(built, run)
    assert alive == []
    assert leaked == []
