"""Correctness tooling for the simulator: static + runtime checking.

Two complementary layers guard the property every cached result and
published figure depends on — that a given configuration always
reproduces the same run, and that the run obeyed the DRAM protocol:

* ``repro lint`` (:func:`repro.analysis.dataflow.analyze_paths`) — one
  whole-program static pass that flags nondeterminism hazards before
  they enter the tree: per-line DET rules
  (:mod:`repro.analysis.rules`), filesystem write-discipline FS rules
  (:mod:`repro.analysis.fs_rules`) and TNT source→sink taint rules
  (:mod:`repro.analysis.taint_rules`) whose findings carry the value's
  path.  Findings are suppressed per line with
  ``# repro: allow(CODE)`` pragmas.

* :mod:`repro.analysis.sanitizer` — an opt-in runtime **SimSanitizer**
  that wraps the event queue and both DRAM controller models during a
  run and checks protocol / accounting invariants (tRCD/tRP/tRAS/tRRD
  command ordering, data-bus burst overlap, MSHR allocate/release
  balance, ROB capacity, monotonic event time).  Enable with the
  ``--sanitize`` CLI flag, ``REPRO_SANITIZE=1``, or the ``sanitizer``
  pytest fixture; observation never perturbs the simulation, so a
  sanitized run is bit-identical to a plain one.

See ``docs/static-analysis.md`` for the rule catalog and invariant
reference.  The package root re-exports nothing: a run that builds a
sanitizer never loads the lint engine, and ``repro lint`` never loads
the sanitizer.
"""
