"""Experiment harness: configurations, runners, and per-figure drivers.

* :mod:`repro.experiments.config` -- :class:`SystemConfig`, one object
  describing a complete simulated system (Table 1 defaults).
* :mod:`repro.experiments.runner` -- build-and-run plumbing and the
  :class:`Runner`: the one path from a job to its result (memo,
  optional persistent store, serial or process-pool execution).
* :mod:`repro.experiments.figures` -- every figure and ablation as a
  :class:`FigureSpec` (rows, columns, how a cell is read) in one
  :data:`REGISTRY`, and the one driver, :func:`run_experiment`, that
  plans, runs and reduces any of them.
* :mod:`repro.experiments.report` -- :class:`ExperimentResult` and its
  text, CSV and markdown renderings.
* :mod:`repro.experiments.resilience` -- fault-tolerant batch
  execution: :class:`RetryPolicy` (timeouts/retries/pool recovery),
  :class:`JobLog` (the one crash-safe job log), and
  :class:`ResilienceStats` (what a batch survived).

The package root re-exports nothing: import from the submodules, so
that loading one of them does not load the others.
"""
