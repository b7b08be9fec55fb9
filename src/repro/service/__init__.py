"""repro.service -- simulation-as-a-service over the experiment engine.

The ROADMAP's serving story, in four pieces that compose with (never
fork) the existing execution stack:

* :class:`~repro.service.store.ResultStore` -- the one persistent
  result store (also behind a local ``--cache-dir``): content-addressed
  entries that each carry their own integrity digest, checked on
  every read, atomic compare-and-publish writes, and
  ``stats``/``verify``/``gc`` maintenance.
* :class:`~repro.service.scheduler.CampaignScheduler` -- a daemon that
  accepts jobs and whole figure campaigns (each expanded to exactly
  the job plan its experiment's driver runs), dedupes them by cache
  key with exactly-once semantics, and executes misses through the
  fault-tolerant batch executor, keeping every job's lifecycle in one
  crash-safe job log (``--resume`` finishes interrupted campaigns).
* :mod:`~repro.service.api` -- a stdlib-only threaded HTTP API:
  ``POST /jobs`` answers stored results on a microsecond warm path (an
  in-memory LRU; a hit never spawns a simulation) and enqueues genuine
  misses; results, manifests, campaign progress, health, and
  Prometheus metrics are all ``GET``-able.
* :class:`~repro.service.client.ServiceClient` /
  :class:`~repro.service.client.ServiceRunner` -- a typed client and a
  drop-in :class:`~repro.experiments.runner.Runner` that make any
  figure driver run against a remote service transparently
  (``python -m repro fig10 --remote-store DIR``), bit-identical to a
  local run.

See ``docs/service.md`` for architecture, endpoints, and the
exactly-once contract.  The package root re-exports nothing: planning
a campaign (:mod:`repro.service.jobs`) does not load the HTTP stack.
"""
