"""Stdlib-only threaded HTTP API over the store and scheduler.

The serving contract the ROADMAP asks for: *millions of readers
hitting precomputed sweeps never trigger a simulation* — a ``POST
/jobs`` for a key the store holds is answered on the warm path (an
in-memory LRU over payload bytes, microseconds, no disk, no
scheduler); only a genuine miss reaches
:meth:`~repro.service.scheduler.CampaignScheduler.submit_job`, whose
lock makes the enqueue exactly-once.

Endpoints (JSON unless noted):

====================================  =====================================
``GET /healthz``                      liveness + queue/store summary
``GET /readyz``                       readiness (503 while degraded/full)
``GET /metrics``                      Prometheus text format
``GET /results/<key>``                result envelope (state, size, sha256)
``GET /results/<key>/payload``        the pickled MixResult, byte-exact
``GET /manifests/<run_id>``           provenance record of one run
``GET /campaigns/<id>``               campaign progress and per-job states
``POST /jobs``                        submit a job or campaign spec
====================================  =====================================

``POST /jobs`` bodies: ``{"config": {...}, "apps": ["mcf", ...]}`` for
one job, or ``{"campaign": {"experiment": "fig10", "mixes": [...],
"config": {...}}}`` for a whole figure.  Responses carry ``state``
(``done`` | ``queued`` | ``running`` | ``failed``) and the
content-addressed ``key`` to fetch.

Hardening (see docs/robustness.md for the failure-mode matrix):

* **Admission control.**  Submits are bounded by
  :class:`AdmissionPolicy`: a full queue sheds with ``429`` +
  ``Retry-After`` instead of accepting unbounded work, and a request
  whose ``X-Deadline-S`` the service cannot possibly meet (a cold key
  must simulate) is refused with ``503`` immediately rather than
  enqueued to be thrown away.
* **Graceful degradation.**  A scheduler crash flips the API to
  read-only: every GET and every warm-path submit keeps serving the
  content-addressed store, while cold submits fail fast with ``503``
  + ``Retry-After`` — warm reads stay up, writes never hang on a dead
  worker.  ``GET /readyz`` answers 503 in this state (and when
  shedding), so a load balancer drains the instance while ``/healthz``
  keeps reporting what is wrong.
* **Idempotent submits.**  ``POST /jobs`` may carry an
  ``X-Idempotency-Key`` header holding the client-computed
  content-addressed job key; the server recomputes it from the body
  and answers ``409`` on mismatch (config-codec drift — retrying
  would target the wrong entry).  Because the key is derived from the
  job content, blind client retries of the same submit are always
  safe: they land on the same ticket.

Payloads are Python pickles (that is what makes the served result
bit-identical to a local run); bind the server to loopback or a
trusted network only — see docs/service.md.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Mapping

from repro.service.jobs import (
    DEFAULT_LRU_ENTRIES,
    JobSpec,
    campaign_names,
    config_from_dict,
)
from repro.service.scheduler import CampaignScheduler
from repro.service.store import payload_digest
from repro.telemetry import MetricRegistry, prometheus_text

log = logging.getLogger("repro.service.api")

#: Request header carrying the client-computed content-addressed key.
IDEMPOTENCY_HEADER = "X-Idempotency-Key"

#: Request header carrying the client's result deadline (seconds).
DEADLINE_HEADER = "X-Deadline-S"


@dataclass(frozen=True)
class AdmissionPolicy:
    """Backpressure knobs for the submit path.

    ``max_queue_depth`` bounds accepted-but-unfinished work: a submit
    that would push past it is shed with ``429``.  ``retry_after_s``
    is the hint sent with every 429/503 (coarse on purpose — clients
    add their own seeded jitter).  ``deadline_floor_s`` is the
    fastest the service claims it could possibly simulate a cold key;
    a request deadline below it is refused up front.
    """

    max_queue_depth: int = 64
    retry_after_s: float = 1.0
    deadline_floor_s: float = 0.0

    def retry_after(self) -> dict[str, str]:
        return {"Retry-After": str(max(1, int(round(self.retry_after_s))))}


class PayloadLRU:
    """Tiny thread-safe LRU of ``key -> payload bytes``.

    Entries are content-addressed and immutable, so there is no
    invalidation — only capacity eviction.
    """

    def __init__(self, max_entries: int = DEFAULT_LRU_ENTRIES) -> None:
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> bytes | None:
        with self._lock:
            data = self._entries.get(key)
            if data is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return data

    def put(self, key: str, data: bytes) -> None:
        if self.max_entries <= 0:
            return
        with self._lock:
            self._entries[key] = data
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class ServiceApp:
    """The request-handling logic, separate from HTTP plumbing.

    Every handler method returns ``(status, payload)`` where payload
    is a JSON-safe dict — or raw bytes for the payload endpoint — so
    the whole surface is unit-testable without a socket.
    """

    def __init__(
        self,
        scheduler: CampaignScheduler,
        lru_entries: int = DEFAULT_LRU_ENTRIES,
        admission: AdmissionPolicy | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.store = scheduler.store
        self.admission = admission if admission is not None else AdmissionPolicy()
        self.lru = PayloadLRU(lru_entries)
        self.registry = MetricRegistry()
        self._hits_warm = self.registry.counter("service.hits.warm")
        self._hits_store = self.registry.counter("service.hits.store")
        self._misses = self.registry.counter("service.misses")
        self._enqueued = self.registry.counter("service.jobs.enqueued")
        self._requests = self.registry.counter("service.http.requests")
        self._errors = self.registry.counter("service.http.errors")
        self._shed = self.registry.counter("service.http.shed")
        self._read_only = self.registry.counter("service.http.read_only")
        self._latency_us = self.registry.histogram("service.latency_us")
        self._connections = self.registry.counter("service.connections")

    @property
    def read_only(self) -> bool:
        """True once the scheduler can no longer run work (crash/stop)."""
        return not self.scheduler.healthy

    # ------------------------------------------------------------------
    # payload access (the warm path)

    def payload(self, key: str) -> bytes | None:
        """Payload bytes for ``key``: LRU first, then the store."""
        data = self.lru.get(key)
        if data is not None:
            self._hits_warm.add()
            return data
        data = self.store.get_bytes(key)
        if data is not None:
            self._hits_store.add()
            self.lru.put(key, data)
        return data

    # ------------------------------------------------------------------
    # endpoint handlers

    def healthz(self) -> tuple[int, dict]:
        """Liveness: always 200 while the process serves — the body
        says *what state* it is serving in."""
        from repro import __version__

        sched = self.scheduler
        return 200, {
            "status": "read-only" if self.read_only else "ok",
            "version": __version__,
            "queue_depth": sched.queue_depth,
            "lru_entries": len(self.lru),
            "jobs": sched.state_counts(),
            "store": self.store.integrity(),
            "supervision": sched.sup_stats.as_dict(),
        }

    def readyz(self) -> tuple[int, dict, dict]:
        """Readiness: 503 (with Retry-After) while degraded or full.

        The signal a load balancer acts on: a read-only instance keeps
        its warm reads reachable through ``/results``, but stops
        receiving fresh traffic.
        """
        reasons = []
        if self.read_only:
            reasons.append("scheduler is down; serving read-only")
        if self.scheduler.queue_depth >= self.admission.max_queue_depth:
            reasons.append("submit queue is full")
        doc = {
            "ready": not reasons,
            "reasons": reasons,
            "queue_depth": self.scheduler.queue_depth,
        }
        if reasons:
            return 503, doc, self.admission.retry_after()
        return 200, doc, {}

    def metrics(self) -> tuple[int, str]:
        self.registry.set_gauges(
            "service",
            {
                "queue.depth": float(self.scheduler.queue_depth),
                "lru.entries": float(len(self.lru)),
                "store.hits": float(self.store.hits),
                "store.misses": float(self.store.misses),
                "store.corrupt": float(self.store.corrupt),
            },
        )
        return 200, prometheus_text(self.registry.snapshot())

    def result_envelope(self, key: str) -> tuple[int, dict]:
        status = self.scheduler.job_status(key)
        if status is None:
            return 404, {"error": f"unknown result key {key}"}
        doc = dict(status)
        if doc["state"] == "done":
            data = self.payload(key)
            if data is not None:
                doc["sha256"] = payload_digest(data)
                doc["size"] = len(data)
            doc["payload"] = f"/results/{key}/payload"
        return 200, doc

    def result_payload(self, key: str) -> tuple[int, bytes | dict]:
        data = self.payload(key)
        if data is None:
            return 404, {"error": f"no stored result for key {key}"}
        return 200, data

    def manifest(self, rid: str) -> tuple[int, dict]:
        record = self.scheduler.record_for(rid)
        if record is None:
            return 404, {"error": f"unknown run id {rid}"}
        return 200, record.as_dict()

    def campaign(self, cid: str) -> tuple[int, dict]:
        status = self.scheduler.campaign_status(cid)
        if status is None:
            return 404, {"error": f"unknown campaign {cid}"}
        return 200, status

    # ------------------------------------------------------------------
    # admission control

    @staticmethod
    def _header(headers: Mapping[str, str] | None, name: str) -> str | None:
        """Case-insensitive header lookup over dicts *and* Message."""
        if headers is None:
            return None
        getter = getattr(headers, "get", None)
        if getter is not None and not isinstance(headers, dict):
            value = getter(name)  # email.message.Message: insensitive
            return str(value) if value is not None else None
        lowered = {k.lower(): v for k, v in headers.items()}
        value = lowered.get(name.lower())
        return str(value) if value is not None else None

    def _shed_write(self) -> tuple[int, dict, dict] | None:
        """The 503/429 answer for a cold submit, or None to admit it."""
        if self.read_only:
            self._read_only.add()
            self.scheduler.sup_stats.read_only_rejections += 1
            return (
                503,
                {
                    "error": "service is read-only (scheduler is down); "
                    "stored results remain available",
                    "read_only": True,
                },
                self.admission.retry_after(),
            )
        if self.scheduler.queue_depth >= self.admission.max_queue_depth:
            self._shed.add()
            self.scheduler.sup_stats.shed += 1
            return (
                429,
                {
                    "error": "submit queue is full",
                    "queue_depth": self.scheduler.queue_depth,
                    "max_queue_depth": self.admission.max_queue_depth,
                },
                self.admission.retry_after(),
            )
        return None

    def _refuse_deadline(
        self, headers: Mapping[str, str] | None
    ) -> tuple[int, dict, dict] | None:
        """Refuse a cold submit whose deadline cannot be met."""
        raw = self._header(headers, DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            deadline_s = float(raw)
        except ValueError:
            return 400, {"error": f"bad {DEADLINE_HEADER} value {raw!r}"}, {}
        if deadline_s <= 0 or deadline_s < self.admission.deadline_floor_s:
            self.scheduler.sup_stats.deadline_rejections += 1
            return (
                503,
                {
                    "error": (
                        f"deadline {deadline_s}s cannot be met for a cold "
                        "key (result must be simulated)"
                    ),
                    "deadline_floor_s": self.admission.deadline_floor_s,
                },
                self.admission.retry_after(),
            )
        return None

    # ------------------------------------------------------------------
    # submission

    def submit(
        self, body: dict, headers: Mapping[str, str] | None = None
    ) -> tuple[int, dict] | tuple[int, dict, dict]:
        if not isinstance(body, dict):
            return 400, {"error": "body must be a JSON object"}
        if "campaign" in body:
            return self._submit_campaign(body["campaign"], headers)
        return self._submit_job(body, headers)

    def _submit_job(
        self, body: dict, headers: Mapping[str, str] | None = None
    ) -> tuple[int, dict] | tuple[int, dict, dict]:
        try:
            spec = JobSpec.from_dict(body)
        except (TypeError, ValueError, KeyError) as exc:
            return 400, {"error": f"bad job spec: {exc}"}
        key = self.store.key_for(spec.config, spec.apps)
        claimed = self._header(headers, IDEMPOTENCY_HEADER)
        if claimed is not None and claimed != key:
            # The client's codec disagrees with ours about what this
            # job *is*; retrying against the wrong key would be worse
            # than failing loudly.
            return 409, {
                "error": "idempotency key mismatch (config codec drift?)",
                "claimed": claimed,
                "key": key,
            }
        # Warm path: a stored result answers without waking the
        # scheduler — this is what "a hit never spawns a simulation"
        # means operationally.  It stays up in read-only mode.
        if self.lru.get(key) is not None or self.store.has(key):
            self._hits_warm.add()
            return 200, {
                "key": key,
                "run_id": spec.run_id,
                "state": "done",
                "source": "warm",
                "payload": f"/results/{key}/payload",
            }
        refused = self._refuse_deadline(headers) or self._shed_write()
        if refused is not None:
            return refused
        self._misses.add()
        status = self.scheduler.submit_job(spec.config, spec.apps)
        if status["state"] == "queued":
            self._enqueued.add()
        return 202 if status["state"] in ("queued", "running") else 200, status

    def _submit_campaign(
        self, body: dict, headers: Mapping[str, str] | None = None
    ) -> tuple[int, dict] | tuple[int, dict, dict]:
        if not isinstance(body, dict) or "experiment" not in body:
            return 400, {
                "error": "campaign spec needs an 'experiment' name",
                "known": campaign_names(),
            }
        refused = self._refuse_deadline(headers) or self._shed_write()
        if refused is not None:
            # A campaign always implies cold work somewhere; shed it
            # whole rather than admit a fraction of a figure.
            return refused
        try:
            config = config_from_dict(body.get("config") or {})
            status = self.scheduler.submit_campaign(
                body["experiment"], config, body.get("mixes")
            )
        except (KeyError, TypeError, ValueError) as exc:
            return 400, {"error": f"bad campaign spec: {exc}"}
        return 202 if not status["complete"] else 200, status

    # ------------------------------------------------------------------
    # routing

    def handle_get(
        self, path: str
    ) -> tuple[int, dict | str | bytes] | tuple[int, dict | str | bytes, dict]:
        if path == "/healthz":
            return self.healthz()
        if path == "/readyz":
            return self.readyz()
        if path == "/metrics":
            return self.metrics()
        parts = [p for p in path.split("/") if p]
        if len(parts) == 2 and parts[0] == "results":
            return self.result_envelope(parts[1])
        if len(parts) == 3 and parts[0] == "results" and parts[2] == "payload":
            return self.result_payload(parts[1])
        if len(parts) == 2 and parts[0] == "manifests":
            return self.manifest(parts[1])
        if len(parts) == 2 and parts[0] == "campaigns":
            return self.campaign(parts[1])
        return 404, {"error": f"no such endpoint: {path}"}

    def handle_post(
        self,
        path: str,
        body: dict,
        headers: Mapping[str, str] | None = None,
    ) -> tuple[int, dict] | tuple[int, dict, dict]:
        if path == "/jobs":
            return self.submit(body, headers)
        return 404, {"error": f"no such endpoint: {path}"}


class _Handler(BaseHTTPRequestHandler):
    """One keep-alive connection: requests are served in a loop until
    the client closes, the idle ``timeout`` passes, or a request's body
    could not be consumed (its bytes would parse as the next request)."""

    server_version = "repro-service"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; with Nagle on, the second
    # waits for the client's delayed ACK (~40 ms per response).
    disable_nagle_algorithm = True
    #: Seconds an idle connection keeps its handler thread.
    timeout = 60.0

    @property
    def app(self) -> ServiceApp:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: object) -> None:
        log.debug("%s " + format, self.address_string(), *args)

    def _respond(
        self,
        status: int,
        payload: dict | str | bytes,
        headers: dict[str, str] | None = None,
    ) -> None:
        extra = dict(headers) if headers else {}
        if isinstance(payload, bytes):
            body = payload
            content_type = "application/octet-stream"
            extra.setdefault("X-Payload-SHA256", payload_digest(payload))
        elif isinstance(payload, str):
            body = payload.encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = (json.dumps(payload, sort_keys=True) + "\n").encode()
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        for name, value in extra.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _timed(self, fn: Callable[[], tuple]) -> None:
        app = self.app
        app._requests.add()
        start = time.perf_counter()
        headers: dict[str, str] | None = None
        try:
            answer = fn()
            # Handlers return (status, payload) or (status, payload,
            # headers) — the third slot carries Retry-After etc.
            if len(answer) == 3:
                status, payload, headers = answer
            else:
                status, payload = answer
        except Exception as exc:  # pragma: no cover - defensive surface
            log.exception("unhandled service error")
            app._errors.add()
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            self.close_connection = True  # the body may be unread
        app._latency_us.observe(
            max(0, int((time.perf_counter() - start) * 1e6))
        )
        if status >= 400:
            app._errors.add()
        self._respond(status, payload, headers)

    def _body_length(self) -> int | None:
        """The announced body length, or None when it cannot be
        consumed (chunked, unparseable or negative ``Content-Length``)."""
        if self.headers.get("Transfer-Encoding"):
            return None
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            return None
        return length if length >= 0 else None

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self._body_length() != 0:
            self.close_connection = True  # an unread body follows
        self._timed(lambda: self.app.handle_get(self.path.split("?", 1)[0]))

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        def run() -> tuple:
            length = self._body_length()
            if length is None:
                self.close_connection = True
                return 400, {
                    "error": "unreadable body (bad Content-Length or chunked)"
                }
            raw = self.rfile.read(length) if length else b"{}"
            try:
                body = json.loads(raw.decode() or "{}")
            except ValueError:
                return 400, {"error": "body is not valid JSON"}
            return self.app.handle_post(
                self.path.split("?", 1)[0], body, self.headers
            )

        self._timed(run)


class ServiceServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` carrying the :class:`ServiceApp`.

    Connections are keep-alive, one handler thread each.  The server
    tracks them so :meth:`server_close` can end every one: a closed
    server must stop answering, not leave daemon handlers serving its
    old clients.
    """

    daemon_threads = True

    def __init__(self, address: tuple[str, int], app: ServiceApp) -> None:
        super().__init__(address, _Handler)
        self.app = app
        self._live_lock = threading.Lock()
        self._live: set[socket.socket] = set()

    def process_request(self, request, client_address) -> None:
        self.app._connections.add()
        with self._live_lock:
            self._live.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._live_lock:
            self._live.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._live_lock:
            live = list(self._live)
        for request in live:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already gone

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def make_server(
    scheduler: CampaignScheduler,
    host: str = "127.0.0.1",
    port: int = 0,
    lru_entries: int = DEFAULT_LRU_ENTRIES,
    admission: AdmissionPolicy | None = None,
) -> ServiceServer:
    """Build a ready-to-``serve_forever`` server (port 0 = ephemeral)."""
    return ServiceServer(
        (host, port), ServiceApp(scheduler, lru_entries, admission)
    )


__all__ = [
    "AdmissionPolicy",
    "DEADLINE_HEADER",
    "IDEMPOTENCY_HEADER",
    "PayloadLRU",
    "ServiceApp",
    "ServiceServer",
    "make_server",
]
