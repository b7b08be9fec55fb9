"""Typed client for the service API, plus a remote-backed Runner.

:class:`ServiceClient` wraps the HTTP surface with plain methods
(stdlib ``http.client`` only) and verifies every fetched payload
against its ``X-Payload-SHA256`` header before unpickling, so a
corrupted transfer can never masquerade as a result.  Each client
thread keeps one persistent HTTP/1.1 connection, reused across
requests and reopened when the URL changes; :meth:`ServiceClient.close`
(or a ``with`` block) releases them.

:class:`ServiceRunner` is the transparency piece: a drop-in
:class:`~repro.experiments.runner.Runner` whose simulations happen on
the service.  Point any existing figure driver (or ``python -m repro
fig10 --remote-store DIR``) at one and the whole experiment becomes
submit-poll-fetch — bit-identical to a local run, because the service
executes the very same deterministic jobs and ships back the very same
pickled :class:`~repro.experiments.runner.MixResult` bytes.

The client survives the service not being there.  Transient failures
(connection refused/reset, 429 shed, 503 read-only) raise
:class:`ServiceUnavailable` and are retried through a
:class:`CircuitBreaker` with *deterministic, seeded* backoff — the
delay sequence is a pure function of the client seed and the attempt
number (plus any server ``Retry-After`` hint), never of wall-clock
randomness, so a figure driver interrupted by a service restart
replays the same schedule every run.  Submits are idempotent: the
client derives the content-addressed job key locally
(:func:`repro.service.store.job_key`), sends it as
``X-Idempotency-Key`` (the server 409s on codec drift), and therefore
retries POSTs as safely as GETs — a resubmit lands on the same
ticket.  A client built from ``store_dir`` re-discovers the advertised
URL between retries, so it follows a restarted server onto its new
ephemeral port.
"""

from __future__ import annotations

import http.client
import json
import os
import pickle
import threading
import time
from pathlib import Path
from typing import Sequence

from repro.common.rng import child_rng
from repro.experiments.config import SystemConfig
from repro.experiments.runner import MixResult, Runner
from repro.service.jobs import config_to_dict
from repro.service.store import job_key, payload_digest

#: Connection class per URL scheme.
_CONNECTION_TYPES = {
    "http": http.client.HTTPConnection,
    "https": http.client.HTTPSConnection,
}

#: Where ``repro serve`` advertises its ephemeral URL, relative to the
#: store directory (see :func:`discover_url`).
SERVER_INFO = "service/server.json"


class ServiceError(RuntimeError):
    """A service interaction failed (HTTP error, timeout, bad payload)."""


class ServiceUnavailable(ServiceError):
    """A *transient* service failure: worth retrying.

    Raised for connection-level errors (nothing listening, reset) and
    for the explicit backpressure answers (429 shed, 503 read-only /
    not-ready), carrying the server's ``Retry-After`` hint when one
    was sent.
    """

    def __init__(self, message: str, retry_after_s: float | None = None) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class CircuitBreaker:
    """Failure-counting breaker with deterministic seeded backoff.

    After ``threshold`` consecutive transient failures the circuit
    opens: calls fail fast (no socket) until the cooldown elapses,
    then one probe is allowed through (half-open); its success closes
    the circuit.  Cooldowns grow exponentially per trip with jitter
    drawn from :func:`repro.common.rng.child_rng` — a pure function of
    ``(seed, trip count)``, so two runs of the same driver against the
    same flaky service back off identically.
    """

    def __init__(
        self,
        threshold: int = 3,
        base_s: float = 0.05,
        cap_s: float = 2.0,
        seed: int = 0,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.base_s = base_s
        self.cap_s = cap_s
        self.seed = seed
        self.failures = 0
        self.trips = 0
        self._open_until: float | None = None

    def cooldown_s(self, trip: int) -> float:
        """The (deterministic) cooldown for trip number ``trip``."""
        jitter = child_rng(self.seed, f"breaker-trip:{trip}").random()
        return min(self.cap_s, self.base_s * (2 ** (trip - 1)) * (1 + jitter))

    @property
    def state(self) -> str:
        if self._open_until is None:
            return "closed"
        if time.monotonic() >= self._open_until:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """Whether a call may proceed right now."""
        return self.state != "open"

    def seconds_until_probe(self) -> float:
        if self._open_until is None:
            return 0.0
        return max(0.0, self._open_until - time.monotonic())

    def record_success(self) -> None:
        self.failures = 0
        self._open_until = None

    def record_failure(self) -> None:
        self.failures += 1
        if self.failures >= self.threshold or self._open_until is not None:
            self.trips += 1
            self._open_until = time.monotonic() + self.cooldown_s(self.trips)


def write_server_info(store_dir: str | os.PathLike, url: str) -> Path:
    """Record a running server's URL under its store (for discovery)."""
    path = Path(store_dir).expanduser() / SERVER_INFO
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(tmp, "w") as handle:
        json.dump({"url": url, "pid": os.getpid()}, handle)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def discover_url(store_dir: str | os.PathLike) -> str:
    """The URL advertised by the server owning ``store_dir``."""
    path = Path(store_dir).expanduser() / SERVER_INFO
    try:
        with open(path) as handle:
            return json.load(handle)["url"]
    except (FileNotFoundError, ValueError, KeyError) as exc:
        raise ServiceError(
            f"no running service advertised under {path} "
            "(start one with: repro serve --store ...)"
        ) from exc


class ServiceClient:
    """HTTP client for one service endpoint.

    Pass ``url`` directly, or ``store_dir`` to discover the URL a
    ``repro serve`` process advertised there.  Each thread using the
    client holds one keep-alive connection; :meth:`close` (or leaving
    a ``with`` block) closes them all.
    """

    def __init__(
        self,
        url: str | None = None,
        store_dir: str | os.PathLike | None = None,
        timeout: float = 30.0,
        retries: int = 8,
        seed: int = 0,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        if url is None:
            if store_dir is None:
                raise ValueError("need url or store_dir")
            url = discover_url(store_dir)
        self.url = url.rstrip("/")
        self.store_dir = Path(store_dir).expanduser() if store_dir else None
        self.timeout = timeout
        self.retries = retries
        self.seed = seed
        self.breaker = (
            breaker if breaker is not None else CircuitBreaker(seed=seed)
        )
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: set[http.client.HTTPConnection] = set()

    # ------------------------------------------------------------------
    # transport

    def close(self) -> None:
        """Close every connection this client opened.

        The client stays usable: its next request reconnects.
        """
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _connection(self) -> tuple[http.client.HTTPConnection, str]:
        """This thread's connection to the current URL, and the path
        prefix the URL carries; a URL change (rediscovery) replaces it."""
        local = self._local
        conn = getattr(local, "conn", None)
        if conn is not None and local.url == self.url:
            return conn, local.prefix
        if conn is not None:
            conn.close()
            with self._lock:
                self._connections.discard(conn)
        scheme, _, rest = self.url.partition("://")
        factory = _CONNECTION_TYPES.get(scheme)
        if factory is None:
            raise ServiceError(f"unsupported service URL {self.url!r}")
        netloc, _, prefix = rest.partition("/")
        conn = factory(netloc, timeout=self.timeout)
        with self._lock:
            self._connections.add(conn)
        local.conn, local.url = conn, self.url
        local.prefix = f"/{prefix}" if prefix else ""
        return conn, local.prefix

    @staticmethod
    def _exchange(
        conn: http.client.HTTPConnection,
        method: str,
        target: str,
        data: bytes | None,
        headers: dict[str, str],
    ) -> http.client.HTTPResponse:
        """Send one request and read the response's status line.

        A *reused* connection the server has since dropped (idle
        timeout, restart) fails before any response byte arrives.
        That is not a service failure, so the request goes out once
        more on a fresh connection: no breaker failure, no backoff.
        """
        reused = conn.sock is not None
        try:
            conn.request(method, target, data, headers)
            return conn.getresponse()
        except (ConnectionResetError, BrokenPipeError):
            # http.client.RemoteDisconnected is a ConnectionResetError.
            if not reused:
                raise
        conn.close()
        conn.request(method, target, data, headers)
        return conn.getresponse()

    def _request_once(
        self,
        path: str,
        data: bytes | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[bytes, dict]:
        """One HTTP exchange; transient failures raise ServiceUnavailable."""
        send_headers = dict(headers) if headers else {}
        if data is not None:
            send_headers.setdefault("Content-Type", "application/json")
        conn, prefix = self._connection()
        try:
            response = self._exchange(
                conn, "GET" if data is None else "POST", prefix + path,
                data, send_headers,
            )
            body = response.read()
        except (OSError, http.client.HTTPException) as exc:
            # Connection refused/reset, socket timeout, torn response:
            # the service is (momentarily) not there.
            conn.close()
            raise ServiceUnavailable(
                f"{path} -> {exc or type(exc).__name__}"
            ) from exc
        except BaseException:
            conn.close()  # never reuse a half-finished exchange
            raise
        if 200 <= response.status < 300:
            return body, dict(response.headers)
        detail = body.decode(errors="replace").strip() or response.reason
        message = f"{path} -> HTTP {response.status}: {detail}"
        if response.status in (429, 503):
            retry_after = None
            raw = response.headers.get("Retry-After")
            if raw is not None:
                try:
                    retry_after = float(raw)
                except ValueError:
                    retry_after = None
            raise ServiceUnavailable(message, retry_after)
        raise ServiceError(message)

    def _backoff_s(self, attempt: int, hint: float | None) -> float:
        """Deterministic delay before retry ``attempt`` (0-based)."""
        jitter = child_rng(self.seed, f"retry:{attempt}").random()
        delay = min(2.0, 0.05 * (2**attempt) * (1 + jitter))
        if hint is not None:
            delay = max(delay, min(hint, 5.0))
        return delay

    def _rediscover(self) -> None:
        """Follow a restarted server onto its newly advertised URL."""
        if self.store_dir is None:
            return
        try:
            self.url = discover_url(self.store_dir).rstrip("/")
        except ServiceError:
            pass  # no advertisement yet; retry against the old URL

    def _request(
        self,
        path: str,
        data: bytes | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[bytes, dict]:
        """Breaker-guarded, retrying transport.

        Every request through here is idempotent — GETs trivially,
        POST submits by content-addressed key — so blind retries are
        safe.  Retry delays come from :meth:`_backoff_s` (seeded,
        deterministic); an open breaker fails fast without a socket.
        """
        last: ServiceUnavailable | None = None
        for attempt in range(self.retries + 1):
            if not self.breaker.allow():
                wait = self.breaker.seconds_until_probe()
                if attempt >= self.retries:
                    break
                time.sleep(min(wait, 5.0) if wait > 0 else 0.0)
            try:
                answer = self._request_once(path, data, headers)
            except ServiceUnavailable as exc:
                self.breaker.record_failure()
                last = exc
                if attempt >= self.retries:
                    break
                time.sleep(self._backoff_s(attempt, exc.retry_after_s))
                self._rediscover()
                continue
            self.breaker.record_success()
            return answer
        # Still transient — callers with their own deadline (the wait
        # loops) may keep going; everyone else sees a ServiceError too.
        raise ServiceUnavailable(
            f"{path} failed after {self.retries + 1} attempt(s): {last}",
            last.retry_after_s if last is not None else None,
        ) from last

    def _json(
        self,
        path: str,
        body: dict | None = None,
        headers: dict[str, str] | None = None,
    ) -> dict:
        data = (
            json.dumps(body, sort_keys=True).encode()
            if body is not None else None
        )
        raw, _ = self._request(path, data, headers)
        return json.loads(raw.decode())

    # ------------------------------------------------------------------
    # endpoints

    def health(self) -> dict:
        return self._json("/healthz")

    def metrics(self) -> str:
        raw, _ = self._request("/metrics")
        return raw.decode()

    def metric(self, name: str) -> float | None:
        """One scraped metric value by its Prometheus name, or None."""
        for line in self.metrics().splitlines():
            if line.startswith(f"{name} "):
                return float(line.split()[1])
        return None

    def submit(self, config: SystemConfig, apps: Sequence[str]) -> dict:
        """Submit one job — idempotently.

        The content-addressed key is computed locally and sent as
        ``X-Idempotency-Key``: the server verifies it against its own
        derivation (409 on drift), and because the key *is* the job
        identity, retrying this POST after a connection reset can only
        land on the same ticket — never enqueue a duplicate.
        """
        return self._json(
            "/jobs",
            {"config": config_to_dict(config), "apps": list(apps)},
            headers={"X-Idempotency-Key": job_key(config, tuple(apps))},
        )

    def submit_campaign(
        self,
        experiment: str,
        config: SystemConfig | None = None,
        mixes: Sequence[str] | None = None,
    ) -> dict:
        spec: dict = {"experiment": experiment}
        if config is not None:
            spec["config"] = config_to_dict(config)
        if mixes:
            spec["mixes"] = list(mixes)
        return self._json("/jobs", {"campaign": spec})

    def result(self, key: str) -> dict:
        return self._json(f"/results/{key}")

    def campaign(self, cid: str) -> dict:
        return self._json(f"/campaigns/{cid}")

    def manifest(self, rid: str) -> dict:
        return self._json(f"/manifests/{rid}")

    def fetch_bytes(self, key: str) -> bytes:
        """The stored payload bytes, verified against the digest header."""
        data, headers = self._request(f"/results/{key}/payload")
        expected = headers.get("X-Payload-SHA256")
        if expected and payload_digest(data) != expected:
            raise ServiceError(
                f"payload for {key} failed integrity check in transit"
            )
        return data

    def fetch(self, key: str) -> MixResult:
        """The stored :class:`MixResult` under ``key``."""
        result = pickle.loads(self.fetch_bytes(key))
        if not isinstance(result, MixResult):
            raise ServiceError(
                f"payload for {key} decoded to {type(result).__name__}"
            )
        return result

    # ------------------------------------------------------------------
    # waiting

    def wait_job(
        self, key: str, timeout: float = 300.0, poll_s: float = 0.05
    ) -> dict:
        """Poll until the job reaches a terminal state; returns it.

        A service outage mid-wait (restart, crash, shed) is tolerated
        for as long as the deadline allows: the poll just keeps going,
        re-discovering the URL, until the service answers again.
        """
        deadline = time.monotonic() + timeout
        while True:
            try:
                status = self.result(key)
            except ServiceUnavailable as exc:
                if time.monotonic() >= deadline:
                    raise ServiceError(
                        f"job {key[:16]} unreachable past deadline: {exc}"
                    ) from exc
                time.sleep(poll_s)
                self._rediscover()
                continue
            if status.get("state") in ("done", "failed"):
                return status
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {key[:16]} still {status.get('state')!r} "
                    f"after {timeout:.0f}s"
                )
            time.sleep(poll_s)

    def wait_campaign(
        self, cid: str, timeout: float = 600.0, poll_s: float = 0.2
    ) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            try:
                status = self.campaign(cid)
            except ServiceUnavailable as exc:
                if time.monotonic() >= deadline:
                    raise ServiceError(
                        f"campaign {cid} unreachable past deadline: {exc}"
                    ) from exc
                time.sleep(poll_s)
                self._rediscover()
                continue
            if status.get("complete"):
                return status
            counts = status.get("counts", {})
            if counts.get("failed") and not (
                counts.get("queued") or counts.get("running")
            ):
                raise ServiceError(
                    f"campaign {cid} finished with "
                    f"{counts['failed']} failed job(s)"
                )
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"campaign {cid} incomplete after {timeout:.0f}s: {counts}"
                )
            time.sleep(poll_s)

    def run(
        self, config: SystemConfig, apps: Sequence[str],
        timeout: float = 300.0,
    ) -> MixResult:
        """Submit one job, wait for it, fetch the result."""
        status = self.submit(config, apps)
        key = status["key"]
        if status.get("state") != "done":
            status = self.wait_job(key, timeout=timeout)
            if status.get("state") != "done":
                raise ServiceError(
                    f"job {key[:16]} failed: {status.get('detail', '')}"
                )
        return self.fetch(key)


class ServiceRunner(Runner):
    """A :class:`Runner` whose simulations execute on a remote service.

    Memo, deduplication and provenance are the runner's own; only where
    a miss executes differs.  :meth:`_execute` submits the whole batch
    up front, then waits for and fetches each result in job order, so
    the output is deterministic and identical to a local run.  Records
    carry ``source: "service"``; everything else — weighted speedups,
    baselines, figure logic — runs unchanged against remote results.
    """

    def __init__(
        self,
        client: ServiceClient,
        baseline_multiplier: int = 3,
        timeout: float = 600.0,
        poll_s: float = 0.05,
    ) -> None:
        super().__init__(baseline_multiplier=baseline_multiplier)
        self.client = client
        self.timeout = timeout
        self.poll_s = poll_s

    def run_many(self, jobs: Sequence) -> list[MixResult]:
        # Defined here, not inherited: bench/trace.py wraps the
        # ``run_many`` in each runner class's own body.
        return self._serve(jobs)

    def _execute(self, jobs: list[tuple]) -> list[tuple[MixResult, str, float]]:
        tickets = [self.client.submit(config, apps)["key"] for config, apps in jobs]
        deadline = time.monotonic() + self.timeout
        served = []
        for ticket in tickets:
            start = time.perf_counter()
            status = self.client.wait_job(
                ticket,
                timeout=max(0.1, deadline - time.monotonic()),
                poll_s=self.poll_s,
            )
            if status.get("state") != "done":
                raise ServiceError(
                    f"job {ticket[:16]} failed: {status.get('detail', '')}"
                )
            result = self.client.fetch(ticket)
            served.append((result, "service", time.perf_counter() - start))
        return served


__all__ = [
    "SERVER_INFO",
    "CircuitBreaker",
    "ServiceClient",
    "ServiceError",
    "ServiceRunner",
    "ServiceUnavailable",
    "discover_url",
    "write_server_info",
]
