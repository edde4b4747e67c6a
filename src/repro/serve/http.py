"""The network-facing HTTP front for :mod:`repro.serve`.

Everything behind the wire boundary already exists — ``ModelRegistry``,
``MicroBatcher``, ``DefenseGate``, ``PredictionCache``, the in-process
:class:`~repro.serve.server.Server` — this module is the boundary
itself: a stdlib-only (``http.server`` / ``socketserver``) threading
HTTP server speaking JSON, layered as

    socket -> auth -> rate limit -> admission -> Server.submit
                                                   (micro-batching,
                                                    gate, cache)

* **Endpoints**: ``POST /v1/predict`` (single example or small batch;
  per-row labels / logits / gate scores / flags), ``GET /v1/models``,
  ``GET /v1/health``, ``GET /v1/stats``, ``POST /v1/reload`` (hot
  checkpoint reload without dropping in-flight requests),
  ``POST /v1/promote`` / ``POST /v1/rollback`` (staged candidate
  promotion and its undo, behind the same drain-then-swap barrier —
  the hardening loop's hot-swap surface).
* **Auth**: static API keys with per-key client identity; comparisons
  are constant-time (:func:`hmac.compare_digest` over fixed-width
  digests, every registered key probed on every attempt) so a key
  cannot be guessed byte-by-byte from response timing.  Missing
  credentials are 401, wrong ones 403.
* **Rate limiting**: a token bucket per authenticated client (per
  remote address when auth is disabled); exhausted buckets answer 429
  with a computed ``Retry-After``.
* **Admission control / backpressure**: a bounded count of admitted but
  unanswered *examples* in front of ``Server.submit``.  A full queue
  answers 429 + ``Retry-After`` instead of buffering without bound; an
  unhealthy server (dead pump, draining shutdown) answers 503.  Every
  rejection is counted in :class:`HttpStats`, surfaced by
  ``/v1/stats`` next to the extended ``ServerStats`` summary.

Deployment shape: one process serves on its own; N worker processes
bind the same ``(host, port)`` with ``SO_REUSEPORT`` (the kernel
load-balances accepted connections) and share one on-disk
:class:`~repro.serve.cache.DiskPredictionCache` directory — the same
atomic-entry + journaled-recency technique ``eval.cache`` uses across
eval workers.  Platforms without ``SO_REUSEPORT`` run one process per
port behind any TCP load balancer instead.

The policy layer (:class:`HttpFrontend`) is plain functions from
(method, path, body, headers) to (status, payload, headers), so every
auth / throttle / admission decision is unit-testable without opening a
socket; :class:`HttpServer` is the thin socket wrapper around it.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Iterable, List, Mapping, Optional, \
    Tuple, Union

import numpy as np

from .. import obs
from ..utils import threads
from .server import Server

__all__ = ["ApiKeyAuth", "TokenBucket", "RateLimiter",
           "AdmissionController", "HttpStats", "HttpFrontend",
           "HttpServer", "HttpClient", "HttpResponse", "parse_api_keys"]

#: (status, payload, extra headers) — what every endpoint handler
#: returns and the socket layer serializes.  A ``str`` payload is sent
#: verbatim as ``text/plain`` (the Prometheus exposition format); dicts
#: serialize to JSON as before.
Reply = Tuple[int, Union[dict, str], Dict[str, str]]


# --------------------------------------------------------------------- #
# authentication
# --------------------------------------------------------------------- #
def parse_api_keys(spec: str) -> Dict[str, str]:
    """Parse the CLI's ``client:key[,client:key...]`` form."""
    keys: Dict[str, str] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        client, sep, key = part.partition(":")
        if not sep or not client or not key:
            raise ValueError(
                f"bad API key spec {part!r}; expected client:key")
        if client in keys:
            raise ValueError(f"duplicate API key client {client!r}")
        keys[client] = key
    return keys


class ApiKeyAuth:
    """Static API keys with per-key client identity.

    ``identify`` compares the presented key against **every** registered
    key via :func:`hmac.compare_digest` over SHA-256 digests: the digest
    normalizes lengths (no length leak) and the loop never exits early
    on a match, so timing does not depend on which — or whether any —
    key matched.
    """

    def __init__(self, keys: Union[Mapping[str, str], Iterable[str],
                                   None] = None) -> None:
        if keys is None:
            keys = {}
        if not isinstance(keys, Mapping):
            # Bare keys: identity is a positional default name.
            keys = {f"client-{i}": key for i, key in enumerate(keys)}
        self._digests: List[Tuple[str, bytes]] = [
            (client, self._digest(key)) for client, key in keys.items()]

    @staticmethod
    def _digest(key: str) -> bytes:
        return hashlib.sha256(key.encode("utf-8")).digest()

    @property
    def enabled(self) -> bool:
        return bool(self._digests)

    def identify(self, presented: Optional[str]) -> Optional[str]:
        """The client name owning ``presented``, or ``None``."""
        if presented is None:
            return None
        probe = self._digest(presented)
        matched: Optional[str] = None
        for client, digest in self._digests:
            if hmac.compare_digest(probe, digest):
                matched = client        # keep scanning: flat timing
        return matched

    @staticmethod
    def presented_key(headers: Mapping[str, str]) -> Optional[str]:
        """Extract the key from ``Authorization: Bearer`` or
        ``X-API-Key`` (the former wins when both are present)."""
        authorization = headers.get("Authorization", "")
        if authorization.startswith("Bearer "):
            return authorization[len("Bearer "):].strip()
        key = headers.get("X-API-Key")
        return key.strip() if key else None


# --------------------------------------------------------------------- #
# rate limiting
# --------------------------------------------------------------------- #
class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    The bucket starts full.  ``acquire(n)`` refills by elapsed time,
    then either consumes ``n`` tokens (returns ``None``) or returns the
    seconds until ``n`` tokens will exist (the 429's ``Retry-After``).
    Time comes only from the injectable clock, so tests are exact.
    """

    def __init__(self, rate: float, burst: float,
                 clock: Optional[Callable[[], float]] = None) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.clock = clock or time.monotonic
        self._tokens = self.burst
        self._stamp = self.clock()
        self._lock = threading.Lock()

    def acquire(self, n: float = 1.0) -> Optional[float]:
        with self._lock:
            now = self.clock()
            self._tokens = min(self.burst,
                               self._tokens + (now - self._stamp) * self.rate)
            self._stamp = now
            if self._tokens >= n:
                self._tokens -= n
                return None
            return (n - self._tokens) / self.rate


class RateLimiter:
    """One :class:`TokenBucket` per client identity, created on first
    use.  ``None`` rate disables limiting entirely."""

    def __init__(self, rate: Optional[float], burst: Optional[float] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.rate = rate
        self.burst = burst if burst is not None else \
            (max(1.0, rate) if rate else 1.0)
        self.clock = clock or time.monotonic
        self._buckets: Dict[str, TokenBucket] = {}
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.rate is not None

    def acquire(self, client: str, n: float = 1.0) -> Optional[float]:
        """``None`` when admitted, else seconds to wait (Retry-After)."""
        if self.rate is None:
            return None
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst,
                                     clock=self.clock)
                self._buckets[client] = bucket
        return bucket.acquire(n)


# --------------------------------------------------------------------- #
# admission control
# --------------------------------------------------------------------- #
class AdmissionController:
    """Bounded count of admitted-but-unanswered examples.

    Sits in front of ``Server.submit``: ``admit(n)`` reserves room for a
    request's examples and ``release(n)`` returns it once the request
    was answered (served, failed, or timed out).  When the reservation
    would exceed ``limit``, the request is rejected — that is the
    backpressure that turns overload into fast 429s instead of an
    unbounded queue and unbounded latency.
    """

    def __init__(self, limit: int, retry_after_s: float = 1.0) -> None:
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.limit = limit
        self.retry_after_s = retry_after_s
        self._inflight = 0
        self._lock = threading.Lock()

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def admit(self, n: int) -> Optional[float]:
        """``None`` when admitted, else a Retry-After hint in seconds.

        A single request larger than the whole limit is still admitted
        when the queue is empty — it could otherwise never run."""
        with self._lock:
            if self._inflight + n > self.limit and self._inflight > 0:
                return self.retry_after_s
            self._inflight += n
            return None

    def release(self, n: int) -> None:
        with self._lock:
            self._inflight = max(0, self._inflight - n)


# --------------------------------------------------------------------- #
# stats
# --------------------------------------------------------------------- #
@dataclass
class HttpStats:
    """What the HTTP tier itself counts (the in-process server's
    :class:`~repro.serve.server.ServerStats` counts everything behind
    ``submit``).  Mutated under one lock; ``summary()`` snapshots."""

    http_requests: int = 0
    served_requests: int = 0
    served_examples: int = 0
    rejected_unauthenticated: int = 0       # 401
    rejected_forbidden: int = 0             # 403
    rejected_rate_limited: int = 0          # 429 (token bucket)
    rejected_over_capacity: int = 0         # 429 (admission queue full)
    rejected_unhealthy: int = 0             # 503
    bad_requests: int = 0                   # 400 / 404 / 413
    timeouts: int = 0                       # 504
    errors: int = 0                         # 500
    reloads: int = 0
    promotions: int = 0
    rollbacks: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def count(self, name: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + by)

    def summary(self) -> Dict[str, int]:
        with self._lock:
            return {
                "http_requests": self.http_requests,
                "served_requests": self.served_requests,
                "served_examples": self.served_examples,
                "rejected_unauthenticated": self.rejected_unauthenticated,
                "rejected_forbidden": self.rejected_forbidden,
                "rejected_rate_limited": self.rejected_rate_limited,
                "rejected_over_capacity": self.rejected_over_capacity,
                "rejected_unhealthy": self.rejected_unhealthy,
                "bad_requests": self.bad_requests,
                "timeouts": self.timeouts,
                "errors": self.errors,
                "reloads": self.reloads,
                "promotions": self.promotions,
                "rollbacks": self.rollbacks,
            }


# --------------------------------------------------------------------- #
# the policy layer
# --------------------------------------------------------------------- #
class HttpFrontend:
    """Auth, throttling, admission and endpoint logic — socket-free.

    Parameters
    ----------
    server:
        The in-process :class:`Server` doing the actual serving; its
        background pump must be running (``HttpServer.start`` starts
        it) so handler threads can block on their handles.
    auth:
        :class:`ApiKeyAuth`; an empty one disables authentication
        (development mode — every client is ``anonymous@<addr>``).
    limiter:
        :class:`RateLimiter`; ``RateLimiter(None)`` disables.
    queue_limit:
        Admission bound on in-flight examples (backpressure knob).
    max_request_examples:
        Largest single request accepted (413 above it) — one client
        cannot monopolize a whole admission window.
    predict_timeout_s:
        How long a handler thread waits for its handle before giving
        up with 504 (the handle itself is failed server-side only if
        the pump died; a slow-but-alive server just loses this waiter).
    """

    def __init__(self, server: Server,
                 auth: Optional[ApiKeyAuth] = None,
                 limiter: Optional[RateLimiter] = None,
                 queue_limit: int = 1024,
                 max_request_examples: int = 64,
                 predict_timeout_s: float = 30.0,
                 reload_grace_s: float = 10.0,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.server = server
        self.auth = auth or ApiKeyAuth()
        self.limiter = limiter or RateLimiter(None)
        self.admission = AdmissionController(queue_limit)
        self.max_request_examples = max_request_examples
        self.predict_timeout_s = predict_timeout_s
        self.reload_grace_s = reload_grace_s
        #: Injectable monotonic source for the reload-drain deadline and
        #: request span timing (same seam as the batchers / buckets).
        self.clock = clock or time.monotonic
        self.stats = HttpStats()
        self._tracer = obs.tracer()
        obs.register(self, HttpFrontend._collect_metrics)
        self._reload_lock = threading.Lock()
        #: Open = predict admissions flow; cleared during the drain
        #: window of a checkpoint swap so in-flight work finishes on
        #: the old weights while new arrivals wait for the new ones.
        self._admitting = threading.Event()
        self._admitting.set()
        self._closing = False

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    ROUTES = {
        ("POST", "/v1/predict"): "predict",
        ("GET", "/v1/models"): "models",
        ("GET", "/v1/health"): "health",
        ("GET", "/v1/stats"): "stats_endpoint",
        ("GET", "/v1/metrics"): "metrics_endpoint",
        ("POST", "/v1/reload"): "reload",
        ("POST", "/v1/promote"): "promote",
        ("POST", "/v1/rollback"): "rollback_model",
    }

    def handle(self, method: str, path: str, body: bytes,
               headers: Mapping[str, str], remote: str = "") -> Reply:
        """One request in, one (status, payload, headers) out.  Never
        raises: unexpected errors become counted 500s."""
        self.stats.count("http_requests")
        route = self.ROUTES.get((method.upper(), path.split("?", 1)[0]))
        if route is None:
            self.stats.count("bad_requests")
            return 404, {"error": f"no route {method} {path}"}, {}
        try:
            if route == "health":       # unauthenticated (LB probes)
                return self.health()
            if route == "metrics_endpoint":
                # Unauthenticated like /v1/health: scrapers (Prometheus)
                # rarely carry app credentials, and the payload is
                # operational counters, not predictions.
                return self.metrics_endpoint()
            client = self._authenticate(headers, remote)
            if isinstance(client, tuple):
                return client           # 401 / 403 reply
            if route == "predict":
                return self.predict(body, client)
            if route == "models":
                return self.models()
            if route == "stats_endpoint":
                return self.stats_endpoint()
            if route == "promote":
                return self.promote(body)
            if route == "rollback_model":
                return self.rollback_model(body)
            return self.reload(body)
        except Exception as error:      # noqa: BLE001 - boundary
            self.stats.count("errors")
            return 500, {"error": f"{type(error).__name__}: {error}"}, {}

    def _authenticate(self, headers: Mapping[str, str],
                      remote: str) -> Union[str, Reply]:
        """Client identity, or the 401/403 reply to send instead."""
        if not self.auth.enabled:
            return f"anonymous@{remote or 'local'}"
        presented = self.auth.presented_key(headers)
        if presented is None:
            self.stats.count("rejected_unauthenticated")
            return 401, {"error": "missing API key (Authorization: "
                                  "Bearer ... or X-API-Key)"}, \
                {"WWW-Authenticate": "Bearer"}
        client = self.auth.identify(presented)
        if client is None:
            self.stats.count("rejected_forbidden")
            return 403, {"error": "invalid API key"}, {}
        return client

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    @property
    def healthy(self) -> bool:
        return self.server.pump_error is None and not self._closing

    def health(self) -> Reply:
        status = "ok" if self.healthy else (
            "draining" if self._closing else "dead")
        payload = {
            "status": status,
            "models": sorted(self.server.registry.names()),
            "pending_examples": self.server.pending_examples,
            "inflight_examples": self.admission.inflight,
        }
        if self.server.pump_error is not None:
            payload["error"] = repr(self.server.pump_error)
        return (200 if status == "ok" else 503), payload, {}

    def models(self) -> Reply:
        rows = []
        for name in sorted(self.server.registry.names()):
            entry = self.server.registry.get(name)
            try:
                gate = self.server.gate_for(name).kind
            except (KeyError, ValueError):
                gate = "unavailable"
            rows.append({
                "name": name,
                "backend": entry.backend,
                "trainer": entry.trainer,
                "dataset": entry.dataset,
                "has_discriminator": entry.has_discriminator,
                "gate": gate,
                "fingerprint": entry.fingerprint[:16],
            })
        return 200, {"models": rows}, {}

    def stats_endpoint(self) -> Reply:
        payload = {"server": self.server.stats_summary(),
                   "http": self.stats.summary()}
        cache = self.server.cache
        if cache is not None:
            payload["cache"] = {"hits": cache.hits,
                                "misses": cache.misses,
                                "evictions": cache.evictions,
                                "entries": len(cache)}
        return 200, payload, {}

    def metrics_endpoint(self) -> Reply:
        """Prometheus text exposition of the process-wide registry."""
        return 200, obs.render_prometheus(), \
            {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"}

    _REJECT_REASONS = ("unauthenticated", "forbidden", "rate_limited",
                       "over_capacity", "unhealthy")

    def _collect_metrics(self) -> List[obs.Sample]:
        """Scrape-time collector: one locked :class:`HttpStats` snapshot
        plus the live in-flight, BLAS-thread and usable-CPU gauges."""
        s = self.stats.summary()
        samples = [
            obs.Sample.make("repro_http_requests_total", "counter",
                            float(s["http_requests"]),
                            help="HTTP requests received"),
            obs.Sample.make("repro_http_served_requests_total", "counter",
                            float(s["served_requests"]),
                            help="predict requests answered 200"),
            obs.Sample.make("repro_http_served_examples_total", "counter",
                            float(s["served_examples"]),
                            help="examples answered 200"),
            obs.Sample.make("repro_http_bad_requests_total", "counter",
                            float(s["bad_requests"]),
                            help="malformed requests (400/404/413)"),
            obs.Sample.make("repro_http_timeouts_total", "counter",
                            float(s["timeouts"]),
                            help="predict waits that timed out (504)"),
            obs.Sample.make("repro_http_errors_total", "counter",
                            float(s["errors"]),
                            help="internal errors (500)"),
            obs.Sample.make("repro_http_reloads_total", "counter",
                            float(s["reloads"]),
                            help="successful checkpoint reloads"),
            obs.Sample.make("repro_http_promotions_total", "counter",
                            float(s["promotions"]),
                            help="successful staged promotions"),
            obs.Sample.make("repro_http_rollbacks_total", "counter",
                            float(s["rollbacks"]),
                            help="successful promotion rollbacks"),
            obs.Sample.make("repro_http_inflight_examples", "gauge",
                            float(self.admission.inflight),
                            help="admitted-but-unanswered examples"),
            obs.Sample.make("repro_blas_threads", "gauge",
                            float(threads.blas_threads() or 0),
                            help="BLAS threads in this process "
                                 "(0 when the BLAS reports none)"),
            obs.Sample.make("repro_usable_cpus", "gauge",
                            float(threads.usable_cpus()),
                            help="CPUs this process may run on"),
        ]
        for reason in self._REJECT_REASONS:
            samples.append(obs.Sample.make(
                "repro_http_rejected_total", "counter",
                float(s[f"rejected_{reason}"]), labels={"reason": reason},
                help="rejected requests by reason "
                     "(401/403/429/429/503)"))
        return samples

    def predict(self, body: bytes, client: str) -> Reply:
        """Admission-controlled predict; with tracing enabled the whole
        request gets a correlation ID plus ``http.request`` /
        ``http.admission`` spans, and the ID rides the server handle so
        the batch-side spans join back to it."""
        tr = self._tracer
        if tr is None:
            return self._predict(body, client, None, None, 0.0)
        trace = obs.new_trace_id()
        t0 = self.clock()
        reply = self._predict(body, client, trace, tr, t0)
        tr.emit("http.request", self.clock() - t0, trace=trace,
                status=reply[0], client=client)
        return reply

    def _predict(self, body: bytes, client: str, trace: Optional[str],
                 tr, t0: float) -> Reply:
        if not self.healthy:
            self.stats.count("rejected_unhealthy")
            return 503, {"error": "server is not serving "
                                  f"({'draining' if self._closing else 'pump died'})"}, \
                {"Retry-After": "1"}
        parsed = self._parse_predict(body)
        if isinstance(parsed, tuple) and len(parsed) == 3 and \
                isinstance(parsed[0], int):
            return parsed               # 400 / 413 reply
        model_name, images = parsed
        # One token per *request* (not per example): a request bigger
        # than the bucket's burst could otherwise never be admitted.
        retry = self.limiter.acquire(client)
        if retry is not None:
            self.stats.count("rejected_rate_limited")
            return 429, {"error": f"rate limit exceeded for {client!r}"}, \
                {"Retry-After": f"{max(retry, 0.001):.3f}"}
        if not self._admitting.wait(self.reload_grace_s):
            self.stats.count("rejected_unhealthy")
            return 503, {"error": "reload in progress"}, \
                {"Retry-After": "1"}
        retry = self.admission.admit(len(images))
        if retry is not None:
            self.stats.count("rejected_over_capacity")
            return 429, {"error": "server over capacity "
                                  f"({self.admission.limit} examples "
                                  "in flight)"}, \
                {"Retry-After": f"{retry:.3f}"}
        try:
            if tr is not None:
                # Time from request entry to the submit boundary: auth
                # happened in handle(), so this span covers parse + rate
                # limit + admission control.
                tr.emit("http.admission", self.clock() - t0, trace=trace,
                        examples=len(images))
            try:
                handle = self.server.submit(model_name, images,
                                            trace=trace)
            except KeyError as error:
                self.stats.count("bad_requests")
                return 404, {"error": str(error)}, {}
            except RuntimeError as error:
                self.stats.count("rejected_unhealthy")
                return 503, {"error": str(error)}, {"Retry-After": "1"}
            if not handle.wait(self.predict_timeout_s):
                self.stats.count("timeouts")
                return 504, {"error": "prediction timed out after "
                                      f"{self.predict_timeout_s}s"}, {}
            if handle.failed:
                self.stats.count("errors")
                return 500, {"error": f"serving failed: "
                                      f"{handle.error!r}"}, {}
            rows = [{
                "label": p.label,
                "logits": [float(v) for v in p.logits],
                "score": p.score,
                "flagged": p.flagged,
                "from_cache": p.from_cache,
            } for p in handle.result()]
            self.stats.count("served_requests")
            self.stats.count("served_examples", by=len(rows))
            return 200, {"model": model_name, "predictions": rows}, {}
        finally:
            self.admission.release(len(images))

    def _parse_predict(self, body: bytes) \
            -> Union[Reply, Tuple[str, np.ndarray]]:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self.stats.count("bad_requests")
            return 400, {"error": "body is not valid JSON"}, {}
        if not isinstance(payload, dict) or "inputs" not in payload:
            self.stats.count("bad_requests")
            return 400, {"error": 'expected {"model": ..., '
                                  '"inputs": [...]}'}, {}
        model_name = payload.get("model")
        if model_name is None:
            names = self.server.registry.names()
            if len(names) != 1:
                self.stats.count("bad_requests")
                return 400, {"error": '"model" is required when more '
                                      'than one model is registered'}, {}
            model_name = names[0]
        try:
            images = np.asarray(payload["inputs"], dtype=np.float32)
        except (TypeError, ValueError):
            self.stats.count("bad_requests")
            return 400, {"error": '"inputs" is not a numeric array'}, {}
        if images.ndim == 3:
            images = images[None]
        if images.ndim != 4 or len(images) == 0:
            self.stats.count("bad_requests")
            return 400, {"error": 'expected one (C, H, W) example or a '
                                  'non-empty (N, C, H, W) batch, got '
                                  f'shape {images.shape}'}, {}
        if len(images) > self.max_request_examples:
            self.stats.count("bad_requests")
            return 413, {"error": f"request of {len(images)} examples "
                                  "exceeds the per-request cap of "
                                  f"{self.max_request_examples}"}, {}
        return str(model_name), images

    # ------------------------------------------------------------------ #
    # the admission barrier shared by every model-swap endpoint
    # ------------------------------------------------------------------ #
    def _parse_model_body(self, body: bytes) -> Union[Reply, dict]:
        """Parse a swap endpoint's JSON body; the named model must be
        registered.  Returns the payload dict or the 400/404 reply."""
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError):
            self.stats.count("bad_requests")
            return 400, {"error": "body is not valid JSON"}, {}
        name = payload.get("model")
        if not name:
            self.stats.count("bad_requests")
            return 400, {"error": '"model" is required'}, {}
        if name not in self.server.registry:
            self.stats.count("bad_requests")
            return 404, {"error": f"unknown model {name!r}; registered: "
                                  f"{sorted(self.server.registry.names())}"},\
                {}
        return payload

    def _drain_for_swap(self, action: str) -> Optional[Reply]:
        """Wait (bounded) for queued work to finish on the old weights.

        Must run with ``_admitting`` cleared: the lane swap only happens
        on an empty queue, which is what keeps every in-flight response
        bitwise one model's answer rather than a mid-request mix.  The
        timeout reply is a retryable 503 — ``Retry-After`` rides on it
        like every other temporary rejection (the 429 idiom), so a
        client can distinguish "try again" from a dead server.
        """
        deadline = self.clock() + self.reload_grace_s
        while self.server.pending_examples:
            if self.clock() >= deadline:
                self.stats.count("errors")
                return 503, {"error": "queued work did not drain within "
                                      f"{self.reload_grace_s}s; "
                                      f"{action} aborted"}, \
                    {"Retry-After": "1"}
            time.sleep(0.002)
        return None

    def reload(self, body: bytes) -> Reply:
        """Hot checkpoint reload, without dropping in-flight requests.

        ``{"model": name}`` alone re-fingerprints the live entry
        (``ModelRegistry.refresh``) after an in-place weight update;
        with ``"checkpoint": path`` the named model is swapped for the
        freshly-loaded archive.  During a swap new admissions pause
        (bounded by ``reload_grace_s``), queued work drains on the old
        weights — every response reflects exactly one model — and the
        old entry stays registered if loading fails.
        """
        payload = self._parse_model_body(body)
        if not isinstance(payload, dict):
            return payload
        name = payload["model"]
        registry = self.server.registry
        checkpoint = payload.get("checkpoint")
        with self._reload_lock:
            old_fingerprint = registry.get(name).fingerprint
            if checkpoint is None:
                entry = registry.refresh(name)
                self.stats.count("reloads")
                return 200, {"model": name, "action": "refresh",
                             "old_fingerprint": old_fingerprint[:16],
                             "fingerprint": entry.fingerprint[:16]}, {}
            old_entry = registry.get(name)
            self._admitting.clear()
            try:
                reply = self._drain_for_swap("reload")
                if reply is not None:
                    return reply
                try:
                    entry = registry.load(
                        name, checkpoint,
                        dataset=payload.get("dataset",
                                            old_entry.dataset or "digits"),
                        preset=payload.get("preset", "fast"),
                        seed=int(payload.get("seed", 0)),
                        width=payload.get("width"),
                        backend=payload.get("backend"),
                        replace=True)
                except (OSError, ValueError, KeyError) as error:
                    self.stats.count("errors")
                    return 500, {"error": f"reload failed: {error}; "
                                          "the previous checkpoint is "
                                          "still being served"}, {}
                self.stats.count("reloads")
                return 200, {"model": name, "action": "reload",
                             "checkpoint": checkpoint,
                             "backend": entry.backend,
                             "old_fingerprint": old_fingerprint[:16],
                             "fingerprint": entry.fingerprint[:16]}, {}
            finally:
                self._admitting.set()

    def promote(self, body: bytes) -> Reply:
        """Staged candidate promotion (``POST /v1/promote``).

        Same drain discipline as a checkpoint reload, but through
        :meth:`ModelRegistry.promote`: the displaced entry is stashed
        for :meth:`rollback_model` and the promotion provenance is
        recorded in the candidate archive's metadata.  A failed load
        keeps the old weights serving and stashes nothing.
        """
        payload = self._parse_model_body(body)
        if not isinstance(payload, dict):
            return payload
        name = payload["model"]
        checkpoint = payload.get("checkpoint")
        if not checkpoint:
            self.stats.count("bad_requests")
            return 400, {"error": '"checkpoint" is required '
                                  "(the candidate archive to promote)"}, {}
        registry = self.server.registry
        with self._reload_lock:
            old_fingerprint = registry.get(name).fingerprint
            self._admitting.clear()
            try:
                reply = self._drain_for_swap("promotion")
                if reply is not None:
                    return reply
                try:
                    entry = registry.promote(
                        name, checkpoint,
                        dataset=payload.get("dataset"),
                        preset=payload.get("preset", "fast"),
                        seed=int(payload.get("seed", 0)),
                        width=payload.get("width"),
                        backend=payload.get("backend"))
                except (OSError, ValueError, KeyError) as error:
                    self.stats.count("errors")
                    return 500, {"error": f"promotion failed: {error}; "
                                          "the previous checkpoint is "
                                          "still being served"}, {}
                self.stats.count("promotions")
                return 200, {"model": name, "action": "promote",
                             "checkpoint": checkpoint,
                             "backend": entry.backend,
                             "old_fingerprint": old_fingerprint[:16],
                             "fingerprint": entry.fingerprint[:16]}, {}
            finally:
                self._admitting.set()

    def rollback_model(self, body: bytes) -> Reply:
        """Undo the last promotion (``POST /v1/rollback``).

        The stashed entry swaps back in behind the same admission
        barrier, so in-flight requests finish on the promoted weights
        and later ones serve the restored ones — never a mix, never a
        drop.  With nothing to roll back the reply is 409.
        """
        payload = self._parse_model_body(body)
        if not isinstance(payload, dict):
            return payload
        name = payload["model"]
        registry = self.server.registry
        with self._reload_lock:
            old_fingerprint = registry.get(name).fingerprint
            self._admitting.clear()
            try:
                reply = self._drain_for_swap("rollback")
                if reply is not None:
                    return reply
                try:
                    entry = registry.rollback(name)
                except KeyError as error:
                    self.stats.count("bad_requests")
                    return 409, {"error": str(error).strip('"')}, {}
                self.stats.count("rollbacks")
                return 200, {"model": name, "action": "rollback",
                             "old_fingerprint": old_fingerprint[:16],
                             "fingerprint": entry.fingerprint[:16]}, {}
            finally:
                self._admitting.set()

    def begin_shutdown(self) -> None:
        """Flip health to draining: probes fail, predicts 503."""
        self._closing = True


# --------------------------------------------------------------------- #
# the socket layer
# --------------------------------------------------------------------- #
class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"

    # The access log is opt-in: a load test at thousands of RPS must
    # not be bottlenecked on stderr.
    def log_message(self, fmt, *args):  # noqa: D102
        if getattr(self.server, "verbose", False):
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    def _dispatch(self, method: str) -> None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        body = self.rfile.read(length) if length else b""
        status, payload, extra = self.server.frontend.handle(
            method, self.path, body, self.headers,
            remote=self.client_address[0])
        extra = dict(extra)
        if isinstance(payload, str):
            # Text endpoints (/v1/metrics): the payload is the body.
            data = payload.encode("utf-8")
            content_type = extra.pop("Content-Type",
                                     "text/plain; charset=utf-8")
        else:
            data = json.dumps(payload).encode("utf-8")
            content_type = extra.pop("Content-Type", "application/json")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for key, value in extra.items():
            self.send_header(key, value)
        self.end_headers()
        try:
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            pass                        # client went away; its problem

    def do_GET(self) -> None:           # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:          # noqa: N802 - http.server API
        self._dispatch("POST")


class HttpServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one :class:`HttpFrontend`.

    ``reuse_port=True`` sets ``SO_REUSEPORT`` before binding so N
    worker processes can share one ``(host, port)`` — the kernel
    spreads accepted connections across them.  Platforms without the
    option get a loud error naming the process-per-port fallback.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, frontend: HttpFrontend, host: str = "127.0.0.1",
                 port: int = 0, reuse_port: bool = False,
                 verbose: bool = False) -> None:
        self.frontend = frontend
        self.reuse_port = reuse_port
        self.verbose = verbose
        self._thread: Optional[threading.Thread] = None
        super().__init__((host, port), _Handler)

    def server_bind(self) -> None:
        if self.reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):
                raise OSError(
                    "SO_REUSEPORT is not available on this platform; "
                    "run one worker process per port behind a TCP load "
                    "balancer instead")
            self.socket.setsockopt(socket.SOL_SOCKET,
                                   socket.SO_REUSEPORT, 1)
        super().server_bind()

    @property
    def address(self) -> Tuple[str, int]:
        """The actually-bound (host, port) — resolves ``port=0``."""
        name = self.socket.getsockname()
        return name[0], name[1]

    def start(self) -> "HttpServer":
        """Start the accept loop (daemon thread) and the backing
        in-process server's background pump."""
        if self._thread is not None:
            return self
        self.frontend.server.start()
        self._thread = threading.Thread(target=self.serve_forever,
                                        daemon=True,
                                        name="repro-serve-http")
        self._thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: stop accepting, then stop the pump
        (draining queued work by default).  Re-raises a pump death, the
        same contract as :meth:`Server.stop`."""
        self.frontend.begin_shutdown()
        if self._thread is not None:
            self.shutdown()
            self._thread.join()
            self._thread = None
        self.server_close()
        self.frontend.server.stop(drain=drain)

    def __enter__(self) -> "HttpServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# --------------------------------------------------------------------- #
# the client
# --------------------------------------------------------------------- #
@dataclass
class HttpResponse:
    """One parsed reply: status code, JSON payload, selected headers."""

    status: int
    payload: dict
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def retry_after(self) -> Optional[float]:
        value = self.headers.get("Retry-After")
        return float(value) if value is not None else None


class HttpClient:
    """Minimal keep-alive JSON client over stdlib :mod:`http.client`.

    One instance per thread (the underlying connection is not
    thread-safe); the load generator gives each worker its own.
    """

    def __init__(self, host: str, port: int,
                 api_key: Optional[str] = None,
                 timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.api_key = api_key
        self.timeout = timeout
        self._conn: Optional[HTTPConnection] = None

    def _connection(self) -> HTTPConnection:
        if self._conn is None:
            self._conn = HTTPConnection(self.host, self.port,
                                        timeout=self.timeout)
        return self._conn

    def request(self, method: str, path: str,
                payload: Optional[dict] = None) -> HttpResponse:
        body = json.dumps(payload).encode("utf-8") \
            if payload is not None else None
        headers = {"Content-Type": "application/json"}
        if self.api_key is not None:
            headers["Authorization"] = f"Bearer {self.api_key}"
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
                break
            except (ConnectionError, BrokenPipeError, OSError):
                # A keep-alive connection the server idled out; one
                # reconnect, then let the error surface.
                self.close()
                if attempt:
                    raise
        try:
            parsed = json.loads(data.decode("utf-8")) if data else {}
        except ValueError:
            parsed = {"raw": data.decode("utf-8", "replace")}
        return HttpResponse(status=response.status, payload=parsed,
                            headers=dict(response.getheaders()))

    # convenience wrappers ------------------------------------------------
    def predict(self, images: np.ndarray,
                model: Optional[str] = None) -> HttpResponse:
        payload = {"inputs": np.asarray(images).tolist()}
        if model is not None:
            payload["model"] = model
        return self.request("POST", "/v1/predict", payload)

    def models(self) -> HttpResponse:
        return self.request("GET", "/v1/models")

    def health(self) -> HttpResponse:
        return self.request("GET", "/v1/health")

    def stats(self) -> HttpResponse:
        return self.request("GET", "/v1/stats")

    def metrics(self) -> HttpResponse:
        """GET /v1/metrics; the Prometheus text body lands in
        ``payload["raw"]`` (it is not JSON)."""
        return self.request("GET", "/v1/metrics")

    def reload(self, model: str, checkpoint: Optional[str] = None,
               **extra) -> HttpResponse:
        payload = {"model": model, **extra}
        if checkpoint is not None:
            payload["checkpoint"] = checkpoint
        return self.request("POST", "/v1/reload", payload)

    def promote(self, model: str, checkpoint: str, **extra) -> HttpResponse:
        payload = {"model": model, "checkpoint": checkpoint, **extra}
        return self.request("POST", "/v1/promote", payload)

    def rollback(self, model: str) -> HttpResponse:
        return self.request("POST", "/v1/rollback", {"model": model})

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

    def __enter__(self) -> "HttpClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
