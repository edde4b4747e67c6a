"""The ``serve`` load generator: one process, two threads, two keep-alive
connections, all traffic derived from the workload seed.

:class:`Traffic` is the seeded request stream.  Each request carries 1
to ``max_size`` examples; ``adv_share`` of the fresh requests draw from
the PGD pool and the rest from the clean pool; ``replay_share`` of the
requests replay an earlier request exactly (prediction-cache hits).
Every other example is a pool image plus seeded uniform jitter, so it is
new to the server's cache and quarantine store.

:class:`LoadGenerator` drives it over HTTP.  The open loop sends request
``i`` at its due time ``t0 + i / rate`` on whichever connection is free
and times it from the due time, so a stall delays every later request
too; how late it sent (``sent - due``) is its own measurement.  The
closed loop keeps both connections busy back to back.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .common import clock
from .tracing import REQUEST_HEADER


@dataclass(frozen=True)
class Spec:
    adversarial: bool
    rows: tuple
    noise_seed: int
    replay: bool = False


@dataclass
class Sent:
    """One request's fate."""

    rid: str
    size: int
    adversarial: bool
    replay: bool
    due: float
    sent: float
    done: float
    status: int                   # 0: transport error
    flagged: Optional[list] = None
    from_cache: Optional[list] = None
    logits: Optional[list] = None

    @property
    def latency_ms(self) -> float:
        """From the due time (open loop) or the send time (closed loop)."""
        return (self.done - self.due) * 1e3


class Traffic:
    def __init__(self, clean: np.ndarray, adversarial: np.ndarray, seed: int,
                 replay_share: float, adv_share: float, max_size: int,
                 jitter: float) -> None:
        self.pools = {False: clean, True: adversarial}
        self.replay_share = replay_share
        self.adv_share = adv_share
        self.max_size = max_size
        self.jitter = jitter
        self._rng = np.random.default_rng([seed, 0x5E47E])
        self._specs: List[Spec] = []
        self._lock = threading.Lock()

    def spec(self, index: int) -> Spec:
        """Request ``index``'s spec; drawn in index order, so the stream
        is the same whatever order the threads ask in."""
        with self._lock:
            rng = self._rng
            while len(self._specs) <= index:
                earlier = len(self._specs)
                if earlier and rng.random() < self.replay_share:
                    spec = self._specs[int(rng.integers(earlier))]
                    self._specs.append(Spec(spec.adversarial, spec.rows,
                                            spec.noise_seed, replay=True))
                    continue
                adversarial = bool(rng.random() < self.adv_share)
                size = int(rng.integers(1, self.max_size + 1))
                rows = rng.integers(0, len(self.pools[adversarial]), size)
                self._specs.append(Spec(adversarial, tuple(int(r) for r in rows),
                                        int(rng.integers(2 ** 62))))
            return self._specs[index]

    def images(self, spec: Spec) -> np.ndarray:
        base = self.pools[spec.adversarial][list(spec.rows)]
        noise = np.random.default_rng(spec.noise_seed).uniform(
            -self.jitter, self.jitter, size=base.shape)
        return np.clip(base + noise, -1.0, 1.0).astype(np.float32)


def body_of(images: np.ndarray) -> bytes:
    return json.dumps({"inputs": images.tolist()}).encode("utf-8")


class LoadGenerator:
    THREADS = 2

    def __init__(self, host: str, port: int, api_key: str) -> None:
        self.host = host
        self.port = port
        self.headers = {"Content-Type": "application/json",
                        "Authorization": f"Bearer {api_key}"}

    def _post(self, conn: http.client.HTTPConnection, body: bytes,
              rid: str) -> tuple:
        """(status, payload); status 0 and a fresh connection on a
        transport error or an unreadable reply."""
        try:
            conn.request("POST", "/v1/predict", body=body,
                         headers={**self.headers, REQUEST_HEADER: rid})
            response = conn.getresponse()
            data = response.read()
            payload = json.loads(data) if response.status == 200 else None
        except (OSError, http.client.HTTPException, ValueError):
            conn.close()
            return 0, None
        return response.status, payload

    def _connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=30)

    def single(self, images: np.ndarray, rid: str) -> Sent:
        """One request on its own connection, waited for."""
        conn = self._connection()
        try:
            start = clock()
            status, payload = self._post(conn, body_of(images), rid)
            return _sent(rid, len(images), False, False, start, start,
                         clock(), status, payload)
        finally:
            conn.close()

    def run(self, traffic: Traffic, first: int, count: Optional[int] = None,
            rate: Optional[float] = None,
            seconds: Optional[float] = None) -> List[Sent]:
        """Requests ``first, first+1, ...`` on two connections.

        Open loop with ``rate`` and ``count``; closed loop (back to back
        until ``seconds`` have passed) otherwise.  The open loop encodes
        every body before its clock starts, so JSON encoding in one
        thread cannot hold up the other's response."""
        def prepare(k: int) -> tuple:
            spec = traffic.spec(first + k)
            images = traffic.images(spec)
            return spec, images, body_of(images)

        ready = {k: prepare(k) for k in range(count or 0)}
        sent: List[Sent] = []
        lock = threading.Lock()
        cursor = [0]
        start = clock() + 0.01
        stop = start + seconds if seconds is not None else None

        def worker() -> None:
            conn = self._connection()
            try:
                while True:
                    with lock:
                        k = cursor[0]
                        cursor[0] += 1
                    if (count is not None and k >= count) or \
                            (stop is not None and clock() >= stop):
                        return
                    spec, images, body = ready.pop(k, None) or prepare(k)
                    if rate is not None:
                        due = start + k / rate
                        delay = due - clock()
                        if delay > 0:
                            time.sleep(delay)
                    else:
                        due = clock()
                    at = clock()
                    rid = str(first + k)
                    status, payload = self._post(conn, body, rid)
                    sent.append(_sent(rid, len(images),
                                      spec.adversarial, spec.replay, due, at,
                                      clock(), status, payload))
            finally:
                conn.close()

        threads = [threading.Thread(target=worker, name=f"loadgen-{i}")
                   for i in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return sent


def _sent(rid, size, adversarial, replay, due, at, done, status,
          payload) -> Sent:
    rows = payload["predictions"] if payload else None
    return Sent(rid=rid, size=size, adversarial=adversarial, replay=replay,
                due=due, sent=at, done=done, status=status,
                flagged=[r["flagged"] for r in rows] if rows else None,
                from_cache=[r["from_cache"] for r in rows] if rows else None,
                logits=[r["logits"] for r in rows] if rows else None)
