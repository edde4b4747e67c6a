"""In-memory memoization of served predictions.

Production inference traffic is heavily repetitive — retries, polling
clients, hot content — and a classifier is a pure function of (weights,
input).  The :class:`PredictionCache` exploits exactly that: entries are
keyed by ``(model fingerprint, input fingerprint)`` using the same
SHA-256 hashing the adversarial cache trusts
(:func:`repro.eval.cache.fingerprint_array`), so a weight refresh or a
single changed pixel is a guaranteed miss, and a hit skips the forward
pass entirely.  (Model fingerprints are snapshotted at registration —
hashing every weight per request would cost more than the forward pass
saved — so code that mutates a served model's weights *in place* must
call :meth:`ModelRegistry.refresh` to roll the key.)

Keys are per *example*, not per request: a repeated single image hits
even when it first arrived inside a larger coalesced batch.  The store
is a bounded LRU (``max_entries``), so a long-running server cannot grow
without limit.  The "model fingerprint" slot is an opaque string the
caller controls — the server folds the gate kind and threshold into it,
because stored predictions carry gate verdicts and lanes with different
gates must not replay each other's flags.

Note the interaction with bitwise determinism: a partially-cached
micro-batch forwards only its missed examples, and forward rows are not
bitwise-stable across batch compositions on BLAS substrates — so the
cache stores the logits *as first served* and replays those, which keeps
every repeat of an example bitwise-identical to its first answer.
"""

from __future__ import annotations

import collections
import hashlib
import os
import threading
from typing import List, Optional, Union

import numpy as np

from .. import obs
from ..eval.cache import fingerprint_array
from ..utils.store import EXISTS, DirectoryStore
from .batcher import Prediction

__all__ = ["PredictionCache", "DiskPredictionCache"]


def _hit_ratio(values):
    hits = values.get("repro_serve_prediction_cache_hits_total", 0.0)
    total = hits + values.get("repro_serve_prediction_cache_misses_total",
                              0.0)
    return hits / total if total else 0.0


def _cache_samples(hits: int, misses: int, evictions: int,
                   entries: int) -> list:
    return [
        obs.Sample.make("repro_serve_prediction_cache_hits_total",
                        "counter", float(hits),
                        help="prediction-cache example hits"),
        obs.Sample.make("repro_serve_prediction_cache_misses_total",
                        "counter", float(misses),
                        help="prediction-cache example misses"),
        obs.Sample.make("repro_serve_prediction_cache_evictions_total",
                        "counter", float(evictions),
                        help="prediction-cache LRU evictions"),
        obs.Sample.make("repro_serve_prediction_cache_entries",
                        "gauge", float(entries),
                        help="live prediction-cache entries"),
    ]


class PredictionCache:
    """Bounded LRU of per-example served predictions.

    Thread-safe: one cache is typically shared by every lane of a server
    (and may be shared by several servers), whose background pump threads
    look up and store concurrently.  The LRU dict and the ``hits`` /
    ``misses`` / ``evictions`` counters mutate only under an internal
    lock, so ``hits + misses`` always equals the number of examples
    probed — the unguarded counters could drop increments (and the
    OrderedDict could corrupt) when two pumps raced.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "collections.OrderedDict[tuple, Prediction]" = \
            collections.OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        obs.register(self, PredictionCache._collect_metrics)
        obs.derive("repro_serve_prediction_cache_hit_ratio", _hit_ratio,
                   help="prediction-cache hits / probes")

    def _collect_metrics(self):
        with self._lock:
            return _cache_samples(self.hits, self.misses, self.evictions,
                                  len(self._entries))

    @staticmethod
    def key(model_fingerprint: str, example: np.ndarray) -> tuple:
        return (model_fingerprint, fingerprint_array(example))

    def lookup(self, model_fingerprint: str,
               images: np.ndarray) -> List[Optional[Prediction]]:
        """Per-example probe: cached :class:`Prediction` or ``None``.

        Hits come back marked ``from_cache`` with *copied* logits (the
        caller may hand them out; the cache's own row must stay
        immutable) and bump the entry's recency.
        """
        out: List[Optional[Prediction]] = []
        for example in images:
            # Hash outside the lock (the expensive part), mutate inside.
            key = self.key(model_fingerprint, example)
            with self._lock:
                entry = self._entries.get(key)
                if entry is None:
                    self.misses += 1
                    out.append(None)
                    continue
                self._entries.move_to_end(key)
                self.hits += 1
                logits = entry.logits.copy()
                out.append(Prediction(label=entry.label,
                                      logits=logits,
                                      score=entry.score,
                                      flagged=entry.flagged,
                                      from_cache=True))
        return out

    def store(self, model_fingerprint: str, example: np.ndarray,
              prediction: Prediction) -> None:
        """Remember one freshly-served example (evicting LRU if full)."""
        key = self.key(model_fingerprint, example)
        entry = Prediction(label=prediction.label,
                           logits=prediction.logits.copy(),
                           score=prediction.score,
                           flagged=prediction.flagged)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0


class DiskPredictionCache:
    """Directory-backed sibling of :class:`PredictionCache`, shared by
    **processes** — the multi-worker HTTP deployment's cache tier.

    Same duck type the :class:`~repro.serve.server.Server` consumes
    (``lookup`` / ``store`` / ``hits`` / ``misses`` / ``evictions`` /
    ``len``), but entries live as one ``.npz`` per example under
    ``root``, so N server workers behind ``SO_REUSEPORT`` (or behind a
    load balancer) warm each other: an example first served by worker 3
    replays from disk on workers 1..N.

    Storage is a :class:`~repro.utils.store.DirectoryStore` (the one
    ``eval.cache`` uses) with an LRU-by-count policy:

    * a same-key store **keeps the first published entry** rather than
      overwriting, so repeats of an example stay bitwise identical to
      the first answer any worker served (forward rows differ in ulps
      across batch compositions — last-write-wins would let a repeated
      example's logits drift between replays), and counts as a recency
      bump;
    * every store and every hit is journaled, and eviction down to
      ``max_entries`` follows the *global* LRU order, honoring other
      workers' hits;
    * an unreadable entry is dropped and treated as a miss.
    """

    JOURNAL_NAME = "recency.journal"
    LOCK_NAME = "cache.lock"

    def __init__(self, root: Union[str, os.PathLike],
                 max_entries: Optional[int] = 65536) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1 when given, got {max_entries}")
        self.root = os.fspath(root)
        self.max_entries = max_entries
        self._store = DirectoryStore(self.root, self.JOURNAL_NAME,
                                     self.LOCK_NAME)
        self._lock = threading.Lock()   # in-process counter safety
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        obs.register(self, DiskPredictionCache._collect_metrics)
        obs.derive("repro_serve_prediction_cache_hit_ratio", _hit_ratio,
                   help="prediction-cache hits / probes")

    def _collect_metrics(self):
        with self._lock:
            hits, misses, evictions = self.hits, self.misses, self.evictions
        return _cache_samples(hits, misses, evictions, len(self._store))

    def spec(self) -> dict:
        """Constructor kwargs re-opening this cache in another process."""
        return {"root": self.root, "max_entries": self.max_entries}

    @staticmethod
    def key(model_fingerprint: str, example: np.ndarray) -> str:
        h = hashlib.sha256()
        h.update(model_fingerprint.encode("utf-8"))
        h.update(fingerprint_array(example).encode("utf-8"))
        return h.hexdigest()

    # ------------------------------------------------------------------ #
    # the PredictionCache duck type
    # ------------------------------------------------------------------ #
    def lookup(self, model_fingerprint: str,
               images: np.ndarray) -> List[Optional[Prediction]]:
        keys = [self.key(model_fingerprint, example) for example in images]
        out = [self._store.load(key, _read_prediction) for key in keys]
        hits = [key for key, prediction in zip(keys, out)
                if prediction is not None]
        with self._lock:
            self.hits += len(hits)
            self.misses += len(keys) - len(hits)
        if hits:
            self._store.touch(hits)
        return out

    def store(self, model_fingerprint: str, example: np.ndarray,
              prediction: Prediction) -> None:
        key = self.key(model_fingerprint, example)
        published = self._store.publish(key, {
            "label": np.int64(prediction.label),
            "logits": prediction.logits,
            "score": np.float64(prediction.score),
            "flagged": np.bool_(prediction.flagged)})
        if published == EXISTS:
            self._store.touch([key])
        if self.max_entries is not None:
            self._evict_over_cap()

    def _evict_over_cap(self) -> None:
        evicted = self._store.evict(
            lambda entries, nbytes: entries > self.max_entries)
        with self._lock:
            self.evictions += len(evicted)

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0


def _read_prediction(archive) -> Prediction:
    return Prediction(label=int(archive["label"]),
                      logits=np.array(archive["logits"]),
                      score=float(archive["score"]),
                      flagged=bool(archive["flagged"]),
                      from_cache=True)
