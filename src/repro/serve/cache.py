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
import json
import os
import threading
import zipfile
from typing import List, Optional, Union

import numpy as np

from .. import obs
from ..eval.cache import _DirectoryLock, fingerprint_array
from .batcher import Prediction

__all__ = ["PredictionCache", "DiskPredictionCache"]

#: What ``np.load`` raises on a truncated, corrupt or hand-edited archive.
_TORN_ERRORS = (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile)


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

    The multi-process discipline is the one ``eval.cache`` proved out:

    * entries are published by **atomic write-then-rename** with a
      per-pid temp name, so a reader never sees a torn file and
      concurrent writers never interleave;
    * a same-key store **keeps the first published entry** rather than
      overwriting, so repeats of an example stay bitwise identical to
      the first answer any worker served (forward rows differ in ulps
      across batch compositions — last-write-wins would let a repeated
      example's logits drift between replays);
    * recency lives in an append-only JSONL **journal** guarded by the
      shared ``cache.lock`` (the ``eval.cache`` lock class), never in
      mtimes; eviction down to ``max_entries`` replays the journal
      under the lock so the cap is enforced over the whole directory
      against the *global* LRU order, honoring other workers' touches;
    * an unreadable entry is dropped and treated as a miss.
    """

    JOURNAL_NAME = "recency.journal"
    LOCK_NAME = "cache.lock"
    SUFFIX = ".npz"
    #: Journal lines tolerated before a locked rewrite compacts them.
    COMPACT_THRESHOLD = 8192

    def __init__(self, root: Union[str, os.PathLike],
                 max_entries: Optional[int] = 65536) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1 when given, got {max_entries}")
        self.root = os.fspath(root)
        self.max_entries = max_entries
        self._dirlock = _DirectoryLock(
            os.path.join(self.root, self.LOCK_NAME))
        self._lock = threading.Lock()   # in-process counter safety
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Stores since the last over-cap check; scanning the directory
        #: on every store would serialize the hot path on disk IO.
        self._since_evict_check = 0
        obs.register(self, DiskPredictionCache._collect_metrics)
        obs.derive("repro_serve_prediction_cache_hit_ratio", _hit_ratio,
                   help="prediction-cache hits / probes")

    def _collect_metrics(self):
        with self._lock:
            hits, misses, evictions = self.hits, self.misses, self.evictions
        # Directory scan outside the counter lock: the entries gauge may
        # be a moment stale relative to the counters, which is fine.
        return _cache_samples(hits, misses, evictions,
                              len(self._live_keys()))

    def spec(self) -> dict:
        """Constructor kwargs re-opening this cache in another process."""
        return {"root": self.root, "max_entries": self.max_entries}

    # ------------------------------------------------------------------ #
    # keys / paths
    # ------------------------------------------------------------------ #
    @staticmethod
    def key(model_fingerprint: str, example: np.ndarray) -> str:
        h = hashlib.sha256()
        h.update(model_fingerprint.encode("utf-8"))
        h.update(fingerprint_array(example).encode("utf-8"))
        return h.hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}{self.SUFFIX}")

    @property
    def _journal_path(self) -> str:
        return os.path.join(self.root, self.JOURNAL_NAME)

    def _journal_append(self, record: dict) -> None:
        with self._dirlock:
            with open(self._journal_path, "a") as handle:
                handle.write(json.dumps(record) + "\n")

    def _live_keys(self) -> set:
        if not os.path.isdir(self.root):
            return set()
        return {f[:-len(self.SUFFIX)] for f in os.listdir(self.root)
                if f.endswith(self.SUFFIX)
                and not f.endswith(f".tmp{self.SUFFIX}")}

    def _replay_recency(self) -> "collections.OrderedDict[str, None]":
        """Global LRU order (oldest first) from the journal.  Under the
        directory lock.  Keys on disk that never hit the journal (a
        crash between rename and append) rank least-recent."""
        live = self._live_keys()
        order: "collections.OrderedDict[str, None]" = \
            collections.OrderedDict()
        lines = 0
        for record in self._journal_records():
            lines += 1
            key = record["key"]
            if record.get("evicted"):
                order.pop(key, None)
            elif key in live:
                order[key] = None
                order.move_to_end(key)
        merged: "collections.OrderedDict[str, None]" = \
            collections.OrderedDict()
        for key in sorted(live - set(order)):
            merged[key] = None
        merged.update(order)
        if lines > self.COMPACT_THRESHOLD:
            tmp = f"{self._journal_path}.{os.getpid()}.tmp"
            with open(tmp, "w") as handle:
                for key in merged:
                    handle.write(json.dumps({"key": key}) + "\n")
            os.replace(tmp, self._journal_path)
        return merged

    def _journal_records(self):
        try:
            with open(self._journal_path, "r") as handle:
                for line in handle:
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue        # torn tail from a crashed append
                    if isinstance(record, dict) and "key" in record:
                        yield record
        except OSError:
            return

    # ------------------------------------------------------------------ #
    # the PredictionCache duck type
    # ------------------------------------------------------------------ #
    def lookup(self, model_fingerprint: str,
               images: np.ndarray) -> List[Optional[Prediction]]:
        out: List[Optional[Prediction]] = []
        for example in images:
            key = self.key(model_fingerprint, example)
            prediction = self._load(key)
            if prediction is None:
                with self._lock:
                    self.misses += 1
            else:
                with self._lock:
                    self.hits += 1
                self._journal_append({"key": key})
            out.append(prediction)
        return out

    def _load(self, key: str) -> Optional[Prediction]:
        path = self._path(key)
        if not os.path.exists(path):
            return None
        try:
            with np.load(path) as archive:
                return Prediction(
                    label=int(archive["label"]),
                    logits=np.array(archive["logits"]),
                    score=float(archive["score"]),
                    flagged=bool(archive["flagged"]),
                    from_cache=True)
        except _TORN_ERRORS:
            # Torn or hand-edited entry: drop it, count a miss.
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        except Exception:
            # Not the file's fault (on CPython 3.11, concurrent np.load
            # can raise SystemError parsing a sound header): count a
            # miss and keep the entry.
            return None

    def store(self, model_fingerprint: str, example: np.ndarray,
              prediction: Prediction) -> None:
        os.makedirs(self.root, exist_ok=True)
        key = self.key(model_fingerprint, example)
        path = self._path(key)
        if not os.path.exists(path):
            # Unique per (process, thread): two servers in one process
            # (their pump threads share a pid) must not collide on the
            # temp name, or one's rename yanks the file out from under
            # the other's.
            tmp = (f"{path}.{os.getpid()}.{threading.get_ident()}"
                   f".tmp{self.SUFFIX}")
            np.savez(tmp, label=np.int64(prediction.label),
                     logits=prediction.logits,
                     score=np.float64(prediction.score),
                     flagged=np.bool_(prediction.flagged))
            with self._dirlock:
                # First-store-wins under the lock: a concurrent worker
                # that published this key keeps its entry.
                if not os.path.exists(path):
                    os.replace(tmp, path)
                else:
                    os.remove(tmp)
        self._journal_append({"key": key})
        if self.max_entries is not None:
            with self._lock:
                self._since_evict_check += 1
                due = self._since_evict_check >= \
                    max(1, self.max_entries // 8)
                if due:
                    self._since_evict_check = 0
            if due:
                self._evict_over_cap()

    def _evict_over_cap(self) -> None:
        with self._dirlock:
            lru = self._replay_recency()
            while len(lru) > self.max_entries:
                key, _ = lru.popitem(last=False)
                try:
                    os.remove(self._path(key))
                except OSError:
                    pass
                self._journal_append({"key": key, "evicted": True})
                with self._lock:
                    self.evictions += 1

    def __len__(self) -> int:
        return len(self._live_keys())

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0
