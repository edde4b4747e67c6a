"""Quarantine of gate-flagged serving traffic.

The defense gate (Sec. IV-E's serve-time filtering) used to *drop*
flagged examples after counting them; the online hardening loop needs
to keep them — they are exactly the attacker traffic the next fine-tune
round anchors the discriminator on.  Two pieces live here:

* :class:`FlagSink` — the pluggable seam the server calls with every
  freshly-forwarded flagged example.  The default is **no sink at
  all** (``Server(flag_sink=None)``), which leaves the serve path
  bitwise-identical to before this seam existed: the hook is a single
  ``is not None`` guard, the same enablement contract the tracer uses.
* :class:`QuarantineStore` — the durable sink.  One directory shared
  by every server process (the ``SO_REUSEPORT`` deployment), kept by
  the :class:`~repro.utils.store.DirectoryStore` protocol that
  ``eval.cache`` and ``DiskPredictionCache`` also use: entries
  published by atomic write-then-rename, first-store-wins under the
  shared directory lock, and an append-only JSONL journal (torn-line
  tolerant) recording arrival provenance.

Entries are **content-addressed** (SHA-256 of the example bytes), so
the same flagged example arriving at two workers — or twice at one —
is stored exactly once, and :meth:`QuarantineStore.examples` returns
the pool in content-key order: deterministic regardless of arrival
order or process interleaving, which is what makes the fine-tune step
(and therefore the whole hardening cycle) bit-reproducible.
"""

from __future__ import annotations

import hashlib
import os
import threading
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .. import obs
from ..eval.cache import fingerprint_array
from ..utils.store import EXISTS, PUBLISHED, DirectoryStore

__all__ = ["FlagSink", "QuarantineStore"]


class FlagSink:
    """Receiver of gate-flagged examples (the serve → harden seam).

    Implementations must be safe to call from the server's pump thread
    and must not mutate ``images`` (the rows alias the forward batch).
    The return value is the number of examples newly retained, so a
    caller can tell storage from deduplication.
    """

    def submit(self, model_name: str, images: np.ndarray,
               scores: np.ndarray) -> int:  # pragma: no cover - interface
        raise NotImplementedError


class QuarantineStore(FlagSink):
    """Directory-backed, multi-process store of flagged examples.

    A :class:`~repro.utils.store.DirectoryStore` (the layout
    :class:`~repro.serve.cache.DiskPredictionCache` uses): one
    ``<sha256>.npz`` per example under ``root`` (image + gate score), a
    shared ``quarantine.lock`` directory lock, and an append-only
    ``quarantine.journal`` whose publication records carry ``{"key",
    "size", "model", "score"}`` — the provenance trail :meth:`manifest`
    returns.

    ``max_entries`` caps the directory; at capacity new examples are
    **dropped and counted** (not LRU-evicted — quarantine is evidence,
    and silently rotating evidence away under an attacker's flood would
    be the wrong failure mode; the cap exists so a flood cannot fill
    the disk either).
    """

    JOURNAL_NAME = "quarantine.journal"
    LOCK_NAME = "quarantine.lock"

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
        self.stored = 0
        self.duplicates = 0
        self.dropped = 0
        obs.register(self, QuarantineStore._collect_metrics)

    def _collect_metrics(self) -> List[obs.Sample]:
        with self._lock:
            stored, duplicates, dropped = \
                self.stored, self.duplicates, self.dropped
        return [
            obs.Sample.make("repro_serve_quarantine_stored_total",
                            "counter", float(stored),
                            help="flagged examples newly quarantined"),
            obs.Sample.make("repro_serve_quarantine_duplicates_total",
                            "counter", float(duplicates),
                            help="flagged examples already quarantined"),
            obs.Sample.make("repro_serve_quarantine_dropped_total",
                            "counter", float(dropped),
                            help="flagged examples dropped at capacity"),
            obs.Sample.make("repro_serve_quarantine_entries",
                            "gauge", float(len(self._store)),
                            help="live quarantined examples"),
        ]

    def spec(self) -> dict:
        """Constructor kwargs re-opening this store in another process."""
        return {"root": self.root, "max_entries": self.max_entries}

    @staticmethod
    def key(example: np.ndarray) -> str:
        h = hashlib.sha256()
        h.update(fingerprint_array(np.asarray(example)).encode("utf-8"))
        return h.hexdigest()

    # ------------------------------------------------------------------ #
    # the FlagSink surface
    # ------------------------------------------------------------------ #
    def submit(self, model_name: str, images: np.ndarray,
               scores: np.ndarray) -> int:
        retained = 0
        for example, score in zip(images, scores):
            if self.store(example, float(score), model_name):
                retained += 1
        return retained

    def store(self, example: np.ndarray, score: float,
              model_name: str = "") -> bool:
        """Quarantine one example; True when it was newly retained."""
        outcome = self._store.publish(
            self.key(example),
            {"image": np.asarray(example, dtype=np.float32),
             "score": np.float64(score)},
            fields={"model": model_name, "score": float(score)},
            limit=self.max_entries)
        with self._lock:
            if outcome == PUBLISHED:
                self.stored += 1
            elif outcome == EXISTS:
                self.duplicates += 1
            else:
                self.dropped += 1
        return outcome == PUBLISHED

    # ------------------------------------------------------------------ #
    # consumption (the fine-tune side)
    # ------------------------------------------------------------------ #
    def examples(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every quarantined example, in content-key order.

        Returns ``(images, scores)``; the ordering is a pure function of
        the stored *set* — arrival order, thread interleaving and worker
        count all wash out, which is what lets two identical serving
        runs fine-tune bit-identically.  A torn entry is removed from
        the store, so :meth:`fingerprint` and ``len`` afterwards cover
        exactly the rows returned.
        """
        rows = [self._store.load(key, _read_example)
                for key in sorted(self._store.keys())]
        rows = [row for row in rows if row is not None]
        if not rows:
            return (np.empty((0, 0, 0, 0), dtype=np.float32),
                    np.empty((0,), dtype=np.float64))
        images, scores = zip(*rows)
        return (np.stack(images).astype(np.float32, copy=False),
                np.asarray(scores, dtype=np.float64))

    def manifest(self) -> List[Dict]:
        """Each live entry's arrival record (provenance), oldest first."""
        return self._store.records()

    def fingerprint(self) -> str:
        """Content hash of the stored *set* (fine-tune provenance)."""
        h = hashlib.sha256()
        for key in sorted(self._store.keys()):
            h.update(key.encode("utf-8"))
        return h.hexdigest()

    def __len__(self) -> int:
        return len(self._store)


def _read_example(archive) -> Tuple[np.ndarray, float]:
    return (np.array(archive["image"], dtype=np.float32),
            float(archive["score"]))
