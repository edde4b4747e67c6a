"""On-disk cache for adversarial example batches.

Crafting adversarial examples is the dominant cost of every repeated
experiment run: table3, table4 and the transfer study all regenerate the
same (model, attack, data) triples whenever a table is re-rendered or a
downstream analysis re-uses a trained classifier.  This module memoizes the
finished batches on disk, keyed by everything the output depends on:

* a SHA-256 over the model's state dict (names, shapes, dtypes, raw bytes),
* the attack's full configuration (class, name and every dataclass field),
* a fingerprint of the input images and labels.

Any weight update, hyper-parameter change or data change therefore produces
a different key and a cache miss; a hit replays the stored ``.npz`` batch
bit-for-bit.

The directory is safe to share between processes (the sharded evaluation
engine points every worker at one cache root): it is a
:class:`~repro.utils.store.DirectoryStore`, whose entries are published by
atomic write-then-rename and whose recency is recorded in an explicit
sidecar journal (``recency.journal``) guarded by a lock file rather than
inferred from file mtimes — mtime has ~1s granularity on some filesystems,
which made same-second entries evict in arbitrary order and let a
cross-process ``touch`` land on (and appear to resurrect) an entry another
process had just evicted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Optional, Tuple, Union

import numpy as np

from .. import backend as _backend
from .. import nn
from ..attacks.base import Attack
from ..utils.store import EXISTS, DirectoryStore

__all__ = ["AdversarialCache", "fingerprint_model", "fingerprint_attack",
           "fingerprint_data", "fingerprint_array", "cache_key"]


def _hash_array(h: "hashlib._Hash", array: np.ndarray) -> None:
    array = np.ascontiguousarray(array)
    h.update(str(array.dtype).encode())
    h.update(str(array.shape).encode())
    h.update(array.tobytes())


def fingerprint_model(model: nn.Module) -> str:
    """SHA-256 over the model's weights — any training step changes it."""
    h = hashlib.sha256()
    state = model.state_dict()
    for key in sorted(state):
        h.update(key.encode())
        _hash_array(h, state[key])
    return h.hexdigest()


def fingerprint_attack(attack: Attack) -> str:
    """SHA-256 over the attack's class and full dataclass configuration."""
    config = {k: repr(v) for k, v in
              sorted(dataclasses.asdict(attack).items())}
    payload = json.dumps([type(attack).__module__,
                          type(attack).__qualname__, config])
    return hashlib.sha256(payload.encode()).hexdigest()


def fingerprint_data(images: np.ndarray, labels: np.ndarray) -> str:
    """SHA-256 over the exact input batch bytes."""
    h = hashlib.sha256()
    _hash_array(h, np.asarray(images))
    _hash_array(h, np.asarray(labels))
    return h.hexdigest()


def fingerprint_array(array: np.ndarray) -> str:
    """SHA-256 over one array's dtype, shape and exact bytes.

    The label-free sibling of :func:`fingerprint_data`, for consumers that
    hash inputs *without* ground truth — the serving layer's prediction
    cache keys each incoming example this way.
    """
    h = hashlib.sha256()
    _hash_array(h, np.asarray(array))
    return h.hexdigest()


def cache_key(model: nn.Module, attack: Attack, images: np.ndarray,
              labels: np.ndarray,
              model_fingerprint: Optional[str] = None,
              data_fingerprint: Optional[str] = None) -> str:
    """Combined key: (weight hash, attack config, data fingerprint).

    ``model_fingerprint`` / ``data_fingerprint`` let callers that run many
    attacks against one fixed model and test batch (the suite) hash each
    once instead of per attack.
    """
    h = hashlib.sha256()
    h.update((model_fingerprint or fingerprint_model(model)).encode())
    h.update(fingerprint_attack(attack).encode())
    h.update((data_fingerprint or fingerprint_data(images, labels)).encode())
    return h.hexdigest()


class AdversarialCache:
    """Directory-backed store of finished adversarial batches.

    Parameters
    ----------
    root:
        Directory for the ``.npz`` entries (created on first store).
    keep_in_memory:
        Also keep loaded/stored batches in a process-local dict so repeated
        hits within one run skip the disk round-trip.
    max_bytes:
        Optional cap on the on-disk footprint.  When set, the least
        recently used entries are deleted after each store until the
        directory fits.  Eviction only ever deletes *finished* entries —
        :meth:`get_or_generate` returns the freshly-crafted batch it just
        stored regardless, so a cap that is too small degrades into extra
        regeneration, never into wrong results.  Recency is global: the
        cap is enforced over the whole directory and respects hits made
        by *other* processes sharing it.

    A same-key store keeps the first published entry (an entry is
    deterministic per key) and counts as a recency bump; every store and
    hit is journaled in ``recency.journal`` under ``cache.lock``.
    """

    JOURNAL_NAME = "recency.journal"
    LOCK_NAME = "cache.lock"

    def __init__(self, root: Union[str, os.PathLike],
                 keep_in_memory: bool = True,
                 max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.root = os.fspath(root)
        self.keep_in_memory = keep_in_memory
        self.max_bytes = max_bytes
        self._memory: dict = {}
        self._store = DirectoryStore(self.root, self.JOURNAL_NAME,
                                     self.LOCK_NAME)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def spec(self) -> dict:
        """Constructor kwargs that re-open this cache elsewhere — the
        sharded engine hands them to worker processes, which must build
        their own instances over the shared directory."""
        return {"root": self.root, "max_bytes": self.max_bytes}

    @property
    def total_bytes(self) -> int:
        """On-disk footprint of the live entries."""
        return self._store.total_bytes

    def _evict_over_cap(self) -> None:
        assert self.max_bytes is not None
        for key in self._store.evict(
                lambda entries, nbytes: nbytes > self.max_bytes):
            self._memory.pop(key, None)
            self.evictions += 1

    def load(self, key: str) -> Optional[np.ndarray]:
        """Return the stored batch for ``key``, or ``None`` on a miss.

        An unreadable entry (torn by a crash outside the write-then-rename
        window, or hand-edited) is dropped and treated as a miss rather
        than poisoning every later run.
        """
        adv = self._memory.get(key)
        if adv is None:
            adv = self._store.load(key, lambda archive: archive["adv"])
            if adv is None:
                return None
            if self.keep_in_memory:
                self._memory[key] = adv.copy()
        else:
            adv = adv.copy()
        self._store.touch([key])
        return adv

    def store(self, key: str, adv: np.ndarray) -> None:
        """Persist a finished batch under ``key``."""
        if self._store.publish(key, {"adv": adv}) == EXISTS:
            self._store.touch([key])
        if self.keep_in_memory:
            self._memory[key] = np.array(adv, copy=True)
        if self.max_bytes is not None:
            self._evict_over_cap()

    def get_or_generate(self, attack: Attack, model: nn.Module,
                        images: np.ndarray, labels: np.ndarray,
                        model_fingerprint: Optional[str] = None,
                        data_fingerprint: Optional[str] = None
                        ) -> Tuple[np.ndarray, bool]:
        """Replay a cached batch, or run the attack and cache its output.

        Returns ``(adversarial_batch, was_hit)``.  Pass precomputed
        fingerprints when calling repeatedly against unchanged weights or
        an unchanged test batch.
        """
        key = cache_key(model, attack, images, labels,
                        model_fingerprint=model_fingerprint,
                        data_fingerprint=data_fingerprint)
        cached = self.load(key)
        if cached is not None:
            self.hits += 1
            return cached, True
        self.misses += 1
        # Sync to host *before* the store: the archive persists host bytes,
        # and a device backend's crafted batch cannot be np.savez'd as-is.
        adv = _backend.active().to_numpy(attack(model, images, labels))
        self.store(key, adv)
        return adv, False

    def __len__(self) -> int:
        return len(self._store)
