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
engine points every worker at one cache root): entries are published by
atomic write-then-rename, and recency is recorded in an explicit sidecar
journal (``recency.journal``) guarded by a lock file rather than inferred
from file mtimes — mtime has ~1s granularity on some filesystems, which
made same-second entries evict in arbitrary order and let a cross-process
``touch`` land on (and appear to resurrect) an entry another process had
just evicted.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import os
import threading
import time
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from .. import backend as _backend
from .. import nn
from ..attacks.base import Attack

__all__ = ["AdversarialCache", "fingerprint_model", "fingerprint_attack",
           "fingerprint_data", "fingerprint_array", "cache_key"]

try:  # POSIX advisory locks; the fallback below covers other platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None


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


class _DirectoryLock:
    """Advisory cross-process lock on one file inside the cache root.

    ``fcntl.flock`` where available (released by the kernel even if the
    holder crashes); elsewhere an ``O_EXCL`` spin with a staleness bound so
    a dead holder cannot wedge the cache forever.  Re-entrant within one
    thread so journal helpers can compose; threads sharing one instance
    take turns on an in-process ``RLock`` first, since the depth count
    and the held fd are per instance, not per thread.
    """

    #: A create-exclusive lock older than this is presumed abandoned.
    STALE_SECONDS = 30.0

    def __init__(self, path: str) -> None:
        self.path = path
        self._fd: Optional[int] = None
        self._depth = 0
        self._mutex = threading.RLock()

    def __enter__(self) -> "_DirectoryLock":
        self._mutex.acquire()
        try:
            if self._depth == 0:
                self._acquire_file()
        except BaseException:
            self._mutex.release()
            raise
        self._depth += 1
        return self

    def __exit__(self, *exc) -> None:
        try:
            self._depth -= 1
            if self._depth == 0 and self._fd is not None:
                self._release_file()
        finally:
            self._mutex.release()

    def _acquire_file(self) -> None:
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        if fcntl is not None:
            self._fd = os.open(self.path, os.O_CREAT | os.O_RDWR)
            fcntl.flock(self._fd, fcntl.LOCK_EX)
            return
        while True:  # pragma: no cover - non-POSIX
            try:
                self._fd = os.open(self.path,
                                   os.O_CREAT | os.O_EXCL | os.O_RDWR)
                return
            except FileExistsError:
                try:
                    if (time.time() - os.path.getmtime(self.path)
                            > self.STALE_SECONDS):
                        os.unlink(self.path)
                        continue
                except OSError:
                    pass
                time.sleep(0.01)

    def _release_file(self) -> None:
        assert self._fd is not None
        if fcntl is not None:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
        else:  # pragma: no cover - non-POSIX
            os.close(self._fd)
            try:
                os.unlink(self.path)
            except OSError:
                pass
        self._fd = None


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
        Optional cap on the on-disk footprint.  When set, entries are
        tracked least-recently-used via the sidecar recency journal (see
        below) and the oldest are deleted after each store until the
        directory fits.  Eviction only ever deletes *finished* entries —
        :meth:`get_or_generate` returns the freshly-crafted batch it just
        stored regardless, so a cap that is too small degrades into extra
        regeneration, never into wrong results.  Eviction re-reads the
        journal under the directory lock, so the cap is enforced over the
        whole directory and respects recency bumps made by *other*
        processes sharing it.

    Recency journal
    ---------------
    ``<root>/recency.journal`` is an append-only JSONL sidecar: one record
    per store (and, for capped instances, per hit), appended under
    ``<root>/cache.lock``.  Replaying it yields the authoritative
    least-recently-used order — no mtime involved, so same-second entries
    keep their true order and an evicted key cannot be resurrected by a
    concurrent recency bump.  Entries on disk that predate the journal are
    ranked least-recent (deterministically, by name).  A torn final line
    (crash mid-append) is skipped on replay; the journal is compacted in
    place once it accumulates enough dead weight.
    """

    JOURNAL_NAME = "recency.journal"
    LOCK_NAME = "cache.lock"
    #: Journal lines tolerated before a locked rewrite compacts them.
    COMPACT_THRESHOLD = 4096

    def __init__(self, root: Union[str, os.PathLike],
                 keep_in_memory: bool = True,
                 max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.root = os.fspath(root)
        self.keep_in_memory = keep_in_memory
        self.max_bytes = max_bytes
        self._memory: dict = {}
        self._lru: "collections.OrderedDict[str, int]" = \
            collections.OrderedDict()
        self._lock = _DirectoryLock(os.path.join(self.root, self.LOCK_NAME))
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if max_bytes is not None and os.path.isdir(self.root):
            with self._lock:
                self._lru = self._replay_recency()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.npz")

    @property
    def _journal_path(self) -> str:
        return os.path.join(self.root, self.JOURNAL_NAME)

    def spec(self) -> dict:
        """Constructor kwargs that re-open this cache elsewhere — the
        sharded engine hands them to worker processes, which must build
        their own instances over the shared directory."""
        return {"root": self.root, "max_bytes": self.max_bytes}

    # ------------------------------------------------------------------ #
    # recency journal
    # ------------------------------------------------------------------ #
    def _journal_records(self) -> Iterator[dict]:
        try:
            with open(self._journal_path, "r") as handle:
                for line in handle:
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue  # torn tail line from a crashed append
                    if isinstance(record, dict) and "key" in record:
                        yield record
        except OSError:
            return

    def _journal_append(self, record: dict) -> None:
        with self._lock:
            with open(self._journal_path, "a") as handle:
                handle.write(json.dumps(record) + "\n")

    def _disk_entries(self) -> dict:
        """``{key: size}`` for every finished entry in the directory."""
        entries = {}
        if not os.path.isdir(self.root):
            return entries
        for fname in os.listdir(self.root):
            if not fname.endswith(".npz") or fname.endswith(".tmp.npz"):
                continue
            try:
                entries[fname[:-len(".npz")]] = \
                    os.path.getsize(os.path.join(self.root, fname))
            except OSError:
                continue
        return entries

    def _replay_recency(self) -> "collections.OrderedDict[str, int]":
        """Authoritative LRU order (oldest first).  Call under the lock."""
        on_disk = self._disk_entries()
        order: "collections.OrderedDict[str, None]" = \
            collections.OrderedDict()
        lines = 0
        for record in self._journal_records():
            lines += 1
            key = record["key"]
            if record.get("evicted"):
                order.pop(key, None)
            elif key in on_disk:
                order[key] = None
                order.move_to_end(key)
        # Entries never journaled (legacy caches, foreign writers, or a
        # crash between rename and append) rank least-recent, in a
        # deterministic order.
        lru: "collections.OrderedDict[str, int]" = collections.OrderedDict()
        for key in sorted(set(on_disk) - set(order)):
            lru[key] = on_disk[key]
        for key in order:
            lru[key] = on_disk[key]
        if lines > self.COMPACT_THRESHOLD:
            self._compact_journal(lru)
        return lru

    def _compact_journal(
            self, lru: "collections.OrderedDict[str, int]") -> None:
        """Rewrite the journal as one record per live key.  Under lock."""
        tmp = f"{self._journal_path}.{os.getpid()}.tmp"
        with open(tmp, "w") as handle:
            for key, size in lru.items():
                handle.write(json.dumps({"key": key, "size": size}) + "\n")
        os.replace(tmp, self._journal_path)

    @property
    def total_bytes(self) -> int:
        """On-disk footprint of the entries this instance tracks."""
        return sum(self._lru.values())

    def _touch(self, key: str) -> None:
        """Mark ``key`` most-recently-used (journaled, not mtime)."""
        if self.max_bytes is None:
            return
        if key not in self._lru:
            # A hit on an entry another process stored after this
            # instance's construction: adopt it, so the recency bump
            # below still reaches the journal — otherwise a hot foreign
            # entry would keep ranking by its original store record and
            # evict first.
            try:
                self._lru[key] = os.path.getsize(self._path(key))
            except OSError:
                return  # entry vanished (concurrent eviction); no bump
        self._lru.move_to_end(key)
        self._journal_append({"key": key})

    def _forget(self, key: str) -> None:
        self._lru.pop(key, None)
        self._memory.pop(key, None)

    def _evict_over_cap(self) -> None:
        assert self.max_bytes is not None
        if self.total_bytes <= self.max_bytes:
            # Under-cap by this instance's own view: no lock, no replay.
            # Foreign entries this view hasn't seen are picked up by the
            # next over-cap store or the next construction — the cap is
            # a footprint bound, not a hard real-time invariant, and an
            # O(directory) locked scan per store would serialize every
            # writer sharing the directory.
            return
        with self._lock:
            # Re-replay under the lock: another process may have stored,
            # touched or evicted since we last looked, and eviction must
            # rank by the *global* recency, not this instance's view.
            lru = self._replay_recency()
            while sum(lru.values()) > self.max_bytes and lru:
                key, _ = lru.popitem(last=False)
                self._memory.pop(key, None)
                try:
                    os.remove(self._path(key))
                except OSError:
                    pass
                self._journal_append({"key": key, "evicted": True})
                self.evictions += 1
            self._lru = lru

    def load(self, key: str) -> Optional[np.ndarray]:
        """Return the stored batch for ``key``, or ``None`` on a miss.

        An unreadable entry (torn by a crash outside the write-then-rename
        window, or hand-edited) is dropped and treated as a miss rather
        than poisoning every later run.
        """
        if key in self._memory:
            self._touch(key)
            return self._memory[key].copy()
        path = self._path(key)
        if not os.path.exists(path):
            self._lru.pop(key, None)
            return None
        try:
            with np.load(path) as archive:
                adv = archive["adv"]
        except Exception:
            try:
                os.remove(path)
            except OSError:
                pass
            self._forget(key)
            return None
        self._touch(key)
        if self.keep_in_memory:
            self._memory[key] = adv.copy()
        return adv

    def store(self, key: str, adv: np.ndarray) -> None:
        """Persist a finished batch under ``key``."""
        os.makedirs(self.root, exist_ok=True)
        # Write-then-rename so a crashed run never leaves a torn entry.
        # The temp name is per-process and per-thread so concurrent
        # writers sharing a cache directory cannot interleave writes into
        # (or rename away) one file; the .npz suffix keeps np.savez from
        # renaming it.
        path = self._path(key)
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp.npz"
        np.savez(tmp, adv=adv)
        os.replace(tmp, path)
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0
        # Journal the store regardless of capping: an uncapped writer's
        # entries must still carry recency for any capped process sharing
        # the directory.
        self._journal_append({"key": key, "size": size})
        if self.keep_in_memory:
            self._memory[key] = np.array(adv, copy=True)
        if self.max_bytes is not None:
            self._lru[key] = size
            self._lru.move_to_end(key)
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
        if not os.path.isdir(self.root):
            return 0
        return sum(1 for f in os.listdir(self.root)
                   if f.endswith(".npz") and not f.endswith(".tmp.npz"))
