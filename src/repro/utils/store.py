"""One durable directory store under every shared on-disk cache.

The adversarial cache (:mod:`repro.eval.cache`), the disk prediction
cache and the quarantine (:mod:`repro.serve`) each keep ``.npz`` entries
in a directory that several processes share.  They differ only in
capacity policy — LRU by bytes, LRU by count, refusing new entries at
capacity — and share :class:`DirectoryStore`: first-store-wins
publication by write-then-rename under :class:`DirectoryLock`, an
append-only JSONL journal of publications, recency bumps and removals
that each instance follows incrementally, and one load path that drops
torn entries.
"""

from __future__ import annotations

import collections
import contextlib
import json
import os
import tempfile
import threading
import time
import weakref
import zipfile
from functools import partial
from typing import (Any, BinaryIO, Callable, Dict, Iterator, List, Optional,
                    Set, TypeVar)

import numpy as np

try:  # POSIX advisory locks; the fallback below covers other platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

__all__ = ["DirectoryLock", "DirectoryStore", "TORN_ERRORS", "temp_file",
           "PUBLISHED", "EXISTS", "FULL"]

#: What ``np.load`` raises on a truncated, corrupt or hand-edited archive.
TORN_ERRORS = (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile)

#: Outcomes of :meth:`DirectoryStore.publish`.
PUBLISHED, EXISTS, FULL = "published", "exists", "full"

# np.load parses each .npy header with ast.literal_eval, which on CPython
# 3.11 can raise SystemError when several threads parse at once.
_LOAD_LOCK = threading.Lock()

T = TypeVar("T")


class DirectoryLock:
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

    def __enter__(self) -> "DirectoryLock":
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


@contextlib.contextmanager
def temp_file(directory: str,
              write: Callable[[BinaryIO], Any]) -> Iterator[str]:
    """Yield the path of a new temp file in ``directory`` holding what
    ``write`` wrote to it.

    The file lives in the destination directory, so renaming it into
    place is a same-filesystem :func:`os.replace`.  It is removed on exit
    unless the caller renamed it away — also when ``write`` raises, so a
    failed write (a full disk) leaves nothing behind.
    """
    fd, path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        yield path
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)


def _encode(records: List[dict]) -> bytes:
    return "".join(json.dumps(record) + "\n"
                   for record in records).encode("utf-8")


def _parse(data: bytes) -> Iterator[dict]:
    """Records on the complete lines of ``data``; others are skipped."""
    for line in data.split(b"\n")[:-1]:
        try:
            record = json.loads(line)
        except ValueError:
            continue                    # torn line from a crashed append
        if isinstance(record, dict) and isinstance(record.get("key"), str):
            yield record


class DirectoryStore:
    """``<key>.npz`` entries in one directory shared by processes.

    ``root`` also holds the lock file ``lock_name`` and the journal
    ``journal_name``, which gets one JSONL record per publication
    (``{"key", "size", **fields}``), recency bump (``{"key"}``) and
    removal (``{"key", "evicted": true}``).  A line that does not parse
    (a crashed append) is skipped, and a torn tail is ended before the
    next append so the next record survives.

    Each instance keeps a view of the live entries (``key -> size``,
    least recently used first), updated by reading only the journal
    bytes appended since its last read; the directory is listed only on
    the first read and after another process replaced the journal.
    Once the journal holds more than ``max(COMPACT_THRESHOLD, 2 * live)``
    lines it is rewritten as each live entry's publication record.

    ``root`` is created by the first publication.  Every method is safe
    to call from several threads on one instance.  Policy is the
    caller's: :meth:`publish` refuses past a ``limit`` and :meth:`evict`
    removes least recently used entries.
    """

    SUFFIX = ".npz"
    #: Journal lines tolerated (or twice the live entries, when more)
    #: before a locked rewrite compacts them.
    COMPACT_THRESHOLD = 4096

    def __init__(self, root: str, journal_name: str, lock_name: str) -> None:
        self.root = root
        self.journal_path = os.path.join(root, journal_name)
        self.lock = DirectoryLock(os.path.join(root, lock_name))
        self._view: "collections.OrderedDict[str, int]" = \
            collections.OrderedDict()
        self._bytes = 0
        # The journal the view was read from stays open, so its inode
        # number cannot be reused by a replacement while it is compared.
        self._fd: Optional[int] = None
        self._close = None
        self._inode: Optional[int] = None
        self._offset = 0                    # journal bytes applied
        self._lines = 0
        self._torn = False                  # journal ends mid-line

    def path(self, key: str) -> str:
        return os.path.join(self.root, key + self.SUFFIX)

    @contextlib.contextmanager
    def _synced(self) -> Iterator[None]:
        """Hold the lock with the view up to date.  A root that does not
        exist yet holds nothing and is not created."""
        if not os.path.isdir(self.root):
            yield
            return
        with self.lock:
            self._sync()
            yield

    def __len__(self) -> int:
        with self._synced():
            return len(self._view)

    @property
    def total_bytes(self) -> int:
        with self._synced():
            return self._bytes

    def keys(self) -> List[str]:
        """Live keys, least recently used first."""
        with self._synced():
            return list(self._view)

    def records(self) -> List[dict]:
        """Each live entry's publication record, least recently used
        first; an entry never journaled gets ``{"key", "size"}``."""
        with self._synced():
            return self._publications() if self._view else []

    def _sync(self) -> None:
        """Apply the journal bytes appended since the last read.  A new,
        replaced or truncated journal starts the view over from a
        directory listing.  Under the lock."""
        try:
            replaced = os.stat(self.journal_path).st_ino != self._inode
        except FileNotFoundError:
            replaced = True
        if replaced:
            self._open()
        on_disk: Optional[Set[str]] = None
        if replaced or os.fstat(self._fd).st_size < self._offset:
            tail = len(self.SUFFIX)
            on_disk = {name[:-tail] for name in os.listdir(self.root)
                       if name.endswith(self.SUFFIX)
                       and not name.endswith(".tmp" + self.SUFFIX)}
            self._view.clear()
            self._bytes = self._offset = self._lines = 0
            self._torn = False
        data = self._read(self._offset)
        self._offset += len(data)
        self._lines += data.count(b"\n")
        if data:
            self._torn = not data.endswith(b"\n")
        for record in _parse(data):
            self._apply(record, on_disk)
        if on_disk:
            # Never journaled (a crash between rename and append, or a
            # foreign writer): least recent, in name order.
            for key in sorted(on_disk - self._view.keys(), reverse=True):
                if self._apply({"key": key}, on_disk):
                    self._view.move_to_end(key, last=False)

    def _open(self) -> None:
        """(Re)open the journal, creating it if missing."""
        if self._close is not None:
            self._close()
        self._fd = os.open(self.journal_path,
                           os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        self._close = weakref.finalize(self, os.close, self._fd)
        self._inode = os.fstat(self._fd).st_ino

    def _read(self, start: int) -> bytes:
        return os.pread(self._fd, os.fstat(self._fd).st_size - start, start)

    def _apply(self, record: dict,
               on_disk: Optional[Set[str]] = None) -> bool:
        """Fold one record into the view; True when its key is live.

        A key the view does not hold is adopted when its file exists —
        checked against ``on_disk`` during a rebuild, trusted from a
        ``size`` field otherwise."""
        key = record["key"]
        if record.get("evicted"):
            self._drop(key)
            return False
        if key in self._view:
            self._view.move_to_end(key)
            return True
        if on_disk is not None and key not in on_disk:
            return False
        size = record.get("size")
        if not isinstance(size, int):
            try:
                size = os.path.getsize(self.path(key))
            except OSError:
                return False
        self._add(key, size)
        return True

    def _add(self, key: str, size: int) -> None:
        self._bytes += size - self._view.get(key, 0)
        self._view[key] = size
        self._view.move_to_end(key)

    def _drop(self, key: str) -> None:
        self._bytes -= self._view.pop(key, 0)

    def _append(self, records: List[dict]) -> None:
        """Journal ``records`` in one write, then compact when due.
        Under the lock, after :meth:`_sync`."""
        if not records:
            return
        data = b"\n" * self._torn + _encode(records)
        os.write(self._fd, data)
        self._offset += len(data)
        self._lines += data.count(b"\n")
        self._torn = False
        if self._lines > max(self.COMPACT_THRESHOLD, 2 * len(self._view)):
            self._compact()

    def _publications(self) -> List[dict]:
        latest: Dict[str, dict] = {}
        for record in _parse(self._read(0)):
            if len(record) > 1 and not record.get("evicted"):
                latest[record["key"]] = record
        return [dict(latest.get(key, {}), key=key, size=size)
                for key, size in self._view.items()]

    def _compact(self) -> None:
        """Rewrite the journal as one publication record per live key.
        Under the lock."""
        text = _encode(self._publications())
        with temp_file(self.root, lambda handle: handle.write(text)) as tmp:
            os.replace(tmp, self.journal_path)
        self._open()
        self._offset, self._lines = len(text), text.count(b"\n")

    def load(self, key: str, read: Callable[[Any], T]) -> Optional[T]:
        """``read(archive)`` over entry ``key``, or ``None`` on a miss.

        An archive that does not parse (torn outside the rename window,
        or hand-edited) is removed, so it cannot fail every later run.
        """
        try:
            with _LOAD_LOCK, np.load(self.path(key)) as archive:
                return read(archive)
        except FileNotFoundError:
            return None
        except TORN_ERRORS:
            self.remove([key])
            return None
        except Exception:
            # Not the file's fault (see _LOAD_LOCK): keep the entry.
            return None

    def publish(self, key: str, arrays: Dict[str, np.ndarray],
                fields: Optional[dict] = None,
                limit: Optional[int] = None) -> str:
        """Publish ``arrays`` as entry ``key``; ``fields`` join its
        journal record.

        Returns :data:`EXISTS` when the key is already published (the
        first store wins) and :data:`FULL` when the store already holds
        ``limit`` entries; both are decided under the lock.
        """
        path = self.path(key)
        if os.path.exists(path):
            return EXISTS
        os.makedirs(self.root, exist_ok=True)
        with temp_file(self.root, partial(np.savez, **arrays)) as tmp, \
                self._synced():
            if os.path.exists(path):
                return EXISTS
            if limit is not None and len(self._view) >= limit:
                return FULL
            size = os.path.getsize(tmp)
            os.replace(tmp, path)
            self._add(key, size)
            self._append([dict(key=key, size=size, **(fields or {}))])
        return PUBLISHED

    def touch(self, keys: List[str]) -> None:
        """Mark live ``keys`` most recently used, in one append."""
        with self._synced():
            self._append([{"key": key} for key in keys
                          if self._apply({"key": key})])

    def remove(self, keys: List[str]) -> None:
        """Delete entries and journal their removal, in one append."""
        with self._synced():
            for key in keys:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(self.path(key))
                self._drop(key)
            self._append([{"key": key, "evicted": True} for key in keys])

    def evict(self, over: Callable[[int, int], bool]) -> List[str]:
        """Remove least recently used entries while ``over(entries,
        total_bytes)`` holds; returns the removed keys."""
        with self._synced():
            evicted = []
            while self._view and over(len(self._view), self._bytes):
                evicted.append(next(iter(self._view)))
                self._drop(evicted[-1])
            if evicted:
                self.remove(evicted)
        return evicted
