"""The directory-store protocol under faults and concurrency.

Every test runs over the three stores that share
``repro.utils.store.DirectoryStore``: the adversarial cache (LRU by
bytes), the disk prediction cache (LRU by count) and the quarantine
(refusing new entries at capacity).  Each adapter below writes entry
``i`` with a per-writer payload and reads it back, so one test body
covers all three.
"""

import errno
import json
import multiprocessing as mp
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.eval.cache import AdversarialCache
from repro.serve import DiskPredictionCache, QuarantineStore
from repro.serve.batcher import Prediction
from repro.utils.store import DirectoryStore


def example(i):
    return np.random.default_rng(100 + i).normal(
        size=(1, 4, 4)).astype(np.float32)


class Adversarial:
    """Capped by bytes, so every store runs the eviction path too."""

    @staticmethod
    def make(root):
        return AdversarialCache(root, keep_in_memory=False,
                                max_bytes=1 << 30)

    @staticmethod
    def key(i):
        return f"{i:064x}"

    @staticmethod
    def payload(i, writer=0):
        return np.full((2, 3), 10 * i + writer, dtype=np.float32)

    @classmethod
    def put(cls, store, i, writer=0):
        store.store(cls.key(i), cls.payload(i, writer))

    @classmethod
    def get(cls, store, i):
        return store.load(cls.key(i))


class Disk:
    @staticmethod
    def make(root):
        return DiskPredictionCache(root)

    @staticmethod
    def key(i):
        return DiskPredictionCache.key("fp", example(i))

    @staticmethod
    def payload(i, writer=0):
        return np.full(5, 10 * i + writer, dtype=np.float32)

    @classmethod
    def put(cls, store, i, writer=0):
        logits = cls.payload(i, writer)
        store.store("fp", example(i),
                    Prediction(label=int(logits.argmax()), logits=logits))

    @staticmethod
    def get(store, i):
        (hit,) = store.lookup("fp", example(i)[None])
        return None if hit is None else hit.logits


class Quarantine:
    @staticmethod
    def make(root):
        return QuarantineStore(root)

    @staticmethod
    def key(i):
        return QuarantineStore.key(example(i))

    @staticmethod
    def payload(i, writer=0):
        return np.array([10 * i + writer], dtype=np.float64)

    @classmethod
    def put(cls, store, i, writer=0):
        store.store(example(i), float(cls.payload(i, writer)[0]), "m")

    @staticmethod
    def get(store, i):
        images, scores = store.examples()
        found = [score for image, score in zip(images, scores)
                 if np.array_equal(image, example(i))]
        return np.array(found) if found else None


KINDS = {"adversarial": Adversarial, "disk": Disk, "quarantine": Quarantine}
#: Caches journal a recency bump per hit; the quarantine has no hits.
BUMPS = {"adversarial": True, "disk": True, "quarantine": False}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return request.param


@pytest.fixture
def registry():
    fresh = obs.MetricsRegistry()
    old = obs.set_registry(fresh)
    yield fresh
    obs.set_registry(old)


def journal_keys(root, store):
    """Keys of the parseable journal records, in order."""
    keys = []
    with open(os.path.join(root, type(store).JOURNAL_NAME), "rb") as handle:
        for line in handle:
            try:
                keys.append(json.loads(line)["key"])
            except ValueError:
                continue
    return keys


def temp_files(root):
    return [name for name in os.listdir(root) if ".tmp" in name]


# ---------------------------------------------------------------------- #
# spawn targets (module level so a spawned child can import them)
# ---------------------------------------------------------------------- #
def _write(kind, root, i, writer):
    adapter = KINDS[kind]
    adapter.put(adapter.make(root), i, writer)


def _write_then_die(kind, root, point):
    """Store entry 0, SIGKILLed at ``point`` of the publication."""
    def die(*args, **kwargs):
        os.kill(os.getpid(), signal.SIGKILL)

    if point == "archive":
        def partial_savez(handle, **arrays):
            handle.write(b"PK\x03\x04")
            handle.flush()
            die()
        np.savez = partial_savez
    else:
        DirectoryStore._append = die
    _write(kind, root, 0, 0)


def run_spawned(target, arg_lists, timeout=120.0):
    ctx = mp.get_context("spawn")
    procs = [ctx.Process(target=target, args=args) for args in arg_lists]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout)
    assert not any(proc.is_alive() for proc in procs)
    return [proc.exitcode for proc in procs]


# ---------------------------------------------------------------------- #
# crashes
# ---------------------------------------------------------------------- #
def test_sigkill_inside_archive_write_publishes_nothing(kind, tmp_path):
    adapter = KINDS[kind]
    root = str(tmp_path / "store")
    (code,) = run_spawned(_write_then_die, [(kind, root, "archive")])
    assert code == -signal.SIGKILL
    fresh = adapter.make(root)
    assert len(fresh) == 0
    assert adapter.get(fresh, 0) is None
    # The lock died with its holder: the next writer is not wedged.
    adapter.put(fresh, 0, writer=1)
    np.testing.assert_array_equal(adapter.get(fresh, 0),
                                  adapter.payload(0, writer=1))


def test_sigkill_between_rename_and_journal_keeps_entry(kind, tmp_path):
    adapter = KINDS[kind]
    root = str(tmp_path / "store")
    (code,) = run_spawned(_write_then_die, [(kind, root, "journal")])
    assert code == -signal.SIGKILL
    fresh = adapter.make(root)
    assert len(fresh) == 1                  # adopted from the directory
    np.testing.assert_array_equal(adapter.get(fresh, 0), adapter.payload(0))
    adapter.put(fresh, 1)
    assert len(adapter.make(root)) == 2


@pytest.mark.parametrize("tear", ["append", "truncate"])
def test_record_after_torn_journal_tail_survives(kind, tear, tmp_path):
    """A crashed append leaves a torn last line.  It is skipped, and the
    next record lands on a line of its own instead of extending it."""
    adapter = KINDS[kind]
    store = adapter.make(tmp_path)
    adapter.put(store, 0)
    adapter.put(store, 1)
    journal = tmp_path / type(store).JOURNAL_NAME
    before = [adapter.key(0), adapter.key(1)]
    if tear == "append":
        with open(journal, "a") as handle:
            handle.write('{"key": "tru')    # crash mid-append
    else:
        os.truncate(journal, journal.stat().st_size - 5)
        before.pop()
    assert journal_keys(tmp_path, store) == before
    fresh = adapter.make(tmp_path)
    assert len(fresh) == 2                  # torn line skipped, not fatal
    np.testing.assert_array_equal(adapter.get(fresh, 0), adapter.payload(0))
    if kind == "quarantine":
        assert len(fresh.manifest()) == 2
        assert len(fresh.examples()[0]) == 2
    adapter.put(fresh, 2)
    after = ([adapter.key(0)] if BUMPS[kind] else []) + [adapter.key(2)]
    assert journal_keys(tmp_path, store) == before + after
    assert len(adapter.make(tmp_path)) == 3
    if kind == "quarantine":
        assert len(fresh.manifest()) == 3


def test_failed_write_leaves_no_temp_file(kind, tmp_path, monkeypatch):
    adapter = KINDS[kind]
    store = adapter.make(tmp_path)
    adapter.put(store, 0)
    before = sorted(os.listdir(tmp_path))

    def full_disk(file, **arrays):
        # np.savez takes a file name or an open file.
        handle = open(file, "wb") if isinstance(file, str) else file
        try:
            handle.write(b"PK\x03\x04")     # part of the archive lands
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        finally:
            if handle is not file:
                handle.close()

    monkeypatch.setattr(np, "savez", full_disk)
    with pytest.raises(OSError) as raised:
        adapter.put(store, 1)
    assert raised.value.errno == errno.ENOSPC
    assert sorted(os.listdir(tmp_path)) == before
    assert before == sorted([type(store).LOCK_NAME, type(store).JOURNAL_NAME,
                             adapter.key(0) + ".npz"])


def test_directory_in_the_previous_layout_opens(kind, tmp_path):
    """Earlier releases journaled no ``size`` (the prediction cache and
    the quarantine) and named temps ``<key>.npz.<pid>.<tid>.tmp.npz``;
    such a directory opens with its entries and without the temp."""
    adapter = KINDS[kind]
    store = adapter.make(tmp_path)
    for i in range(3):
        adapter.put(store, i)
    journal = tmp_path / type(store).JOURNAL_NAME
    records = [json.loads(line) for line in journal.read_text().splitlines()]
    journal.write_text("".join(
        json.dumps({k: v for k, v in record.items() if k != "size"}) + "\n"
        for record in records))
    leftover = tmp_path / f"{adapter.key(3)}.npz.123.456.tmp.npz"
    leftover.write_bytes(b"PK\x03\x04")
    fresh = adapter.make(tmp_path)
    assert len(fresh) == 3
    assert fresh._store.total_bytes == sum(
        os.path.getsize(tmp_path / f"{adapter.key(i)}.npz") for i in range(3))
    for i in range(3):
        np.testing.assert_array_equal(adapter.get(fresh, i),
                                      adapter.payload(i))
    assert adapter.get(fresh, 3) is None


# ---------------------------------------------------------------------- #
# same-key writers
# ---------------------------------------------------------------------- #
def test_same_key_writers_across_threads(kind, tmp_path):
    """Four threads over two instances store one key, each with its own
    payload: the first publication wins and no temp file collides."""
    adapter = KINDS[kind]
    stores = [adapter.make(tmp_path) for _ in range(2)]
    barrier = threading.Barrier(4)
    errors = []

    def worker(writer):
        try:
            barrier.wait()
            for _ in range(25):
                adapter.put(stores[writer % 2], 0, writer)
        except Exception as error:  # surfaced to the main thread
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(w,), daemon=True)
               for w in range(4)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 60.0
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    fresh = adapter.make(tmp_path)
    assert len(fresh) == 1
    got = adapter.get(fresh, 0)
    assert any(np.array_equal(got, adapter.payload(0, w)) for w in range(4))
    assert temp_files(tmp_path) == []


def test_same_key_writers_across_processes(kind, tmp_path):
    adapter = KINDS[kind]
    root = str(tmp_path / "store")
    codes = run_spawned(_write, [(kind, root, 0, w) for w in range(3)])
    assert codes == [0, 0, 0]
    fresh = adapter.make(root)
    assert len(fresh) == 1
    got = adapter.get(fresh, 0)
    assert any(np.array_equal(got, adapter.payload(0, w)) for w in range(3))
    assert temp_files(root) == []


# ---------------------------------------------------------------------- #
# steady state
# ---------------------------------------------------------------------- #
def test_steady_state_never_lists_the_directory(kind, tmp_path, registry,
                                                monkeypatch):
    """After an instance's first read, stores, lookups, ``len`` and
    metric scrapes follow the journal instead of listing the directory."""
    adapter = KINDS[kind]
    store = adapter.make(tmp_path)
    adapter.put(store, 0)
    assert len(store) == 1
    listings = []
    for name in ("listdir", "scandir"):
        real = getattr(os, name)
        monkeypatch.setattr(
            os, name, lambda *args, _real=real, _name=name:
            listings.append(_name) or _real(*args))
    for i in range(1, 6):
        adapter.put(store, i)
        np.testing.assert_array_equal(adapter.get(store, i),
                                      adapter.payload(i))
        assert len(store) == i + 1
        registry.render()
    assert listings == []


def test_compaction_keeps_order_fields_and_other_views(tmp_path,
                                                       monkeypatch):
    """A journal past ``max(COMPACT_THRESHOLD, 2 * live)`` lines is
    rewritten as one publication record per live entry, in recency
    order; an instance that read the old journal rebuilds its view."""
    monkeypatch.setattr(DirectoryStore, "COMPACT_THRESHOLD", 4)
    root = str(tmp_path)
    one = DirectoryStore(root, "store.journal", "store.lock")
    two = DirectoryStore(root, "store.journal", "store.lock")
    for i in range(3):
        one.publish(f"k{i}", {"a": np.zeros(1)}, fields={"model": f"m{i}"})
    assert len(two) == 3                    # read before the rewrite
    one.touch(["k0"] * 4)                   # the 7th line compacts
    lines = (tmp_path / "store.journal").read_text().splitlines()
    assert len(lines) == 3
    assert [r["model"] for r in one.records()] == ["m1", "m2", "m0"]
    assert two.keys() == one.keys() == ["k1", "k2", "k0"]
