"""DiskPredictionCache: the multi-process prediction-cache tier.

Pins the properties the SO_REUSEPORT deployment leans on: the
``PredictionCache`` duck type, atomic first-store-wins publication
(repeats stay bitwise identical to the first answer any worker served),
journal-driven global LRU eviction, torn-entry tolerance, and actual
cross-process sharing.
"""

import json
import os

import numpy as np
import pytest

from repro.serve import DiskPredictionCache, PredictionCache
from repro.serve.batcher import Prediction


def make_prediction(seed=0):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=10).astype(np.float32)
    return Prediction(label=int(logits.argmax()), logits=logits,
                      score=float(seed), flagged=bool(seed % 2))


def example(seed=0):
    return np.random.default_rng(100 + seed).normal(
        size=(1, 8, 8)).astype(np.float32)


def test_disk_cache_roundtrip_and_counters(tmp_path):
    cache = DiskPredictionCache(tmp_path)
    x = example()
    (miss,) = cache.lookup("fp", x[None])
    assert miss is None and cache.misses == 1
    stored = make_prediction()
    cache.store("fp", x, stored)
    (hit,) = cache.lookup("fp", x[None])
    assert hit is not None and hit.from_cache
    assert hit.label == stored.label
    np.testing.assert_array_equal(hit.logits, stored.logits)
    assert hit.score == stored.score and hit.flagged == stored.flagged
    assert cache.hits == 1 and len(cache) == 1
    assert 0 < cache.hit_rate < 1
    # Different model fingerprint or different pixels: a miss.
    assert cache.lookup("other-fp", x[None]) == [None]
    assert cache.lookup("fp", (x + 1e-3)[None]) == [None]


def test_disk_cache_first_store_wins(tmp_path):
    """A same-key store keeps the first published entry — repeats must
    stay bitwise identical to the first answer any worker served."""
    cache = DiskPredictionCache(tmp_path)
    x = example()
    first = make_prediction(seed=1)
    drifted = make_prediction(seed=2)       # e.g. other batch composition
    cache.store("fp", x, first)
    cache.store("fp", x, drifted)
    (hit,) = cache.lookup("fp", x[None])
    np.testing.assert_array_equal(hit.logits, first.logits)
    assert hit.label == first.label


def test_disk_cache_survives_reopen(tmp_path):
    x = example()
    DiskPredictionCache(tmp_path).store("fp", x, make_prediction())
    reopened = DiskPredictionCache(tmp_path)
    (hit,) = reopened.lookup("fp", x[None])
    assert hit is not None and hit.from_cache


def test_disk_cache_spec_reopens(tmp_path):
    cache = DiskPredictionCache(tmp_path, max_entries=7)
    again = DiskPredictionCache(**cache.spec())
    assert again.root == cache.root and again.max_entries == 7


def test_disk_cache_evicts_global_lru(tmp_path):
    cache = DiskPredictionCache(tmp_path, max_entries=6)
    xs = [example(i) for i in range(8)]
    for i, x in enumerate(xs[:4]):
        cache.store("fp", x, make_prediction(i))
    # Touch the two oldest so they outrank the untouched pair.
    assert cache.lookup("fp", np.stack(xs[:2])) != [None, None]
    for i, x in enumerate(xs[4:8], start=4):
        cache.store("fp", x, make_prediction(i))
    cache._evict_over_cap()                 # deterministic, not amortized
    assert len(cache) == 6
    assert cache.evictions == 2
    # The touched entries survived over the untouched older ones.
    hits = cache.lookup("fp", np.stack(xs[:2]))
    assert all(h is not None for h in hits)
    assert cache.lookup("fp", np.stack(xs[2:4])) == [None, None]


def test_disk_cache_tolerates_torn_entries_and_journal(tmp_path):
    cache = DiskPredictionCache(tmp_path)
    x = example()
    cache.store("fp", x, make_prediction())
    key = cache.key("fp", x)
    with open(cache._store.path(key), "wb") as handle:
        handle.write(b"torn")               # crashed writer stand-in
    with open(cache._store.journal_path, "a") as handle:
        handle.write('{"key": "truncat')    # torn journal tail
    (miss,) = cache.lookup("fp", x[None])
    assert miss is None                     # dropped, counted a miss
    assert not os.path.exists(cache._store.path(key))
    # The torn journal line is skipped, not fatal.
    cache._evict_over_cap()


def test_disk_cache_keeps_entries_on_non_torn_errors(tmp_path,
                                                    monkeypatch):
    """An error a sound file can raise (concurrent ``np.load`` on
    CPython 3.11 sometimes fails parsing the ``.npy`` header with
    SystemError) is a miss, not a torn entry to delete."""
    cache = DiskPredictionCache(tmp_path)
    x = example()
    cache.store("fp", x, make_prediction())
    real_load = np.load
    calls = []

    def flaky_load(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise SystemError("AST constructor recursion depth mismatch")
        return real_load(*args, **kwargs)

    monkeypatch.setattr(np, "load", flaky_load)
    (miss,) = cache.lookup("fp", x[None])
    assert miss is None
    assert os.path.exists(cache._store.path(cache.key("fp", x)))
    (hit,) = cache.lookup("fp", x[None])
    assert hit is not None and hit.from_cache


def test_disk_cache_journal_compaction(tmp_path):
    cache = DiskPredictionCache(tmp_path, max_entries=4)
    cache._store.COMPACT_THRESHOLD = 8
    x = example()
    cache.store("fp", x, make_prediction())
    for _ in range(8):                      # the 9th journal line compacts
        cache.lookup("fp", x[None])
    cache._evict_over_cap()
    with open(cache._store.journal_path) as handle:
        lines = [json.loads(line) for line in handle]
    assert len(lines) == 1
    (hit,) = cache.lookup("fp", x[None])    # entry still lives
    assert hit is not None


def test_disk_cache_matches_memory_cache_semantics(tmp_path):
    """Same probe sequence, same hit/miss pattern as the in-memory LRU."""
    memory = PredictionCache(max_entries=64)
    disk = DiskPredictionCache(tmp_path, max_entries=64)
    xs = [example(i) for i in range(6)]
    for cache in (memory, disk):
        for i, x in enumerate(xs[:3]):
            cache.store("fp", x, make_prediction(i))
        probed = cache.lookup("fp", np.stack(xs))
        assert [p is not None for p in probed] == [True] * 3 + [False] * 3
        assert (cache.hits, cache.misses) == (3, 3)


def test_disk_cache_validates_max_entries(tmp_path):
    with pytest.raises(ValueError, match="max_entries"):
        DiskPredictionCache(tmp_path, max_entries=0)
    unbounded = DiskPredictionCache(tmp_path, max_entries=None)
    unbounded.store("fp", example(), make_prediction())
