"""Adversarial cache correctness: bit-identical replay, key invalidation."""

import numpy as np
import pytest

from repro.attacks import BIM, FGSM
from repro.eval.cache import (
    AdversarialCache,
    cache_key,
    fingerprint_attack,
    fingerprint_data,
    fingerprint_model,
)
from repro.utils.store import DirectoryStore
from tests.conftest import TinyNet, make_blobs_dataset


@pytest.fixture
def setup():
    data = make_blobs_dataset(n=16, seed=2)
    model = TinyNet(num_classes=4, seed=0)
    model(np.zeros((1, 1, 8, 8), dtype=np.float32))  # build the lazy head
    return model, data.images, data.labels


ATTACK = BIM(eps=0.3, step=0.1, iterations=3)


class TestBitIdenticalReplay:
    def test_hit_returns_identical_batch(self, setup, tmp_path):
        model, x, y = setup
        cache = AdversarialCache(tmp_path / "adv")
        first, hit1 = cache.get_or_generate(ATTACK, model, x, y)
        second, hit2 = cache.get_or_generate(ATTACK, model, x, y)
        assert (hit1, hit2) == (False, True)
        assert second.dtype == first.dtype
        np.testing.assert_array_equal(second, first)

    def test_disk_roundtrip_is_bit_identical(self, setup, tmp_path):
        """A fresh cache instance (no in-memory layer) replays from disk."""
        model, x, y = setup
        root = tmp_path / "adv"
        first, _ = AdversarialCache(root).get_or_generate(ATTACK, model, x, y)
        reread, hit = AdversarialCache(
            root, keep_in_memory=False).get_or_generate(ATTACK, model, x, y)
        assert hit is True
        assert reread.tobytes() == first.tobytes()

    def test_hit_miss_counters(self, setup, tmp_path):
        model, x, y = setup
        cache = AdversarialCache(tmp_path / "adv")
        cache.get_or_generate(ATTACK, model, x, y)
        cache.get_or_generate(ATTACK, model, x, y)
        cache.get_or_generate(FGSM(eps=0.3), model, x, y)
        assert cache.hits == 1
        assert cache.misses == 2
        assert len(cache) == 2


class TestKeyInvalidation:
    def test_mutating_weights_invalidates(self, setup, tmp_path):
        model, x, y = setup
        cache = AdversarialCache(tmp_path / "adv")
        cache.get_or_generate(ATTACK, model, x, y)
        before = fingerprint_model(model)
        next(iter(model.parameters())).data += 1e-3
        assert fingerprint_model(model) != before
        _, hit = cache.get_or_generate(ATTACK, model, x, y)
        assert hit is False

    def test_attack_config_changes_invalidate(self, setup):
        model, x, y = setup
        base = fingerprint_attack(ATTACK)
        assert fingerprint_attack(BIM(eps=0.31, step=0.1,
                                      iterations=3)) != base
        assert fingerprint_attack(BIM(eps=0.3, step=0.1,
                                      iterations=4)) != base
        assert fingerprint_attack(BIM(eps=0.3, step=0.1, iterations=3,
                                      early_stop=True)) != base
        # Different attack class at identical hyper-parameters.
        assert fingerprint_attack(FGSM(eps=0.3)) != base

    def test_data_changes_invalidate(self, setup):
        _, x, y = setup
        base = fingerprint_data(x, y)
        bumped = x.copy()
        bumped[0, 0, 0, 0] += 1e-6
        assert fingerprint_data(bumped, y) != base
        relabeled = y.copy()
        relabeled[0] = (relabeled[0] + 1) % 4
        assert fingerprint_data(x, relabeled) != base

    def test_key_is_deterministic(self, setup):
        model, x, y = setup
        assert cache_key(model, ATTACK, x, y) == \
            cache_key(model, ATTACK, x, y)

    def test_identical_config_different_instances_share_key(self, setup):
        model, x, y = setup
        twin = BIM(eps=0.3, step=0.1, iterations=3)
        assert cache_key(model, ATTACK, x, y) == cache_key(model, twin, x, y)


class TestLRUEviction:
    """The ``max_bytes`` cap: bounded footprint, uncorrupted results."""

    def attacks(self, n):
        return [BIM(eps=0.1 + 0.05 * i, step=0.1, iterations=2)
                for i in range(n)]

    def entry_bytes(self, setup, tmp_path):
        """Size of one stored entry for this batch geometry."""
        model, x, y = setup
        probe = AdversarialCache(tmp_path / "probe", max_bytes=1 << 30)
        probe.get_or_generate(ATTACK, model, x, y)
        return probe.total_bytes

    def test_footprint_stays_under_cap(self, setup, tmp_path):
        model, x, y = setup
        size = self.entry_bytes(setup, tmp_path)
        cache = AdversarialCache(tmp_path / "adv", max_bytes=3 * size)
        for attack in self.attacks(5):
            cache.get_or_generate(attack, model, x, y)
        assert cache.total_bytes <= 3 * size
        assert len(cache) == 3          # on disk too, not just in the index
        assert cache.evictions == 2

    def test_eviction_is_least_recently_used(self, setup, tmp_path):
        model, x, y = setup
        size = self.entry_bytes(setup, tmp_path)
        cache = AdversarialCache(tmp_path / "adv", max_bytes=2 * size)
        first, second, third = self.attacks(3)
        cache.get_or_generate(first, model, x, y)
        cache.get_or_generate(second, model, x, y)
        cache.get_or_generate(first, model, x, y)   # touch: first is now MRU
        cache.get_or_generate(third, model, x, y)   # evicts second, not first
        _, hit_first = cache.get_or_generate(first, model, x, y)
        assert hit_first is True
        _, hit_second = cache.get_or_generate(second, model, x, y)
        assert hit_second is False      # second was the LRU casualty

    def test_eviction_never_corrupts_results(self, setup, tmp_path):
        """The regression the cap must not introduce: under heavy
        eviction pressure every get_or_generate still returns the exact
        batch the attack produces."""
        model, x, y = setup
        size = self.entry_bytes(setup, tmp_path)
        cache = AdversarialCache(tmp_path / "adv", max_bytes=size)  # thrash
        attacks = self.attacks(3)
        direct = {i: attack(model, x, y)
                  for i, attack in enumerate(attacks)}
        for _ in range(2):              # every entry evicted and remade
            for i, attack in enumerate(attacks):
                got, _ = cache.get_or_generate(attack, model, x, y)
                np.testing.assert_array_equal(got, direct[i])

    def test_recency_survives_reconstruction(self, setup, tmp_path):
        """A new instance over the same directory replays the recency
        journal and keeps enforcing the cap."""
        model, x, y = setup
        size = self.entry_bytes(setup, tmp_path)
        root = tmp_path / "adv"
        first = AdversarialCache(root, max_bytes=4 * size)
        for attack in self.attacks(3):
            first.get_or_generate(attack, model, x, y)
        reopened = AdversarialCache(root, max_bytes=2 * size)
        assert reopened.total_bytes == 3 * size     # inherited entries
        reopened.get_or_generate(self.attacks(4)[3], model, x, y)
        assert reopened.total_bytes <= 2 * size
        assert len(reopened) == 2

    def test_uncapped_cache_never_evicts(self, setup, tmp_path):
        model, x, y = setup
        cache = AdversarialCache(tmp_path / "adv")   # max_bytes=None
        for attack in self.attacks(4):
            cache.get_or_generate(attack, model, x, y)
        assert len(cache) == 4 and cache.evictions == 0

    def test_max_bytes_validation(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            AdversarialCache(tmp_path / "adv", max_bytes=0)


class TestRecencyJournal:
    """The sidecar journal replacing mtime-ranked recency.

    mtime has ~1s granularity on some filesystems: same-second entries
    evicted in arbitrary order, and a cross-process touch racing an
    eviction could act on (and appear to resurrect) a removed key.  The
    journal is explicit, ordered and lock-guarded.
    """

    def attacks(self, n):
        return [BIM(eps=0.1 + 0.05 * i, step=0.1, iterations=2)
                for i in range(n)]

    def test_same_instant_stores_keep_true_order(self, setup, tmp_path):
        """Entries written within one filesystem-timestamp tick still
        evict strictly oldest-first (mtime could not distinguish them)."""
        model, x, y = setup
        root = tmp_path / "adv"
        writer = AdversarialCache(root, max_bytes=1 << 30)
        for attack in self.attacks(4):      # all inside the same second
            writer.get_or_generate(attack, model, x, y)
        size = writer.total_bytes // 4
        reopened = AdversarialCache(root, max_bytes=2 * size)
        reopened._evict_over_cap()
        # Probe with load() (no re-store) so the probe cannot disturb
        # the order it is checking.
        survivors = [reopened.load(cache_key(model, a, x, y)) is not None
                     for a in self.attacks(4)]
        assert survivors == [False, False, True, True]  # oldest two gone

    def test_touch_is_journaled_not_mtime(self, setup, tmp_path):
        """A hit through a *different* instance still protects the entry
        from a third instance's eviction — cross-process recency."""
        model, x, y = setup
        root = tmp_path / "adv"
        first = AdversarialCache(root, max_bytes=1 << 30)
        a, b, c = self.attacks(3)
        first.get_or_generate(a, model, x, y)
        first.get_or_generate(b, model, x, y)
        size = first.total_bytes // 2
        # Another "process" touches the older entry...
        toucher = AdversarialCache(root, keep_in_memory=False,
                                   max_bytes=1 << 30)
        assert toucher.get_or_generate(a, model, x, y)[1] is True
        # ...so a capped writer evicts b (now the true LRU), not a.
        evictor = AdversarialCache(root, keep_in_memory=False,
                                   max_bytes=2 * size)
        evictor.get_or_generate(c, model, x, y)
        assert evictor.get_or_generate(a, model, x, y)[1] is True
        assert evictor.get_or_generate(b, model, x, y)[1] is False

    def test_foreign_entry_touch_is_adopted(self, setup, tmp_path):
        """A capped instance hitting an entry stored by another process
        *after* its own construction must still journal the recency bump
        (the entry is adopted into its LRU view on first sight)."""
        model, x, y = setup
        root = tmp_path / "adv"
        a, b, c = self.attacks(3)
        capped = AdversarialCache(root, keep_in_memory=False,
                                  max_bytes=1 << 30)  # constructed first
        other = AdversarialCache(root, keep_in_memory=False,
                                 max_bytes=1 << 30)
        other.get_or_generate(a, model, x, y)   # after capped's replay
        other.get_or_generate(b, model, x, y)
        assert capped.get_or_generate(a, model, x, y)[1] is True  # bump a
        size = other.total_bytes // 2
        evictor = AdversarialCache(root, keep_in_memory=False,
                                   max_bytes=2 * size)
        evictor.get_or_generate(c, model, x, y)  # must evict b, not a
        assert evictor.get_or_generate(a, model, x, y)[1] is True
        assert evictor.get_or_generate(b, model, x, y)[1] is False

    def test_eviction_cannot_resurrect(self, setup, tmp_path):
        """An evicted key stays evicted even when another instance held
        it tracked: the journal's evict record wins over stale state."""
        model, x, y = setup
        root = tmp_path / "adv"
        a, b = self.attacks(2)
        one = AdversarialCache(root, keep_in_memory=False,
                               max_bytes=1 << 30)
        one.get_or_generate(a, model, x, y)
        size = one.total_bytes
        one.get_or_generate(b, model, x, y)
        two = AdversarialCache(root, keep_in_memory=False, max_bytes=size)
        two._evict_over_cap()               # evicts a (the LRU)
        assert one.get_or_generate(a, model, x, y)[1] is False  # regenerated
        # The regeneration re-stored it — that is a fresh journaled store,
        # not a resurrection of stale recency.
        assert one.get_or_generate(a, model, x, y)[1] is True

    def test_unjournaled_entries_rank_oldest(self, setup, tmp_path):
        """Files that predate the journal (legacy caches) are adopted as
        least-recent and evict first."""
        model, x, y = setup
        root = tmp_path / "adv"
        a, b = self.attacks(2)
        legacy = AdversarialCache(root)     # uncapped journals stores...
        legacy.get_or_generate(a, model, x, y)
        (root / AdversarialCache.JOURNAL_NAME).unlink()  # ...erase history
        size = sum(f.stat().st_size for f in root.glob("*.npz"))
        capped = AdversarialCache(root, keep_in_memory=False,
                                  max_bytes=size)
        capped.get_or_generate(b, model, x, y)
        assert capped.get_or_generate(b, model, x, y)[1] is True
        assert capped.get_or_generate(a, model, x, y)[1] is False

    def test_compaction_preserves_order(self, setup, tmp_path,
                                        monkeypatch):
        model, x, y = setup
        root = tmp_path / "adv"
        monkeypatch.setattr(DirectoryStore, "COMPACT_THRESHOLD", 4)
        cache = AdversarialCache(root, max_bytes=1 << 30)
        attacks = self.attacks(3)
        for attack in attacks:
            cache.get_or_generate(attack, model, x, y)
        for _ in range(4):                  # the 7th journal line compacts
            cache.get_or_generate(attacks[0], model, x, y)
        reopened = AdversarialCache(root, max_bytes=1 << 30)
        lines = (root / AdversarialCache.JOURNAL_NAME) \
            .read_text().strip().splitlines()
        assert len(lines) == 3              # one record per live key
        assert reopened._store.keys() == cache._store.keys()

    def test_spec_roundtrip(self, tmp_path):
        cache = AdversarialCache(tmp_path / "adv", max_bytes=123)
        twin = AdversarialCache(**cache.spec())
        assert twin.root == cache.root and twin.max_bytes == 123


class TestStorageHygiene:
    def test_load_unknown_key_returns_none(self, tmp_path):
        cache = AdversarialCache(tmp_path / "adv")
        assert cache.load("0" * 64) is None

    def test_store_creates_directory_lazily(self, setup, tmp_path):
        root = tmp_path / "deep" / "adv"
        cache = AdversarialCache(root)
        assert len(cache) == 0
        model, x, y = setup
        cache.get_or_generate(ATTACK, model, x, y)
        assert root.is_dir()
        assert len(cache) == 1

    def test_no_tmp_files_left_behind(self, setup, tmp_path):
        model, x, y = setup
        root = tmp_path / "adv"
        AdversarialCache(root).get_or_generate(ATTACK, model, x, y)
        leftovers = [f for f in root.iterdir() if ".tmp" in f.name]
        assert leftovers == []

    def test_non_torn_load_error_keeps_entry(self, tmp_path, monkeypatch):
        """An error a sound file can raise (concurrent ``np.load`` on
        CPython 3.11 sometimes fails parsing the ``.npy`` header with
        SystemError) is a miss, not a torn entry to delete."""
        cache = AdversarialCache(tmp_path / "adv", keep_in_memory=False)
        adv = np.linspace(-1, 1, 64, dtype=np.float32).reshape(4, 16)
        key = "0" * 64
        cache.store(key, adv)
        real_load = np.load
        calls = []

        def flaky_load(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise SystemError("AST constructor recursion depth mismatch")
            return real_load(*args, **kwargs)

        monkeypatch.setattr(np, "load", flaky_load)
        assert cache.load(key) is None
        assert len(cache) == 1
        np.testing.assert_array_equal(cache.load(key), adv)
