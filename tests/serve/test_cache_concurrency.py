"""PredictionCache under thread contention: counters must stay exact.

The cache is shared across lanes (and may be shared across servers), so
its LRU dict and hit/miss counters are mutated from whichever thread is
pumping.  Unguarded ``+=`` on the counters drops increments under
contention and concurrent ``OrderedDict`` mutation can corrupt the LRU;
this suite hammers one cache from many threads and asserts the exact
accounting invariant ``hits + misses == lookups``.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.serve.batcher import Prediction
from repro.serve.cache import DiskPredictionCache, PredictionCache


def make_examples(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 1, 4, 4)).astype(np.float32)


def prediction_for(i):
    return Prediction(label=int(i % 7),
                      logits=np.full(7, float(i), dtype=np.float32))


@pytest.fixture
def fast_thread_switching():
    """Force frequent GIL handoffs so counter races actually interleave."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(previous)


class TestThreadedCounters:
    THREADS = 8
    ROUNDS = 40
    EXAMPLES = 24

    def test_hits_plus_misses_equals_lookups(self, fast_thread_switching):
        cache = PredictionCache(max_entries=256)
        examples = make_examples(self.EXAMPLES)
        lookups = self.THREADS * self.ROUNDS * self.EXAMPLES
        barrier = threading.Barrier(self.THREADS)
        errors = []

        def worker(tid):
            try:
                barrier.wait()
                for _ in range(self.ROUNDS):
                    results = cache.lookup("model-fp", examples)
                    for i, result in enumerate(results):
                        if result is None:
                            cache.store("model-fp", examples[i],
                                        prediction_for(i))
            except Exception as error:  # surfaced to the main thread
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        assert cache.hits + cache.misses == lookups
        # Every example is stored at least once, so misses are bounded by
        # the races on first sight: at most one miss per (thread, example).
        assert cache.misses <= self.THREADS * self.EXAMPLES
        assert cache.hits > 0

    def test_eviction_accounting_under_contention(self,
                                                  fast_thread_switching):
        """A cache smaller than the working set keeps len <= max_entries
        and exact counters while threads thrash it."""
        cache = PredictionCache(max_entries=8)
        examples = make_examples(self.EXAMPLES, seed=1)
        lookups = self.THREADS * self.ROUNDS * self.EXAMPLES

        def worker():
            for _ in range(self.ROUNDS):
                for i, result in enumerate(
                        cache.lookup("fp", examples)):
                    if result is None:
                        cache.store("fp", examples[i], prediction_for(i))

        threads = [threading.Thread(target=worker)
                   for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert cache.hits + cache.misses == lookups
        assert len(cache) <= 8
        # The working set (24) exceeds the cap (8), so the thrash must
        # have evicted; same-key replacement stores never count.
        assert cache.evictions > 0
        assert cache.evictions <= cache.misses

    def test_hit_replay_stays_immutable_across_threads(self):
        """Concurrent hits each get their own logits copy."""
        cache = PredictionCache(max_entries=4)
        example = make_examples(1)[0]
        cache.store("fp", example, prediction_for(3))
        out = []

        def worker():
            result = cache.lookup("fp", example[None])[0]
            result.logits += 1.0  # mutating my copy must not leak
            out.append(result)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        clean = cache.lookup("fp", example[None])[0]
        np.testing.assert_array_equal(
            clean.logits, prediction_for(3).logits)


class TestSharedDiskCacheThreads:
    """One ``DiskPredictionCache`` instance pumped by several threads.

    Every store publishes and journals under the cache's directory lock.
    The lock's depth count and held fd are per instance, so without
    in-process serialization two threads entering at once both open an
    fd, one overwrites the other, and the first fd's flock is never
    released — wedging the directory for every process sharing it.
    Threads are daemons joined against a deadline, so a wedge fails
    instead of hanging the suite.
    """

    THREADS = 4
    ROUNDS = 50
    EXAMPLES = 8
    DEADLINE_S = 30.0

    def test_threads_sharing_one_instance_never_wedge_the_lock(
            self, tmp_path, fast_thread_switching):
        cache = DiskPredictionCache(tmp_path / "preds", max_entries=None)
        examples = make_examples(self.EXAMPLES, seed=2)
        barrier = threading.Barrier(self.THREADS)
        errors = []

        def worker():
            try:
                barrier.wait()
                for _ in range(self.ROUNDS):
                    for i, example in enumerate(examples):
                        cache.store("fp", example, prediction_for(i))
            except Exception as error:  # surfaced to the main thread
                errors.append(error)

        threads = [threading.Thread(target=worker, daemon=True)
                   for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + self.DEADLINE_S
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))

        assert not any(t.is_alive() for t in threads), \
            "threads still blocked on the directory lock"
        assert errors == []
        journal = (tmp_path / "preds" / cache.JOURNAL_NAME).read_text()
        assert len(journal.splitlines()) == \
            self.THREADS * self.ROUNDS * self.EXAMPLES
        served = cache.lookup("fp", examples)
        assert [p.label for p in served] == \
            [prediction_for(i).label for i in range(self.EXAMPLES)]

    def test_loads_take_turns(self, tmp_path, monkeypatch):
        """``np.load`` parses each ``.npy`` header with
        ``ast.literal_eval``, which on CPython 3.11 sometimes raises
        SystemError when threads parse at once: one instance's lookups
        from four threads must never be inside ``np.load`` together."""
        cache = DiskPredictionCache(tmp_path / "preds", max_entries=None)
        examples = make_examples(self.EXAMPLES, seed=3)
        for i, example in enumerate(examples):
            cache.store("fp", example, prediction_for(i))
        real_load = np.load
        guard = threading.Lock()
        inside = [0]
        peak = [0]

        def counting_load(*args, **kwargs):
            with guard:
                inside[0] += 1
                peak[0] = max(peak[0], inside[0])
            try:
                time.sleep(0.001)       # widen the overlap window
                return real_load(*args, **kwargs)
            finally:
                with guard:
                    inside[0] -= 1

        monkeypatch.setattr(np, "load", counting_load)
        barrier = threading.Barrier(self.THREADS)
        served = []

        def worker():
            barrier.wait()
            for _ in range(5):
                served.extend(cache.lookup("fp", examples))

        threads = [threading.Thread(target=worker, daemon=True)
                   for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + self.DEADLINE_S
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        assert not any(t.is_alive() for t in threads)
        assert len(served) == self.THREADS * 5 * self.EXAMPLES
        assert all(p is not None for p in served)
        assert peak[0] == 1
