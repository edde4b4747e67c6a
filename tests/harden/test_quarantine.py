"""QuarantineStore: dedupe, ordering, capacity, metrics, multi-consumer."""

import json
import os

import numpy as np
import pytest

from repro import obs
from repro.obs import MetricsRegistry
from repro.serve import FlagSink, QuarantineStore


@pytest.fixture
def images():
    rng = np.random.default_rng(5)
    return rng.normal(size=(6, 1, 8, 8)).astype(np.float32)


def test_store_and_examples_roundtrip(tmp_path, images):
    store = QuarantineStore(tmp_path / "q")
    n = store.submit("m", images[:3], np.array([0.9, 0.8, 0.7]))
    assert n == 3 and len(store) == 3
    got, scores = store.examples()
    assert got.shape == (3, 1, 8, 8) and scores.shape == (3,)
    # Content round-trips exactly (order is by content key, not arrival).
    want = {img.tobytes() for img in images[:3]}
    assert {img.tobytes() for img in got} == want


def test_duplicates_are_counted_not_stored(tmp_path, images):
    store = QuarantineStore(tmp_path / "q")
    store.submit("m", images[:2], np.array([0.9, 0.8]))
    stored = store.submit("m", images[:2], np.array([0.9, 0.8]))
    assert stored == 0
    assert len(store) == 2 and store.duplicates == 2


def test_capacity_drops_new_not_old(tmp_path, images):
    store = QuarantineStore(tmp_path / "q", max_entries=2)
    store.submit("m", images[:2], np.array([0.9, 0.8]))
    first_keys = sorted(r["key"] for r in store.manifest())
    store.submit("m", images[2:5], np.array([0.7, 0.6, 0.5]))
    # Quarantine is evidence: the earliest captures survive, the
    # overflow is dropped (and counted), never LRU-evicted.
    assert len(store) == 2 and store.dropped == 3
    assert sorted(r["key"] for r in store.manifest()) == first_keys


def test_examples_order_is_arrival_independent(tmp_path, images):
    a = QuarantineStore(tmp_path / "a")
    b = QuarantineStore(tmp_path / "b")
    scores = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
    a.submit("m", images, scores)
    b.submit("m", images[::-1].copy(), scores[::-1].copy())
    ax, ascores = a.examples()
    bx, bscores = b.examples()
    np.testing.assert_array_equal(ax, bx)
    np.testing.assert_array_equal(ascores, bscores)
    assert a.fingerprint() == b.fingerprint()


def test_two_stores_share_one_directory(tmp_path, images):
    """The SO_REUSEPORT deployment: every worker opens the same root."""
    root = tmp_path / "shared"
    a = QuarantineStore(root)
    b = QuarantineStore(root)
    a.submit("m", images[:2], np.array([0.9, 0.8]))
    stored = b.submit("m", images[1:3], np.array([0.8, 0.7]))
    assert stored == 1 and b.duplicates == 1    # cross-process dedupe
    assert len(QuarantineStore(root)) == 3      # fresh reader sees all
    x, _ = QuarantineStore(root).examples()
    assert len(x) == 3


def test_torn_entry_leaves_fine_tune_provenance_exact(tmp_path, images):
    """``fine_tune`` records ``fingerprint()`` and the row count next to
    the rows ``examples()`` returned: a torn entry must drop out of all
    three, not just the rows."""
    store = QuarantineStore(tmp_path / "q")
    store.submit("m", images[:3], np.array([0.9, 0.8, 0.7]))
    torn = os.path.join(store.root, QuarantineStore.key(images[2]) + ".npz")
    with open(torn, "wb") as handle:
        handle.write(b"torn")               # crashed writer stand-in
    x, _ = store.examples()
    assert len(x) == 2 and len(store) == 2
    good = QuarantineStore(tmp_path / "good")
    good.submit("m", images[:2], np.array([0.9, 0.8]))
    assert store.fingerprint() == good.fingerprint()


def test_journal_records_provenance(tmp_path, images):
    store = QuarantineStore(tmp_path / "q")
    store.submit("modelA", images[:1], np.array([0.75]))
    journal = os.path.join(store.root, QuarantineStore.JOURNAL_NAME)
    (line,) = open(journal, encoding="utf-8").read().splitlines()
    entry = json.loads(line)
    assert entry["model"] == "modelA"
    assert entry["score"] == pytest.approx(0.75)


def test_empty_store(tmp_path):
    store = QuarantineStore(tmp_path / "q")
    assert len(store) == 0
    x, scores = store.examples()
    assert x.shape[0] == 0 and scores.shape == (0,)
    assert store.fingerprint()              # defined even when empty


def test_metrics_surface(tmp_path, images):
    registry = MetricsRegistry()
    old = obs.set_registry(registry)
    try:
        store = QuarantineStore(tmp_path / "q", max_entries=2)
        store.submit("m", images[:3], np.array([0.9, 0.8, 0.7]))
        store.submit("m", images[:1], np.array([0.9]))
        text = registry.render()
    finally:
        obs.set_registry(old)
    assert "repro_serve_quarantine_stored_total 2" in text
    assert "repro_serve_quarantine_dropped_total 1" in text
    assert "repro_serve_quarantine_duplicates_total 1" in text
    assert "repro_serve_quarantine_entries 2" in text


def test_flag_sink_base_is_abstract(images):
    with pytest.raises(NotImplementedError):
        FlagSink().submit("m", images[:1], np.array([0.5]))
