"""Data-parallel training with a real spawn pool.

The in-process suite (test_parallel.py) pins the windowing math and the
``workers=1`` baseline cheaply; these tests pin the tentpole claim: a
training run is **bit-identical at any worker count** — parameters,
optimizer effects (via the parameters), reported losses and every RNG
stream — for every defense trainer, across ragged shards, more workers
than shards, and a mid-run kill that resumes under a different worker
count.  Kept small: each pool spawn costs interpreter startups, so the
pools are module-scoped and shared (which also exercises engine reuse of
an external pool — the ``repro train`` wiring).
"""

import numpy as np
import pytest

from repro.data import load_split
from repro.defenses.clp import CLPTrainer
from repro.defenses.cls import CLSTrainer
from repro.defenses.gandef import ZKGanDefTrainer
from repro.defenses.vanilla import VanillaTrainer
from repro.models import build_classifier
from repro.train import Checkpointer
from repro.train.parallel import ParallelTrainEngine
from repro.utils.pool import SpawnPool
from tests.conftest import make_blobs_dataset
from tests.train.test_parallel import dropout_model

#: batch 12 with shard 5 -> shards of 5, 5, 2: every step has a ragged
#: final shard, and the 4-worker pool has more workers than shards.
SHARD_SIZE = 5
BATCH = 12


@pytest.fixture(scope="module")
def pool2():
    with SpawnPool(2) as pool:
        yield pool


@pytest.fixture(scope="module")
def pool4():
    with SpawnPool(4) as pool:
        yield pool


def make_trainer(kind, seed=0, epochs=2):
    model = dropout_model(seed)
    common = dict(epochs=epochs, batch_size=BATCH, seed=seed)
    if kind == "vanilla":
        return VanillaTrainer(model, **common)
    if kind == "cls":
        return CLSTrainer(model, lam=0.1, sigma=0.1, **common)
    if kind == "clp":
        return CLPTrainer(model, lam=0.1, sigma=0.1, **common)
    if kind == "zk-gandef":
        # warmup 1 of 2 epochs: both the gamma=0 and the gamma>0
        # classifier programs run, plus the discriminator half-steps.
        return ZKGanDefTrainer(model, num_logits=4, gamma=0.5,
                               warmup_epochs=1, sigma=0.5, **common)
    raise KeyError(kind)


def fingerprint(trainer):
    """Everything the bit-identity claim covers, as comparable values."""
    params = {
        f"{mod}.{name}": np.asarray(p.data).copy()
        for mod, module in trainer.checkpoint_modules().items()
        for name, p in module.named_parameters()
    }
    streams = {name: gen.bit_generator.state
               for name, gen in trainer.rng_streams().items()}
    return params, streams


def assert_identical(a, b, label):
    (params_a, streams_a), (params_b, streams_b) = a, b
    assert params_a.keys() == params_b.keys()
    for name in params_a:
        assert np.array_equal(params_a[name], params_b[name]), \
            f"{label}: param {name}"
    assert streams_a == streams_b, f"{label}: rng streams"


def run_training(kind, workers, pool=None, epochs=2):
    data = make_blobs_dataset(n=24, seed=7)
    trainer = make_trainer(kind, epochs=epochs)
    engine = ParallelTrainEngine(trainer, workers=workers,
                                 shard_size=SHARD_SIZE, pool=pool).attach()
    try:
        history = trainer.fit(data)
    finally:
        engine.close()
    return fingerprint(trainer), list(history.losses)


@pytest.mark.parametrize("kind", ["vanilla", "cls", "clp", "zk-gandef"])
def test_bit_identity_across_worker_counts(kind, pool2, pool4):
    base_fp, base_losses = run_training(kind, workers=1)
    assert all(np.isfinite(v) for v in base_losses)
    for pool in (pool2, pool4):
        got_fp, got_losses = run_training(kind, workers=pool.workers,
                                          pool=pool)
        label = f"{kind} @ {pool.workers} workers"
        assert got_losses == base_losses, label
        assert_identical(base_fp, got_fp, label)


def train_lenet(workers, pool=None):
    """A few steps of a digits LeNet (width 8: a 784->128 dense layer)."""
    data = load_split("digits", 64, 16, seed=3).train
    trainer = VanillaTrainer(build_classifier("digits", width=8, seed=0),
                             epochs=1, batch_size=32, lr=1e-3, seed=0)
    engine = ParallelTrainEngine(trainer, workers=workers, shard_size=16,
                                 pool=pool).attach()
    try:
        trainer.fit(data)
    finally:
        engine.close()
    return {name: p.data.tobytes()
            for name, p in trainer.model.named_parameters()}


def test_bit_identity_where_blas_threads(pool2):
    """TinyNet's contractions are too small for OpenBLAS to thread, so
    they cannot tell a constant thread count from one that depends on
    the worker count.  LeNet's ``(16, 784) @ (784, 128)`` can: OpenBLAS
    returns different bits at one and two threads for it."""
    assert train_lenet(workers=2, pool=pool2) == train_lenet(workers=1)


def test_kill_and_resume_across_worker_count_change(pool2, pool4,
                                                    tmp_path):
    data = make_blobs_dataset(n=24, seed=7)

    # The uninterrupted reference: 3 epochs, in-process engine.
    ref = make_trainer("vanilla", epochs=3)
    engine = ParallelTrainEngine(ref, workers=1,
                                 shard_size=SHARD_SIZE).attach()
    ref.fit(data)
    engine.close()

    # Killed after 2 epochs at 2 workers...
    first = make_trainer("vanilla", epochs=2)
    engine = ParallelTrainEngine(first, workers=2, shard_size=SHARD_SIZE,
                                 pool=pool2).attach()
    first.fit(data, callbacks=[Checkpointer(tmp_path, every=1)])
    engine.close()

    # ...resumed under 4 workers: the checkpointed worker count is
    # provenance only, never load-bearing.
    resumed = make_trainer("vanilla", epochs=3)
    checkpointer = Checkpointer(tmp_path, every=1)
    assert checkpointer.try_resume(resumed)
    assert resumed.completed_epochs == 2
    engine = ParallelTrainEngine(resumed, workers=4,
                                 shard_size=SHARD_SIZE,
                                 pool=pool4).attach()
    resumed.fit(data, callbacks=[checkpointer])
    engine.close()

    assert resumed.history.losses == ref.history.losses
    assert_identical(fingerprint(ref), fingerprint(resumed),
                     "resume across worker-count change")


def test_run_train_shares_one_pool_with_probes(tmp_path):
    """``repro train --workers 2`` end-to-end: the gradient engine and
    the robustness probes drive the same pool, the run checkpoints its
    worker count, and the losses match the in-process engine run."""
    from repro.experiments import run_train
    from repro.train.checkpoint import read_checkpoint_meta

    pooled = run_train("digits", preset="fast", defense="vanilla", seed=0,
                       epochs=1, checkpoint_dir=tmp_path / "w2",
                       probe_every=1, workers=2)
    assert pooled.completed_epochs == 1
    assert len(pooled.probes) == 1
    meta = read_checkpoint_meta(pooled.checkpoint_path)
    assert meta["workers"] == 2

    baseline = run_train("digits", preset="fast", defense="vanilla",
                         seed=0, epochs=1, workers=1)
    assert pooled.history.losses == baseline.history.losses
