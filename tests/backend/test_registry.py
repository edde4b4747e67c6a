"""The backend registry and selection mechanics."""

import json
import subprocess
import sys

import numpy as np
import pytest

import repro.backend as backend
from repro.backend import (
    ArrayOps,
    FastNumpyBackend,
    NumpyBackend,
    active,
    available_backends,
    get_backend,
    use,
)


class TestRegistry:
    def test_all_cpu_backends_registered(self):
        assert available_backends() == ("numpy", "fast")

    def test_instances_are_cached_and_typed(self):
        assert get_backend("numpy") is get_backend("numpy")
        assert isinstance(get_backend("numpy"), NumpyBackend)
        assert isinstance(get_backend("fast"), FastNumpyBackend)

    def test_instances_satisfy_protocol(self):
        for name in available_backends():
            assert isinstance(get_backend(name), ArrayOps)

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError, match="unknown backend"):
            get_backend("tpu")

    def test_cupy_absent_is_graceful(self):
        # cupy is not a shipped backend, installed or not; a checkpoint
        # recorded under it resolves to the reference backend.
        assert "cupy" not in available_backends()
        assert backend.resolve("cupy") == "numpy"


class TestUse:
    def test_context_manager_restores(self):
        before = active()
        with use("fast") as b:
            assert b.name == "fast"
            assert active() is b
        assert active() is before

    def test_bare_call_switches_globally(self):
        before = active()
        try:
            use("fast")
            assert active().name == "fast"
        finally:
            use(before)
        assert active() is before

    def test_nested_scopes(self):
        before = active()
        with use("fast"):
            with use("numpy"):
                assert active().name == "numpy"
            assert active().name == "fast"
        assert active() is before

    def test_accepts_instance(self):
        inst = get_backend("fast")
        with use(inst):
            assert active() is inst

    def test_context_restores_when_body_raises(self):
        # Regression: a crash inside the context (an attack blowing up
        # mid-suite) must restore the previous backend, not leave the
        # process pinned to the scoped one.
        before = active()
        with pytest.raises(RuntimeError, match="mid-attack"):
            with use("fast"):
                raise RuntimeError("mid-attack crash")
        assert active() is before

    def test_nested_contexts_restore_when_inner_raises(self):
        before = active()
        with pytest.raises(ValueError):
            with use("fast"):
                with use("numpy"):
                    raise ValueError("inner crash")
        assert active() is before

    def test_attack_suite_crash_restores_backend(self):
        # The engine-level counterpart: AttackSuite.run under a scoped
        # backend dies mid-grid; the previous backend must come back.
        from repro.eval.engine import AttackSuite
        from tests.conftest import TinyNet, make_blobs_dataset

        class Bomb:
            name = "bomb"
            eps = 0.1

            def __call__(self, model, images, labels):
                raise RuntimeError("crafting exploded")

        blobs = make_blobs_dataset(n=8, num_classes=4, seed=2)
        model = TinyNet(num_classes=4, seed=3)
        model(blobs.images[:1])
        before = active()
        suite = AttackSuite({"bomb": Bomb()})
        with pytest.raises(RuntimeError, match="crafting exploded"):
            with use("fast"):
                suite.run(model, blobs.images, blobs.labels)
        assert active() is before


def _probe_default_backend(extra_env):
    import os

    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra_env)
    out = subprocess.run(
        [sys.executable, "-c",
         "import repro.backend as b; print(b.active().name)"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


class TestEnvDefault:
    def test_repro_backend_env_selects_process_default(self):
        assert _probe_default_backend({"REPRO_BACKEND": "fast"}) == "fast"

    def test_default_is_numpy(self):
        assert _probe_default_backend({}) == "numpy"

    def test_unregistered_env_backend_is_unknown(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "cupy")
        monkeypatch.setattr(backend, "_ACTIVE", [None])
        with pytest.raises(KeyError, match="unknown backend"):
            active()


class TestCheckpointProvenance:
    def test_checkpoint_records_producing_backend(self, tmp_path):
        from repro.defenses import VanillaTrainer
        from repro.train import load_checkpoint, save_checkpoint
        from tests.conftest import TinyNet, make_blobs_dataset

        blobs = make_blobs_dataset(n=32, num_classes=4)
        model = TinyNet(num_classes=4, seed=3)
        model(blobs.images[:1])
        trainer = VanillaTrainer(model, epochs=1, batch_size=16, seed=42)
        trainer.fit(blobs)
        path = tmp_path / "ck.npz"
        with use("fast"):
            save_checkpoint(trainer, path)
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["__checkpoint__"]).decode())
        assert meta["backend"] == "fast"

        # Provenance, not a constraint: the checkpoint resumes fine under
        # the other backend.
        model_b = TinyNet(num_classes=4, seed=3)
        model_b(blobs.images[:1])
        fresh = VanillaTrainer(model_b, epochs=1, batch_size=16, seed=42)
        with use("numpy"):
            load_checkpoint(fresh, path)
        assert fresh.completed_epochs == 1


class TestScratchPool:
    def test_fast_pool_recycles_released_buffers(self):
        b = FastNumpyBackend()
        first = b.scratch((4, 8), np.float32)
        b.release(first)
        second = b.scratch((4, 8), np.float32)
        assert np.shares_memory(first, second)

    def test_fast_pool_serves_smaller_shapes_from_larger_buffers(self):
        # The size tolerance that keeps the pool hot under the shrinking
        # active sets of early-stopping attacks.
        b = FastNumpyBackend()
        big = b.scratch((8, 8), np.float32)
        b.release(big)
        small = b.scratch((3, 5), np.float32)
        assert np.shares_memory(big, small)
        assert small.shape == (3, 5)
        assert small.flags.c_contiguous

    def test_fast_pool_zero_fills_on_request(self):
        b = FastNumpyBackend()
        buf = b.scratch((3, 3), np.float32)
        buf.fill(7.0)
        b.release(buf)
        again = b.scratch((3, 3), np.float32, zero=True)
        assert np.shares_memory(again, buf)
        assert np.all(again == 0.0)

    def test_fast_pool_release_of_view_returns_base(self):
        b = FastNumpyBackend()
        buf = b.scratch((2, 6), np.float32)
        b.release(buf.reshape(3, 4))
        assert np.shares_memory(b.scratch((2, 6), np.float32), buf)

    def test_dtypes_never_mix(self):
        b = FastNumpyBackend()
        f32 = b.scratch((4,), np.float32)
        b.release(f32)
        i64 = b.scratch((4,), np.int64)
        assert not np.shares_memory(f32, i64)
        assert i64.dtype == np.int64

    def test_double_release_never_double_lends(self):
        b = FastNumpyBackend()
        buf = b.scratch((5,), np.float32)
        b.release(buf)
        b.release(buf)
        first = b.scratch((5,), np.float32)
        second = b.scratch((5,), np.float32)
        assert not np.shares_memory(first, second)

    def test_reference_release_is_noop(self):
        b = NumpyBackend()
        buf = b.scratch((4,), np.float32)
        b.release(buf)
        assert b.scratch((4,), np.float32) is not buf

    def test_donated_ndim_array_is_carved_correctly(self):
        # Donating a whole fresh n-D array (an attack iterate, a col2im
        # gradient) stores the owning allocation; a later acquire of a
        # different shape must flatten before carving, not slice axis 0.
        b = FastNumpyBackend()
        donated = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        b.release(donated)
        got = b.scratch((4, 5), np.float32)
        assert got.shape == (4, 5)
        assert np.shares_memory(got, donated)

    def test_full_pool_keeps_the_largest_buffers(self):
        # When the free list is full, releasing a buffer bigger than the
        # smallest retained entry must displace it: as an early-stopping
        # attack's active set shrinks, a flood of small per-iteration
        # temporaries would otherwise evict nothing while every big
        # acquire (full-batch im2col workspaces) missed.
        from repro.backend.fast import _POOL_DEPTH
        b = FastNumpyBackend()
        for _ in range(_POOL_DEPTH):
            b.release(np.empty(8, dtype=np.float32))
        big = np.empty(1 << 16, dtype=np.float32)
        b.release(big)
        served = b.scratch((1 << 16,), np.float32)
        assert np.shares_memory(served, big)

    def test_full_pool_drops_release_smaller_than_all_entries(self):
        # The converse: a small release into a full list of bigger
        # buffers is dropped, never displacing a more useful entry.
        from repro.backend.fast import _POOL_DEPTH
        b = FastNumpyBackend()
        keepers = [np.empty(4096, dtype=np.float32)
                   for _ in range(_POOL_DEPTH)]
        for buf in keepers:
            b.release(buf)
        tiny = np.empty(2, dtype=np.float32)
        b.release(tiny)
        for _ in range(_POOL_DEPTH):
            served = b.scratch((4096,), np.float32)
            assert any(np.shares_memory(served, k) for k in keepers)

    def test_pool_counters_track_hits_and_misses(self):
        b = FastNumpyBackend()
        start = b.pool_stats()
        first = b.scratch((6, 6), np.float32)
        stats = b.pool_stats()
        assert stats["misses"] == start["misses"] + 1
        b.release(first)
        b.scratch((6, 6), np.float32)
        stats = b.pool_stats()
        assert stats["hits"] == start["hits"] + 1
