"""Cross-backend equivalence: NumpyBackend ⇔ FastNumpyBackend.

The fast backend claims *same numerics, different memory behaviour*.  This
suite pins that claim at every level of the stack:

* gradcheck (autodiff gradients vs numeric derivatives) under every
  registered backend,
* bit-identical forward/backward on a conv classifier,
* bit-identical optimizer trajectories (fused SGD/Adam vs reference),
* bit-identical adversarial batches for every attack family,
* identical seeded Table 3-grid accuracies through the evaluation engine
  (the @slow capstone).
"""

import numpy as np
import pytest

import repro.backend as backend
from repro import nn
from repro.attacks import BIM, FGSM, MIM, PGD, CarliniWagner, DeepFool
from repro.nn.gradcheck import check_gradient
from tests.conftest import TinyNet, make_blobs_dataset

CPU_BACKENDS = backend.available_backends()


@pytest.fixture(params=CPU_BACKENDS)
def any_backend(request):
    """Activate each registered backend in turn."""
    with backend.use(request.param):
        yield request.param


def _train_briefly(backend_name, steps=6, optimizer="adam"):
    """A few optimizer steps on the blobs toy problem; returns the model."""
    from repro.nn.optim import SGD, Adam

    with backend.use(backend_name):
        blobs = make_blobs_dataset(n=32, num_classes=4, seed=5)
        model = TinyNet(num_classes=4, seed=11)
        logits = model(blobs.images[:16])  # materialize the lazy head
        params = model.parameters()
        opt = Adam(params, lr=1e-3) if optimizer == "adam" \
            else SGD(params, lr=0.05, momentum=0.9, weight_decay=1e-4)
        for step in range(steps):
            lo = (step * 8) % 24
            batch = blobs.images[lo:lo + 8]
            labels = blobs.labels[lo:lo + 8]
            opt.zero_grad()
            loss = nn.softmax_cross_entropy(model(batch), labels)
            loss.backward()
            opt.step()
        return model


class TestGradcheckAcrossBackends:
    """nn/gradcheck.py under every registered backend (satellite task)."""

    def test_conv_gradient(self, any_backend):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32) * 0.3
        check_gradient(lambda a, b: nn.conv2d(a, b, padding=1),
                       [x, w], wrt=0)
        check_gradient(lambda a, b: nn.conv2d(a, b, padding=1),
                       [x, w], wrt=1)

    def test_pool_and_dense_gradients(self, any_backend):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 2, 4, 4)).astype(np.float32)
        check_gradient(lambda a: nn.max_pool2d(a, 2), [x])
        check_gradient(lambda a: nn.avg_pool2d(a, 2), [x])
        m = rng.normal(size=(3, 5)).astype(np.float32)
        v = rng.normal(size=(5, 2)).astype(np.float32)
        check_gradient(lambda a, b: a @ b, [m, v], wrt=0)

    def test_elementwise_gradients(self, any_backend):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 7)).astype(np.float32)
        check_gradient(nn.functional.relu, [x])
        check_gradient(nn.functional.tanh, [x])
        check_gradient(lambda a: nn.functional.softmax(a, axis=-1), [x])
        check_gradient(lambda a: (a * a).sum(axis=1).mean(), [x])


class TestBitwiseForwardBackward:
    def test_model_forward_identical(self):
        blobs = make_blobs_dataset(n=16, num_classes=4, seed=3)
        outs = {}
        for name in CPU_BACKENDS:
            with backend.use(name):
                model = TinyNet(num_classes=4, seed=7)
                outs[name] = model(blobs.images).numpy().copy()
        for other in CPU_BACKENDS[1:]:
            np.testing.assert_array_equal(outs["numpy"], outs[other])

    def test_input_gradients_identical(self):
        blobs = make_blobs_dataset(n=16, num_classes=4, seed=3)
        grads = {}
        for name in CPU_BACKENDS:
            with backend.use(name):
                model = TinyNet(num_classes=4, seed=7)
                x = nn.Tensor(blobs.images, requires_grad=True)
                loss = nn.softmax_cross_entropy(model(x), blobs.labels)
                loss.backward()
                grads[name] = np.asarray(x.grad).copy()
        for other in CPU_BACKENDS[1:]:
            np.testing.assert_array_equal(grads["numpy"], grads[other])

    def test_repeated_backward_on_one_graph_survives_pool_recycling(self):
        # Gradients accumulate across repeated backward() calls on the
        # same graph; under the fast backend the conv workspace released
        # by the first pass must be re-unfolded, not read back recycled.
        rng = np.random.default_rng(4)
        x_np = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        w_np = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        grads = {}
        for name in CPU_BACKENDS:
            with backend.use(name):
                x = nn.Tensor(x_np, requires_grad=True)
                w = nn.Tensor(w_np, requires_grad=True)
                out = nn.conv2d(x, w, padding=1)
                out.backward(np.ones(out.shape, dtype=np.float32))
                # Interleave another conv so a recycled buffer would be
                # overwritten before the second backward reads it.
                y = nn.Tensor(x_np * 2.0, requires_grad=True)
                nn.conv2d(y, nn.Tensor(w_np, requires_grad=True),
                          padding=1).backward(
                    np.ones(out.shape, dtype=np.float32))
                out.backward(np.ones(out.shape, dtype=np.float32))
                grads[name] = (np.asarray(x.grad).copy(),
                               np.asarray(w.grad).copy())
        for other in CPU_BACKENDS[1:]:
            np.testing.assert_array_equal(grads["numpy"][0], grads[other][0])
            np.testing.assert_array_equal(grads["numpy"][1], grads[other][1])

    def test_repeated_fast_graphs_stay_identical(self):
        # The pool hands recycled (garbage-filled) buffers to later
        # iterations; results must not depend on buffer history.
        blobs = make_blobs_dataset(n=16, num_classes=4, seed=3)
        with backend.use("fast"):
            model = TinyNet(num_classes=4, seed=7)
            runs = []
            for _ in range(3):
                x = nn.Tensor(blobs.images, requires_grad=True)
                loss = nn.softmax_cross_entropy(model(x), blobs.labels)
                loss.backward()
                runs.append(np.asarray(x.grad).copy())
            np.testing.assert_array_equal(runs[0], runs[1])
            np.testing.assert_array_equal(runs[0], runs[2])


class TestOptimizerTrajectoriesBitwise:
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_trained_weights_identical(self, optimizer):
        states = {
            name: _train_briefly(name, optimizer=optimizer).state_dict()
            for name in CPU_BACKENDS
        }
        for other in CPU_BACKENDS[1:]:
            assert states["numpy"].keys() == states[other].keys()
            for key in states["numpy"]:
                np.testing.assert_array_equal(
                    states["numpy"][key], states[other][key],
                    err_msg=f"weight {key} diverged numpy vs {other}")


class TestAttackParityBitwise:
    """Every attack family crafts bit-identical batches on both CPU
    backends (the attack-invariant counterpart of the satellite task)."""

    @pytest.mark.parametrize("early_stop", [False, True],
                             ids=["naive", "engine"])
    @pytest.mark.parametrize("attack_cls,kwargs", [
        (FGSM, {}),
        (BIM, dict(step=0.1, iterations=4)),
        (PGD, dict(step=0.1, iterations=4, seed=0)),
        (MIM, dict(step=0.1, iterations=4)),
        (CarliniWagner, dict(iterations=5)),
        (DeepFool, dict(iterations=4)),
    ], ids=["fgsm", "bim", "pgd", "mim", "cw", "deepfool"])
    def test_adversarial_batches_identical(self, attack_cls, kwargs,
                                           early_stop):
        if attack_cls is not DeepFool:
            kwargs = dict(kwargs, early_stop=early_stop)
        elif early_stop:
            pytest.skip("deepfool has a single (early-stopping) path")
        blobs = make_blobs_dataset(n=12, num_classes=4, seed=9)
        advs = {}
        for name in CPU_BACKENDS:
            with backend.use(name):
                model = _train_briefly(name, steps=4)
                attack = attack_cls(eps=0.25, **kwargs)
                advs[name] = np.asarray(
                    attack(model, blobs.images, blobs.labels)).copy()
        for other in CPU_BACKENDS[1:]:
            np.testing.assert_array_equal(advs["numpy"], advs[other],
                                          err_msg=f"numpy vs {other}")


@pytest.mark.slow
class TestTable3GridEquivalence:
    """Seeded Table 3 accuracies are identical across CPU backends."""

    def test_accuracies_identical(self):
        from repro.experiments.table3 import run_table3

        grids = {}
        for name in CPU_BACKENDS:
            results = run_table3("digits", preset="fast",
                                 defenses=("vanilla", "cls"), seed=0,
                                 backend=name)
            grids[name] = {r.defense: r.accuracy for r in results}
        for other in CPU_BACKENDS[1:]:
            assert grids["numpy"] == grids[other]
