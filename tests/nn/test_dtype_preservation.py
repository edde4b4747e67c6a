"""float32 is the canonical dtype — end to end, on every backend.

Numpy's promotion rules have historically leaked float64 into float32
pipelines (python-scalar mixing under value-based casting, float64 scalar
operands, ``mean`` accumulators).  The substrate's contract is that every
differentiable op takes float32 in and hands float32 out — forward data,
backward gradients, and optimizer state alike — because the paper's
training ran on float32 GPU frameworks and a silent float64 upgrade both
halves throughput and changes the numerics.

This suite is the regression fence from the dtype audit: each test feeds a
deliberately promotion-prone mix (python scalars, float64 scalars, float64
arrays, large reductions) through one layer of the stack and asserts the
canonical dtype survived.
"""

import numpy as np
import pytest

import repro.backend as backend
from repro import nn
from repro.nn import functional as F


@pytest.fixture(params=backend.available_backends(), autouse=True)
def each_cpu_backend(request):
    with backend.use(request.param):
        yield request.param


def t(shape=(3, 4), seed=0, requires_grad=False):
    rng = np.random.default_rng(seed)
    return nn.Tensor(rng.normal(size=shape).astype(np.float32),
                     requires_grad=requires_grad)


def assert_f32(tensor):
    assert tensor.dtype == np.float32, f"forward promoted to {tensor.dtype}"


def assert_grad_f32(tensor):
    assert tensor.grad is not None
    assert tensor.grad.dtype == np.float32, \
        f"gradient promoted to {tensor.grad.dtype}"


class TestConstructionCanonicalizes:
    def test_float64_input_is_downcast(self):
        assert nn.Tensor(np.ones((2, 2), dtype=np.float64)).dtype \
            == np.float32

    def test_python_scalars_are_downcast(self):
        assert nn.Tensor(3.14).dtype == np.float32
        assert nn.as_tensor([1.0, 2.0]).dtype == np.float32

    def test_integer_arrays_keep_their_dtype(self):
        assert nn.Tensor(np.arange(3)).dtype == np.int64


class TestArithmeticOps:
    @pytest.mark.parametrize("scalar", [2, 2.5, np.float64(2.5),
                                        np.float32(2.5)],
                             ids=["int", "float", "np64", "np32"])
    def test_scalar_mixing(self, scalar):
        x = t(requires_grad=True)
        for out in (x + scalar, scalar + x, x * scalar, x - scalar,
                    scalar - x, x / scalar, scalar / x):
            assert_f32(out)
        out = (x * scalar).sum()
        out.backward()
        assert_grad_f32(x)

    def test_float64_array_operand_is_canonicalized(self):
        x = t(requires_grad=True)
        other = np.full((3, 4), 0.5, dtype=np.float64)
        out = x * other
        assert_f32(out)
        out.sum().backward()
        assert_grad_f32(x)

    def test_pow_matmul_neg(self):
        x = t(requires_grad=True)
        assert_f32(x ** 2)
        assert_f32(x ** 0.5 if False else -x)
        w = t((4, 2), seed=1, requires_grad=True)
        out = x @ w
        assert_f32(out)
        out.sum().backward()
        assert_grad_f32(x)
        assert_grad_f32(w)


class TestReductions:
    def test_mean_on_large_array_stays_f32(self):
        # The classic leak: float64 accumulators on big reductions.
        big = nn.Tensor(np.ones((64, 1024), dtype=np.float32),
                        requires_grad=True)
        m = big.mean()
        assert_f32(m)
        m.backward()
        assert_grad_f32(big)

    def test_sum_max_axis_variants(self):
        x = t((4, 5, 6), requires_grad=True)
        assert_f32(x.sum(axis=1))
        assert_f32(x.max(axis=(0)))
        assert_f32(x.mean(axis=(1, 2), keepdims=True))
        x.max(axis=2).sum().backward()
        assert_grad_f32(x)

    def test_backward_with_float64_seed(self):
        x = t(requires_grad=True)
        (x * 2.0).backward(np.ones((3, 4), dtype=np.float64))
        assert_grad_f32(x)


class TestFunctional:
    @pytest.mark.parametrize("fn", [
        F.relu, F.leaky_relu, F.sigmoid, F.tanh, F.exp,
        lambda x: F.log(F.exp(x)), F.abs,
        lambda x: F.sqrt(F.abs(x)),
        lambda x: F.clip(x, -0.5, 0.5),
        lambda x: F.softmax(x, axis=-1),
        lambda x: F.log_softmax(x, axis=-1),
        lambda x: F.maximum(x, 0.0),
        lambda x: F.minimum(x, np.float64(0.25)),
        lambda x: F.where(x.data > 0, x, x * 2.0),
    ], ids=["relu", "leaky", "sigmoid", "tanh", "exp", "log", "abs",
            "sqrt", "clip", "softmax", "log_softmax", "maximum",
            "minimum", "where"])
    def test_forward_and_grad_stay_f32(self, fn):
        x = t(requires_grad=True)
        out = fn(x)
        assert_f32(out)
        out.sum().backward()
        assert_grad_f32(x)

    def test_dropout_and_pad(self):
        x = t((2, 3, 4, 4), requires_grad=True)
        rng = np.random.default_rng(0)
        out = F.dropout(x, 0.5, training=True, rng=rng)
        assert_f32(out)
        out = F.pad2d(out, 1)
        assert_f32(out)
        out.sum().backward()
        assert_grad_f32(x)

    def test_one_hot_is_f32(self):
        assert F.one_hot(np.array([0, 2, 1]), 3).dtype == np.float32


class TestConvAndPool:
    def test_conv_forward_weight_and_input_grads(self):
        x = t((2, 3, 8, 8), requires_grad=True)
        w = t((4, 3, 3, 3), seed=1, requires_grad=True)
        b = t((4,), seed=2, requires_grad=True)
        out = nn.conv2d(x, w, b, stride=2, padding=1)
        assert_f32(out)
        out.sum().backward()
        for p in (x, w, b):
            assert_grad_f32(p)

    @pytest.mark.parametrize("pool", [nn.max_pool2d, nn.avg_pool2d],
                             ids=["max", "avg"])
    def test_pooling(self, pool):
        x = t((2, 3, 8, 8), requires_grad=True)
        out = pool(x, 2)
        assert_f32(out)
        out.sum().backward()
        assert_grad_f32(x)

    def test_stack_concat(self):
        xs = [t(seed=i, requires_grad=True) for i in range(3)]
        assert_f32(nn.stack(xs))
        assert_f32(nn.concat(xs, axis=0))


class TestLossesAndOptim:
    def test_losses_stay_f32(self):
        logits = t((6, 4), requires_grad=True)
        labels = np.array([0, 1, 2, 3, 0, 1])
        for loss in (nn.softmax_cross_entropy(logits, labels),
                     nn.cls_loss(logits, labels, lam=0.4),
                     nn.mse(logits, np.zeros((6, 4), dtype=np.float64)),
                     nn.l2_penalty(logits)):
            assert_f32(loss)
        nn.softmax_cross_entropy(logits, labels).backward()
        assert_grad_f32(logits)

    def test_bce_variants(self):
        z = t((5, 1), requires_grad=True)
        targets = np.array([[0.], [1.], [0.], [1.], [0.]])
        assert_f32(nn.bce_with_logits(z, targets))
        assert_f32(nn.bce_on_probs(F.sigmoid(z), targets))

    @pytest.mark.parametrize("make_opt", [
        lambda p: nn.SGD(p, lr=0.1, momentum=0.9, weight_decay=1e-4),
        lambda p: nn.Adam(p, lr=1e-3, weight_decay=1e-4),
    ], ids=["sgd", "adam"])
    def test_optimizer_steps_keep_param_and_moment_dtypes(self, make_opt):
        p = nn.Parameter(np.ones((4, 3), dtype=np.float32))
        opt = make_opt([p])
        for _ in range(3):
            p.grad = np.full((4, 3), 0.1, dtype=np.float32)
            opt.step()
        assert p.data.dtype == np.float32
        for buffers in opt.state_dict()["buffers"].values():
            for buf in buffers:
                assert buf is None or buf.dtype == np.float32


class TestEndToEnd:
    def test_training_step_keeps_every_parameter_f32(self):
        from tests.conftest import TinyNet, make_blobs_dataset

        blobs = make_blobs_dataset(n=16, num_classes=4)
        model = TinyNet(num_classes=4, seed=0)
        logits = model(blobs.images)
        assert_f32(logits)
        opt = nn.Adam(model.parameters(), lr=1e-3)
        loss = nn.softmax_cross_entropy(logits, blobs.labels)
        assert_f32(loss)
        loss.backward()
        for name, p in model.named_parameters():
            assert p.grad.dtype == np.float32, name
        opt.step()
        for name, p in model.named_parameters():
            assert p.data.dtype == np.float32, name
