"""Microbenchmarks of the substrate hot paths.

Not a paper artifact, but the knobs that determine how far the FULL preset
is from feasible: conv2d forward/backward, a full LeNet training step,
per-image attack cost, and the fused attack ascent step that the fast
backend collapses into a single in-place pass, measured against its
unfused, temporary-allocating reference expression.
"""

import numpy as np
import pytest

from repro import nn
from repro.attacks import FGSM, PGD
from repro.backend.fast import FastNumpyBackend
from repro.models import LeNet
from repro.utils.rng import derive_rng


@pytest.fixture(scope="module")
def lenet():
    return LeNet(width=8, rng=derive_rng(0, "bench"))


@pytest.fixture(scope="module")
def batch():
    rng = derive_rng(1, "bench")
    x = rng.standard_normal((32, 1, 28, 28)).astype(np.float32)
    y = np.arange(32) % 10
    return x, y


@pytest.mark.benchmark(group="micro")
def test_conv2d_forward(benchmark):
    rng = derive_rng(2, "bench")
    x = nn.Tensor(rng.standard_normal((32, 8, 14, 14)).astype(np.float32))
    w = nn.Tensor(rng.standard_normal((16, 8, 5, 5)).astype(np.float32))
    benchmark(lambda: nn.conv2d(x, w, padding=2))


@pytest.mark.benchmark(group="micro")
def test_lenet_forward(benchmark, lenet, batch):
    x, _ = batch
    lenet.eval()
    with nn.no_grad():
        benchmark(lambda: lenet(nn.Tensor(x)))


@pytest.mark.benchmark(group="micro")
def test_lenet_train_step(benchmark, lenet, batch):
    x, y = batch
    optimizer = nn.Adam(lenet.parameters())

    def step():
        optimizer.zero_grad()
        loss = nn.softmax_cross_entropy(lenet(nn.Tensor(x)), y)
        loss.backward()
        optimizer.step()

    benchmark(step)


@pytest.mark.benchmark(group="micro")
def test_fgsm_generation(benchmark, lenet, batch):
    x, y = batch
    attack = FGSM(eps=0.3)
    benchmark(lambda: attack(lenet, x, y))


@pytest.mark.benchmark(group="micro")
def test_pgd_generation(benchmark, lenet, batch):
    x, y = batch
    attack = PGD(eps=0.3, step=0.1, iterations=5, seed=0)
    benchmark(lambda: attack(lenet, x, y))


# --------------------------------------------------------------------- #
# fused elementwise chain
#
# The pair pins the same arithmetic (asserted bit-equal before timing);
# the fused variant only changes memory behaviour — one pass over pooled
# buffers instead of a fresh temporary per subexpression.
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def ascent_operands():
    rng = derive_rng(3, "bench")
    shape = (64, 1, 28, 28)
    adv = rng.uniform(0, 1, size=shape).astype(np.float32)
    grad = rng.standard_normal(shape).astype(np.float32)
    origin = rng.uniform(0, 1, size=shape).astype(np.float32)
    return adv, grad, origin


def _unfused_ascent(adv, grad, step, origin, eps, low, high):
    # The reference expression the attack loops spell out inline: every
    # subexpression allocates (sign, mul, add, two bounds, two clips).
    out = adv + step * np.sign(grad)
    out = np.clip(out, origin - eps, origin + eps)
    return np.clip(out, low, high).astype(np.float32, copy=False)


@pytest.mark.benchmark(group="micro-fused")
def test_signed_ascent_unfused(benchmark, ascent_operands):
    adv, grad, origin = ascent_operands
    benchmark(lambda: _unfused_ascent(adv, grad, 0.03, origin, 0.3, 0.0, 1.0))


@pytest.mark.benchmark(group="micro-fused")
def test_signed_ascent_fused(benchmark, ascent_operands):
    adv, grad, origin = ascent_operands
    b = FastNumpyBackend()
    reference = _unfused_ascent(adv, grad, 0.03, origin, 0.3, 0.0, 1.0)
    fused = b.signed_ascent(adv, grad, 0.03, origin, 0.3, 0.0, 1.0)
    np.testing.assert_array_equal(reference, fused)
    b.release(fused)

    def step():
        out = b.signed_ascent(adv, grad, 0.03, origin, 0.3, 0.0, 1.0)
        b.release(out)

    benchmark(step)
