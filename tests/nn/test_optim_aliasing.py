"""The fused optimizer steps must never mutate the gradient buffer.

The data-parallel training engine adopts worker-returned (or in-process
copied) gradient arrays as ``p.grad`` and hands them straight to the
fused ``sgd_step``/``adam_step`` through the ``ArrayOps`` seam.  If a
backend's fused step scribbled on the gradient in place — say, folding
weight decay into it — the engine's all-reduce buffers would corrupt
silently.  This suite pins the contract on every backend, across the
branchy configurations (momentum/weight-decay on and off), including a
repeated-step run so moment-buffer fast paths are exercised too.
"""

import numpy as np
import pytest

from repro import backend, nn
from repro.nn.modules import Parameter

BACKENDS = backend.available_backends()

CONFIGS = [
    ("sgd", dict(momentum=0.0, weight_decay=0.0)),
    ("sgd", dict(momentum=0.9, weight_decay=0.0)),
    ("sgd", dict(momentum=0.9, weight_decay=0.01)),
    ("adam", dict(weight_decay=0.0)),
    ("adam", dict(weight_decay=0.01)),
]


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("kind,options", CONFIGS)
def test_fused_step_leaves_gradient_untouched(backend_name, kind,
                                              options):
    with backend.use(backend_name):
        b = backend.active()
        rng = np.random.default_rng(11)
        param = Parameter(rng.normal(size=(7, 5)).astype(np.float32))
        opt = nn.SGD([param], lr=0.05, **options) if kind == "sgd" \
            else nn.Adam([param], lr=0.05, **options)
        for _ in range(3):   # repeat: moment buffers exist from step 2 on
            grad = rng.normal(size=(7, 5)).astype(np.float32)
            snapshot = grad.copy()
            param.grad = b.asarray(grad)
            before = np.asarray(b.to_numpy(param.grad)).copy()
            opt.step()
            # Neither the adopted backend array nor the numpy buffer it
            # may alias moved a single bit.
            assert np.array_equal(np.asarray(b.to_numpy(param.grad)),
                                  before)
            assert np.array_equal(grad, snapshot)
            param.grad = None
        # ... and the step itself did something.
        assert not np.array_equal(
            np.asarray(b.to_numpy(param.data)),
            np.zeros((7, 5), dtype=np.float32))
