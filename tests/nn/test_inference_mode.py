"""nn.inference_mode: exact per-module mode snapshot/restore."""

import sys
import threading

import numpy as np
import pytest

from repro import nn


def small_net(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Dense(4, 8, rng=rng),
        nn.ReLU(),
        nn.Dropout(0.5, rng=rng),
        nn.Dense(8, 2, rng=rng),
    )


def flags(module):
    return [m._training for m in module.modules()]


def test_eval_inside_restore_outside():
    net = small_net().train()
    with nn.inference_mode(net) as inside:
        assert inside is net
        assert not any(flags(net))     # everything in eval
    assert all(flags(net))             # everything back in train


def test_heterogeneous_flags_survive():
    """The save-one-flag dance this replaces would lose this state."""
    net = small_net().train()
    dropout = net.layers[2]
    dropout._training = False          # deliberately frozen submodule
    before = flags(net)
    assert True in before and False in before
    with nn.inference_mode(net):
        assert not any(flags(net))
    assert flags(net) == before        # exact restoration, not train()


def test_restores_on_exception():
    net = small_net().eval()
    net.layers[0]._training = True
    before = flags(net)
    with pytest.raises(RuntimeError, match="boom"):
        with nn.inference_mode(net):
            raise RuntimeError("boom")
    assert flags(net) == before


def test_multiple_modules():
    a, b = small_net(0).train(), small_net(1).eval()
    with nn.inference_mode(a, b) as (got_a, got_b):
        assert got_a is a and got_b is b
        assert not any(flags(a)) and not any(flags(b))
    assert all(flags(a)) and not any(flags(b))


def test_dropout_is_inert_inside():
    net = small_net().train()
    x = np.ones((4, 4), dtype=np.float32)
    with nn.inference_mode(net), nn.no_grad():
        one = net(nn.Tensor(x)).data
        two = net(nn.Tensor(x)).data
    np.testing.assert_array_equal(one, two)  # no stochastic masks


def test_needs_at_least_one_module():
    with pytest.raises(ValueError):
        nn.inference_mode()


def test_nested_contexts():
    net = small_net().train()
    with nn.inference_mode(net):
        with nn.inference_mode(net):
            assert not any(flags(net))
        assert not any(flags(net))     # inner restore: still all-eval
    assert all(flags(net))


def test_interleaved_contexts_on_one_model():
    """Two server threads sharing a model: A enters, B enters, A exits,
    B exits.  A's exit must not flip the model back while B is inside,
    and B's exit must restore train mode."""
    net = small_net().train()
    a, b = nn.inference_mode(net), nn.inference_mode(net)
    a.__enter__()
    b.__enter__()
    a.__exit__(None, None, None)
    assert not any(flags(net))         # B is still inside
    b.__exit__(None, None, None)
    assert all(flags(net))             # the last exit restores


def test_threads_sharing_a_model_stress():
    """More threads than cores enter and leave contexts on one model
    with a short switch interval: every thread inside sees eval mode,
    and the model ends in train mode."""
    net = small_net().train()
    saw_train = []

    def worker():
        for _ in range(200):
            with nn.inference_mode(net):
                if any(flags(net)):
                    saw_train.append(True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=worker) for _ in range(8)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert not saw_train
    assert all(flags(net))
