"""Contract invariants every ``Attack.generate`` implementation must keep.

These pin the base-class guarantees the evaluation engine builds on:
``eps=0`` degenerates to the (box-regulated) identity, outputs always live
in the l-inf ball intersected with the image box, and the victim's
train/eval mode survives even a crashing ``_generate``.

The whole module runs once per registered array backend (the autouse
fixture below): the invariants are properties of the attack *contract*, so
they must hold identically on the reference and the fast CPU backend.
"""

import numpy as np
import pytest

import repro.backend as repro_backend
from repro.attacks import BIM, FGSM, MIM, PGD, Attack, CarliniWagner, DeepFool
from repro.data.preprocessing import BOX_HIGH, BOX_LOW


@pytest.fixture(params=list(repro_backend.available_backends()),
                autouse=True)
def each_backend(request):
    """Re-run every invariant under each registered backend."""
    with repro_backend.use(request.param):
        yield request.param


def _all_attacks(eps):
    return [
        FGSM(eps=eps),
        BIM(eps=eps, step=0.1, iterations=3),
        PGD(eps=eps, step=0.1, iterations=3, seed=0),
        MIM(eps=eps, step=0.1, iterations=3),
        CarliniWagner(eps=eps, iterations=4),
        DeepFool(eps=eps, iterations=3),
    ]


def _ids(attacks):
    return [a.name for a in attacks]


@pytest.mark.parametrize("attack", _all_attacks(0.0), ids=_ids(_all_attacks(0.0)))
class TestZeroEps:
    def test_returns_inputs_within_box(self, tiny_net, attack):
        rng = np.random.default_rng(5)
        x = rng.uniform(-0.9, 0.9, size=(4, 1, 8, 8)).astype(np.float32)
        y = np.array([0, 1, 2, 3])
        adv = attack(tiny_net, x, y)
        np.testing.assert_allclose(adv, x, atol=1e-7)

    def test_out_of_box_inputs_only_regulated(self, tiny_net, attack):
        """eps=0 on inputs outside the image box returns exactly their
        projection onto it — the regulation function F, nothing else."""
        rng = np.random.default_rng(6)
        x = rng.uniform(-2.0, 2.0, size=(2, 1, 8, 8)).astype(np.float32)
        y = np.array([0, 1])
        adv = attack(tiny_net, x, y)
        np.testing.assert_allclose(adv, np.clip(x, BOX_LOW, BOX_HIGH),
                                   atol=1e-7)


@pytest.mark.parametrize("early_stop", [False, True],
                         ids=["naive", "engine"])
@pytest.mark.parametrize("attack", _all_attacks(0.25),
                         ids=_ids(_all_attacks(0.25)))
class TestBallAndBox:
    def test_output_inside_ball_and_box(self, tiny_net, attack, early_stop):
        import dataclasses
        attack = dataclasses.replace(attack, early_stop=early_stop) \
            if attack.name != "deepfool" else attack
        rng = np.random.default_rng(9)
        x = rng.uniform(-1.0, 1.0, size=(5, 1, 8, 8)).astype(np.float32)
        y = np.array([0, 1, 2, 3, 4])
        adv = attack(tiny_net, x, y)
        assert np.abs(adv - x).max() <= attack.eps + 1e-6
        assert adv.min() >= BOX_LOW - 1e-6
        assert adv.max() <= BOX_HIGH + 1e-6
        assert adv.dtype == np.float32


class _ExplodingAttack(Attack):
    def _generate(self, model, images, labels):
        raise RuntimeError("boom")


class TestModeRestoredOnFailure:
    def test_training_mode_restored_when_generate_raises(self, tiny_net):
        tiny_net.train()
        with pytest.raises(RuntimeError, match="boom"):
            _ExplodingAttack(eps=0.1)(tiny_net,
                                      np.zeros((1, 1, 8, 8), np.float32),
                                      np.array([0]))
        assert tiny_net.training is True

    def test_eval_mode_preserved_when_generate_raises(self, tiny_net):
        tiny_net.eval()
        with pytest.raises(RuntimeError, match="boom"):
            _ExplodingAttack(eps=0.1)(tiny_net,
                                      np.zeros((1, 1, 8, 8), np.float32),
                                      np.array([0]))
        assert tiny_net.training is False

    def test_mode_restored_when_real_attack_rejects_config(self, tiny_net):
        tiny_net.train()
        with pytest.raises(ValueError):
            BIM(eps=0.1, iterations=0)(tiny_net,
                                       np.zeros((1, 1, 8, 8), np.float32),
                                       np.array([0]))
        assert tiny_net.training is True
