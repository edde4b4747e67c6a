"""Engine equivalence: early stopping must never change what is measured.

The contract (see ``Attack.early_stop``):

* examples the victim still classifies correctly follow the *exact*
  trajectory of the naive full-iteration path (same steps, same order);
* examples that are already misclassified — before the attack starts or at
  any iterate — freeze where fooling was detected instead of being pushed
  further, so the fooling outcome (and hence every reported accuracy) is
  identical;
* the eps-ball / image-box invariants hold on both paths.
"""

import dataclasses

import numpy as np
import pytest

from repro.attacks import BIM, MIM, PGD, CarliniWagner, DeepFool
from repro.data import load_split
from repro.defenses import VanillaTrainer
from repro.eval.metrics import predict_labels
from repro.eval.metrics import test_accuracy as measure_accuracy
from repro.models import build_classifier


@pytest.fixture(scope="module")
def trained_setup():
    """A classifier good enough that the test batch has both easy kills and
    borderline survivors under a small budget."""
    split = load_split("digits", 256, 64, seed=11)
    model = build_classifier("digits", width=4, seed=1)
    VanillaTrainer(model, epochs=4, batch_size=32).fit(split.train)
    x, y = split.test.images[:48], split.test.labels[:48]
    assert measure_accuracy(model, x, y) > 0.8
    return model, x, y


# Small eps/step so a meaningful fraction of examples survives all
# iterations (borderline trajectories), exercising both mask branches.
ITERATIVE_ATTACKS = [
    BIM(eps=0.15, step=0.05, iterations=6),
    PGD(eps=0.15, step=0.05, iterations=6, seed=3),
    MIM(eps=0.15, step=0.05, iterations=6),
    CarliniWagner(eps=0.15, iterations=12),
    DeepFool(eps=0.15, iterations=6),
]

IDS = [a.name for a in ITERATIVE_ATTACKS]


def _both_paths(attack, model, x, y):
    naive = dataclasses.replace(attack, early_stop=False)
    engine = dataclasses.replace(attack, early_stop=True)
    return naive(model, x, y), engine(model, x, y)


@pytest.mark.slow
@pytest.mark.parametrize("attack", ITERATIVE_ATTACKS, ids=IDS)
class TestEquivalence:
    def test_accuracy_identical(self, trained_setup, attack):
        model, x, y = trained_setup
        adv_naive, adv_engine = _both_paths(attack, model, x, y)
        assert measure_accuracy(model, adv_naive, y) == \
            measure_accuracy(model, adv_engine, y)

    def test_fooling_outcome_identical_per_example(self, trained_setup,
                                                   attack):
        model, x, y = trained_setup
        adv_naive, adv_engine = _both_paths(attack, model, x, y)
        fooled_naive = predict_labels(model, adv_naive) != y
        fooled_engine = predict_labels(model, adv_engine) != y
        np.testing.assert_array_equal(fooled_naive, fooled_engine)

    def test_survivors_follow_naive_trajectory(self, trained_setup, attack):
        """Examples never fooled stay in the active set for every step, so
        the engine output must match the naive output numerically."""
        model, x, y = trained_setup
        adv_naive, adv_engine = _both_paths(attack, model, x, y)
        survivors = predict_labels(model, adv_naive) == y
        if not survivors.any():
            pytest.skip("no example survived the attack")
        np.testing.assert_allclose(adv_engine[survivors],
                                   adv_naive[survivors], atol=1e-5)

    def test_budget_invariants_on_engine_path(self, trained_setup, attack):
        model, x, y = trained_setup
        engine = dataclasses.replace(attack, early_stop=True)
        adv = engine(model, x, y)
        assert np.abs(adv - x).max() <= attack.eps + 1e-5
        assert adv.min() >= -1.0 and adv.max() <= 1.0
        assert adv.shape == x.shape and adv.dtype == np.float32


@pytest.mark.slow
class TestAlreadyMisclassified:
    """A batch whose labels are deliberately wrong everywhere: every example
    is 'fooled' before the first gradient step."""

    def _wrong_labels(self, model, x):
        preds = predict_labels(model, x)
        return (preds + 1) % 10

    def test_bim_and_mim_freeze_at_input(self, trained_setup):
        model, x, _ = trained_setup
        wrong = self._wrong_labels(model, x)
        for attack in [BIM(eps=0.3, step=0.1, iterations=5, early_stop=True),
                       MIM(eps=0.3, step=0.1, iterations=5, early_stop=True)]:
            adv = attack(model, x, wrong)
            # Detection happens on the first forward pass, before any
            # update: the output is the (box-projected) input itself.
            np.testing.assert_allclose(adv, np.clip(x, -1.0, 1.0), atol=1e-6)

    def test_pgd_freezes_at_random_start(self, trained_setup):
        model, x, _ = trained_setup
        wrong = self._wrong_labels(model, x)
        attack = PGD(eps=0.05, step=0.02, iterations=5, seed=7,
                     early_stop=True)
        adv = attack(model, x, wrong)
        # Examples fooled at the random start never take a gradient step,
        # so the output stays inside the initialization ball.
        assert np.abs(adv - x).max() <= attack.eps + 1e-6

    def test_accuracy_still_matches_naive(self, trained_setup):
        model, x, _ = trained_setup
        wrong = self._wrong_labels(model, x)
        for attack in ITERATIVE_ATTACKS:
            adv_naive, adv_engine = _both_paths(attack, model, x, wrong)
            assert measure_accuracy(model, adv_naive, wrong) == \
                measure_accuracy(model, adv_engine, wrong), attack.name


class TestPGDRestartSemantics:
    """With early stopping and several restarts, a recorded fooling is
    permanent: later restarts skip the example and the selection pass can
    never trade a fooling iterate for a higher-loss correct one."""

    def test_more_restarts_never_unfool(self, trained_setup):
        model, x, y = trained_setup
        common = dict(eps=0.25, step=0.08, iterations=4, seed=5,
                      early_stop=True)
        one = PGD(restarts=1, **common)(model, x, y)
        three = PGD(restarts=3, **common)(model, x, y)
        fooled_one = predict_labels(model, one) != y
        fooled_three = predict_labels(model, three) != y
        # Restart 1 draws the same random start in both runs, so everything
        # it fools must stay fooled when more restarts are added.
        assert np.all(fooled_three[fooled_one])
        assert measure_accuracy(model, three, y) <= \
            measure_accuracy(model, one, y)

    def test_restarts_equal_naive_budget_invariants(self, trained_setup):
        model, x, y = trained_setup
        attack = PGD(eps=0.25, step=0.08, iterations=4, restarts=3, seed=5,
                     early_stop=True)
        adv = attack(model, x, y)
        assert np.abs(adv - x).max() <= attack.eps + 1e-5
        assert adv.min() >= -1.0 and adv.max() <= 1.0


class TestEarlyStopIsFaster:
    def test_fewer_model_evaluations(self, trained_setup):
        """On a collapsing victim the engine must touch far fewer examples.

        Counted via a forward hook rather than wall time so the test is
        deterministic on loaded CI machines.
        """
        model, x, y = trained_setup
        counted = {"examples": 0}
        original_forward = type(model).forward

        def counting_forward(self, t):
            counted["examples"] += t.shape[0]
            return original_forward(self, t)

        type(model).forward = counting_forward
        try:
            attack = BIM(eps=0.6, step=0.2, iterations=8)
            naive = dataclasses.replace(attack, early_stop=False)
            engine = dataclasses.replace(attack, early_stop=True)
            naive(model, x, y)
            naive_examples = counted["examples"]
            counted["examples"] = 0
            engine(model, x, y)
            engine_examples = counted["examples"]
        finally:
            type(model).forward = original_forward
        assert engine_examples < naive_examples / 2
