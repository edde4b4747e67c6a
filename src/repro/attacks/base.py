"""Attack abstractions shared by every generator in the Attack module.

All the paper's attacks are white-box: they differentiate the victim's loss
with respect to the *input* image.  The common plumbing here computes those
input gradients through the ``repro.nn`` tape, projects iterates back onto
the l-infinity ball around the original image, and applies the paper's
regulation function ``F`` (clip onto ``[-1, 1]``).

The crafting loops are backend-agnostic: array math goes through the active
backend's ``xp`` namespace (:mod:`repro.backend`), and ``Attack.generate``
moves the incoming batch onto the backend once up front, so the entire
iterate/projection/masking inner loop stays on-device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import backend as _backend
from .. import nn
from ..data.preprocessing import BOX_HIGH, BOX_LOW

__all__ = ["Attack", "input_gradient", "project_linf", "logits_and_input_grad",
           "still_correct", "masked_signed_ascent"]


def input_gradient(model: nn.Module, images: np.ndarray,
                   labels: np.ndarray) -> np.ndarray:
    """Gradient of the softmax cross-entropy w.r.t. the input pixels."""
    grad = logits_and_input_grad(model, images, labels)[1]
    assert grad is not None
    return grad


def logits_and_input_grad(model: nn.Module, images: np.ndarray,
                          labels: np.ndarray):
    """Forward logits plus the input gradient (for attacks that need both)."""
    x = nn.Tensor(images, requires_grad=True)
    logits = model(x)
    loss = nn.softmax_cross_entropy(logits, labels)
    loss.backward()
    return logits.data, x.grad


def project_linf(adv: np.ndarray, original: np.ndarray,
                 eps: float) -> np.ndarray:
    """Project onto the l-inf ball of radius ``eps`` around ``original``,
    then onto the valid image box via ``F``."""
    xp = _backend.active().xp
    adv = xp.clip(adv, original - eps, original + eps)
    # ``copy=False``: the clip result is already a fresh array; the cast is
    # a no-op pass-through whenever it is already float32.
    return xp.clip(adv, BOX_LOW, BOX_HIGH).astype(np.float32, copy=False)


def still_correct(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Boolean mask of examples the victim still classifies correctly.

    The early-stopping contract of every iterative attack: an example whose
    prediction already disagrees with its label has been fooled, so further
    gradient steps on it are wasted work — it leaves the active set frozen
    at its current iterate.
    """
    return logits.argmax(axis=1) == _backend.active().asarray(labels)


def masked_signed_ascent(model: nn.Module, adv: np.ndarray,
                         images: np.ndarray, labels: np.ndarray,
                         step: float, iterations: int, eps: float,
                         direction=None) -> np.ndarray:
    """The shared active-mask loop of the signed-gradient family.

    Each step starts with the forward pass the gradient needs anyway;
    examples it reveals as already fooled leave the active set frozen at
    their current iterate, and only the survivors are stepped and
    re-projected.  ``adv`` is updated in place and returned.

    ``direction(active, grad)`` maps the surviving examples' gradient batch
    to an *ascent source* whose sign is the step direction (default: the
    gradient itself); MIM passes a closure that folds the gradient into
    its per-example momentum state and returns the momentum.
    """
    b = _backend.active()
    xp = b.xp
    active = xp.arange(len(images))
    for _ in range(iterations):
        logits, grad = logits_and_input_grad(model, adv[active],
                                             labels[active])
        keep = still_correct(logits, labels[active])
        active = active[keep]
        if active.size == 0:
            break
        grad = grad[keep]
        src = grad if direction is None else direction(active, grad)
        # Fused sign -> mul -> add -> clip -> clip (same expressions as the
        # inline ``project_linf(adv + step * sign(src))`` this replaces).
        stepped = b.signed_ascent(adv[active], src, step,
                                  images[active], eps, BOX_LOW, BOX_HIGH)
        adv[active] = stepped
        b.release(stepped)
    return adv


@dataclass
class Attack:
    """Base class: every attack maps (model, images, labels) -> adversarial
    images of the same shape, inside the eps-ball and the image box.

    Attacks run the victim in ``eval()`` mode (dropout off) — gradients must
    describe the deployed model, not a stochastic one — and restore the
    previous mode afterwards.  They also *freeze* the victim's parameters
    for the duration: a white-box attack differentiates w.r.t. the input
    only, and the input gradient does not route through any parameter
    gradient, so skipping those accumulations changes nothing about the
    crafted examples (pinned bitwise by the cross-backend parity suite)
    while dropping the weight-gradient contractions from every inner-loop
    backward pass.  Flags are restored even on a crashing ``_generate``,
    mirroring the mode guarantee.

    ``early_stop`` opts iterative subclasses into per-example early
    stopping: each step begins with the forward pass the gradient needs
    anyway, so already-fooled examples are detected for free and drop out of
    the working batch.  Still-active examples follow the exact trajectory of
    the naive full-iteration path (per-example gradients are independent —
    the substrate has no batch-coupled layers and attacks run in eval mode);
    fooled examples are frozen at the first fooling iterate instead of being
    pushed further.  Single-step attacks ignore the flag.
    """

    eps: float

    name: str = "attack"
    early_stop: bool = False

    def for_shard(self, start: int, total: int) -> "Attack":
        """This attack, restricted to rows ``[start, start+b)`` of a
        ``total``-row batch.

        The sharded evaluation engine crafts each shard in its own
        worker; for the result to merge bit-for-bit with a full-batch
        call, an attack that consumes randomness must reproduce exactly
        the draws the full batch would have assigned to its rows.
        Deterministic attacks (every attack here except PGD) are already
        row-independent, so the base implementation returns ``self``;
        RNG-consuming subclasses override (see ``PGD.rng_window``).
        """
        if start < 0 or total < start:
            raise ValueError(f"invalid shard window [{start}, ..) "
                             f"of total {total}")
        return self

    def generate(self, model: nn.Module, images: np.ndarray,
                 labels: np.ndarray) -> np.ndarray:
        if self.eps < 0:
            raise ValueError(f"eps must be non-negative, got {self.eps}")
        b = _backend.active()
        images = b.asarray(images, dtype=np.float32)
        labels = b.asarray(labels)
        was_training = model.training
        model.eval()
        frozen = [p for p in model.parameters() if p.requires_grad]
        for p in frozen:
            p.requires_grad = False
        try:
            adv = self._generate(model, images, labels)
        finally:
            for p in frozen:
                p.requires_grad = True
            if was_training:
                model.train()
        return project_linf(adv, images, self.eps)

    def _generate(self, model: nn.Module, images: np.ndarray,
                  labels: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def __call__(self, model: nn.Module, images: np.ndarray,
                 labels: np.ndarray) -> np.ndarray:
        return self.generate(model, images, labels)
