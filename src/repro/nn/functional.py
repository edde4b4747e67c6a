"""Differentiable element-wise, activation and normalization functions.

Everything here operates on :class:`repro.nn.tensor.Tensor` and records the
autodiff tape.  Numerically-sensitive ops (softmax, log-softmax, sigmoid)
use the standard stable formulations.

Array math dispatches through the active backend's ``xp`` namespace
(:mod:`repro.backend`); under the default ``NumpyBackend`` every expression
is the plain-numpy code it always was.  Stochastic draws (dropout masks)
are made on the host RNG stream and transferred via ``backend.asarray`` so
seeded runs agree across backends.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from .. import backend as _backend
from .tensor import Tensor, as_tensor

__all__ = [
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "exp",
    "log",
    "sqrt",
    "abs",
    "clip",
    "softmax",
    "log_softmax",
    "dropout",
    "where",
    "maximum",
    "minimum",
    "pad2d",
    "one_hot",
]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit, ``max(x, 0)``."""
    mask = (x.data > 0).astype(np.float32)
    out_data = x.data * mask

    def backward(grad) -> None:
        x._accumulate(grad * mask, owned=True)

    return Tensor._make(out_data, (x,), backward)


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU with configurable slope for negative inputs."""
    mask = (x.data > 0).astype(np.float32)
    scale = mask + negative_slope * (1.0 - mask)
    out_data = x.data * scale

    def backward(grad) -> None:
        x._accumulate(grad * scale, owned=True)

    return Tensor._make(out_data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic sigmoid."""
    out_data = _stable_sigmoid(x.data)

    def backward(grad) -> None:
        x._accumulate(grad * out_data * (1.0 - out_data), owned=True)

    return Tensor._make(out_data, (x,), backward)


def _stable_sigmoid(z):
    xp = _backend.active().xp
    out = xp.empty_like(z, dtype=np.float32)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + xp.exp(-z[pos]))
    ez = xp.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def tanh(x: Tensor) -> Tensor:
    out_data = _backend.active().xp.tanh(x.data)

    def backward(grad) -> None:
        x._accumulate(grad * (1.0 - out_data ** 2), owned=True)

    return Tensor._make(out_data, (x,), backward)


def exp(x: Tensor) -> Tensor:
    out_data = _backend.active().xp.exp(x.data)

    def backward(grad) -> None:
        x._accumulate(grad * out_data, owned=True)

    return Tensor._make(out_data, (x,), backward)


def log(x: Tensor, eps: float = 0.0) -> Tensor:
    """Natural logarithm; pass ``eps`` to clamp inputs away from zero."""
    xp = _backend.active().xp
    safe = x.data if eps == 0.0 else xp.maximum(x.data, eps)
    out_data = xp.log(safe)

    def backward(grad) -> None:
        x._accumulate(grad / safe, owned=True)

    return Tensor._make(out_data, (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    xp = _backend.active().xp
    out_data = xp.sqrt(x.data)

    def backward(grad) -> None:
        xp = _backend.active().xp
        x._accumulate(grad * 0.5 / xp.maximum(out_data, 1e-12), owned=True)

    return Tensor._make(out_data, (x,), backward)


def abs(x: Tensor) -> Tensor:  # noqa: A001 - mirrors np.abs
    sign = _backend.active().xp.sign(x.data).astype(np.float32)
    out_data = x.data * sign

    def backward(grad) -> None:
        x._accumulate(grad * sign, owned=True)

    return Tensor._make(out_data, (x,), backward)


def clip(x: Tensor, low: float, high: float) -> Tensor:
    """Differentiable clamp; gradient is passed only inside the box."""
    out_data = _backend.active().xp.clip(x.data, low, high)
    mask = ((x.data >= low) & (x.data <= high)).astype(np.float32)

    def backward(grad) -> None:
        x._accumulate(grad * mask, owned=True)

    return Tensor._make(out_data, (x,), backward)


def where(condition, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable ``where`` on a boolean array condition."""
    a = as_tensor(a)
    b = as_tensor(b)
    xp = _backend.active().xp
    cond = xp.asarray(condition, dtype=bool)
    out_data = xp.where(cond, a.data, b.data)

    def backward(grad) -> None:
        a._accumulate(grad * cond, owned=True)
        b._accumulate(grad * ~cond, owned=True)

    return Tensor._make(out_data, (a, b), backward)


def maximum(a: Tensor, b) -> Tensor:
    """Element-wise maximum (gradient goes to the winner; ties split)."""
    a = as_tensor(a)
    b = as_tensor(b)
    xp = _backend.active().xp
    out_data = xp.maximum(a.data, b.data)
    a_wins = (a.data > b.data).astype(np.float32)
    ties = (a.data == b.data).astype(np.float32) * 0.5

    def backward(grad) -> None:
        a._accumulate(grad * (a_wins + ties), owned=True)
        b._accumulate(grad * (1.0 - a_wins - ties), owned=True)

    return Tensor._make(out_data, (a, b), backward)


def minimum(a: Tensor, b) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b)
    return -maximum(-a, -b)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis``."""
    xp = _backend.active().xp
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = xp.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(grad) -> None:
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (grad - dot), owned=True)

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable log-softmax along ``axis``."""
    xp = _backend.active().xp
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = xp.log(xp.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    soft = xp.exp(out_data)

    def backward(grad) -> None:
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True),
                      owned=True)

    return Tensor._make(out_data, (x,), backward)


def dropout(
    x: Tensor,
    rate: float,
    training: bool,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Inverted dropout: at train time zero activations with probability
    ``rate`` and scale survivors by ``1/(1-rate)``; identity at test time."""
    if not training or rate <= 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    rng = rng or np.random.default_rng()
    keep = 1.0 - rate
    # The mask is drawn on the host stream (cross-backend determinism) and
    # transferred; a no-op on the CPU backends.
    mask = _backend.active().asarray(
        (rng.random(x.shape) < keep).astype(np.float32) / keep)
    out_data = x.data * mask

    def backward(grad) -> None:
        x._accumulate(grad * mask, owned=True)

    return Tensor._make(out_data, (x,), backward)


def pad2d(x: Tensor, padding: Union[int, Tuple[int, int]]) -> Tensor:
    """Zero-pad the two trailing spatial dims of an NCHW tensor."""
    if isinstance(padding, int):
        ph = pw = padding
    else:
        ph, pw = padding
    if ph == 0 and pw == 0:
        return x
    pads = ((0, 0), (0, 0), (ph, ph), (pw, pw))
    out_data = _backend.active().xp.pad(x.data, pads)

    def backward(grad) -> None:
        h, w = x.shape[2], x.shape[3]
        # A slice view of the child's gradient slot — not owned.
        x._accumulate(grad[:, :, ph:ph + h, pw:pw + w])

    return Tensor._make(out_data, (x,), backward)


def one_hot(labels, num_classes: int) -> np.ndarray:
    """Dense one-hot encoding of an integer label vector (host-side)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D integer vector")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("label out of range")
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
