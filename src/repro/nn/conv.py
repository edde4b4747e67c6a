"""Differentiable 2-D convolution and pooling via im2col.

All spatial ops use NCHW layout.  ``im2col``/``col2im`` turn convolution into
one big matmul, which is the only way to get acceptable CPU throughput from a
pure-array substrate — important because the benchmark harness trains many
classifiers.

The unfold/fold kernels and the contraction dispatch live on the active
backend (:mod:`repro.backend`): the reference backend is the original numpy
implementation verbatim, while :class:`~repro.backend.fast.FastNumpyBackend`
recycles the column workspaces through a buffer pool — which is why each op
below *releases* its column matrix once nothing can read it again (directly
after the forward when no gradient is required, else at the end of the
single backward pass that consumes it).
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from .. import backend as _backend
from ..backend import conv_output_size
from .tensor import Tensor, is_grad_enabled

__all__ = ["conv2d", "max_pool2d", "avg_pool2d", "im2col", "col2im", "conv_output_size"]

IntPair = Union[int, Tuple[int, int]]


def _pair(v: IntPair) -> Tuple[int, int]:
    if isinstance(v, int):
        return (v, v)
    return (int(v[0]), int(v[1]))


def im2col(x, kh: int, kw: int, stride_h: int, stride_w: int,
           pad_h: int, pad_w: int):
    """Unfold patches of an NCHW array into columns of shape
    ``(N, C*kh*kw, out_h*out_w)`` (delegates to the active backend).

    The caller owns the result outright — direct users (tests, adjoint
    checks) never release it, which simply forgoes pooling.
    """
    return _backend.active().im2col(x, kh, kw, stride_h, stride_w,
                                    pad_h, pad_w)


def col2im(cols, x_shape: Tuple[int, int, int, int],
           kh: int, kw: int, stride_h: int, stride_w: int,
           pad_h: int, pad_w: int):
    """Fold columns back into an NCHW array, accumulating overlaps
    (the adjoint of :func:`im2col`; delegates to the active backend)."""
    return _backend.active().col2im(cols, x_shape, kh, kw,
                                    stride_h, stride_w, pad_h, pad_w)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D convolution: ``x`` is NCHW, ``weight`` is (out_c, in_c, kh, kw)."""
    b = _backend.active()
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    out_c, in_c, kh, kw = weight.shape
    n, c, h, w = x.shape
    if c != in_c:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {in_c}")
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)

    cols = b.im2col(x.data, kh, kw, sh, sw, ph, pw)  # (N, C*kh*kw, L)
    w_mat = weight.data.reshape(out_c, -1)           # (out_c, C*kh*kw)
    out = b.einsum("ok,nkl->nol", w_mat, cols)
    out = out.reshape(n, out_c, out_h, out_w)
    if bias is not None:
        # In place: ``out`` is the fresh contraction result (same values
        # as allocating the sum into a new array).
        out += bias.data.reshape(1, out_c, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    if not (is_grad_enabled() and any(p.requires_grad for p in parents)):
        # No backward will ever read the columns: recycle them now.
        b.release(cols)
        return Tensor._make(out, parents, lambda grad: None)

    # The column workspace is released to the pool after the backward pass
    # consumes it; the cell is nulled so a *repeated* backward on the same
    # graph (legal: gradients accumulate) re-unfolds from ``x.data``
    # instead of reading recycled memory.
    cols_cell = [cols]

    def backward(grad) -> None:
        bk = _backend.active()
        cols = cols_cell[0]
        if cols is None:
            cols = bk.im2col(x.data, kh, kw, sh, sw, ph, pw)
        g = grad.reshape(n, out_c, -1)  # (N, out_c, L)
        if weight.requires_grad:
            gw = bk.einsum("nol,nkl->ok", g, cols)
            weight._accumulate(gw.reshape(weight.shape), owned=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)), owned=True)
        if x.requires_grad:
            gcols = bk.einsum("ok,nol->nkl", w_mat, g)
            x._accumulate(bk.col2im(gcols, x.shape, kh, kw, sh, sw, ph, pw),
                          owned=True)
        cols_cell[0] = None
        bk.release(cols)

    return Tensor._make(out, parents, backward)


def max_pool2d(x: Tensor, kernel: IntPair = 2, stride: IntPair = None) -> Tensor:
    """Max pooling over NCHW spatial dims."""
    b = _backend.active()
    xp = b.xp
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride) if stride is not None else (kh, kw)
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, sh, 0)
    out_w = conv_output_size(w, kw, sw, 0)

    raw = b.im2col(x.data, kh, kw, sh, sw, 0, 0)          # (N, C*kh*kw, L)
    cols = raw.reshape(n, c, kh * kw, out_h * out_w)
    if not (is_grad_enabled() and x.requires_grad):
        # Inference: the winner's value is all that's needed — skip the
        # argmax bookkeeping (identical values; max picks the same winner
        # take_along_axis(argmax) does).
        out = cols.max(axis=2).reshape(n, c, out_h, out_w)
        b.release(raw)
        return Tensor._make(out, (x,), lambda grad: None)
    arg = cols.argmax(axis=2)                             # (N, C, L)
    out = xp.take_along_axis(cols, arg[:, :, None, :], axis=2)[:, :, 0, :]
    out = out.reshape(n, c, out_h, out_w)
    # Backward needs only ``arg``: the columns can be recycled already.
    b.release(raw)

    def backward(grad) -> None:
        bk = _backend.active()
        g = grad.reshape(n, c, 1, -1)
        gcols = bk.scratch((n, c, kh * kw, out_h * out_w), np.float32,
                           zero=True)
        bk.xp.put_along_axis(gcols, arg[:, :, None, :], g, axis=2)
        folded = bk.col2im(gcols.reshape(n, c * kh * kw, out_h * out_w),
                           x.shape, kh, kw, sh, sw, 0, 0)
        bk.release(gcols)
        x._accumulate(folded, owned=True)

    return Tensor._make(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel: IntPair = 2, stride: IntPair = None) -> Tensor:
    """Average pooling over NCHW spatial dims."""
    b = _backend.active()
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride) if stride is not None else (kh, kw)
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, sh, 0)
    out_w = conv_output_size(w, kw, sw, 0)
    area = float(kh * kw)

    raw = b.im2col(x.data, kh, kw, sh, sw, 0, 0)
    out = raw.reshape(n, c, kh * kw, -1).mean(axis=2).reshape(n, c, out_h, out_w)
    b.release(raw)

    def backward(grad) -> None:
        bk = _backend.active()
        g = bk.xp.repeat(grad.reshape(n, c, 1, -1) / area, kh * kw, axis=2)
        g = g.reshape(n, c * kh * kw, out_h * out_w)
        x._accumulate(bk.col2im(g, x.shape, kh, kw, sh, sw, 0, 0), owned=True)

    return Tensor._make(out, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Global average pooling: NCHW -> NC."""
    return x.mean(axis=(2, 3))
