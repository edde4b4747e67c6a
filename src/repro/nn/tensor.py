"""Reverse-mode automatic differentiation over the pluggable array backend.

This module is the lowest layer of the ``repro.nn`` substrate.  It provides a
:class:`Tensor` that records the computation graph as operations are applied
and a :meth:`Tensor.backward` that walks the graph in reverse topological
order accumulating gradients.

The design mirrors the minimal core of larger frameworks:

* every op creates a child tensor holding references to its parents and a
  closure that distributes the child's gradient to them,
* broadcasting is supported everywhere; gradients are "unbroadcast" (summed
  over the broadcast axes) before being accumulated into a parent,
* gradients accumulate additively so a tensor used twice receives the sum of
  both contributions,
* ``float32`` is the canonical dtype (matching the GPU frameworks the paper
  used).

Array work dispatches through :func:`repro.backend.active`: element-wise
math, reductions and shape ops go through the backend's numpy-compatible
``xp`` namespace, and gradient accumulation goes through
``backend.accumulate`` so a backend may adopt freshly-computed temporaries
(``owned=True`` below marks every call site whose gradient array nothing
else references) instead of copying them.  Under the default
:class:`~repro.backend.numpy_backend.NumpyBackend` every expression is
exactly the plain-numpy code this module was first written as.

The white-box attacks in :mod:`repro.attacks` rely on gradients with respect
to *inputs*, so any tensor — not only parameters — may set
``requires_grad=True``.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import backend as _backend

__all__ = ["Tensor", "as_tensor", "no_grad", "is_grad_enabled"]

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


class _GradMode(threading.local):
    """Per-thread grad mode, as in ``torch``.  Serving threads run their
    forwards under :class:`no_grad` while other threads train; a shared
    flag would let one thread switch off another's tape, and two
    interleaved save/restore pairs would leave it off for good."""

    enabled = True


_GRAD_MODE = _GradMode()


class no_grad:
    """Context manager disabling graph construction (inference / attacks'
    inner bookkeeping) in the calling thread.  Mirrors ``torch.no_grad``."""

    def __enter__(self) -> "no_grad":
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _GRAD_MODE.enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether new ops will be recorded on the autodiff tape."""
    return _GRAD_MODE.enabled


def _unbroadcast(grad, shape: Tuple[int, ...]):
    """Sum ``grad`` over axes that were introduced or stretched by
    broadcasting so that it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Remove leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A backend array plus autodiff bookkeeping.

    Parameters
    ----------
    data:
        Anything the active backend's ``asarray`` accepts.  Stored as
        ``float32`` unless an integer/bool array is given explicitly.
    requires_grad:
        Whether gradients should flow into this tensor.
    name:
        Optional debugging label.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    #: Make numpy scalars/arrays on the *left* of a binary op defer to this
    #: class's reflected methods (``np.float64(2) * t`` must build a graph
    #: node, not an object array of element-wise Tensors — the canonical
    #: float32 dtype audit caught exactly that leak).
    __array_priority__ = 1000

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = _backend.active().asarray(data)
        if arr.dtype.kind == "f" and arr.dtype != np.float32:
            arr = arr.astype(np.float32)
        elif arr.dtype.kind in "iu" and requires_grad:
            raise TypeError("integer tensors cannot require gradients")
        elif arr.dtype.kind not in "fiub":
            raise TypeError(f"unsupported dtype {arr.dtype}")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{grad_flag}{label})"

    def numpy(self) -> np.ndarray:
        """Return the data as a host array (no copy on CPU backends)."""
        return _backend.active().to_numpy(self.data)

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """A view of the same data cut off from the autodiff graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction helper
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data,
        parents: Sequence["Tensor"],
        backward: Callable,
    ) -> "Tensor":
        """Create the child node of an op, recording the tape only when
        gradients are enabled and at least one parent needs them."""
        needs = _GRAD_MODE.enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=needs)
        if needs:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad`` (allocating on first use).

        ``owned`` marks a gradient array that the calling backward closure
        computed fresh and holds no other reference to; the backend may
        then adopt it as the gradient slot instead of copying.
        """
        if not self.requires_grad:
            return
        b = _backend.active()
        grad = _unbroadcast(b.asarray(grad, dtype=np.float32), self.data.shape)
        self.grad = b.accumulate(self.grad, grad, owned=owned)

    # ------------------------------------------------------------------ #
    # backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to ones (and must be supplied for non-scalar
        outputs only if a non-trivial seed is wanted).
        """
        xp = _backend.active().xp
        if grad is None:
            seed = xp.ones_like(self.data, dtype=np.float32)
        else:
            seed = _backend.active().asarray(
                grad.data if isinstance(grad, Tensor) else grad,
                dtype=np.float32)
            seed = xp.broadcast_to(seed, self.data.shape).astype(np.float32)

        order = self._topological_order()
        self._accumulate(seed, owned=True)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _topological_order(self) -> List["Tensor"]:
        order: List[Tensor] = []
        seen = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return order

    # ------------------------------------------------------------------ #
    # arithmetic ops
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(grad) -> None:
            # ``grad`` is the child's gradient slot, shared with the child
            # itself and (possibly) the sibling — never owned.
            self._accumulate(grad)
            other._accumulate(grad)

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad) -> None:
            self._accumulate(-grad, owned=True)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data - other.data

        def backward(grad) -> None:
            self._accumulate(grad)
            other._accumulate(-grad, owned=True)

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(grad) -> None:
            self._accumulate(grad * other.data, owned=True)
            other._accumulate(grad * self.data, owned=True)

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(grad) -> None:
            self._accumulate(grad / other.data, owned=True)
            other._accumulate(-grad * self.data / (other.data ** 2), owned=True)

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1),
                             owned=True)

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward(grad) -> None:
            xp = _backend.active().xp
            if self.requires_grad:
                self._accumulate(grad @ xp.swapaxes(other.data, -1, -2),
                                 owned=True)
            if other.requires_grad:
                other._accumulate(xp.swapaxes(self.data, -1, -2) @ grad,
                                  owned=True)

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # comparisons (no gradient)
    # ------------------------------------------------------------------ #
    def __gt__(self, other: ArrayLike):
        return self.data > as_tensor(other).data

    def __lt__(self, other: ArrayLike):
        return self.data < as_tensor(other).data

    def __ge__(self, other: ArrayLike):
        return self.data >= as_tensor(other).data

    def __le__(self, other: ArrayLike):
        return self.data <= as_tensor(other).data

    # ------------------------------------------------------------------ #
    # shape ops
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(grad) -> None:
            # A reshape view of the child's gradient slot — not owned.
            self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = tuple(np.argsort(axes))
        out_data = self.data.transpose(axes)

        def backward(grad) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad) -> None:
            b = _backend.active()
            full = b.xp.zeros_like(self.data, dtype=np.float32)
            b.index_add(full, index, grad)
            self._accumulate(full, owned=True)

        return Tensor._make(out_data, (self,), backward)

    def flatten_batch(self) -> "Tensor":
        """Flatten all but the leading (batch) dimension."""
        return self.reshape(self.shape[0], -1)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad) -> None:
            xp = _backend.active().xp
            g = grad
            if axis is not None and not keepdims:
                g = xp.expand_dims(g, axis)
            # A broadcast view — non-writeable, never owned.
            self._accumulate(xp.broadcast_to(g, self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad) -> None:
            xp = _backend.active().xp
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                g = xp.expand_dims(g, axis)
                out = xp.expand_dims(out, axis)
            mask = (self.data == out).astype(np.float32)
            # Split gradient between ties so the sum is preserved.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None \
                else mask.sum()
            self._accumulate(g * mask / counts, owned=True)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #
    def argmax(self, axis=None):
        return self.data.argmax(axis=axis)


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``stack`` along a new axis."""
    tensors = list(tensors)
    xp = _backend.active().xp
    out_data = xp.stack([t.data for t in tensors], axis=axis)

    def backward(grad) -> None:
        xp = _backend.active().xp
        pieces = xp.split(grad, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            t._accumulate(xp.squeeze(piece, axis=axis))

    return Tensor._make(out_data, tensors, backward)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``concatenate`` along an existing axis."""
    tensors = list(tensors)
    xp = _backend.active().xp
    out_data = xp.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(lo, hi)
            t._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tensors, backward)
