"""The array-backend seam: the :class:`ArrayOps` protocol.

``repro.nn`` (and everything above it) never talks to ``numpy`` directly on
a hot path; it talks to the *active backend*, an object satisfying this
protocol.  The protocol has two halves:

* **the namespace** — ``backend.xp`` is a numpy-compatible array module
  (``numpy`` itself for both shipped backends; a device backend would
  plug in a drop-in namespace such as ``cupy``).  Element-wise math,
  reductions and shape ops go through it unchanged, so the calling code
  reads exactly like the numpy it replaced.
* **the capability methods** — operations whose *implementation strategy*
  differs between backends: array creation/transfer, scratch-buffer
  management, the im2col/col2im kernels, tensor-contraction dispatch,
  scatter-add indexing, gradient accumulation on the autodiff tape, the
  fused optimizer update steps and RNG derivation.

The reference implementation is
:class:`~repro.backend.numpy_backend.NumpyBackend`; it is bit-identical to
the pre-seam code by construction (same expressions, same evaluation
order).  :class:`~repro.backend.fast.FastNumpyBackend` keeps the numerics
and changes only the memory behaviour.

RNG streams are **always host-side** (``numpy.random.Generator`` seeded via
SHA-256 of ``(seed, tag)``) on every backend: stochastic draws happen on
the CPU and are transferred with :meth:`ArrayOps.asarray`, which is what
makes seeded runs reproducible *across* backends.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

__all__ = ["ArrayOps", "conv_output_size"]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial extent of a convolution along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces empty output (size={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding})"
        )
    return out


@runtime_checkable
class ArrayOps(Protocol):
    """What a backend must provide.  See the module docstring for the
    namespace/capability split; parameter conventions follow numpy."""

    #: Registry name (``"numpy"``, ``"fast"``).
    name: str

    @property
    def xp(self) -> Any:
        """The numpy-compatible array namespace for element-wise math,
        reductions, shape ops and comparisons."""

    # ------------------------------------------------------------------ #
    # creation / transfer
    # ------------------------------------------------------------------ #
    def asarray(self, data: Any, dtype: Optional[np.dtype] = None) -> Any:
        """Coerce ``data`` to a backend array (no copy when already one)."""

    def to_numpy(self, arr: Any) -> np.ndarray:
        """Host view/copy of ``arr`` (identity for CPU backends)."""

    # ------------------------------------------------------------------ #
    # scratch buffers
    # ------------------------------------------------------------------ #
    def scratch(self, shape: Tuple[int, ...], dtype: Any = np.float32,
                zero: bool = False) -> Any:
        """A working buffer of the given geometry.  The reference backend
        allocates; pooling backends recycle released buffers, so contents
        are garbage unless ``zero`` is set."""

    def release(self, buf: Any) -> None:
        """Hand a buffer obtained from :meth:`scratch` / :meth:`im2col`
        back for reuse.  Call only when no live array references it; a
        buffer that is never released is simply reclaimed by the GC."""

    # ------------------------------------------------------------------ #
    # contraction / indexing kernels
    # ------------------------------------------------------------------ #
    def einsum(self, subscripts: str, *operands: Any) -> Any:
        """Tensor contraction (the conv forward/backward workhorse)."""

    def index_add(self, target: Any, index: Any, update: Any) -> None:
        """Unbuffered in-place scatter-add (``np.add.at`` semantics)."""

    def im2col(self, x: Any, kh: int, kw: int, stride_h: int, stride_w: int,
               pad_h: int, pad_w: int) -> Any:
        """Unfold NCHW patches into ``(N, C*kh*kw, out_h*out_w)`` columns.
        The result may be a pooled buffer: callers that are done with it
        should :meth:`release` it."""

    def col2im(self, cols: Any, x_shape: Tuple[int, int, int, int],
               kh: int, kw: int, stride_h: int, stride_w: int,
               pad_h: int, pad_w: int) -> Any:
        """Adjoint of :meth:`im2col` (overlaps accumulate).  Never pooled —
        the result usually becomes a gradient and outlives the op."""

    # ------------------------------------------------------------------ #
    # autodiff tape
    # ------------------------------------------------------------------ #
    def accumulate(self, current: Optional[Any], update: Any,
                   owned: bool = False) -> Any:
        """Fold ``update`` into a gradient slot and return the new slot
        value.  ``owned`` promises that ``update`` is a freshly-computed
        temporary no other code holds, which lets a backend adopt it
        in place of copying."""

    # ------------------------------------------------------------------ #
    # fused attack step
    # ------------------------------------------------------------------ #
    def signed_ascent(self, adv: Any, grad: Any, step: float, origin: Any,
                      eps: float, low: float, high: float) -> Any:
        """One signed-gradient ascent step with projection:
        ``clip(clip(adv + step * sign(grad), origin ± eps), [low, high])``
        as a single fused pass.  May return a pooled buffer — callers
        release it after consuming it."""

    # ------------------------------------------------------------------ #
    # fused optimizer steps
    # ------------------------------------------------------------------ #
    def sgd_step(self, param: Any, grad: Any, velocity: Optional[Any],
                 lr: float, momentum: float, weight_decay: float
                 ) -> Optional[Any]:
        """One SGD update, mutating ``param`` in place; returns the new
        velocity buffer (``None`` while momentum is off)."""

    def adam_step(self, param: Any, grad: Any, m: Optional[Any],
                  v: Optional[Any], lr: float, b1: float, b2: float,
                  eps: float, weight_decay: float, steps: int
                  ) -> Tuple[Any, Any]:
        """One Adam update, mutating ``param`` in place; returns the new
        ``(m, v)`` moment buffers."""

    # ------------------------------------------------------------------ #
    # RNG
    # ------------------------------------------------------------------ #
    def derive_rng(self, seed: int, tag: str = "") -> np.random.Generator:
        """Independent host-side generator for ``(seed, tag)`` — identical
        streams on every backend (see module docstring)."""
