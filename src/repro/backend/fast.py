"""The accelerated CPU backend: same numerics, better memory behaviour.

:class:`FastNumpyBackend` keeps every arithmetic expression of the
reference backend — each fused kernel below replays the reference's
operations in the same order on the same dtypes, so results are
bit-identical (IEEE-754 addition and multiplication are commutative, and no
reassociation is performed) — and attacks only the allocator:

* **pooled im2col workspaces** — the column matrix a convolution or pooling
  layer unfolds into is the largest allocation on the forward/backward hot
  path; instead of a fresh ``(N, C*kh*kw, L)`` array per call, buffers are
  recycled through a shape-keyed free list (``release`` returns them).
* **verified BLAS shortcuts for the conv contractions** — the im2col
  matmuls dispatch straight to ``np.matmul``/``np.tensordot`` for every
  (subscripts, shapes) key where a first-call comparison proved the
  shortcut bit-identical to ``np.einsum(..., optimize=True)``; unverified
  geometries keep the reference einsum.
* **fused in-place SGD/Adam steps** — moment and parameter updates write
  into their existing buffers through scratch temporaries instead of
  allocating 4-6 intermediates per parameter per step.
* **in-place gradient accumulation** — a backward closure that hands the
  tape a freshly-computed temporary (``owned=True``) donates the array as
  the gradient slot instead of it being copied.

Buffer-pool contract: a pooled array handed out by ``im2col``/``scratch``
is reused only after ``release``; an un-released buffer is ordinary garbage
(the pool holds no reference), so forgetting to release is a missed
optimization, never a correctness bug.  Releasing a buffer that something
still references *is* a bug — the autodiff layer only releases column
workspaces after the (single) backward pass that reads them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from .base import conv_output_size
from .numpy_backend import NumpyBackend

__all__ = ["FastNumpyBackend"]

# Free-list entries kept per (shape, dtype) key; beyond this, released
# buffers are dropped to the GC so the pool cannot hoard memory.
_POOL_DEPTH = 8


class _BufferPool:
    """Size-tolerant free list of flat numpy buffers.

    Buffers are stored 1-D per dtype; ``acquire`` carves a contiguous view
    of the requested geometry out of the smallest free buffer that fits
    (callers overwrite every element, so surplus tail bytes are inert).
    The size tolerance is what keeps the pool hot under the *shrinking*
    workspace shapes of early-stopping attack loops, where an exact-shape
    pool would miss on almost every iteration.

    ``release`` resolves a view back to its base buffer; the pool never
    tracks outstanding handles, so an un-released buffer is ordinary
    garbage and any whole, writable, C-contiguous array a caller owns
    outright may be donated.
    """

    def __init__(self) -> None:
        self._free: Dict[Any, List[np.ndarray]] = {}
        #: Served from the free list vs. freshly allocated (exported as
        #: ``repro_backend_pool_{hits,misses}_total``).
        self.hits = 0
        self.misses = 0

    def acquire(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        count = 1
        for dim in shape:
            count *= int(dim)
        stack = self._free.get(dtype)
        if stack:
            # Smallest free buffer that fits (the list is kept sorted by
            # size, so the first large-enough entry is the best fit).
            for i, buf in enumerate(stack):
                if buf.size >= count:
                    del stack[i]
                    self.hits += 1
                    # Entries are whole owning allocations; a *donated*
                    # one (release of a fresh gradient array or attack
                    # iterate) keeps its original n-D shape, so flatten
                    # before carving — C-contiguous, so it's a view.
                    return buf.reshape(-1)[:count].reshape(shape)
        self.misses += 1
        return np.empty(count, dtype=dtype).reshape(shape)

    def release(self, buf: np.ndarray) -> None:
        if buf.base is not None:
            # A view carved by ``acquire`` (or a caller's reshape of one)
            # resolves to its flat base buffer.
            buf = buf.base
            if not isinstance(buf, np.ndarray):
                return
        if not (buf.flags.c_contiguous and buf.flags.writeable):
            return
        buf = buf.reshape(-1)
        buf = buf.base if buf.base is not None else buf
        stack = self._free.setdefault(buf.dtype, [])
        if any(b is buf for b in stack):
            return
        if len(stack) < _POOL_DEPTH:
            stack.append(buf)
        elif stack[0].size < buf.size:
            # Full: prefer keeping the largest buffers.  Acquire is
            # size-tolerant (small requests carve views out of big
            # buffers), so evicting the smallest entry loses nothing,
            # while dropping a big workspace would doom every later
            # large acquire to a fresh allocation — exactly what happens
            # when an early-stopping attack's active set shrinks and its
            # small per-iteration buffers flood the list.
            stack[0] = buf
        else:
            return
        stack.sort(key=lambda b: b.size)


class FastNumpyBackend(NumpyBackend):
    """Allocation-avoiding CPU backend (see module docstring)."""

    name = "fast"

    def __init__(self) -> None:
        self._pool = _BufferPool()
        self._matmul_ok: Dict[Tuple[str, Tuple[Tuple[int, ...], ...]],
                              bool] = {}
        obs.register(self, FastNumpyBackend._collect_metrics)

    def _collect_metrics(self) -> List[obs.Sample]:
        """Scrape-time view of the buffer pool's hit/miss counters."""
        return [
            obs.Sample.make("repro_backend_pool_hits_total", "counter",
                            float(self._pool.hits),
                            help="scratch-buffer pool hits"),
            obs.Sample.make("repro_backend_pool_misses_total", "counter",
                            float(self._pool.misses),
                            help="scratch-buffer pool misses "
                                 "(fresh allocations)"),
        ]

    # ------------------------------------------------------------------ #
    # scratch buffers
    # ------------------------------------------------------------------ #
    def scratch(self, shape: Tuple[int, ...], dtype=np.float32,
                zero: bool = False) -> np.ndarray:
        buf = self._pool.acquire(shape, dtype)
        if zero:
            buf.fill(0)
        return buf

    def release(self, buf: Any) -> None:
        if isinstance(buf, np.ndarray):
            # Views (reshapes of a pooled buffer) resolve to their base.
            self._pool.release(buf if buf.base is None else buf.base)

    def pool_stats(self) -> Dict[str, int]:
        """Free-list hit/miss counters: size-tolerant acquire plus
        keep-largest eviction let an early-stopping attack's shrinking
        workspace shapes keep hitting the pool instead of allocating."""
        return {"hits": self._pool.hits, "misses": self._pool.misses}

    # ------------------------------------------------------------------ #
    # contraction kernels
    # ------------------------------------------------------------------ #
    # The conv contractions have direct BLAS formulations that skip
    # einsum's per-call subscript parsing and operand massaging — usually,
    # but not for every operand geometry, the bit-exact same kernel
    # sequence (numpy's dispatch between its batched-matmul and tensordot
    # strategies is size-dependent, batch dimension included).  ``einsum``
    # therefore *verifies then trusts*, per exact (subscripts, shapes) key,
    # and lazily: a shape's first sighting runs the plain reference (shapes
    # that never recur — the shrinking active sets of early-stopping
    # attacks — cost nothing extra), its second sighting computes both and
    # compares, and from then on the shortcut serves every recurrence that
    # proved bit-identical.  Kernel dispatch is deterministic per shape, so
    # one bitwise match on real data pins the summation order; the
    # cross-backend parity suite re-checks end to end.
    _SHORTCUTS = {
        "ok,nkl->nol": lambda w, cols: np.matmul(w, cols),
        "ok,nol->nkl": lambda w, g: np.matmul(w.T, g),
        "nol,nkl->ok": lambda g, cols: np.tensordot(g, cols,
                                                    ((0, 2), (0, 2))),
    }
    _SEEN = "seen-once"

    def einsum(self, subscripts: str, *operands: Any) -> np.ndarray:
        shortcut = self._SHORTCUTS.get(subscripts)
        if shortcut is not None:
            key = (subscripts, tuple(op.shape for op in operands))
            state = self._matmul_ok.get(key)
            if state is True:
                return shortcut(*operands)
            if state is None:
                self._matmul_ok[key] = self._SEEN
            elif state is self._SEEN:
                reference = np.einsum(subscripts, *operands, optimize=True)
                self._matmul_ok[key] = np.array_equal(
                    reference, shortcut(*operands))
                return reference
        return np.einsum(subscripts, *operands, optimize=True)

    def im2col(self, x: np.ndarray, kh: int, kw: int, stride_h: int,
               stride_w: int, pad_h: int, pad_w: int) -> np.ndarray:
        n, c, h, w = x.shape
        out_h = conv_output_size(h, kh, stride_h, pad_h)
        out_w = conv_output_size(w, kw, stride_w, pad_w)
        if pad_h or pad_w:
            padded = self._pool.acquire(
                (n, c, h + 2 * pad_h, w + 2 * pad_w), x.dtype)
            padded.fill(0)
            padded[:, :, pad_h:pad_h + h, pad_w:pad_w + w] = x
            x = padded
        else:
            padded = None
        s = x.strides
        view = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, c, kh, kw, out_h, out_w),
            strides=(s[0], s[1], s[2], s[3], s[2] * stride_h, s[3] * stride_w),
            writeable=False,
        )
        cols = self._pool.acquire((n, c * kh * kw, out_h * out_w), x.dtype)
        # The pooled (N, C*kh*kw, L) buffer is C-contiguous, so reshaping it
        # to the patch layout is a view: copyto fills it straight from the
        # strided view with no intermediate.
        np.copyto(cols.reshape(n, c, kh, kw, out_h, out_w), view)
        if padded is not None:
            self._pool.release(padded)
        return cols

    def col2im(self, cols: np.ndarray, x_shape: Tuple[int, int, int, int],
               kh: int, kw: int, stride_h: int, stride_w: int,
               pad_h: int, pad_w: int) -> np.ndarray:
        n, c, h, w = x_shape
        ph, pw = h + 2 * pad_h, w + 2 * pad_w
        out_h = conv_output_size(h, kh, stride_h, pad_h)
        out_w = conv_output_size(w, kw, stride_w, pad_w)
        if (stride_h == kh and stride_w == kw
                and out_h * kh == ph and out_w * kw == pw):
            # Exact non-overlapping tiling (the pooling geometry): every
            # output element receives exactly one column entry, so the fold
            # is a pure layout permutation — one transpose-copy instead of
            # kh*kw strided accumulation passes.  Bit-identical: no sums.
            folded = cols.reshape(n, c, kh, kw, out_h, out_w) \
                .transpose(0, 1, 4, 2, 5, 3).reshape(n, c, ph, pw)
            if pad_h or pad_w:
                return folded[:, :, pad_h:pad_h + h, pad_w:pad_w + w]
            # transpose().reshape() above already copied; safe to return.
            return folded
        return super().col2im(cols, x_shape, kh, kw, stride_h, stride_w,
                              pad_h, pad_w)

    # ------------------------------------------------------------------ #
    # autodiff tape
    # ------------------------------------------------------------------ #
    def accumulate(self, current: Optional[np.ndarray], update: np.ndarray,
                   owned: bool = False) -> np.ndarray:
        if current is None:
            # Adopt owned temporaries; copy shared/broadcast views like the
            # reference does.  Non-writeable arrays (broadcast views) can
            # never be adopted even when flagged owned.
            if owned and update.flags.writeable:
                return update
            return update.copy()
        current += update
        return current

    # ------------------------------------------------------------------ #
    # fused attack step
    # ------------------------------------------------------------------ #
    def signed_ascent(self, adv: np.ndarray, grad: np.ndarray, step: float,
                      origin: np.ndarray, eps: float,
                      low: float, high: float) -> np.ndarray:
        # sign -> mul -> add -> ball clip -> box clip, one pass over a
        # pooled buffer, replaying the reference's exact expression order
        # (``adv + step * sign(grad)`` — scalar multiplication commutes
        # bitwise; clip-with-``out=`` computes the same min/max chain).
        out = self._pool.acquire(adv.shape, np.float32)
        np.sign(grad, out=out)
        np.multiply(out, step, out=out)   # == step * sign(grad)
        np.add(adv, out, out=out)
        lo = self._pool.acquire(adv.shape, np.float32)
        hi = self._pool.acquire(adv.shape, np.float32)
        np.subtract(origin, eps, out=lo)
        np.add(origin, eps, out=hi)
        np.clip(out, lo, hi, out=out)
        np.clip(out, low, high, out=out)
        self._pool.release(hi)
        self._pool.release(lo)
        return out

    # ------------------------------------------------------------------ #
    # fused optimizer steps
    # ------------------------------------------------------------------ #
    def sgd_step(self, param: np.ndarray, grad: np.ndarray,
                 velocity: Optional[np.ndarray], lr: float, momentum: float,
                 weight_decay: float) -> Optional[np.ndarray]:
        work = self._pool.acquire(param.shape, param.dtype)
        if weight_decay:
            np.multiply(param, weight_decay, out=work)
            work += grad                     # == grad + weight_decay * param
            grad = work
        if momentum:
            v = velocity
            if v is None:
                v = np.zeros_like(param)
            np.multiply(v, momentum, out=v)
            v += grad                        # == momentum * v + grad
            velocity = v
            grad = v
        np.multiply(grad, lr, out=work)
        param -= work                        # == param - lr * grad
        self._pool.release(work)
        return velocity

    def adam_step(self, param: np.ndarray, grad: np.ndarray,
                  m: Optional[np.ndarray], v: Optional[np.ndarray],
                  lr: float, b1: float, b2: float, eps: float,
                  weight_decay: float, steps: int
                  ) -> Tuple[np.ndarray, np.ndarray]:
        work = self._pool.acquire(param.shape, param.dtype)
        tmp = self._pool.acquire(param.shape, param.dtype)
        if weight_decay:
            wd = self._pool.acquire(param.shape, param.dtype)
            np.multiply(param, weight_decay, out=wd)
            wd += grad                       # == grad + weight_decay * param
            grad = wd
        else:
            wd = None
        if m is None:
            m = np.zeros_like(param)
            v = np.zeros_like(param)
        # m = b1 * m + (1 - b1) * grad, replayed in the reference's order.
        np.multiply(m, b1, out=m)
        np.multiply(grad, 1.0 - b1, out=work)
        m += work
        # v = b2 * v + ((1 - b2) * grad) * grad — note the reference's
        # left-associated product, preserved exactly.
        np.multiply(v, b2, out=v)
        np.multiply(grad, 1.0 - b2, out=work)
        work *= grad
        v += work
        # param -= lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(m, 1.0 - b1 ** steps, out=work)      # m_hat
        np.divide(v, 1.0 - b2 ** steps, out=tmp)       # v_hat
        np.sqrt(tmp, out=tmp)
        tmp += eps
        np.multiply(work, lr, out=work)
        work /= tmp
        param -= work
        if wd is not None:
            self._pool.release(wd)
        self._pool.release(tmp)
        self._pool.release(work)
        return m, v
