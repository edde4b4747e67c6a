"""One BLAS thread per process: the thread budget of every ``repro`` path.

Sharded evaluation, data-parallel training, the ``harden`` fine-tune and
``serve-http --procs`` all take their parallelism from *processes*.  Left
alone, each process's OpenBLAS starts one thread per core, so a parent
plus two pool workers on a 2-CPU host run six BLAS threads and the pool
runs slower than one process.  :func:`pin_blas_threads` sets the count to
:data:`BLAS_THREADS` instead, the way PyTorch's DataLoader workers run one
intra-op thread.  :func:`repro.backend.get_backend` calls it when a
process builds its first backend, and every computation goes through a
backend, so one call site covers the parent, every spawn-pool worker and
every serving process.

The count is a constant, not ``cpus // workers``: OpenBLAS's sgemm
returns different bits at one and two threads (LeNet's
``(n, 784) @ (784, 128)`` does), so a count that depends on the worker
count would break the engines' contract that results are bit-identical
at any ``--workers``.

An operator who sets ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS`` keeps that count: children inherit the environment,
so every process still agrees.  numpy builds whose BLAS exposes no
thread-count entry are left alone and report ``None``.
"""

from __future__ import annotations

import ctypes
import functools
import os
from typing import Optional

__all__ = ["BLAS_THREADS", "THREAD_ENV_VARS", "usable_cpus", "blas_threads",
           "pin_blas_threads"]

#: BLAS threads per process.  Constant on purpose (see the module doc).
BLAS_THREADS = 1

#: Environment variables a BLAS reads its thread count from at load time.
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                   "OMP_NUM_THREADS")

#: (setter, getter) symbol pairs, in lookup order: numpy >= 2 wheels
#: (scipy-openblas with 64-bit, then 32-bit integers), numpy 1.x wheels
#: (OpenBLAS built with the ``64_`` suffix), and builds linked against a
#: system OpenBLAS.
_ENTRY_POINTS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def _entry_points() -> Optional[tuple]:
    """numpy's BLAS thread-count setter and getter, or ``None``.

    A handle on numpy's ``_multiarray_umath`` extension resolves symbols
    in the libraries it was linked with, bundled OpenBLAS included.
    """
    try:
        from numpy._core import _multiarray_umath as extension
    except ImportError:  # pragma: no cover - numpy < 2
        from numpy.core import _multiarray_umath as extension
    try:
        library = ctypes.CDLL(extension.__file__)
    except OSError:  # pragma: no cover - unloadable extension
        return None
    for set_name, get_name in _ENTRY_POINTS:
        try:
            setter, getter = getattr(library, set_name), \
                getattr(library, get_name)
        except AttributeError:
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        return setter, getter
    return None


def blas_threads() -> Optional[int]:
    """The BLAS's current thread count (``None`` when it exposes none)."""
    entries = _entry_points()
    return None if entries is None else int(entries[1]())


def pin_blas_threads() -> Optional[int]:
    """Set this process's BLAS to :data:`BLAS_THREADS` threads.

    Leaves the BLAS alone when a :data:`THREAD_ENV_VARS` variable is set
    or the BLAS has no thread-count entry.  Returns the count in force.
    """
    entries = _entry_points()
    if entries is None:
        return None
    if not any(os.environ.get(name) for name in THREAD_ENV_VARS):
        entries[0](BLAS_THREADS)
    return int(entries[1]())
