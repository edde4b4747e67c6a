"""``repro.backend`` — pluggable array backends for the whole stack.

The autodiff tensor, the conv kernels, the attacks and the trainers all
dispatch their array work through the **active backend**, an object
satisfying the :class:`~repro.backend.base.ArrayOps` protocol.  Two
implementations ship:

* ``numpy`` — the reference; bit-identical to the pre-seam code (default),
* ``fast`` — same numerics, allocation-avoiding (pooled im2col workspaces,
  cached einsum paths, fused in-place optimizer steps, in-place gradient
  accumulation); see :class:`~repro.backend.fast.FastNumpyBackend`.

Selection::

    import repro.backend as backend

    backend.use("fast")            # switch the global default
    with backend.use("numpy"):     # or scoped: restores on exit
        ...

    REPRO_BACKEND=fast python -m repro table3 ...   # process default
    python -m repro table3 --backend fast ...       # per-run override

``use`` switches immediately in both forms: called bare it is a permanent
global switch, used as a context manager it additionally restores the
previously-active backend on exit.  Checkpoints record the backend that
produced them (see :mod:`repro.train.checkpoint`), and the cross-backend
equivalence suite (``tests/backend/test_parity.py``) pins ``numpy`` ⇔
``fast`` agreement from gradcheck up to Table 3 accuracies.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..utils.threads import pin_blas_threads
from .base import ArrayOps, conv_output_size
from .fast import FastNumpyBackend
from .numpy_backend import NumpyBackend

__all__ = [
    "ArrayOps",
    "NumpyBackend",
    "FastNumpyBackend",
    "conv_output_size",
    "register",
    "get_backend",
    "available_backends",
    "resolve",
    "active",
    "use",
    "DEFAULT_BACKEND_ENV",
]

#: Environment variable naming the process-default backend.
DEFAULT_BACKEND_ENV = "REPRO_BACKEND"

_FACTORIES: Dict[str, Callable[[], ArrayOps]] = {}
_INSTANCES: Dict[str, ArrayOps] = {}
_ACTIVE: List[Optional[ArrayOps]] = [None]


def register(name: str, factory: Callable[[], ArrayOps]) -> None:
    """Register a backend factory under ``name`` (idempotent per name)."""
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def available_backends() -> Tuple[str, ...]:
    """Names of every registered backend, in registration order."""
    return tuple(_FACTORIES)


def get_backend(name: str) -> ArrayOps:
    """The (cached) backend instance registered under ``name``.

    Building the process's first instance pins its BLAS to one thread
    (:func:`repro.utils.threads.pin_blas_threads`): every computation
    goes through a backend, so this covers the parent, each spawn-pool
    worker and each serving process before their first contraction.
    """
    if name not in _FACTORIES:
        raise KeyError(
            f"unknown backend {name!r}; choose from {sorted(_FACTORIES)}")
    if name not in _INSTANCES:
        if not _INSTANCES:
            pin_blas_threads()
        _INSTANCES[name] = _FACTORIES[name]()
    return _INSTANCES[name]


def resolve(name: Optional[str], fallback: str = "numpy") -> str:
    """Map a backend name to one that is actually registered here.

    Provenance metadata travels with artifacts — a checkpoint records the
    backend that produced it — but the process reading the artifact may
    not have that backend (a checkpoint recorded under ``cupy`` or
    ``compiled``, which this build no longer ships).  ``resolve`` keeps
    the recorded name when it is available and otherwise falls back, so
    callers can pin execution to the producing backend without first
    probing the registry.
    """
    if name in _FACTORIES:
        assert name is not None
        return name
    if fallback not in _FACTORIES:
        raise KeyError(
            f"fallback backend {fallback!r} is not registered; "
            f"choose from {sorted(_FACTORIES)}")
    return fallback


def active() -> ArrayOps:
    """The currently-active backend (resolving the ``REPRO_BACKEND``
    process default on first use)."""
    backend = _ACTIVE[0]
    if backend is None:
        backend = get_backend(os.environ.get(DEFAULT_BACKEND_ENV, "numpy"))
        _ACTIVE[0] = backend
    return backend


class use:
    """Activate a backend — global switch and context manager in one.

    ``backend.use("fast")`` switches the global default immediately;
    ``with backend.use("fast"): ...`` additionally restores whatever was
    active before on exit.
    """

    def __init__(self, backend: Union[str, ArrayOps]) -> None:
        self._prev = active()
        _ACTIVE[0] = get_backend(backend) if isinstance(backend, str) \
            else backend

    def __enter__(self) -> ArrayOps:
        current = _ACTIVE[0]
        assert current is not None
        return current

    def __exit__(self, *exc) -> None:
        _ACTIVE[0] = self._prev


register("numpy", NumpyBackend)
register("fast", FastNumpyBackend)
