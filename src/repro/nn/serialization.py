"""Save / load module weights as ``.npz`` archives.

Writes are **atomic**: the archive is assembled in a temp file in the
destination directory and published with :func:`os.replace`, so a run
killed mid-write never leaves a truncated archive where a good one (or a
resumable checkpoint) should be.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Dict, Union

import numpy as np

from ..utils.store import temp_file
from .modules import Module

__all__ = ["atomic_savez", "save_state", "load_state"]


def atomic_savez(path: Union[str, os.PathLike],
                 arrays: Dict[str, np.ndarray]) -> str:
    """Write ``arrays`` to ``path`` as an ``.npz`` archive atomically.

    The temp file lives in the destination directory so ``os.replace`` is
    a same-filesystem rename.  Returns the final path.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    with temp_file(directory, partial(np.savez, **arrays)) as tmp:
        os.replace(tmp, path)
    return path


def save_state(module: Module, path: Union[str, os.PathLike]) -> None:
    """Write the module's state dict to ``path`` (``.npz`` appended if
    missing) atomically."""
    state = module.state_dict()
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    # np.savez forbids "/" in keys on some versions; escape dots are fine.
    atomic_savez(path, {k.replace("/", "_"): v for k, v in state.items()})


def load_state(module: Module, path: Union[str, os.PathLike]) -> None:
    """Load weights saved by :func:`save_state` into ``module`` in place.

    Key or parameter-shape mismatches raise with the offending file named
    (the underlying ``load_state_dict`` refuses to broadcast or partially
    apply a state dict).
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    with np.load(path) as archive:
        state = {k: archive[k] for k in archive.files}
    try:
        module.load_state_dict(state)
    except (KeyError, ValueError) as error:
        raise type(error)(
            f"cannot load weights from {path!r}: {error}") from error
