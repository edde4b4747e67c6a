"""Named defense models, loaded once and served many times.

A :class:`ModelRegistry` is the serving layer's model store: each entry
owns a ready-to-serve classifier, the GanDef discriminator when the
checkpoint carries one (that is what makes discriminator-gated filtering
possible at inference time), the **producing backend** recorded in the
checkpoint archive (serving pins each model's forward passes to it, so a
model trained under ``fast`` serves under ``fast``), and the model's
weight fingerprint (the prediction-cache key component).

Checkpoints are the :mod:`repro.train.checkpoint` archives the training
subsystem writes: the archive's own metadata names the producing trainer,
so registration rebuilds the matching defense via the experiment
factories and restores the full state into it — no separate model-config
file to keep in sync.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from .. import backend as _backend
from .. import nn
from ..defenses.discriminator import Discriminator
from ..eval.cache import fingerprint_model
from ..train.checkpoint import amend_checkpoint_meta, read_checkpoint_meta

__all__ = ["ModelEntry", "ModelRegistry", "entry_fingerprint"]


def entry_fingerprint(model: nn.Module,
                      discriminator: Optional[Discriminator] = None) -> str:
    """Weight hash of everything an entry *serves with*.

    A discriminator-gated entry's verdicts depend on the discriminator's
    weights too, so they fold into the hash — a fine-tune round that
    hardens only the discriminator must still roll the prediction-cache
    key, or stale cached flags would replay against the new gate.
    Classifier-only entries keep the plain :func:`fingerprint_model`
    hash (the historical cache-key format).
    """
    fp = fingerprint_model(model)
    if discriminator is None:
        return fp
    h = hashlib.sha256()
    h.update(fp.encode("utf-8"))
    h.update(fingerprint_model(discriminator).encode("utf-8"))
    return h.hexdigest()


@dataclass
class ModelEntry:
    """One servable model and everything the serve path needs with it."""

    name: str
    model: nn.Module
    discriminator: Optional[Discriminator] = None
    backend: str = "numpy"          # resolved producing backend
    fingerprint: str = ""           # weight hash (prediction-cache key)
    trainer: str = ""               # producing trainer (checkpoint meta)
    dataset: str = ""
    checkpoint_path: Optional[str] = None

    @property
    def has_discriminator(self) -> bool:
        return self.discriminator is not None


class ModelRegistry:
    """Load-once store of named servable models."""

    def __init__(self) -> None:
        self._entries: Dict[str, ModelEntry] = {}
        #: Per-name previous entry, stashed by :meth:`promote` so
        #: :meth:`rollback` can restore it (one step deep — a second
        #: promotion replaces the stash).
        self._previous: Dict[str, ModelEntry] = {}

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def load(self, name: str, checkpoint_path: Union[str, os.PathLike],
             dataset: str, preset: str = "fast", seed: int = 0,
             width: Optional[int] = None,
             backend: Optional[str] = None,
             replace: bool = False) -> ModelEntry:
        """Register the model inside a training checkpoint under ``name``.

        The archive metadata names the producing trainer, so this builds
        the matching defense for ``dataset``/``preset`` (``width``
        overrides the preset's model width for checkpoints trained at a
        non-preset geometry), restores the checkpoint into it, and keeps
        the classifier — plus the discriminator for GanDef checkpoints —
        for serving.  The producing backend recorded in the archive is
        pinned on the entry (falling back to the reference backend when
        it is not registered here, e.g. a checkpoint recorded under a
        retired backend); an explicit ``backend`` argument overrides the
        recorded one (the CLI's ``--backend``).

        ``replace`` swaps an existing registration of the same name for
        the freshly-loaded entry (hot checkpoint reload); the old entry
        stays registered if loading fails partway, so a bad reload
        never leaves the name unservable.
        """
        # Deferred: the experiment factories pull in every trainer; the
        # registry itself should import light.
        import dataclasses

        from ..experiments.config import get_config
        from ..experiments.runners import build_trainer

        meta = read_checkpoint_meta(checkpoint_path)
        cfg = get_config(preset).dataset(dataset)
        if width is not None:
            cfg = dataclasses.replace(cfg, model_width=width)
        trainer_name = meta.get("trainer", "")
        try:
            trainer = build_trainer(trainer_name, cfg, seed=seed)
        except KeyError:
            raise ValueError(
                f"checkpoint {os.fspath(checkpoint_path)!r} was produced "
                f"by trainer {trainer_name!r}, which no defense factory "
                "knows how to rebuild") from None
        if backend is not None:
            # An explicit choice must exist — only the *recorded*
            # provenance degrades gracefully to the fallback.
            _backend.get_backend(backend)
            backend_name = backend
        else:
            backend_name = _backend.resolve(meta.get("backend"))
        # Restore under the pinned backend so the loaded parameters live
        # where the forward passes will run.
        with _backend.use(backend_name):
            trainer.load_state_dict(meta["state"])
            discriminator = getattr(trainer, "discriminator", None)
            entry = ModelEntry(
                name=name,
                model=trainer.model,
                discriminator=discriminator,
                backend=backend_name,
                fingerprint=entry_fingerprint(trainer.model, discriminator),
                trainer=trainer_name,
                dataset=dataset,
                checkpoint_path=os.fspath(checkpoint_path),
            )
        return self._install(entry, replace=replace)

    def add(self, name: str, model: nn.Module,
            discriminator: Optional[Discriminator] = None,
            backend: Optional[str] = None,
            dataset: str = "", replace: bool = False) -> ModelEntry:
        """Register an in-memory model (no checkpoint round-trip); the
        backend defaults to whatever is active right now.  An explicit
        ``backend`` must name a registered one."""
        if backend is not None:
            _backend.get_backend(backend)
            backend_name = backend
        else:
            backend_name = _backend.active().name
        with _backend.use(backend_name):
            entry = ModelEntry(
                name=name, model=model, discriminator=discriminator,
                backend=backend_name,
                fingerprint=entry_fingerprint(model, discriminator),
                dataset=dataset)
        return self._install(entry, replace=replace)

    def _install(self, entry: ModelEntry, replace: bool = False) \
            -> ModelEntry:
        if entry.name in self._entries and not replace:
            raise ValueError(
                f"model {entry.name!r} is already registered; "
                "unregister it first, pick another name, or pass "
                "replace=True (hot reload)")
        self._entries[entry.name] = entry
        return entry

    def unregister(self, name: str) -> None:
        self._entries.pop(name, None)

    def refresh(self, name: str) -> ModelEntry:
        """Recompute ``name``'s weight fingerprint from its live model.

        Entries snapshot their fingerprint at registration; a caller
        that mutates a served model's weights **in place** (continued
        training on a shared model, a hot weight swap) must refresh so
        prediction-cache keys change and stale cached predictions stop
        replaying.
        """
        entry = self.get(name)
        with _backend.use(entry.backend):
            entry.fingerprint = entry_fingerprint(entry.model,
                                                  entry.discriminator)
        return entry

    # ------------------------------------------------------------------ #
    # staged promotion
    # ------------------------------------------------------------------ #
    def promote(self, name: str,
                checkpoint_path: Union[str, os.PathLike],
                dataset: Optional[str] = None, preset: str = "fast",
                seed: int = 0, width: Optional[int] = None,
                backend: Optional[str] = None) -> ModelEntry:
        """Swap ``name`` for the candidate checkpoint, keeping the old
        entry for :meth:`rollback`.

        ``promote`` is :meth:`load`-with-``replace`` plus two pieces of
        bookkeeping: the displaced entry is stashed (its live weights —
        a rollback needs no disk round-trip), and the promotion's
        provenance is recorded **in the promoted checkpoint's own
        metadata** (which model it replaced, both fingerprints), so a
        candidate archive carries its full history wherever it is copied.
        On a load failure the old entry keeps serving and nothing is
        stashed — same guarantee as a failed hot reload.

        Callers that front the registry with a live server must drain
        queued work first (the HTTP tier's admission barrier does this);
        the lane swap itself only happens on an empty queue.
        """
        previous = self.get(name)       # promote targets a serving name
        entry = self.load(name, checkpoint_path,
                          dataset=dataset or previous.dataset,
                          preset=preset, seed=seed, width=width,
                          backend=backend, replace=True)
        self._previous[name] = previous
        amend_checkpoint_meta(checkpoint_path, {"promotion": {
            "model": name,
            "fingerprint": entry.fingerprint,
            "replaced_fingerprint": previous.fingerprint,
            "replaced_checkpoint": previous.checkpoint_path,
        }})
        return entry

    def rollback(self, name: str) -> ModelEntry:
        """Restore the entry :meth:`promote` displaced (one step).

        The stashed entry's weights are still in memory, so rollback is
        instant and cannot fail on IO; its fingerprint is unchanged, so
        the prediction cache resumes replaying the old answers.
        """
        previous = self._previous.pop(name, None)
        if previous is None:
            raise KeyError(
                f"model {name!r} has no promotion to roll back")
        self._entries[name] = previous
        return previous

    def promoted_over(self, name: str) -> Optional[ModelEntry]:
        """The entry a rollback of ``name`` would restore, if any."""
        return self._previous.get(name)

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def get(self, name: str) -> ModelEntry:
        if name not in self._entries:
            raise KeyError(
                f"unknown model {name!r}; registered: {sorted(self._entries)}")
        return self._entries[name]

    def names(self) -> Tuple[str, ...]:
        return tuple(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)
