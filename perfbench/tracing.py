"""Span tracing from the benchmark's own files.

Nothing in ``src/`` changes for a traced run: :func:`install` wraps the
public entry points of each layer (class attributes and module-level
functions, restored by :meth:`Patches.restore`) so that every call
records a span — name, start, end, parent, and a few attributes — into
an in-memory :class:`Recorder`.  Spans are dumped once, when the run
ends.

Other processes are reached the same way:

* spawn-pool workers re-import the main script, which calls
  :func:`install` with ``role="worker"`` when :data:`WORKER_ENV` is set;
  each crafted shard carries the worker's spans back on its outcome;
* the HTTP server runs under ``perfbench/serve_launcher.py``, which
  installs the wrappers, calls the ``repro serve-http`` CLI entry and
  dumps its spans to a file when the server stops.

The spans of one HTTP request share the id the load generator sends in
the :data:`REQUEST_HEADER` header; batch spans list the ids they carry.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .common import clock

#: Environment flag telling spawned pool workers to install wrappers.
WORKER_ENV = "PERFBENCH_TRACE_WORKERS"
#: Request header carrying the load generator's request id.
REQUEST_HEADER = "X-Perfbench-Request"
#: Attribute a worker's crafted outcome carries its spans home in.
SHIP_ATTR = "perfbench_spans"

# A span is a list: [name, start, end, parent index, attrs, phase].
NAME, START, END, PARENT, ATTRS, PHASE = range(6)

#: The backend capability methods timed per call.
BACKEND_OPS = ("im2col", "col2im", "einsum", "index_add", "accumulate",
               "adam_step", "signed_ascent")


class Recorder:
    """In-memory spans: one list and one open-span stack per thread.

    ``phase`` tags each new span and counter increment (``setup`` /
    ``timed`` / ``check``), so the report can total the timed region
    alone.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self.counters: Dict[str, Dict[str, float]] = {}
        self._lists: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _state(self) -> Tuple[list, list]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            with self._lock:
                self._lists.append(state[0])
        return state

    def begin(self, name: str, attrs=None,
              start: Optional[float] = None) -> list:
        spans, stack = self._state()
        span = [name, clock() if start is None else start, 0.0,
                stack[-1] if stack else -1, attrs, self.phase]
        stack.append(len(spans))
        spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = clock()
        self._state()[1].pop()

    def count(self, name: str, value: float = 1.0,
              phase: Optional[str] = None) -> None:
        with self._lock:
            bucket = self.counters.setdefault(phase or self.phase, {})
            bucket[name] = bucket.get(name, 0.0) + value

    def counter(self, name: str, phase: str = "timed") -> float:
        with self._lock:
            return self.counters.get(phase, {}).get(name, 0.0)

    def threads(self) -> List[list]:
        with self._lock:
            return [spans for spans in self._lists if spans]

    def take(self) -> dict:
        """Detach everything recorded so far, for shipping to the parent.
        Call with no span open."""
        with self._lock:
            counters: Dict[str, float] = {}
            for bucket in self.counters.values():
                for name, value in bucket.items():
                    counters[name] = counters.get(name, 0.0) + value
            shipped = {"threads": [list(s) for s in self._lists if s],
                       "counters": counters}
            for spans in self._lists:
                spans.clear()
            self.counters.clear()
        return shipped

    def adopt(self, shipped: Optional[dict],
              phase: Optional[str] = None) -> None:
        """Merge spans and counters shipped by another process (see
        :meth:`take`); ``phase`` overrides the spans' tags and files the
        counters (default: the current phase)."""
        if not shipped:
            return
        threads = shipped["threads"]
        if phase is not None:
            for spans in threads:
                for span in spans:
                    span[PHASE] = phase
        with self._lock:
            self._lists.extend(threads)
        for name, value in shipped["counters"].items():
            self.count(name, value, phase)

    def dump(self, path: Path) -> None:
        """Write every span and counter as JSON (the :meth:`take` shape)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.take(), handle)


# --------------------------------------------------------------------- #
# patching
# --------------------------------------------------------------------- #
_MISSING = object()


class Patches:
    """Attribute replacements, undone in reverse by :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        old = owner.__dict__.get(attr, _MISSING) \
            if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` (looked up through the MRO) by
        ``make(original)``."""
        self.set(owner, attr, make(getattr(owner, attr)))

    def rebind(self, function, wrapper) -> None:
        """Replace a function in every loaded ``repro`` module that
        holds it (``from x import f`` copies the reference)."""
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self.set(module, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, old in reversed(self._undo):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._undo.clear()


def _spanned(rec: Recorder, name: str, fn: Callable,
             attrs: Optional[Callable] = None) -> Callable:
    """``fn`` recording a span per call; ``attrs(*args)`` gives the
    span's attributes (a row count for the model-facing calls)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.begin(name, attrs(*args) if attrs else None)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(span)
    return wrapper


# --------------------------------------------------------------------- #
# module naming: spans of Module.__call__ are keyed by dotted path
# --------------------------------------------------------------------- #
class ModuleNames:
    """``id(module) -> span name``; holds the named roots alive so ids
    cannot be reused while the names are in use."""

    def __init__(self) -> None:
        self.by_id: Dict[int, str] = {}
        self._roots: list = []

    def add(self, root, prefix: str = "") -> None:
        from repro import nn

        if root is None or id(root) in self.by_id:
            return
        self._roots.append(root)
        todo = [(prefix, root)]
        while todo:
            path, module = todo.pop()
            self.by_id[id(module)] = "nn:" + (path or type(module).__name__)
            base = f"{path}." if path else ""
            for key, value in vars(module).items():
                if isinstance(value, nn.Module):
                    todo.append((base + key, value))
                elif isinstance(value, (list, tuple)):
                    todo.extend((f"{base}{key}.{i}", item)
                                for i, item in enumerate(value)
                                if isinstance(item, nn.Module))


# --------------------------------------------------------------------- #
# installation
# --------------------------------------------------------------------- #
def pool_counts() -> Tuple[float, float]:
    """(hits, misses) of the fast backend's buffer pool, read from the
    public metrics registry."""
    from repro import obs

    snap = obs.snapshot()
    return (snap.get("repro_backend_pool_hits_total", 0.0),
            snap.get("repro_backend_pool_misses_total", 0.0))


class Tracer:
    """The recorder plus the patches and naming that feed it."""

    def __init__(self) -> None:
        self.rec = Recorder()
        self.names = ModuleNames()
        self.patches: Optional[Patches] = None
        self.quarantines: list = []

    def install(self, role: str = "main") -> None:
        """Wrap every layer's public entry points in this process.

        ``role`` is ``main`` (the benchmark process), ``worker`` (a
        spawn-pool worker: crafted outcomes ship spans home) or
        ``server`` (the HTTP server process)."""
        import repro.experiments.runners  # noqa: F401 - loads the layers
        import repro.serve.http_run  # noqa: F401
        from repro import nn
        from repro.attacks import base as attacks_base
        from repro.backend.fast import FastNumpyBackend
        from repro.data.datasets import load_split
        from repro.data.preprocessing import GaussianAugmenter
        from repro.defenses.base import Trainer
        from repro.eval import shard
        from repro.eval.metrics import predict_labels
        from repro.train.checkpoint import Checkpointer
        from repro.train.loop import TrainLoop
        from repro.utils.pool import SpawnPool

        rec, p = self.rec, Patches()
        self.patches = p
        p.rebind(load_split, _spanned(rec, "data.load_split", load_split))
        p.wrap(GaussianAugmenter, "__call__",
               lambda fn: _spanned(rec, "data.augment", fn))
        p.wrap(nn.Module, "__call__", self._module_call)
        p.wrap(nn.Tensor, "backward",
               lambda fn: _spanned(rec, "nn.backward", fn))
        p.wrap(nn.Optimizer, "step",
               lambda fn: _spanned(rec, "nn.optim_step", fn))
        for op in BACKEND_OPS:
            p.wrap(FastNumpyBackend, op,
                   lambda fn, op=op: _spanned(rec, "backend." + op, fn))
        for cls in _subclasses(Trainer):
            if "train_epoch" in vars(cls):
                p.wrap(cls, "train_epoch",
                       lambda fn: _spanned(rec, "defenses.train_epoch", fn))
        p.wrap(TrainLoop, "run", lambda fn: _spanned(rec, "train.loop", fn))
        p.wrap(Checkpointer, "on_epoch_end",
               lambda fn: _spanned(rec, "train.checkpoint", fn))
        p.wrap(attacks_base.Attack, "generate", self._generate)
        grad = attacks_base.logits_and_input_grad
        p.rebind(grad, _spanned(rec, "attacks.grad", grad,
                                lambda model, images, *_: len(images)))

        def named_rows(model, images, *_):
            self.names.add(model)
            return len(images)

        p.rebind(predict_labels, _spanned(rec, "eval.predict_labels",
                                          predict_labels, named_rows))
        p.wrap(shard.ShardedCrafter, "prepare_model",
               lambda fn: _spanned(rec, "eval.prepare_model", fn))
        p.wrap(shard.ShardedCrafter, "run_tasks", self._run_tasks)
        p.wrap(SpawnPool, "ensure",
               lambda fn: _spanned(rec, "pool.ensure", fn))
        if role == "worker":
            p.set(shard, "_craft_in_worker",
                  self._craft_in_worker(shard._craft_in_worker))
        if role == "server":
            self._install_serve(p)

    def restore(self) -> None:
        if self.patches is not None:
            self.patches.restore()
            self.patches = None

    # -- nn ------------------------------------------------------------ #
    def _module_call(self, fn):
        rec, by_id = self.rec, self.names.by_id

        @functools.wraps(fn)
        def __call__(module, x, *args, **kwargs):
            name = by_id.get(id(module))
            if name is None:
                name = "nn:?" + type(module).__name__
            shape = getattr(x, "shape", None)
            span = rec.begin(name, shape[0] if shape else 0)
            try:
                return fn(module, x, *args, **kwargs)
            finally:
                rec.end(span)
        return __call__

    # -- attacks ------------------------------------------------------- #
    def _generate(self, fn):
        rec, names = self.rec, self.names

        @functools.wraps(fn)
        def generate(attack, model, images, labels):
            names.add(model)
            span = rec.begin(f"attacks.{attack.name}.generate", len(images))
            try:
                return fn(attack, model, images, labels)
            finally:
                rec.end(span)
        return generate

    # -- eval / pool --------------------------------------------------- #
    def _run_tasks(self, fn):
        rec = self.rec

        @functools.wraps(fn)
        def run_tasks(crafter, tasks, model, cache) -> Iterator:
            outcomes = iter(fn(crafter, tasks, model, cache))
            while True:
                # The parent is blocked on the pool (or, in-process, on
                # the crafting itself) until the next outcome lands.
                span = rec.begin("pool.wait")
                try:
                    outcome = next(outcomes)
                except StopIteration:
                    return
                finally:
                    rec.end(span)
                rec.count("eval.shard_busy_s", outcome.seconds)
                rec.adopt(outcome.__dict__.pop(SHIP_ATTR, None),
                          phase=rec.phase)
                yield outcome
        return run_tasks

    def _craft_in_worker(self, fn):
        rec = self.rec

        @functools.wraps(fn)
        def _craft_in_worker(task):
            hits, misses = pool_counts()
            span = rec.begin("eval.craft")
            try:
                outcome = fn(task)
            finally:
                rec.end(span)
            after = pool_counts()
            rec.count("backend.pool_hits", after[0] - hits)
            rec.count("backend.pool_misses", after[1] - misses)
            setattr(outcome, SHIP_ATTR, rec.take())
            return outcome
        return _craft_in_worker

    # -- serve (server process) ---------------------------------------- #
    def _install_serve(self, p: Patches) -> None:
        from repro.serve.batcher import MicroBatcher
        from repro.serve.cache import PredictionCache
        from repro.serve.gate import DefenseGate
        from repro.serve.http import HttpFrontend
        from repro.serve.quarantine import QuarantineStore
        from repro.serve.registry import ModelRegistry
        from repro.serve.server import Server

        rec, local = self.rec, threading.local()
        names, quarantines = self.names, self.quarantines

        def handle(fn):
            @functools.wraps(fn)
            def wrapper(frontend, method, path, body, headers, *args,
                        **kwargs):
                rid = headers.get(REQUEST_HEADER) if headers else None
                local.rid = rid
                span = rec.begin("serve.handle", {"rid": rid})
                try:
                    reply = fn(frontend, method, path, body, headers,
                               *args, **kwargs)
                    span[ATTRS]["status"] = reply[0]
                    return reply
                finally:
                    rec.end(span)
                    local.rid = None
            return wrapper

        def submit(fn):
            @functools.wraps(fn)
            def wrapper(server, model_name, images, trace=None):
                # The correlation id rides the public ``trace`` handle
                # attribute, so batch spans can name their requests.
                if trace is None:
                    trace = getattr(local, "rid", None)
                span = rec.begin("serve.submit")
                try:
                    return fn(server, model_name, images, trace=trace)
                finally:
                    rec.end(span)
            return wrapper

        def next_batch(fn):
            @functools.wraps(fn)
            def wrapper(batcher, *args, **kwargs):
                open_batch = getattr(local, "batch", None)
                if open_batch is not None:
                    rec.end(open_batch)
                    local.batch = None
                start = clock()
                batch = fn(batcher, *args, **kwargs)
                if batch is None:
                    return None
                now = time.monotonic()
                local.batch = rec.begin("serve.batch", {
                    "size": len(batch),
                    "rids": [part[0].trace for part in batch.parts],
                    "waits": [now - part[0].submitted_at
                              for part in batch.parts]}, start=start)
                return batch
            return wrapper

        def quarantine(fn):
            @functools.wraps(fn)
            def wrapper(store, *args, **kwargs):
                if not any(s is store for s in quarantines):
                    quarantines.append(store)
                span = rec.begin("serve.quarantine")
                try:
                    return fn(store, *args, **kwargs)
                finally:
                    rec.end(span)
            return wrapper

        def load(fn):
            @functools.wraps(fn)
            def wrapper(registry, *args, **kwargs):
                entry = fn(registry, *args, **kwargs)
                names.add(entry.model)
                names.add(entry.discriminator, "disc")
                return entry
            return wrapper

        p.wrap(HttpFrontend, "handle", handle)
        p.wrap(Server, "submit", submit)
        p.wrap(MicroBatcher, "next_batch", next_batch)
        p.wrap(DefenseGate, "decide",
               lambda fn: _spanned(rec, "serve.gate", fn))
        p.wrap(PredictionCache, "lookup",
               lambda fn: _spanned(rec, "serve.cache_lookup", fn))
        p.wrap(PredictionCache, "store",
               lambda fn: _spanned(rec, "serve.cache_store", fn))
        p.wrap(QuarantineStore, "submit", quarantine)
        p.wrap(ModelRegistry, "load", load)

    def server_counters(self) -> None:
        """Fold end-of-life server state into the counters."""
        hits, misses = pool_counts()
        self.rec.count("backend.pool_hits", hits)
        self.rec.count("backend.pool_misses", misses)
        for store in self.quarantines:
            self.rec.count("serve.quarantine_stored", store.stored)
            self.rec.count("serve.quarantine_duplicates", store.duplicates)


def _subclasses(cls) -> list:
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out
