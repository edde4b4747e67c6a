"""Process-wide metrics: counters, gauges, bounded histograms, a registry.

Design constraints (ISSUE 9):

* **Zero-cost when disabled.**  Hot paths never pay a dict lookup: code
  binds instruments once at construction time (``self._m_x =
  obs.counter(...)``) and the per-event cost is one lock-guarded integer
  add — the same cost class as the ad-hoc ``stats.requests += 1``
  bookkeeping the registry replaces.  Anything more expensive (clock
  reads, span records) is gated on ``tracer() is not None``.

* **Scrape-time collection.**  Subsystems that already keep their own
  counters under their own lock (``ServerStats``, ``HttpStats``, the
  caches) do not double-count into registry instruments on the hot
  path.  Instead they register a *collector* — a
  weakly-referenced owner plus an unbound snapshot function — and the
  registry calls it at scrape time.  Each collector reads under its
  owner's lock, so every scrape sees a consistent per-subsystem snapshot
  (e.g. ``requests_completed <= requests`` always holds within one
  scrape).  Dead owners are pruned automatically via the weakref.

* **Bounded histograms.**  A :class:`Histogram` keeps a rolling window
  (``collections.deque(maxlen=...)``) for percentiles — replacing the
  unbounded ``ServerStats.latencies`` deques — plus cumulative
  count/sum and fixed Prometheus buckets for the scrape endpoint.  It is
  deliberately deque-compatible (``len()``, iteration) so existing
  callers and tests keep working.

Nothing in this module touches RNG, and instruments are plain python —
no numpy state, no global side effects beyond the registry dicts.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_WINDOW",
    "WORK_SECONDS_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshotter",
    "Sample",
]

# Canonical label encoding: a sorted tuple of (key, value) pairs, usable
# as a dict key and stable across insertion orders.
Labels = Tuple[Tuple[str, str], ...]
LabelArg = Optional[Mapping[str, str]]

#: Sub-millisecond through ten-second latencies (seconds).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Coarse buckets for work units measured in seconds-to-minutes
#: (training epochs, crafted shards).
WORK_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0,
)

#: Powers of two up to the largest plausible micro-batch.
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
)

#: Rolling-window size for histogram percentiles; matches the old
#: ``serve.server.STATS_WINDOW`` bound.
DEFAULT_WINDOW = 16384


def _canonical_labels(labels: LabelArg) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class HistogramSnapshot:
    """Point-in-time view of a histogram, mergeable across instances.

    ``buckets`` maps each finite upper bound ``le`` to the *cumulative*
    count of observations ``<= le``; ``count`` doubles as the ``+Inf``
    bucket.  Cumulative bucket counts are additive, so merging snapshots
    from several workers is a per-bound sum.
    """

    buckets: Tuple[Tuple[float, int], ...]
    count: int
    total: float
    percentiles: Optional[Dict[float, float]] = None

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        merged: Dict[float, int] = dict(self.buckets)
        for le, n in other.buckets:
            merged[le] = merged.get(le, 0) + n
        return HistogramSnapshot(
            buckets=tuple(sorted(merged.items())),
            count=self.count + other.count,
            total=self.total + other.total,
            # Window percentiles cannot be merged exactly; drop them.
            percentiles=None,
        )


@dataclass(frozen=True)
class Sample:
    """One collected metric value.

    ``kind`` is ``counter`` / ``gauge`` / ``histogram``; ``value`` is a
    float for the first two and a :class:`HistogramSnapshot` for the
    last.  Collectors return lists of these.
    """

    name: str
    kind: str
    value: Union[float, HistogramSnapshot]
    labels: Labels = ()
    help: str = ""

    @staticmethod
    def make(name: str, kind: str, value: Union[float, HistogramSnapshot],
             labels: LabelArg = None, help: str = "") -> "Sample":
        return Sample(name=name, kind=kind, value=value,
                      labels=_canonical_labels(labels), help=help)


class Counter:
    """Monotonic counter; ``inc`` is one lock-guarded add."""

    kind = "counter"

    __slots__ = ("name", "labels", "help", "_lock", "_value")

    def __init__(self, name: str, labels: LabelArg = None,
                 help: str = "") -> None:
        self.name = name
        self.labels = _canonical_labels(labels)
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, by: Union[int, float] = 1) -> None:
        with self._lock:
            self._value += by

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def sample(self) -> Sample:
        return Sample(self.name, self.kind, self.value,
                      self.labels, self.help)


class Gauge:
    """Last-write-wins instantaneous value."""

    kind = "gauge"

    __slots__ = ("name", "labels", "help", "_lock", "_value")

    def __init__(self, name: str, labels: LabelArg = None,
                 help: str = "") -> None:
        self.name = name
        self.labels = _canonical_labels(labels)
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, by: Union[int, float] = 1) -> None:
        with self._lock:
            self._value += by

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def sample(self) -> Sample:
        return Sample(self.name, self.kind, self.value,
                      self.labels, self.help)


class Histogram:
    """Bounded histogram: rolling window + cumulative Prometheus buckets.

    The window (a ``deque(maxlen=window)``) serves percentiles and the
    windowed mean; cumulative ``count``/``sum``/buckets serve the scrape
    endpoint.  Deque-compatible on purpose: ``len(h)`` and ``list(h)``
    see the window, exactly like the unbounded deques this type
    replaces in ``ServerStats``.
    """

    kind = "histogram"

    __slots__ = ("name", "labels", "help", "buckets",
                 "_lock", "_window", "_bucket_counts", "_count", "_sum")

    def __init__(self, name: str, labels: LabelArg = None, help: str = "",
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                 window: int = DEFAULT_WINDOW) -> None:
        self.name = name
        self.labels = _canonical_labels(labels)
        self.help = help
        self.buckets = tuple(sorted(float(b) for b in buckets))
        self._lock = threading.Lock()
        self._window: deque = deque(maxlen=window)
        self._bucket_counts = [0] * len(self.buckets)
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        v = float(value)
        with self._lock:
            self._observe_locked(v)

    def observe_many(self, values: Iterable[float]) -> None:
        vs = [float(v) for v in values]
        with self._lock:
            for v in vs:
                self._observe_locked(v)

    def _observe_locked(self, v: float) -> None:
        self._window.append(v)
        self._count += 1
        self._sum += v
        # First bucket whose upper bound is >= v takes the observation
        # (le semantics); values above the last bound only land in +Inf,
        # which is tracked by _count.
        i = bisect.bisect_left(self.buckets, v)
        if i < len(self._bucket_counts):
            self._bucket_counts[i] += 1

    # --- deque compatibility -------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._window)

    def __iter__(self) -> Iterator[float]:
        with self._lock:
            return iter(list(self._window))

    def extend(self, values: Iterable[float]) -> None:
        self.observe_many(values)

    def append(self, value: float) -> None:
        self.observe(value)

    # --- stats ---------------------------------------------------------------

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the rolling window (0 if empty)."""
        with self._lock:
            values = list(self._window)
        if not values:
            return 0.0
        return float(np.percentile(np.asarray(values, dtype=np.float64),
                                   q, method="nearest"))

    @property
    def window_mean(self) -> float:
        with self._lock:
            values = list(self._window)
        if not values:
            return 0.0
        return float(np.mean(np.asarray(values, dtype=np.float64)))

    def snapshot(self, percentiles: Sequence[float] = ()) -> HistogramSnapshot:
        with self._lock:
            counts = list(self._bucket_counts)
            count = self._count
            total = self._sum
            window = list(self._window) if percentiles else None
        cumulative: List[Tuple[float, int]] = []
        running = 0
        for le, n in zip(self.buckets, counts):
            running += n
            cumulative.append((le, running))
        pcts: Optional[Dict[float, float]] = None
        if percentiles and window:
            arr = np.asarray(window, dtype=np.float64)
            pcts = {float(q): float(np.percentile(arr, q, method="nearest"))
                    for q in percentiles}
        return HistogramSnapshot(buckets=tuple(cumulative), count=count,
                                 total=total, percentiles=pcts)

    def sample(self) -> Sample:
        return Sample(self.name, self.kind,
                      self.snapshot(percentiles=(50.0, 95.0, 99.0)),
                      self.labels, self.help)


@dataclass
class _Derived:
    fn: Callable[[Dict[str, float]], Optional[float]]
    help: str = ""


class MetricsRegistry:
    """Get-or-create instruments plus weakref scrape-time collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, Labels], Any] = {}
        self._collectors: List[Tuple[weakref.ref, Callable[[Any], List[Sample]]]] = []
        self._derived: Dict[str, _Derived] = {}

    # --- instruments ---------------------------------------------------------

    def counter(self, name: str, labels: LabelArg = None,
                help: str = "") -> Counter:
        return self._instrument(Counter, name, labels, help)

    def gauge(self, name: str, labels: LabelArg = None,
              help: str = "") -> Gauge:
        return self._instrument(Gauge, name, labels, help)

    def histogram(self, name: str, labels: LabelArg = None, help: str = "",
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  window: int = DEFAULT_WINDOW) -> Histogram:
        key = (name, _canonical_labels(labels))
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                inst = Histogram(name, labels, help,
                                 buckets=buckets, window=window)
                self._instruments[key] = inst
        if not isinstance(inst, Histogram):
            raise TypeError(
                f"metric {name!r} already registered as {inst.kind}")
        return inst

    def _instrument(self, cls: type, name: str, labels: LabelArg,
                    help: str) -> Any:
        key = (name, _canonical_labels(labels))
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                inst = cls(name, labels, help)
                self._instruments[key] = inst
        if not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as {inst.kind}")
        return inst

    # --- collectors ----------------------------------------------------------

    def register(self, owner: Any,
                 collect: Callable[[Any], List[Sample]]) -> None:
        """Attach a scrape-time collector bound weakly to ``owner``.

        ``collect`` is called as ``collect(owner)`` at scrape time (pass
        an *unbound* method, e.g. ``Server._collect_metrics``, so the
        registry holds no strong reference).  Collectors whose owner has
        been garbage-collected are skipped and pruned.
        """
        with self._lock:
            self._collectors.append((weakref.ref(owner), collect))

    def derive(self, name: str,
               fn: Callable[[Dict[str, float]], Optional[float]],
               help: str = "") -> None:
        """Register a gauge computed from merged metric values at scrape
        time (e.g. a cache hit ratio).  Idempotent: re-registering the
        same name replaces the function, so object constructors can call
        this unconditionally.  ``fn`` receives ``{plain_name: total}``
        (labels summed out) and may return ``None`` to skip the series.
        """
        with self._lock:
            self._derived[name] = _Derived(fn=fn, help=help)

    # --- collection ----------------------------------------------------------

    def collect(self) -> List[Sample]:
        """Merge instruments, collectors, and derived series into one
        consistent-per-subsystem list of samples, sorted by name."""
        with self._lock:
            instruments = list(self._instruments.values())
            collectors = list(self._collectors)
            derived = dict(self._derived)

        samples: List[Sample] = [inst.sample() for inst in instruments]
        dead: List[Tuple[weakref.ref, Callable]] = []
        for ref, fn in collectors:
            owner = ref()
            if owner is None:
                dead.append((ref, fn))
                continue
            samples.extend(fn(owner))
        if dead:
            with self._lock:
                self._collectors = [c for c in self._collectors
                                    if c not in dead]

        merged = self._merge(samples)

        if derived:
            totals: Dict[str, float] = {}
            for s in merged:
                if isinstance(s.value, HistogramSnapshot):
                    continue
                totals[s.name] = totals.get(s.name, 0.0) + float(s.value)
            for name, d in sorted(derived.items()):
                value = d.fn(totals)
                if value is not None:
                    merged.append(Sample(name, "gauge", float(value),
                                         (), d.help))

        merged.sort(key=lambda s: (s.name, s.labels))
        return merged

    @staticmethod
    def _merge(samples: List[Sample]) -> List[Sample]:
        out: Dict[Tuple[str, Labels], Sample] = {}
        for s in samples:
            key = (s.name, s.labels)
            prev = out.get(key)
            if prev is None:
                out[key] = s
                continue
            if isinstance(s.value, HistogramSnapshot):
                if not isinstance(prev.value, HistogramSnapshot):
                    raise TypeError(f"metric {s.name!r} mixes kinds")
                value: Union[float, HistogramSnapshot] = prev.value.merge(s.value)
            else:
                value = float(prev.value) + float(s.value)
            out[key] = Sample(s.name, prev.kind, value, s.labels,
                              prev.help or s.help)
        return list(out.values())

    # --- exporters -----------------------------------------------------------

    def render(self) -> str:
        """Prometheus text exposition (version 0.0.4) of one scrape."""
        lines: List[str] = []
        seen_meta: set = set()
        for s in self.collect():
            if s.name not in seen_meta:
                seen_meta.add(s.name)
                if s.help:
                    lines.append(f"# HELP {s.name} {s.help}")
                lines.append(f"# TYPE {s.name} {s.kind}")
            if isinstance(s.value, HistogramSnapshot):
                snap = s.value
                for le, n in snap.buckets:
                    lines.append(
                        f"{s.name}_bucket"
                        f"{_label_str(s.labels + (('le', _fmt(le)),))} {n}")
                lines.append(
                    f"{s.name}_bucket"
                    f"{_label_str(s.labels + (('le', '+Inf'),))} {snap.count}")
                lines.append(
                    f"{s.name}_sum{_label_str(s.labels)} {_fmt(snap.total)}")
                lines.append(
                    f"{s.name}_count{_label_str(s.labels)} {snap.count}")
            else:
                lines.append(f"{s.name}{_label_str(s.labels)} {_fmt(s.value)}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, float]:
        """Flat ``{series: value}`` dict for the periodic JSONL export.

        Histograms flatten to ``_count`` / ``_sum`` plus window
        percentiles (``_p50`` etc.) when available.
        """
        out: Dict[str, float] = {}
        for s in self.collect():
            key = s.name + _label_str(s.labels)
            if isinstance(s.value, HistogramSnapshot):
                out[key + "_count"] = float(s.value.count)
                out[key + "_sum"] = float(s.value.total)
                for q, v in sorted((s.value.percentiles or {}).items()):
                    out[key + f"_p{q:g}"] = v
            else:
                out[key] = float(s.value)
        return out


def _label_str(labels: Labels) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in labels)
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    f = float(value)
    if math.isnan(f):
        return "NaN"
    if math.isinf(f):
        return "+Inf" if f > 0 else "-Inf"
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


class MetricsSnapshotter:
    """Periodically append registry snapshots to a JSONL file.

    Runs on a daemon thread; ``write_once`` is also usable standalone
    (the CLI and tests call it directly).  Appends are line-atomic via
    the same open-append-write-close discipline as the trace writer, so
    multiple SO_REUSEPORT worker processes can share one path.
    """

    def __init__(self, path: Union[str, os.PathLike], registry: MetricsRegistry,
                 period_s: float = 10.0) -> None:
        self.path = os.fspath(path)
        self.registry = registry
        self.period_s = float(period_s)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    def write_once(self) -> None:
        record = {"kind": "metrics", "ts": time.time(), "pid": os.getpid(),
                  "metrics": self.registry.snapshot()}
        line = json.dumps(record, sort_keys=True) + "\n"
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-obs-snapshot",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
        self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.period_s):
            try:
                self.write_once()
            except OSError:  # pragma: no cover - disk full etc.
                pass
