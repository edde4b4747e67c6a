"""Per-layer metrics and the self-time table, computed from spans.

A span's self time is its duration minus the durations of its child
spans (children of one thread never overlap).  Totals cover the timed
region only, except ``data.load_split_s`` (a total) and ``pool.spawn_s``
(seconds per spawn-and-warm of the attack pool), whose work happens
during set-up by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from .common import percentile
from .tracing import ATTRS, BACKEND_OPS, END, NAME, PARENT, PHASE, START

#: Every conv, pool, dense and dropout layer of LeNet, AllCNN and the
#: GanDef discriminator, by dotted path.
LAYER_PATHS = (
    "features.layers.0", "features.layers.2", "features.layers.3",
    "features.layers.5", "classifier.layers.0", "classifier.layers.2",
    "input_dropout", "body.layers.0", "body.layers.2", "body.layers.4",
    "body.layers.6", "body.layers.8", "head.layers.0", "head.layers.2",
    "head.layers.3",
    "disc.net.layers.0", "disc.net.layers.2", "disc.net.layers.4",
    "disc.net.layers.6",
)

ATTACK_NAMES = ("fgsm", "bim", "pgd")


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    rows: int = 0

    def add(self, duration: float, self_time: float, rows) -> None:
        self.calls += 1
        self.total += duration
        self.self_time += self_time
        if isinstance(rows, int):
            self.rows += rows


def summarize(threads: Iterable[list],
              phases: Sequence[str] = ("timed",)) -> Dict[str, Stat]:
    """``name -> Stat`` over finished spans tagged with ``phases``.

    Module-call spans whose parent is not a module call are also
    totalled under ``nn.forward`` (whole-model forwards)."""
    out: Dict[str, Stat] = {}
    for spans in threads:
        children = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0 and span[END]:
                children[span[PARENT]] += span[END] - span[START]
        for i, span in enumerate(spans):
            if span[PHASE] not in phases or not span[END]:
                continue
            duration = span[END] - span[START]
            own = duration - children[i]
            name = span[NAME]
            out.setdefault(name, Stat()).add(duration, own, span[ATTRS])
            if name.startswith("nn:") and not (
                    span[PARENT] >= 0
                    and spans[span[PARENT]][NAME].startswith("nn:")):
                out.setdefault("nn.forward", Stat()).add(
                    duration, own, span[ATTRS])
    return out


def durations_ms(threads: Iterable[list], name: str,
                 phases: Sequence[str] = ("timed",)) -> List[float]:
    return [(span[END] - span[START]) * 1e3
            for spans in threads for span in spans
            if span[NAME] == name and span[PHASE] in phases and span[END]]


def base_metrics(rec, budgets: Dict[str, int]) -> Dict[str, float]:
    """Every per-layer metric the spans and counters determine on their
    own; workloads add the ones that need their context.

    ``budgets`` maps attack name to its gradient-iteration budget, for
    ``attacks.early_stop_ratio``."""
    threads = rec.threads()
    timed = summarize(threads)
    every = summarize(threads, ("setup", "timed"))
    get = timed.get
    none = Stat()

    def total(name: str, source=None) -> float:
        return (source or timed).get(name, none).total

    m: Dict[str, float] = {
        "data.load_split_s": total("data.load_split", every),
        "data.augment_s": total("data.augment"),
        "data.augment_calls": get("data.augment", none).calls,
        "nn.forward_s": total("nn.forward"),
        "nn.forward_self_s": get("nn.forward", none).self_time,
        "nn.forward_calls": get("nn.forward", none).calls,
        "nn.forward_rows": get("nn.forward", none).rows,
        "nn.backward_s": total("nn.backward"),
        "nn.backward_self_s": get("nn.backward", none).self_time,
        "nn.backward_calls": get("nn.backward", none).calls,
        "nn.optim_step_s": total("nn.optim_step"),
        "nn.optim_step_self_s": get("nn.optim_step", none).self_time,
        "nn.optim_step_calls": get("nn.optim_step", none).calls,
        "defenses.train_epoch_s": total("defenses.train_epoch"),
        "defenses.train_epoch_self_s":
            get("defenses.train_epoch", none).self_time,
        "train.loop_s": total("train.loop"),
        "train.loop_self_s": get("train.loop", none).self_time,
        "train.checkpoint_s": total("train.checkpoint"),
        "attacks.grad_s": total("attacks.grad"),
        "attacks.grad_rows": get("attacks.grad", none).rows,
        "eval.predict_labels_s": total("eval.predict_labels"),
        "eval.prepare_model_s": total("eval.prepare_model"),
        "eval.shard_busy_s": rec.counter("eval.shard_busy_s"),
        "pool.spawn_s": total("pool.spawn", every)
        / max(1, every.get("pool.spawn", none).calls),
        "pool.wait_s": total("pool.wait"),
    }
    for path in LAYER_PATHS:
        m[f"nn.layer.{path}.forward_s"] = total("nn:" + path)
    for op in BACKEND_OPS:
        m[f"backend.{op}_s"] = total("backend." + op)
        m[f"backend.{op}_calls"] = get("backend." + op, none).calls
    hits = rec.counter("backend.pool_hits")
    misses = rec.counter("backend.pool_misses")
    m["backend.pool_hit_ratio"] = hits / (hits + misses) \
        if hits + misses else 0.0
    generate_self = 0.0
    budget_rows = 0
    for attack in ATTACK_NAMES:
        stat = get(f"attacks.{attack}.generate", none)
        m[f"attacks.{attack}.generate_s"] = stat.total
        generate_self += stat.self_time
        budget_rows += stat.rows * budgets.get(attack, 0)
    m["attacks.generate_self_s"] = generate_self
    m["attacks.early_stop_ratio"] = \
        m["attacks.grad_rows"] / budget_rows if budget_rows else 0.0
    return m


def tail_pair(values: Sequence[float], prefix: str) -> Dict[str, float]:
    """``<prefix>_ms`` (median) and ``<prefix>_p99_ms``."""
    return {f"{prefix}_ms": percentile(values, 50),
            f"{prefix}_p99_ms": percentile(values, 99)}


def format_table(rec) -> str:
    """Calls, total and self seconds for every span name, timed region."""
    stats = summarize(rec.threads())
    width = max([len(name) for name in stats] + [10])
    lines = [f"{'span':{width}s} {'calls':>8s} {'total_s':>10s} "
             f"{'self_s':>10s}"]
    for name, stat in sorted(stats.items(), key=lambda kv: -kv[1].total):
        lines.append(f"{name:{width}s} {stat.calls:8d} {stat.total:10.4f} "
                     f"{stat.self_time:10.4f}")
    return "\n".join(lines)
