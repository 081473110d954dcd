"""Evaluation: micro-averaged precision/recall/F1, length buckets,
cycle statistics, and a serializable report.

Root ("TOP") edges are excluded from the headline scores by default and
reported as a separate figure; pass include_top=True to fold them in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DataError
from .graph import has_cycle

__all__ = ["f1", "top_f1", "bucket_f1", "cycle_rate", "evaluate",
           "EvalReport", "BUCKETS"]

BUCKETS = ("1-10", "11-20", "21-30", "31-40", "41+")


def _edge_items(graph, labeled, include_top):
    items = set()
    for head, dep, label in graph.edges:
        if head == 0 and not include_top:
            continue
        items.add((head, dep, label) if labeled else (head, dep))
    return items


def _counts(predictions, golds, items):
    """(predicted, gold, correct) counts of the sets ``items(graph)`` per
    sentence; the two lists must pair up one to one."""
    if len(predictions) != len(golds):
        raise DataError(f"{len(predictions)} predictions for {len(golds)} gold graphs")
    counts = []
    for pred, gold in zip(predictions, golds):
        p_items, g_items = items(pred), items(gold)
        counts.append((len(p_items), len(g_items), len(p_items & g_items)))
    return counts


def _prf(counts):
    """Micro-averaged (precision, recall, F1) of per-sentence counts."""
    n_pred, n_gold, n_correct = (sum(c[i] for c in counts) for i in range(3))
    p = n_correct / n_pred if n_pred else 0.0
    r = n_correct / n_gold if n_gold else 0.0
    score = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, score


def f1(predictions, golds, labeled=True, include_top=False):
    """Micro-averaged (precision, recall, F1) over sentences."""
    return _prf(_counts(predictions, golds, lambda g: _edge_items(g, labeled, include_top)))


def top_f1(predictions, golds):
    """(precision, recall, F1) over root edges only, label-blind."""
    return _prf(_counts(predictions, golds, lambda g: {(h, d) for h, d, _ in g.edges if h == 0}))


def _bucket(n):
    return BUCKETS[min((n - 1) // 10, 4)]


def bucket_f1(predictions, golds, labeled=True, include_top=False):
    """Per-sentence-length-bucket F1; buckets with no sentences are absent."""
    counts = _counts(predictions, golds, lambda g: _edge_items(g, labeled, include_top))
    grouped = {}
    for gold, count in zip(golds, counts):
        grouped.setdefault(_bucket(gold.n), []).append(count)
    return {name: _prf(group)[2] for name, group in grouped.items()}


def cycle_rate(predictions):
    """Fraction of graphs whose word-to-word edges contain a cycle."""
    if not predictions:
        raise DataError("cycle rate of an empty graph list is undefined")
    return sum(1 for g in predictions if has_cycle(g)) / len(predictions)


@dataclass
class EvalReport:
    labeled: tuple
    unlabeled: tuple
    top: tuple
    buckets: dict
    cycle_rate: float
    sentences: int
    include_top: bool = False

    def to_dict(self):
        keys = ("precision", "recall", "f1")
        return {
            "labeled": dict(zip(keys, self.labeled)),
            "unlabeled": dict(zip(keys, self.unlabeled)),
            "top": dict(zip(keys, self.top)),
            "buckets": self.buckets,
            "cycle_rate": self.cycle_rate,
            "sentences": self.sentences,
            "include_top": self.include_top,
        }

    def to_text(self):
        lines = []
        for prefix, triple in (("labeled", self.labeled),
                               ("unlabeled", self.unlabeled),
                               ("top", self.top)):
            for key, value in zip(("precision", "recall", "f1"), triple):
                lines.append(f"{prefix}_{key}={value:.6f}")
        for name in BUCKETS:
            if name in self.buckets:
                lines.append(f"bucket_{name}_f1={self.buckets[name]:.6f}")
        lines.append(f"cycle_rate={self.cycle_rate:.6f}")
        lines.append(f"sentences={self.sentences}")
        return "\n".join(lines) + "\n"


def evaluate(predictions, golds, include_top=False):
    return EvalReport(
        labeled=f1(predictions, golds, True, include_top),
        unlabeled=f1(predictions, golds, False, include_top),
        top=top_f1(predictions, golds),
        buckets=bucket_f1(predictions, golds, True, include_top),
        cycle_rate=cycle_rate(predictions),
        sentences=len(predictions),
        include_top=include_top,
    )
