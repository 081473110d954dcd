"""Brute-force exact inference by enumerating all 2^E edge assignments.

This is the reference oracle the approximate engines are tested against.
It is deliberately simple and hard-capped at 20 edge variables (about a
million assignments); anything larger raises instead of silently
grinding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

__all__ = ["ExactResult", "exact_infer", "ENUMERATION_CAP"]

ENUMERATION_CAP = 20


@dataclass
class ExactResult:
    log_partition: float
    marginals: dict          # edge tuple -> P(edge on)


_BLOCK = 1 << 12  # assignments scored at a time


def _assignment_scores(pot):
    """Log score of every assignment (bit k of its index is edge k), in
    blocks of rows x: x @ unary plus sum(x * (x @ W)) for the (E, E)
    matrix W holding each pair's score at (first edge, second edge)."""
    E = len(pot.edge_set)
    if E > ENUMERATION_CAP:
        raise CapacityError(
            f"{E} edge variables exceed the enumeration cap of {ENUMERATION_CAP}")
    unary = pot.edge_scores.data[pot.edge_set.mask]
    coupling = np.zeros((E, E))
    coupling[pot.pair_edges()] = pot.gather({kind: s.data for kind, s in pot.scores.items()})
    scores = np.empty(1 << E)
    for start in range(0, len(scores), _BLOCK):
        rows = np.arange(start, min(start + _BLOCK, len(scores)))
        x = ((rows[:, None] >> np.arange(E)) & 1).astype(np.float64)
        scores[rows] = x @ unary + np.sum(x * (x @ coupling), axis=1)
    return scores


def _logsumexp(x):
    m = np.max(x)
    return float(m + np.log(np.sum(np.exp(x - m))))


def exact_infer(pot):
    scores = _assignment_scores(pot)
    log_z = _logsumexp(scores)
    index = np.arange(len(scores))
    marginals = {edge: float(np.exp(_logsumexp(scores[(index >> k) & 1 == 1]) - log_z))
                 for k, edge in enumerate(pot.edge_set.edges)}
    return ExactResult(log_z, marginals)
