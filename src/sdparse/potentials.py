"""Log-potentials of the conditional random field over edge variables.

Each candidate edge is a Boolean variable with unary potential
log phi(1) = s_edge, log phi(0) = 0. Each second-order part couples two
edges with a pairwise potential that is s_part when both are on and 0
otherwise. Everything stays in log space.

``LogPotentials`` carries an explicit edge list rather than just n, so
small hand-built instances (two edges, one part) can be run through the
same inference and enumeration code as full candidate sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError

__all__ = ["LogPotentials", "assemble", "from_arrays", "joint_log_score",
           "potential_grads"]

PART_TYPE_ORDER = ("sib", "cop", "gp")


@dataclass
class LogPotentials:
    edges: tuple          # candidate edge tuples, fixed order
    unary: Tensor         # (E,) log phi(1); log phi(0) is identically 0
    pair_e1: np.ndarray   # (P,) edge indices, first member of each part
    pair_e2: np.ndarray   # (P,) second member
    pair_scores: Tensor   # (P,) log phi(1,1); other cells are 0
    pair_types: tuple     # (P,) part type name per pair
    pair_parts: tuple     # (P,) originating part tuple per pair

    def __post_init__(self):
        self.index = {e: k for k, e in enumerate(self.edges)}

    @property
    def edge_count(self):
        return len(self.edges)

    @property
    def pair_count(self):
        return len(self.pair_types)

    def unary_log(self, edge, value):
        if value not in (0, 1):
            raise ValueError("edge variables are Boolean")
        return float(self.unary.data[self.index[edge]]) if value == 1 else 0.0

    def pair_log(self, pair_idx, value1, value2):
        if value1 == 1 and value2 == 1:
            return float(self.pair_scores.data[pair_idx])
        return 0.0


def assemble(scores, parts):
    """LogPotentials from a sentence ScoreSet and its part list."""
    if parts is not scores.parts and (parts.sib, parts.cop, parts.gp) != (
            scores.parts.sib, scores.parts.cop, scores.parts.gp):
        raise DataError("part list does not match the one the scores were built for")
    expected = {"sib": len(parts.sib), "cop": len(parts.cop), "gp": len(parts.gp)}
    for kind in PART_TYPE_ORDER:
        got = getattr(scores, f"s_{kind}").shape[0]
        if got != expected[kind]:
            raise DataError(f"{kind} scores: {got} values for {expected[kind]} parts")
    if scores.s_edge.shape[0] != len(scores.edge_set.edges):
        raise DataError("edge scores do not cover the candidate edge set")

    index = scores.edge_set.index
    e1, e2, types, origins = [], [], [], []
    for edge_a, edge_b, kind, part in parts.edge_pairs():
        e1.append(index[edge_a])
        e2.append(index[edge_b])
        types.append(kind)
        origins.append(part)
    pair_scores = ad.concat([scores.s_sib, scores.s_cop, scores.s_gp])
    return LogPotentials(
        edges=scores.edge_set.edges,
        unary=scores.s_edge,
        pair_e1=np.asarray(e1, dtype=np.intp),
        pair_e2=np.asarray(e2, dtype=np.intp),
        pair_scores=pair_scores,
        pair_types=tuple(types),
        pair_parts=tuple(origins),
    )


def from_arrays(edges, unary, pairs, requires_grad=True):
    """Hand-built instance: ``pairs`` is a list of
    (edge_a, edge_b, score, type_name) entries."""
    edges = tuple(tuple(e) for e in edges)
    index = {e: k for k, e in enumerate(edges)}
    unary = np.asarray(unary, dtype=np.float64)
    if unary.shape != (len(edges),):
        raise DataError(f"unary scores must have shape ({len(edges)},)")
    e1, e2, svals, types = [], [], [], []
    for edge_a, edge_b, score, kind in pairs:
        if tuple(edge_a) not in index or tuple(edge_b) not in index:
            raise DataError(f"pair ({edge_a}, {edge_b}) references an unknown edge")
        e1.append(index[tuple(edge_a)])
        e2.append(index[tuple(edge_b)])
        svals.append(float(score))
        types.append(kind)
    return LogPotentials(
        edges=edges,
        unary=Tensor(unary, requires_grad=requires_grad),
        pair_e1=np.asarray(e1, dtype=np.intp),
        pair_e2=np.asarray(e2, dtype=np.intp),
        pair_scores=Tensor(np.asarray(svals), requires_grad=requires_grad),
        pair_types=tuple(types),
        pair_parts=tuple((tuple(a), tuple(b)) for a, b, _, _ in pairs),
    )


def joint_log_score(pot, on_edges):
    """Unnormalized log score of one full assignment (set of on edges)."""
    on = np.zeros(pot.edge_count, dtype=bool)
    for e in on_edges:
        on[pot.index[tuple(e)]] = True
    total = float(pot.unary.data[on].sum())
    both = on[pot.pair_e1] & on[pot.pair_e2]
    total += float(pot.pair_scores.data[both].sum())
    return total


def potential_grads(upstream, state):
    """Gradients of <upstream, Q^(T)> w.r.t. the unary and pair scores of
    the LogPotentials an inference state ran on (either engine).

    Also propagates further down if the potentials came from the scorer.
    """
    pot = state.pot
    ad.backward([state.marginal_tensor], [np.asarray(upstream, dtype=np.float64)])
    unary_grad = pot.unary.grad
    pair_grad = pot.pair_scores.grad
    return {
        "unary": np.zeros(pot.edge_count) if unary_grad is None else unary_grad,
        "pairs": np.zeros(pot.pair_count) if pair_grad is None else pair_grad,
    }
