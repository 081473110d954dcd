"""Log-potentials of the conditional random field over edge variables.

Each candidate edge is a Boolean variable with unary potential
log phi(1) = s_edge, log phi(0) = 0. Each second-order part couples two
edges with a pairwise potential that is s_part when both are on and 0
otherwise. Everything stays in log space.

``LogPotentials`` carries an explicit edge list rather than just n, so
small hand-built instances (two edges, one part) can be run through the
same inference and enumeration code as full candidate sets.

Pairs are held as parallel index arrays: the two member edges' positions
and the part type per pair. No per-part Python object is kept; the part
triple behind a pair is rebuilt from its two edges when a trace asks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError
from .graph import PART_EDGE_COLUMNS

__all__ = ["LogPotentials", "assemble", "pair_table", "from_arrays",
           "joint_log_score", "potential_grads"]

PART_TYPE_ORDER = ("sib", "cop", "gp")


@dataclass
class LogPotentials:
    edges: tuple          # candidate edge tuples, fixed order
    unary: Tensor         # (E,) log phi(1); log phi(0) is identically 0
    pair_e1: np.ndarray   # (P,) edge indices, first member of each part
    pair_e2: np.ndarray   # (P,) second member
    pair_scores: Tensor   # (P,) log phi(1,1); other cells are 0
    pair_kind: np.ndarray  # (P,) part type per pair, as an index into PART_TYPE_ORDER

    def __post_init__(self):
        self.index = {e: k for k, e in enumerate(self.edges)}

    @property
    def edge_count(self):
        return len(self.edges)

    @property
    def pair_count(self):
        return len(self.pair_e1)

    def unary_log(self, edge, value):
        if value not in (0, 1):
            raise ValueError("edge variables are Boolean")
        return float(self.unary.data[self.index[edge]]) if value == 1 else 0.0

    def pair_log(self, pair_idx, value1, value2):
        if value1 == 1 and value2 == 1:
            return float(self.pair_scores.data[pair_idx])
        return 0.0

    def pair_part(self, pair_idx):
        """(type name, part triple) of one pair, rebuilt from its edges
        (a0, a1) and (b0, b1): sib and gp (a0, a1, b1), cop (a0, b0, a1)."""
        kind = PART_TYPE_ORDER[self.pair_kind[pair_idx]]
        a0, a1 = self.edges[self.pair_e1[pair_idx]]
        b0, b1 = self.edges[self.pair_e2[pair_idx]]
        return kind, ((a0, b0, a1) if kind == "cop" else (a0, a1, b1))


def pair_table(edge_set, parts):
    """(pair_e1, pair_e2, pair_kind) of a part list over a candidate edge
    set: one pair per part, in PART_TYPE_ORDER blocks of part-list rows.

    A dense (n+1) x (n+1) lookup maps each part's two (head, dep) columns
    to candidate edge positions.
    """
    n1 = edge_set.n + 1
    position = np.zeros((n1, n1), dtype=np.intp)
    position[edge_set.heads, edge_set.deps] = np.arange(len(edge_set))
    blocks = [getattr(parts, kind) for kind in PART_TYPE_ORDER]
    e1, e2 = [], []
    for kind, rows in zip(PART_TYPE_ORDER, blocks):
        (a0, a1), (b0, b1) = PART_EDGE_COLUMNS[kind]
        e1.append(position[rows[:, a0], rows[:, a1]])
        e2.append(position[rows[:, b0], rows[:, b1]])
    kinds = np.repeat(np.arange(len(PART_TYPE_ORDER)), [len(rows) for rows in blocks])
    return np.concatenate(e1), np.concatenate(e2), kinds


def assemble(scores, parts):
    """LogPotentials from a sentence ScoreSet and its part list."""
    if parts is not scores.parts and not all(
            np.array_equal(getattr(parts, kind), getattr(scores.parts, kind))
            for kind in PART_TYPE_ORDER):
        raise DataError("part list does not match the one the scores were built for")
    for kind in PART_TYPE_ORDER:
        got, want = getattr(scores, f"s_{kind}").shape[0], len(getattr(parts, kind))
        if got != want:
            raise DataError(f"{kind} scores: {got} values for {want} parts")
    if scores.s_edge.shape[0] != len(scores.edge_set.edges):
        raise DataError("edge scores do not cover the candidate edge set")

    e1, e2, kinds = pair_table(scores.edge_set, parts)
    return LogPotentials(
        edges=scores.edge_set.edges,
        unary=scores.s_edge,
        pair_e1=e1,
        pair_e2=e2,
        pair_scores=ad.concat([scores.s_sib, scores.s_cop, scores.s_gp]),
        pair_kind=kinds,
    )


def from_arrays(edges, unary, pairs, requires_grad=True):
    """Hand-built instance: ``pairs`` is a list of
    (edge_a, edge_b, score, type_name) entries."""
    edges = tuple(tuple(e) for e in edges)
    index = {e: k for k, e in enumerate(edges)}
    unary = np.asarray(unary, dtype=np.float64)
    if unary.shape != (len(edges),):
        raise DataError(f"unary scores must have shape ({len(edges)},)")
    e1, e2, svals, kinds = [], [], [], []
    for edge_a, edge_b, score, kind in pairs:
        if tuple(edge_a) not in index or tuple(edge_b) not in index:
            raise DataError(f"pair ({edge_a}, {edge_b}) references an unknown edge")
        if kind not in PART_TYPE_ORDER:
            raise DataError(f"unknown part type {kind!r} (expected one of {PART_TYPE_ORDER})")
        e1.append(index[tuple(edge_a)])
        e2.append(index[tuple(edge_b)])
        svals.append(float(score))
        kinds.append(PART_TYPE_ORDER.index(kind))
    return LogPotentials(
        edges=edges,
        unary=Tensor(unary, requires_grad=requires_grad),
        pair_e1=np.asarray(e1, dtype=np.intp),
        pair_e2=np.asarray(e2, dtype=np.intp),
        pair_scores=Tensor(np.asarray(svals), requires_grad=requires_grad),
        pair_kind=np.asarray(kinds, dtype=np.intp),
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
