"""Log-potentials of the conditional random field over edge variables.

Each candidate edge is a Boolean variable with unary potential
log phi(1) = s_edge, log phi(0) = 0. Each second-order part couples two
edges with a pairwise potential that is s_part when both are on and 0
otherwise. Everything stays in log space.

``LogPotentials`` holds one dense layout: the unary scores as an
(n+1) x (n+1) head-by-dependent grid, and per part type one (n+1)^3 score
tensor, indexed like the messages through that type (``MESSAGES``):

    sib  S[i,j,k] = s(i; min(j,k), max(j,k))   pair (i,j), (i,k)
    cop  S[i,k,j] = s(min(i,k), max(i,k); j)   pair (i,j), (k,j)
    gp   S[i,j,k] = s(i, j, k)                 chain (i,j), (j,k)

Every tensor is 0 off its type's geometry. The edge variables are the
cells of the edge set's mask (all n^2 for a sentence, the given edges
for a hand-built instance), in its row-major order, and a PartList fixes
the order pairs are reported in (sib, cop, then gp). ``from_factors``
builds the layout from the scorer's factors without enumerating a part;
``from_arrays`` and ``from_parts`` scatter edges and pairs in.

``InferenceState`` is the trajectory both engines keep: one logit grid
per iteration, read through the mask into per-edge vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError
from .graph import (PART_EDGE_COLUMNS, CandidateEdgeSet, PartList, build_candidate_edges,
                    enumerate_parts, part_mask)

__all__ = ["LogPotentials", "InferenceState", "MESSAGES", "from_factors", "from_parts",
           "from_arrays"]

PART_TYPE_ORDER = ("sib", "cop", "gp")

# Directed-message tensors: name -> (part type whose scores it reads, axis
# its source edge's grid is broadcast along, axis summed into its target
# edge, the message running the other way through the same part). sib
# r[i,j,k] carries (i,j) -> (i,k), cop r[i,k,j] (i,j) -> (k,j), gp down
# d[i,j,k] (i,j) -> (j,k) and up u[i,j,k] (j,k) -> (i,j).
MESSAGES = {"sib": ("sib", 2, 1, "sib"), "cop": ("cop", 1, 0, "cop"),
            "down": ("gp", 2, 0, "up"), "up": ("gp", 0, 2, "down")}
# per part type, the message from its first edge into its second, which
# its stored triple indexes
FORWARD = {"sib": "sib", "cop": "cop", "gp": "down"}
# the axes permutation that maps a symmetric type's tensor onto its second
# orientation, and so a message onto its reverse (sib r[i,k,j], cop r[k,i,j])
_MIRROR = {"sib": (0, 2, 1), "cop": (1, 0, 2)}


def aligned(tensor, kind):
    """A message tensor (ndarray or Tensor) of ``kind`` permuted so that
    its cell [a,b,c] holds the reverse of the message at [a,b,c]."""
    if kind not in _MIRROR:
        return tensor
    if isinstance(tensor, Tensor):
        return ad.transpose(tensor, _MIRROR[kind])
    return tensor.transpose(_MIRROR[kind])


def on_grid(grid, axis):
    """An (n+1) x (n+1) grid tensor with a unit axis inserted at ``axis``."""
    shape = list(grid.shape)
    shape.insert(axis, 1)
    return ad.reshape(grid, tuple(shape))


def on_edges(grid, edge_set):
    """An (n+1) x (n+1) grid tensor gathered into an (E,) vector in edge
    order."""
    return ad.take(ad.reshape(grid, (-1,)), np.flatnonzero(edge_set.mask))


@dataclass
class LogPotentials:
    edge_set: CandidateEdgeSet  # the edge variables: the cells of its mask
    edge_scores: Tensor    # (n+1, n+1) log phi(1) by (head, dep); log phi(0) is 0
    scores: dict           # part type -> (n+1)^3 score tensor; types with no part absent
    parts: PartList = None  # reporting order; None: every part of the types in ``scores``

    edges = property(lambda self: self.edge_set.edges)
    edge_count = property(lambda self: len(self.edge_set))

    @property
    def unary(self):
        """The edge scores in edge order, gathered from the grid."""
        return on_edges(self.edge_scores, self.edge_set)

    def blocks(self):
        """(part type, (P_kind, 3) stored triples) in reporting order; the
        parts of potentials from ``from_factors`` are enumerated on first
        use."""
        if self.parts is None:
            self.parts = enumerate_parts(build_candidate_edges(self.edge_set.n)).filter(
                *(kind in self.scores for kind in PART_TYPE_ORDER))
        return [(kind, getattr(self.parts, kind)) for kind in PART_TYPE_ORDER]

    @property
    def pair_count(self):
        return sum(len(rows) for _, rows in self.blocks())

    def pair_edges(self):
        """(first, second) member edge positions of every pair."""
        position = self.edge_set.positions()
        cells = [(rows[:, cols[0]], rows[:, cols[1]]) for kind, rows in self.blocks()
                 for cols in PART_EDGE_COLUMNS[kind]]
        return (np.concatenate([position[c] for c in cells[0::2]]),
                np.concatenate([position[c] for c in cells[1::2]]))

    def pairs(self):
        """(first edge, second edge, part type, stored triple) per pair."""
        kinds = [(kind, tuple(part)) for kind, rows in self.blocks() for part in rows.tolist()]
        edges = self.edges
        return [(edges[a], edges[b]) + kind
                for a, b, kind in zip(*self.pair_edges(), kinds)]

    def gather(self, arrays):
        """Values of per-type (n+1)^3 arrays at every pair's stored triple
        (0 for a type missing from ``arrays``)."""
        return np.concatenate([np.zeros(len(rows)) if arrays.get(kind) is None
                               else arrays[kind][tuple(rows.T)]
                               for kind, rows in self.blocks()])

    def part_scores(self):
        return self.gather({kind: s.data for kind, s in self.scores.items()})


@dataclass
class InferenceState:
    """An engine's trajectory over the potentials ``pot`` (a LogPotentials
    or ScoreFactors): ``logits[t]`` is the (n+1) x (n+1) grid of edge
    logits after iteration t, t = 0..T. An engine adds its step and
    ``_q``, which maps logits to on-probabilities; the per-edge readings
    below are the grids gathered through the edge mask, in edge order."""

    pot: object
    logits: list = field(default_factory=list)  # Tensors, (n+1, n+1)

    @property
    def iterations(self):
        return len(self.logits) - 1

    def q1(self, t=-1):
        """Q(edge on) after iteration t, as an (E,) array."""
        return self._q(self.logits[t].data[self.pot.edge_set.mask])

    def marginals(self, t=-1):
        """Q(edge on) after iteration t by (head, dep), in edge order."""
        return dict(zip(self.pot.edge_set.edges, self.q1(t).tolist()))

    def final_log_marginals(self):
        """(log Q(0), log Q(1)) of the last iterate as (E,) tensors,
        stable for extreme logits."""
        logit = on_edges(self.logits[-1], self.pot.edge_set)
        return ad.neg(ad.softplus(logit)), ad.neg(ad.softplus(ad.neg(logit)))


def from_factors(factors):
    """LogPotentials of a sentence from the scorer's ScoreFactors.

    Each part type's table T[a,b,c] = sum_m g1[a,m] g2[b,m] g3[c,m] over
    its first edge (a, b) and third node c is one (N^2, d) @ (d, N)
    product (N = n+1). It is brought into the message layout (cop: T[i,j,k]
    to [i,k,j]) and multiplied by the type's part mask, and a symmetric
    type adds its mirror image.
    """
    n = factors.edge_set.n
    scores = {}
    # a one-word sentence has no part, so its scorer gets no gradient
    for kind, (g1, g2, g3) in factors.tri.items() if n > 1 else ():
        N, d = g1.shape
        pairs = ad.reshape(ad.mul(ad.reshape(g1, (N, 1, d)), ad.reshape(g2, (1, N, d))),
                           (N * N, d))
        table = ad.reshape(ad.matmul(pairs, ad.transpose(g3)), (N, N, N))
        if kind == "cop":
            table = ad.transpose(table, (0, 2, 1))
        s = ad.mul(table, ad.constant(part_mask(n, kind)))
        scores[kind] = ad.add(s, aligned(s, kind)) if kind in _MIRROR else s
    return LogPotentials(factors.edge_set, factors.edge_scores, scores)


def from_parts(edge_set, unary, parts, part_scores, requires_grad):
    """LogPotentials of a PartList over ``edge_set``: ``unary`` (in edge
    order) scattered into the edge-score grid (0 off the mask) and
    ``part_scores`` (in PartList order) into dense score tensors; the grid
    and the score tensors are leaves. A part given twice raises
    DataError."""
    if parts.n != edge_set.n or len(part_scores) != parts.total():
        raise DataError(f"{len(part_scores)} scores for a part list of {parts.total()} "
                        f"parts over n={parts.n}; the edges span n={edge_set.n}")
    N = edge_set.n + 1
    scores = {}
    ends = np.cumsum([len(getattr(parts, kind)) for kind in PART_TYPE_ORDER])
    for kind, values in zip(PART_TYPE_ORDER, np.split(np.asarray(part_scores), ends[:-1])):
        rows = getattr(parts, kind)
        if len(np.unique(rows, axis=0)) != len(rows):
            raise DataError(f"a {kind} part is given more than once")
        if len(rows):
            dense = np.zeros((N, N, N))
            dense[tuple(rows.T)] = values
            scores[kind] = Tensor(dense + aligned(dense, kind) if kind in _MIRROR else dense,
                                  requires_grad=requires_grad)
    grid = np.zeros((N, N))
    grid[edge_set.mask] = unary
    return LogPotentials(edge_set, Tensor(grid, requires_grad=requires_grad), scores, parts)


def from_arrays(edges, unary, pairs, requires_grad=True):
    """Hand-built instance: ``edges`` are (head, dep) node pairs with
    their ``unary`` scores, and ``pairs`` a list of (edge_a, edge_b,
    score, type_name) entries. The edges may come in any order; they are
    reported in edge order (row-major), their unaries permuted to match.

    A sib or cop pair may name its edges in either order and is reported
    in its stored orientation; a gp pair names the chain's first edge
    first. Edges that do not have the pair type's geometry raise DataError.
    """
    edges = tuple(tuple(int(v) for v in e) for e in edges)
    if len(set(edges)) != len(edges) or any(
            len(e) != 2 or e[0] < 0 or e[1] < 1 or e[0] == e[1] for e in edges):
        raise DataError("edges must be distinct (head, dep) pairs, 0 <= head != dep >= 1")
    unary = np.asarray(unary, dtype=np.float64)
    if unary.shape != (len(edges),):
        raise DataError(f"unary scores must have shape ({len(edges)},)")
    rows = {kind: [] for kind in PART_TYPE_ORDER}
    for (a0, a1), (b0, b1), score, kind in pairs:
        if (a0, a1) not in edges or (b0, b1) not in edges:
            raise DataError(f"pair ({(a0, a1)}, {(b0, b1)}) references an unknown edge")
        if kind not in PART_TYPE_ORDER:
            raise DataError(f"unknown part type {kind!r} (expected one of {PART_TYPE_ORDER})")
        part = {"sib": (a0, min(a1, b1), max(a1, b1)) if a0 == b0 else (),
                "cop": (min(a0, b0), max(a0, b0), a1) if a1 == b1 else (),
                "gp": (a0, a1, b1) if a1 == b0 else ()}[kind]
        if len(set(part)) < 3:
            raise DataError(f"edges {(a0, a1)} and {(b0, b1)} do not form a {kind} part")
        rows[kind].append(part + (float(score),))
    n = max(max(e) for e in edges) if edges else 0
    table = [np.array(rows[kind]).reshape(-1, 4) for kind in PART_TYPE_ORDER]
    parts = PartList(n, *(t[:, :3].astype(np.intp) for t in table))
    scores = np.concatenate([t[:, 3] for t in table])
    mask = np.zeros((n + 1, n + 1), dtype=bool)
    for edge in edges:
        mask[edge] = True
    order = sorted(range(len(edges)), key=edges.__getitem__)
    return from_parts(CandidateEdgeSet(n, mask), unary[order], parts, scores, requires_grad)
