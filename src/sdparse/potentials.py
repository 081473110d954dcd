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
for a hand-built instance), in its row-major order. The part variables
are the cells of one read-only (n+1)^3 mask per part type, at the stored
triples sib (i, j, k), cop (i, k, j) and gp (i, j, k) (every part of the
type for a sentence, the given pairs for a hand-built instance); part
order is each mask's row-major order, sib, then cop, then gp. The two
readers go through the masks in that order: ``gather`` reads per-type
arrays at every part, and ``pair_edges`` each part's two edge positions.
``from_factors`` builds the layout from the scorer's factors without
enumerating a part; ``from_arrays`` scatters edges and pairs in.

``InferenceState`` is the trajectory both engines keep: per iteration
one logit grid, read through the edge mask into per-edge vectors. Dense
mean-field (``mf._dense_field``) makes one pass over ``MESSAGES`` per
iteration on tensors; loopy BP makes the same pass on arrays inside its
one unrolled node. Neither keeps a message tensor past its sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError
from .graph import PART_EDGE_COLUMNS, CandidateEdgeSet, part_mask

__all__ = ["LogPotentials", "InferenceState", "MESSAGES", "from_factors", "from_arrays"]

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
    """A message array of ``kind`` permuted (a view) so that its cell
    [a,b,c] holds the reverse of the message at [a,b,c]."""
    return tensor.transpose(_MIRROR[kind]) if kind in _MIRROR else tensor


@dataclass
class LogPotentials:
    edge_set: CandidateEdgeSet  # the edge variables: the cells of its mask
    edge_scores: Tensor    # (n+1, n+1) log phi(1) by (head, dep); log phi(0) is 0
    scores: dict           # part type -> (n+1)^3 score tensor; types with no part absent
    part_masks: dict       # part type -> read-only (n+1)^3 mask of its parts; keys of ``scores``

    def _part_order(self):
        """(part type, part mask) in part order: each mask's row-major
        cells, sib, then cop, then gp."""
        return [(kind, self.part_masks[kind]) for kind in PART_TYPE_ORDER
                if kind in self.part_masks]

    def gather(self, arrays, dtype=np.float64):
        """Cells of per-type arrays (each broadcast to (n+1)^3) at every
        part, in part order; 0 for a type missing from ``arrays``."""
        return np.concatenate([np.zeros(0, dtype)] + [
            np.broadcast_to(arrays.get(kind, 0), mask.shape)[mask] for kind, mask in self._part_order()])

    def pair_edges(self):
        """(first, second) member edge positions of every pair: the position
        grid laid along the columns of the stored triple that hold the edge."""
        position = self.edge_set.positions()
        return tuple(self.gather({kind: np.expand_dims(position, 3 - sum(cols[end]))
                                  for kind, cols in PART_EDGE_COLUMNS.items()}, np.intp)
                     for end in (0, 1))


@dataclass
class InferenceState:
    """The trajectory of either engine over the potentials ``pot`` (a
    LogPotentials or ScoreFactors): ``logits[t]`` is the (n+1) x (n+1)
    grid of edge logits after iteration t, t = 0..T. The per-edge readings
    are the grids gathered through the edge mask, in edge order.

    Under loopy BP all T sweeps are one autodiff node, ``logits[-1]``:
    past the edge scores at t = 0, only the last grid carries gradient, and
    the other grids are constants, so a loss reads the last grid
    (``training.edge_loss`` does). Mean-field's grids all stay on the
    tape. A run under ``autodiff.no_grad`` records none: every tensor of
    its state is a constant."""

    pot: object
    logits: list = field(default_factory=list)    # Tensors, (n+1, n+1)

    @property
    def iterations(self):
        return len(self.logits) - 1

    def q1(self, t=-1):
        """Q(edge on) after iteration t, the logistic of its logit, as an
        (E,) array."""
        return ad.sigmoid(ad.constant(self.logits[t].data[self.pot.edge_set.mask])).data

    def marginals(self):
        """Q(edge on) after the last iteration by (head, dep), in edge
        order."""
        return dict(zip(self.pot.edge_set.edges, self.q1().tolist()))


def from_factors(factors):
    """LogPotentials of a sentence from the scorer's ScoreFactors, with one
    autodiff node per part type (``_part_scores``)."""
    n = factors.edge_set.n
    scores, masks = {}, {}
    # a one-word sentence has no part, so its scorer gets no gradient
    for kind, (g1, g2, g3) in factors.tri.items() if n > 1 else ():
        masks[kind] = part_mask(n, kind)
        scores[kind] = _part_scores(kind, g1, g2, g3, masks[kind])
    return LogPotentials(factors.edge_set, factors.edge_scores, scores, masks)


def _part_scores(kind, g1, g2, g3, mask):
    """The (n+1)^3 score tensor of part type ``kind`` from its factors, each
    (N, d) with N = n+1, as one node.

    The table T[a,b,c] = sum_m g1[a,m] g2[b,m] g3[c,m] over its first edge
    (a, b) and third node c is one (N^2, d) @ (d, N) product of the pair
    factor g1[a] * g2[b] with g3. It is brought into the message layout
    (cop: T[i,j,k] to [i,k,j]) and multiplied by the part ``mask``, and a
    symmetric type adds its mirror image. The node keeps nothing but its
    output and its (N, d) factors: the backward recomputes the pair factor
    by the forward's own operations, and takes the same operations in the
    same order as the chain of elementwise, matmul and transpose nodes it
    stands for, so every gradient is bitwise that chain's.
    """
    N, d = g1.shape
    g1d, g2d, g3d = g1.data, g2.data, g3.data

    def pair_factor():
        return (g1d.reshape(N, 1, d) * g2d.reshape(1, N, d)).reshape(N * N, d)

    table = (pair_factor() @ g3d.T).reshape(N, N, N)
    s = (table.transpose(0, 2, 1) if kind == "cop" else table) * mask
    del table
    out = s + aligned(s, kind) if kind in _MIRROR else s
    parents = (g1, g2, g3)
    if not ad.records(parents):
        return ad.constant(out)

    def vjp(g):
        if kind in _MIRROR:
            g = g + aligned(g, kind)
            g *= mask
        else:
            g = g * mask
        if kind == "cop":
            g = g.transpose(0, 2, 1)
        g = g.reshape(N * N, N)
        dpairs = (g @ g3d).reshape(N, N, d)
        return ((dpairs * g2d.reshape(1, N, d)).sum(axis=1),
                (dpairs * g1d.reshape(N, 1, d)).sum(axis=0), g.T @ pair_factor())

    return Tensor(out, requires_grad=True, _parents=parents, _vjp=vjp)


def _scatter(edge_set, unary, masks, part_scores, requires_grad):
    """LogPotentials with leaf tensors: ``unary`` (edge order) on the
    edge-score grid (0 off the mask), and ``part_scores`` (part order)
    written into the cells of the part ``masks`` (part type -> read-only
    (n+1)^3 mask, in part order) of dense score tensors."""
    grid = np.zeros(edge_set.mask.shape)
    grid[edge_set.mask] = unary
    scores = {}
    ends = np.cumsum([np.count_nonzero(mask) for mask in masks.values()])
    for (kind, mask), values in zip(masks.items(), np.split(np.asarray(part_scores), ends[:-1])):
        dense = np.zeros(mask.shape)
        dense[mask] = values
        scores[kind] = Tensor(dense + aligned(dense, kind) if kind in _MIRROR else dense,
                              requires_grad=requires_grad)
    return LogPotentials(edge_set, Tensor(grid, requires_grad=requires_grad), scores, masks)


def from_arrays(edges, unary, pairs, requires_grad=True):
    """Hand-built instance: ``edges`` are (head, dep) node pairs with
    their ``unary`` scores, and ``pairs`` a list of (edge_a, edge_b,
    score, type_name) entries. Edges and pairs may come in any order;
    they are reported in edge and part order (row-major), their scores
    permuted to match.

    A sib or cop pair may name its edges in either order and is reported
    in its stored orientation; a gp pair names the chain's first edge
    first. Edges that do not have the pair type's geometry, and a part
    given twice, raise DataError.
    """
    edges = tuple(tuple(int(v) for v in e) for e in edges)
    if len(set(edges)) != len(edges) or any(
            len(e) != 2 or e[0] < 0 or e[1] < 1 or e[0] == e[1] for e in edges):
        raise DataError("edges must be distinct (head, dep) pairs, 0 <= head != dep >= 1")
    unary = np.asarray(unary, dtype=np.float64)
    if unary.shape != (len(edges),):
        raise DataError(f"unary scores must have shape ({len(edges)},)")
    n = max(max(e) for e in edges) if edges else 0
    masks, given = {}, {kind: [] for kind in PART_TYPE_ORDER}
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
        mask = masks.setdefault(kind, np.zeros((n + 1,) * 3, dtype=bool))
        if mask[part]:
            raise DataError(f"a {kind} part is given more than once")
        mask[part] = True
        given[kind].append((part, float(score)))
    for mask in masks.values():
        mask.setflags(write=False)
    masks = {kind: masks[kind] for kind in PART_TYPE_ORDER if kind in masks}
    # sorted stored triples are the mask's row-major order
    scores = [score for kind in masks for _, score in sorted(given[kind])]
    edge_mask = np.zeros((n + 1, n + 1), dtype=bool)
    for edge in edges:
        edge_mask[edge] = True
    order = sorted(range(len(edges)), key=edges.__getitem__)
    return _scatter(CandidateEdgeSet(n, edge_mask), unary[order], masks, scores, requires_grad)
