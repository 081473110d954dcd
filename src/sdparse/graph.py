"""Sentence and dependency-graph structures.

Words are indexed 1..n; index 0 is a virtual root node used as the head of
top-predicate edges. It never appears as a dependent. The candidate edge
set for a length-n sentence therefore has exactly n^2 members.

Edge variables live on the (n+1) x (n+1) head-by-dependent grid: a
``CandidateEdgeSet`` is a boolean mask of its cells, and edge order is
the mask's row-major order. Per-edge vectors (marginals, unary scores)
are the grid gathered through the mask; the (head, dep) tuples and the
position grid are built only where a caller asks for them. ``kept_edges``
gives the (head, dep) arrays of the edges whose marginal is above a
threshold, and ``decode`` builds their graph from them and their labels.

Three families of second-order parts tie candidate edges together:

* sibling   (i; j, k)  j < k   -- edges (i,j) and (i,k) share head i
* co-parent (i, k; j)  i < k   -- edges (i,j) and (k,j) share dependent j
* grandparent (i, j, k)        -- chain (i,j) then (j,k); directional,
                                  so (i,j,k) and (k,j,i) are distinct parts

No unordered pair of edges is joined by more than one part (shared head +
shared dependent would force the two edges to coincide, and a two-cycle
chain would need k == i).

Part variables live on the (n+1)^3 node-triple grid the same way: a part
type's ``part_mask`` marks the cells of its stored triples, and part
order is each mask's row-major order, sib, then cop, then gp. Masks are
built on every call and never cached, so memory held between sentences
does not grow with the lengths seen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "Token", "Sentence", "SemGraph", "CandidateEdgeSet",
    "build_candidate_edges", "part_mask", "kept_edges", "decode", "has_cycle",
    "TOP_LABEL",
]

TOP_LABEL = "TOP"


@dataclass(frozen=True)
class Token:
    form: str
    lemma: str
    pos: str


@dataclass(frozen=True)
class Sentence:
    """Words of one sentence; tokens[i-1] is word i (index 0 is the root)."""

    tokens: tuple[Token, ...]

    @property
    def n(self):
        return len(self.tokens)


class SemGraph:
    """A labeled dependency graph: edges are (head, dep, label) triples."""

    __slots__ = ("n", "edges", "_labels")

    def __init__(self, n, edges):
        labels = {}
        for head, dep, label in edges:
            if not (0 <= head <= n) or not (1 <= dep <= n) or head == dep:
                raise DataError(f"edge ({head},{dep}) out of range for n={n}")
            if (head, dep) in labels and labels[(head, dep)] != label:
                raise DataError(f"conflicting labels for edge ({head},{dep})")
            labels[(head, dep)] = label
        self.n = n
        self.edges = frozenset((h, d, l) for (h, d), l in labels.items())
        self._labels = labels

    @classmethod
    def from_arrays(cls, n, heads, deps, labels):
        """A graph from (E,) head and dependent arrays and E label names;
        the (head, dep) pairs must be distinct and in range."""
        heads, deps = np.asarray(heads), np.asarray(deps)
        if np.any((heads < 0) | (heads > n) | (deps < 1) | (deps > n) | (heads == deps)):
            raise DataError(f"an edge is out of range for n={n}")
        head_list, dep_list = heads.tolist(), deps.tolist()
        graph = cls.__new__(cls)
        graph.n = n
        graph._labels = dict(zip(zip(head_list, dep_list), labels))
        if len(graph._labels) != len(head_list):
            raise DataError("an edge is given more than once")
        graph.edges = frozenset(zip(head_list, dep_list, labels))
        return graph

    def edge_pairs(self):
        """Unlabeled (head, dep) pairs."""
        return set(self._labels)

    def label_of(self, head, dep):
        return self._labels[(head, dep)]

    def __eq__(self, other):
        return isinstance(other, SemGraph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"SemGraph(n={self.n}, edges={sorted(self.edges)})"


class CandidateEdgeSet:
    """Edge variables over the nodes 0..n: the True cells of ``mask``, a
    read-only (n+1) x (n+1) head-by-dependent boolean grid. Edge order is
    the mask's row-major order, for a sentence (``build_candidate_edges``)
    and for a hand-built instance alike.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n, mask):
        self.n = n
        self.mask = _read_only(mask)

    def __len__(self):
        return int(np.count_nonzero(self.mask))

    @property
    def edges(self):
        """The (head, dep) tuples in edge order, built on each access: for
        reports, never on the parse or training path."""
        return tuple(map(tuple, np.argwhere(self.mask).tolist()))

    def positions(self):
        """(n+1) x (n+1) grid of each edge's position in edge order; cells
        off the mask hold the edge count, which indexes no edge."""
        grid = np.full(self.mask.shape, len(self), dtype=np.intp)
        grid[self.mask] = np.arange(len(self))
        return grid


def build_candidate_edges(n):
    """The n^2 candidate edges of a length-n sentence: every cell but
    column 0 (the root is nobody's dependent) and the diagonal. Built on
    every call; nothing is cached."""
    if n < 1:
        raise DataError(f"sentence length must be >= 1, got {n}")
    mask = ~np.eye(n + 1, dtype=bool)
    mask[:, 0] = False
    return CandidateEdgeSet(n, mask)


def _read_only(rows):
    rows.setflags(write=False)
    return rows


# columns of each part type's stored triple that hold its first and its
# second edge, as (head, dep)
PART_EDGE_COLUMNS = {
    "sib": ((0, 1), (0, 2)),
    "cop": ((0, 2), (1, 2)),
    "gp": ((0, 1), (1, 2)),
}


def part_mask(n, kind):
    """Read-only boolean (n+1)^3 mask of a part type's stored triples
    (sib (i, j, k), cop (i, k, j), gp (i, j, k)) for a length-n sentence."""
    a, b, c = np.ogrid[:n + 1, :n + 1, :n + 1]
    geometry = {"sib": (b >= 1) & (b < c), "cop": (a < b) & (c >= 1), "gp": (b >= 1) & (c >= 1)}
    return _read_only(geometry[kind] & (a != b) & (b != c) & (a != c))


def kept_edges(edge_set, marginals, threshold):
    """(heads, deps) arrays, in edge order, of the edges whose marginal
    (``marginals`` (E,) in edge order) is strictly above the threshold."""
    heads, deps = np.nonzero(edge_set.mask)
    kept = marginals > threshold
    return heads[kept], deps[kept]


def decode(n, heads, deps, label_scores, labels):
    """The graph over nodes 0..n of the edges (heads[k], deps[k]), each
    labelled with the best of its row of ``label_scores`` (K, L), whose
    L ids ``labels`` names. Cycles are permitted."""
    label_ids = np.argmax(label_scores, axis=1)
    return SemGraph.from_arrays(n, heads, deps, [labels[i] for i in label_ids.tolist()])


def has_cycle(graph):
    """True iff the word-to-word edges contain a directed cycle.

    Root edges are ignored: nothing enters node 0, so it cannot lie on a
    cycle. Kahn-style peeling; a cycle exists iff some node is never freed.
    """
    indeg = {v: 0 for v in range(1, graph.n + 1)}
    succ = {v: [] for v in range(1, graph.n + 1)}
    for head, dep, _ in graph.edges:
        if head == 0:
            continue
        succ[head].append(dep)
        indeg[dep] += 1
    queue = [v for v, d in indeg.items() if d == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen < graph.n
