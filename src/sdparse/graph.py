"""Sentence and dependency-graph structures.

Words are indexed 1..n; index 0 is a virtual root node used as the head of
top-predicate edges. It never appears as a dependent. The candidate edge
set for a length-n sentence therefore has exactly n^2 members.

Edge variables live on the (n+1) x (n+1) head-by-dependent grid: a
``CandidateEdgeSet`` is a boolean mask of its cells, and edge order is
the mask's row-major order. Per-edge vectors (marginals, label scores)
are the grid gathered through the mask; the (head, dep) tuples and the
position grid are built only where a caller asks for them.

Three families of second-order parts tie candidate edges together:

* sibling   (i; j, k)  j < k   -- edges (i,j) and (i,k) share head i
* co-parent (i, k; j)  i < k   -- edges (i,j) and (k,j) share dependent j
* grandparent (i, j, k)        -- chain (i,j) then (j,k); directional,
                                  so (i,j,k) and (k,j,i) are distinct parts

No unordered pair of edges is joined by more than one part (shared head +
shared dependent would force the two edges to coincide, and a two-cycle
chain would need k == i).

``enumerate_parts`` returns each family as an integer index array with one
part triple per row. The arrays are built on every call and never cached,
so memory held between sentences does not grow with the lengths seen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "Token", "Sentence", "SemGraph", "CandidateEdgeSet", "PartList",
    "build_candidate_edges", "enumerate_parts", "part_mask", "decode", "has_cycle",
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

    def token(self, i):
        """Word i, 1-based."""
        return self.tokens[i - 1]


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


@dataclass(frozen=True, eq=False)
class PartList:
    """Enumerated second-order parts over a candidate edge set.

    Each part type is a read-only (P_kind, 3) integer array with one part
    per row, in lexicographic row order of its stored triple.
    """

    n: int
    sib: np.ndarray  # (i, j, k) with j < k; edges (i,j), (i,k)
    cop: np.ndarray  # (i, k, j) with i < k; edges (i,j), (k,j)
    gp: np.ndarray   # (i, j, k); edges (i,j), (j,k)

    def total(self):
        return len(self.sib) + len(self.cop) + len(self.gp)

    def filter(self, use_sib=True, use_cop=True, use_gp=True):
        return PartList(
            self.n,
            self.sib if use_sib else _NO_PARTS,
            self.cop if use_cop else _NO_PARTS,
            self.gp if use_gp else _NO_PARTS,
        )


_NO_PARTS = _read_only(np.empty((0, 3), dtype=np.intp))


def part_mask(n, kind):
    """Boolean (n+1)^3 mask of a part type's stored triples (sib (i, j, k),
    cop (i, k, j), gp (i, j, k)) for a length-n sentence."""
    a, b, c = np.ogrid[:n + 1, :n + 1, :n + 1]
    geometry = {"sib": (b >= 1) & (b < c), "cop": (a < b) & (c >= 1), "gp": (b >= 1) & (c >= 1)}
    return geometry[kind] & (a != b) & (b != c) & (a != c)


def enumerate_parts(edge_set):
    """Every part of a length-n sentence, built afresh from the boolean
    masks over the (n+1)^3 node triples; nothing is cached."""
    return PartList(edge_set.n, *(_read_only(np.argwhere(part_mask(edge_set.n, kind)))
                                  for kind in ("sib", "cop", "gp")))


def decode(n, edge_prob, label_argmax, threshold=0.5):
    """Keep every edge with probability strictly above the threshold.

    Cycles are permitted; the output is whatever the marginals support.
    """
    edges = []
    for (head, dep), p in edge_prob.items():
        if p > threshold:
            if (head, dep) not in label_argmax:
                raise DataError(f"no label prediction for included edge ({head},{dep})")
            edges.append((head, dep, label_argmax[(head, dep)]))
    return SemGraph(n, edges)


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
