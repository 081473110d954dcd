"""Sentence and dependency-graph structures.

Words are indexed 1..n; index 0 is a virtual root node used as the head of
top-predicate edges. It never appears as a dependent. The candidate edge
set for a length-n sentence therefore has exactly n^2 members.

Three families of second-order parts tie candidate edges together:

* sibling   (i; j, k)  j < k   -- edges (i,j) and (i,k) share head i
* co-parent (i, k; j)  i < k   -- edges (i,j) and (k,j) share dependent j
* grandparent (i, j, k)        -- chain (i,j) then (j,k); directional,
                                  so (i,j,k) and (k,j,i) are distinct parts

No unordered pair of edges is joined by more than one part (shared head +
shared dependent would force the two edges to coincide, and a two-cycle
chain would need k == i).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DataError

__all__ = [
    "Token", "Sentence", "SemGraph", "CandidateEdgeSet", "PartList",
    "build_candidate_edges", "enumerate_parts", "decode", "has_cycle",
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
    """All n^2 candidate edges of a length-n sentence, in a fixed order.

    ``heads`` and ``deps`` hold the edges' endpoints and ``flat`` their
    positions in a row-major (n+1) x (n+1) head-by-dependent matrix; the
    arrays are read-only because one edge set is shared per length.
    """

    __slots__ = ("n", "edges", "index", "heads", "deps", "flat")

    def __init__(self, n, edges):
        self.n = n
        self.edges = edges
        self.index = {e: k for k, e in enumerate(edges)}
        self.heads = np.array([h for h, _ in edges], dtype=np.intp)
        self.deps = np.array([d for _, d in edges], dtype=np.intp)
        self.flat = self.heads * (n + 1) + self.deps
        for arr in (self.heads, self.deps, self.flat):
            arr.setflags(write=False)

    def __len__(self):
        return len(self.edges)


@lru_cache(maxsize=None)
def build_candidate_edges(n):
    if n < 1:
        raise DataError(f"sentence length must be >= 1, got {n}")
    edges = tuple((i, j) for i in range(n + 1) for j in range(1, n + 1) if j != i)
    return CandidateEdgeSet(n, edges)


@dataclass(frozen=True)
class PartList:
    """Enumerated second-order parts over a candidate edge set."""

    n: int
    sib: tuple  # (i, j, k) with j < k; edges (i,j), (i,k)
    cop: tuple  # (i, k, j) with i < k; edges (i,j), (k,j)
    gp: tuple   # (i, j, k); edges (i,j), (j,k)

    def total(self):
        return len(self.sib) + len(self.cop) + len(self.gp)

    def filter(self, use_sib=True, use_cop=True, use_gp=True):
        return PartList(
            self.n,
            self.sib if use_sib else (),
            self.cop if use_cop else (),
            self.gp if use_gp else (),
        )

    def edge_pairs(self):
        """Yield (edge1, edge2, type, part) for every part."""
        for i, j, k in self.sib:
            yield (i, j), (i, k), "sib", (i, j, k)
        for i, k, j in self.cop:
            yield (i, j), (k, j), "cop", (i, k, j)
        for i, j, k in self.gp:
            yield (i, j), (j, k), "gp", (i, j, k)


@lru_cache(maxsize=None)
def _parts_for_n(n):
    rng_all = range(n + 1)
    words = range(1, n + 1)
    sib = tuple(
        (i, j, k)
        for i in rng_all for j in words for k in words
        if j < k and j != i and k != i
    )
    cop = tuple(
        (i, k, j)
        for i in rng_all for k in rng_all for j in words
        if i < k and j != i and j != k
    )
    gp = tuple(
        (i, j, k)
        for i in rng_all for j in words for k in words
        if i != j and j != k and k != i
    )
    return sib, cop, gp


def enumerate_parts(edge_set):
    sib, cop, gp = _parts_for_n(edge_set.n)
    return PartList(edge_set.n, sib, cop, gp)


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
