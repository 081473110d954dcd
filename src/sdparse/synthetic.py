"""Synthetic instances and corpora for tests, demos, and the CLI's
oracle-comparison command.
"""

from __future__ import annotations

import numpy as np

from .graph import SemGraph, Sentence, Token, build_candidate_edges, part_mask
from .potentials import PART_TYPE_ORDER, _scatter, from_arrays

__all__ = ["random_potentials", "two_edge_instance", "toy_corpus"]


def random_potentials(n, rng, unary_scale=1.0, coupling_scale=0.1):
    """Full candidate-set potentials with Gaussian scores, as constants:
    the unaries in edge order, then the parts in part order (each part
    mask's row-major order, sib, cop, then gp)."""
    edge_set = build_candidate_edges(n)
    masks = {kind: part_mask(n, kind) for kind in PART_TYPE_ORDER} if n > 1 else {}
    unary = rng.normal(0.0, unary_scale, size=len(edge_set))
    scores = rng.normal(0.0, coupling_scale, size=sum(map(np.count_nonzero, masks.values())))
    return _scatter(edge_set, unary, masks, scores, requires_grad=False)


def two_edge_instance(coupling, unaries=(0.0, 0.0)):
    """Two edge variables joined by a single sibling part, as constants."""
    edges = ((0, 1), (0, 2))
    pairs = [((0, 1), (0, 2), coupling, "sib")]
    return from_arrays(edges, unaries, pairs, requires_grad=False)


def _sentence(forms, pos):
    return Sentence(tuple(Token(f, f, p) for f, p in zip(forms, pos)))


def toy_corpus(rng, size=10, min_len=3, max_len=5):
    """Random small sentences with random sparse graphs; memorizable."""
    forms = [f"w{i}" for i in range(12)]
    tags = ["N", "V", "A", "D"]
    labels = ["arg0", "arg1", "mod"]
    data = []
    for _ in range(size):
        n = int(rng.integers(min_len, max_len + 1))
        sent = _sentence([forms[rng.integers(len(forms))] for _ in range(n)],
                         [tags[rng.integers(len(tags))] for _ in range(n)])
        edges = [(0, int(rng.integers(1, n + 1)), "TOP")]
        for head in range(1, n + 1):
            for dep in range(1, n + 1):
                if head != dep and rng.random() < 0.25:
                    edges.append((head, dep, labels[rng.integers(len(labels))]))
        data.append((sent, SemGraph(n, edges)))
    return data
