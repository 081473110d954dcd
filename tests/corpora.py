"""Test corpora: the coupling-signal corpus of the acceptance suite and a
corpus of SDP format corners for the reader and writer round trip.

``coupling_signal_corpus`` separates second-order from first-order
capacity. Gold structure is a deterministic function of the words that no
edge-factored scorer can express: edge (2,k) is on iff word 1 equals word
k, and word 1 is balanced conditioned on everything edge (2,k) can see,
so the first-order optimum puts exactly probability 0.5 on every such
edge and strict thresholding drops it. Worse for the ablation, hedging
upward cannot rescue it: with one certain word edge and thirteen
coin-flip edges per sentence, even the F1-maximal first-order policy
(include everything ambiguous) scores (2*1 + 2*13/2) / (2*1 + 3*13/2)
which is under 0.70. A grandparent part on the chain (1,2),(2,k) reads
word 1 and word k in one trilinear term, so the second-order model can
express the rule exactly.
"""

from __future__ import annotations

import numpy as np

from sdparse.graph import SemGraph, Sentence, Token


def _sentence(forms, pos):
    return Sentence(tuple(Token(f, f, p) for f, p in zip(forms, pos)))


COUPLING_CORPUS_LENGTH = 15


def coupling_signal_corpus(suffixes=16, seed=20240915):
    """Length-15 sentences over a two-word alphabet; gold needs couplings.

    Gold: (0,1) top and (1,2) always; (2,k) iff word1 == wordk, for every
    k in 3..15. Each sampled suffix (words 2..15) appears twice, once
    with word1 = "a" and once with word1 = "b", so conditioned on
    anything positions 2..15 show, each (2,k) edge is on exactly half
    the time. POS tags identify positions, so with the encoder disabled
    every token vector is position-plus-word local. The sampled suffixes
    are rebalanced until every position in 3..15 shows both words at
    least ``suffixes // 4`` times, keeping both rule outcomes well
    represented for every edge.
    """
    n = COUPLING_CORPUS_LENGTH
    pos = [f"p{i}" for i in range(1, n + 1)]
    rng = np.random.default_rng(seed)
    need = max(1, suffixes // 4)
    while True:
        tails = rng.integers(0, 2, size=(suffixes, n - 1))
        counts = tails.sum(axis=0)
        if np.all(counts >= need) and np.all(counts <= suffixes - need):
            break
    data = []
    for tail in tails:
        tail_words = ["ab"[b] for b in tail]
        for first in "ab":
            words = [first] + tail_words
            edges = [(0, 1, "TOP"), (1, 2, "arg")]
            for k in range(3, n + 1):
                if words[0] == words[k - 1]:
                    edges.append((2, k, "arg"))
            data.append((_sentence(words, pos), SemGraph(n, edges)))
    return data


def roundtrip_corpus(rng, size=50):
    """Corpus exercising the format's corners: multi-predicate tokens,
    cycles, sentences with no top marker, and edgeless sentences."""
    forms = [f"t{i}" for i in range(9)] + ["weird/form", "a:b", "c.d"]
    tags = ["NN", "VB", "JJ"]
    labels = ["ARG1", "ARG2", "loc", "of"]
    data = []
    for idx in range(size):
        n = int(rng.integers(2, 7))
        sent = _sentence([forms[rng.integers(len(forms))] for _ in range(n)],
                         [tags[rng.integers(len(tags))] for _ in range(n)])
        edges = []
        if idx % 5 != 0:  # every fifth sentence has no top edge
            edges.append((0, int(rng.integers(1, n + 1)), "TOP"))
        if idx % 7 == 0 and n >= 3:  # force a cycle
            edges.extend([(1, 2, "ARG1"), (2, 3, "ARG2"), (3, 1, "loc")])
        used = {(h, d) for h, d, _ in edges}
        for head in range(1, n + 1):
            for dep in range(1, n + 1):
                if head != dep and (head, dep) not in used and rng.random() < 0.3:
                    edges.append((head, dep, labels[rng.integers(len(labels))]))
        data.append((sent, SemGraph(n, edges)))
    return data
