"""The vectorised pair-list loopy BP that the dense (n+1)^3 layout
replaced, kept as a reference for it.

Every enumerated part is one pair of edge positions with one score, read
from its type's one-matmul table; a pair sends one log-odds message each
way, and the messages are gathered and scatter-added with index arrays:

    cavity = logit[src] - r[rev]
    r      = softplus(cavity + s) - softplus(cavity)
    logit  = unary + segment_sum(r, dst)
"""

from __future__ import annotations

import numpy as np

import sdparse.autodiff as ad
from sdparse.graph import PART_EDGE_COLUMNS, part_mask
from sdparse.training import combined_loss, label_loss

PART_TYPE_ORDER = ("sib", "cop", "gp")
# the columns of a stored triple that hold the factors' first edge (a, b)
# and third node c
FACTOR_ORDER = {"sib": (0, 1, 2), "cop": (0, 2, 1), "gp": (0, 1, 2)}


def segment_sum(a, ids, count):
    """out[s] = sum of the entries of ``a`` with ids == s; the backward
    pass is a gather."""
    out = np.zeros(count)
    np.add.at(out, ids, a.data)
    return ad.Tensor(out, requires_grad=a.requires_grad, _parents=(a,),
                     _vjp=lambda g: (g[ids],))


def pair_list(factors):
    """(first, second, scores): member edge positions of every enabled part
    of the sentence and its score tensor, in part-list order."""
    edge_set = factors.edge_set
    N = edge_set.n + 1
    position = edge_set.positions()
    first, second, scores = [], [], []
    for kind in PART_TYPE_ORDER:
        rows = np.argwhere(part_mask(edge_set.n, kind))
        if kind not in factors.tri or not len(rows):
            continue
        (a0, a1), (b0, b1) = PART_EDGE_COLUMNS[kind]
        first.append(position[rows[:, a0], rows[:, a1]])
        second.append(position[rows[:, b0], rows[:, b1]])
        g1, g2, g3 = factors.tri[kind]
        d = g1.shape[1]
        pairs = ad.mul(ad.reshape(g1, (N, 1, d)), ad.reshape(g2, (1, N, d)))
        table = ad.matmul(ad.reshape(pairs, (N * N, d)), ad.transpose(g3))
        a, b, c = (rows[:, col] for col in FACTOR_ORDER[kind])
        scores.append(ad.take(ad.reshape(table, (-1,)), (a * N + b) * N + c))
    if not scores:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty, ad.constant(np.zeros(0))
    return np.concatenate(first), np.concatenate(second), ad.concat(scores)


def pair_list_lbp(unary, first, second, scores, iterations):
    """Final (log b0, log b1) of every edge after ``iterations`` sweeps.

    Direction 2p runs from the second edge of pair p into the first,
    direction 2p+1 the other way.
    """
    P, E = len(first), unary.shape[0]
    src = np.empty(2 * P, dtype=np.intp)
    dst = np.empty(2 * P, dtype=np.intp)
    src[0::2], dst[0::2] = second, first
    src[1::2], dst[1::2] = first, second
    rev = np.arange(2 * P) ^ 1
    coupling = ad.take(scores, np.repeat(np.arange(P), 2))
    ratio = ad.constant(np.zeros(2 * P))
    logit = unary
    for _ in range(iterations):
        cavity = ad.sub(ad.take(logit, src), ad.take(ratio, rev))
        ratio = ad.sub(ad.softplus(ad.add(cavity, coupling)), ad.softplus(cavity))
        logit = ad.add(unary, segment_sum(ratio, dst, E))
    return ad.neg(ad.softplus(logit)), ad.neg(ad.softplus(ad.neg(logit)))


def reference_sentence_loss(model, sentence, gold, cfg):
    """``training.sentence_loss`` with LBP (no dropout) on the pair list,
    its edge term the cross-entropy -sum(gold log b1 + (1 - gold) log b0)
    written out."""
    factors = model.score_factors(sentence)
    first, second, scores = pair_list(factors)
    unary = ad.take(ad.reshape(factors.edge_scores, (-1,)), np.flatnonzero(factors.edge_set.mask))
    log_b0, log_b1 = pair_list_lbp(unary, first, second, scores, cfg.iterations)
    gold_edges = gold.edge_pairs()
    on = np.array([edge in gold_edges for edge in factors.edge_set.edges], dtype=np.float64)
    edge_term = ad.neg(ad.tensor_sum(ad.add(ad.mul(ad.constant(on), log_b1),
                                            ad.mul(ad.constant(1.0 - on), log_b0))))
    return combined_loss(edge_term, label_loss(model, factors, gold), cfg.interpolation)
