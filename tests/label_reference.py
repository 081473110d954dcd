"""The grid path that ``ParserModel.label_scores`` replaced, kept as a
reference for it.

The label role vectors' elementwise product is formed on the whole
(n+1) x (n+1) x unary_dim head-by-dependent grid, its candidate-edge cells
are taken in increasing flat order (edge order), and the label weights
and bias score every one of them. The label loss then reads the gold
edges' rows out of that (E, L) table with one ``take``.
"""

from __future__ import annotations

import numpy as np

import sdparse.autodiff as ad


def reference_label_rows(model, factors):
    """(E, L) label scores of every candidate edge, in edge order."""
    N, u = factors.label_head.shape
    pairs = ad.mul(ad.reshape(factors.label_head, (N, 1, u)),
                   ad.reshape(factors.label_dep, (1, N, u)))
    on_edges = ad.take(ad.reshape(pairs, (N * N, u)), np.flatnonzero(factors.edge_set.mask))
    return ad.add(ad.matmul(on_edges, model.params["label_W"]), model.params["label_b"])


def reference_label_loss(model, factors, gold):
    """``training.label_loss`` read from ``reference_label_rows``."""
    cells = np.array(sorted(gold.edge_pairs()), dtype=np.intp).reshape(-1, 2)
    heads, deps = cells[:, 0], cells[:, 1]
    if not len(heads):
        return ad.constant(0.0)
    rows = factors.edge_set.positions()[heads, deps]
    gold_ids = [model.vocab.label_id(gold.label_of(h, d))
                for h, d in zip(heads.tolist(), deps.tolist())]
    picked = ad.take(reference_label_rows(model, factors), rows)
    lse = ad.logsumexp(picked, axis=1)
    flat = np.arange(len(rows)) * picked.shape[1] + gold_ids
    return ad.tensor_sum(ad.sub(lse, ad.take(ad.reshape(picked, (-1,)), flat)))
