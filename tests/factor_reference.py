"""The chain of tape nodes that ``potentials.from_factors``' one node per
part type replaced, kept as a reference for it.

Each part type's table is the ``linear`` node of a ``mul`` of the reshaped
factors g1 and g2 against g3, reshaped to (n+1)^3; cop's is brought into
the message layout by a transpose node. It is multiplied by the part
mask (a boolean constant), and a symmetric type adds its mirror image
through a second ``transpose`` and an ``add``. The chain keeps every
intermediate (n+1)^3 array on the tape until its backward is freed.
"""

from __future__ import annotations

import sdparse.autodiff as ad
from sdparse.graph import part_mask
from sdparse.potentials import LogPotentials

from message_reference import aligned_tensor, transpose_node


def reference_from_factors(factors):
    """``potentials.from_factors`` as the chain of tape nodes."""
    n = factors.edge_set.n
    scores, masks = {}, {}
    for kind, (g1, g2, g3) in factors.tri.items() if n > 1 else ():
        N, d = g1.shape
        pairs = ad.reshape(ad.mul(ad.reshape(g1, (N, 1, d)), ad.reshape(g2, (1, N, d))),
                           (N * N, d))
        table = ad.reshape(ad.linear(pairs, g3), (N, N, N))
        if kind == "cop":
            table = transpose_node(table, (0, 2, 1))
        masks[kind] = part_mask(n, kind)
        s = ad.mul(table, ad.constant(masks[kind]))
        scores[kind] = ad.add(s, aligned_tensor(s, kind)) if kind in ("sib", "cop") else s
    return LogPotentials(factors.edge_set, factors.edge_scores, scores, masks)
