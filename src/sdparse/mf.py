"""Mean-field inference unrolled for a fixed number of iterations.

Each edge variable keeps an independent Bernoulli posterior Q. One
synchronous update recomputes every logit from the previous iterate:

    logit^t(e)  =  s_edge(e)  +  sum over parts {e, f} of Q^{t-1}(f) * s_part

so a part couples its two member edges symmetrically: each receives the
partner's current on-probability times the part score. Updates are
Jacobi-style (all edges from the same snapshot), which makes the result
independent of edge order. Logits are clamped to +-clamp before the
sigmoid; the trajectory is kept as (n+1) x (n+1) logit grids
(``potentials.InferenceState``), Q is held at 0 off the edge mask, and
it is differentiable end to end.

The field is computed in one of two ways, with the same result:

* From a ``LogPotentials``' dense score tensors (``_dense_field``): per
  message tensor of ``potentials.MESSAGES``, the source edges' Q times
  the part scores, summed into the targets; O(n^3) per iteration.
  Hand-built instances, ``trace`` and the tests use this form, and the
  state keeps the last iteration's message tensors, so
  ``message_values`` reads each part's two field terms.
* From the scorer's factors (``ScoreFactors``). Every part score is the
  rank-d form sum_m g1[a,m] g2[b,m] g3[c,m] over the part's first edge
  (a, b) and third node c, so the field factorises over m:

    sib  field(i,j) = sum_m g1[i,m] (g2[j,m] sum_{k>j} Q[i,k] g3[k,m]
                                     + g3[j,m] sum_{k<j} Q[i,k] g2[k,m])
    cop  field(h,j) = sum_m g2[j,m] (g1[h,m] sum_{k>h} Q[k,j] g3[k,m]
                                     + g3[h,m] sum_{i<h} Q[i,j] g1[i,m])
    gp   field      = g1 (g2 * Q g3)^T + (g2 * Q^T g1) g3^T - Q^T * (C + C^T)

  where C = (g1 * g3) g2^T removes the two-cycle chains i -> j -> i that
  are not parts. Each strict suffix sum is a total (a matrix product)
  minus an inclusive running sum, and each strict prefix sum a running
  sum minus its own term, so sib and cop each need one running sum over
  their stacked factors, taken and contracted with the leading factor in
  one ``autodiff.prefix_trilinear`` node. An iteration costs O(n^2 d)
  and no part is ever enumerated.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ConfigError
from .potentials import MESSAGES, InferenceState, LogPotentials

__all__ = ["mf_run", "DEFAULT_CLAMP"]

DEFAULT_CLAMP = 30.0


def _clamped(t, clamp):
    return t if clamp is None else ad.clamp(t, -clamp, clamp)


def mf_run(pot, iterations=3, clamp=DEFAULT_CLAMP):
    """Mean-field trajectory of ``iterations`` synchronous updates. ``pot``
    is a ``LogPotentials``, which runs on the dense field, or the scorer's
    ``ScoreFactors``, which runs on the factored one; iteration 0's logits
    are just the unary scores."""
    if iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {iterations}")
    mask = ad.constant(pot.edge_set.mask)
    field = _dense_field(pot) if isinstance(pot, LogPotentials) else _factored_field(pot)
    state = InferenceState(pot, [_clamped(pot.edge_scores, clamp)])
    for _ in range(iterations):
        # Q is 0 off the edge mask, so padding never enters a field
        state.messages, total = field(ad.mul(ad.sigmoid(state.logits[-1]), mask))
        state.logits.append(_clamped(ad.add(pot.edge_scores, total), clamp))
    return state


def _dense_field(pot):
    """Q -> (message tensors s_part * Q_src, field Q induces on every
    (head, dep) cell), from the dense score tensors; O(n^3)."""
    def field(q):
        messages, total = {}, ad.constant(np.zeros(q.shape))
        for name, (kind, source, target, _) in MESSAGES.items():
            if kind in pot.scores:
                shape = q.shape[:source] + (1,) + q.shape[source:]
                messages[name] = ad.mul(pot.scores[kind], ad.reshape(q, shape))
                total = ad.add(total, ad.tensor_sum(messages[name], axis=target))
        return messages, total

    return field


def _factored_field(pot):
    """Q -> ({}, field Q induces on every (head, dep) cell), from one
    running sum per sibling and co-parent type and matrix products over
    the part factors; O(n^2 d). The shared nodes and the grandparent
    two-cycle correction C + C^T are built once per run."""
    tri = pot.tri
    # sib reads rows of Q with factors (g1, g2, g3), cop columns with (g2, g1, g3)
    shared = {kind: _SharedNode(*(tri[kind][i] for i in order))
              for kind, order in (("sib", (0, 1, 2)), ("cop", (1, 0, 2))) if kind in tri}
    if "gp" in tri:
        g1, g2, g3 = tri["gp"]
        cycle = ad.matmul(ad.mul(g1, g3), ad.transpose(g2))
        gp_cycle = ad.add(cycle, ad.transpose(cycle))

    def field(q):
        terms = []
        if "sib" in shared:
            # partners of (i, j) share head i: the grid runs over j = rows of Q^T
            terms.append(ad.transpose(shared["sib"].field(ad.transpose(q))))
        if "cop" in shared:
            # partners of (h, j) share dependent j: the grid runs over h = rows of Q
            terms.append(shared["cop"].field(q))
        if "gp" in tri:
            q_t = ad.transpose(q)
            as_first = ad.matmul(g1, ad.transpose(ad.mul(g2, ad.matmul(q, g3))))
            as_second = ad.matmul(ad.mul(g2, ad.matmul(q_t, g1)), ad.transpose(g3))
            terms.append(ad.sub(ad.add(as_first, as_second), ad.mul(q_t, gp_cycle)))
        if not terms:
            return {}, ad.constant(np.zeros(q.shape))
        total = terms[0]
        for term in terms[1:]:
            total = ad.add(total, term)
        return {}, total

    return field


class _SharedNode:
    """Field of a part type whose two edges share a node, for its factors
    (a, b, c) (sib: (g1, g2, g3), cop: (g2, g1, g3)): ``field(G)`` is
    out[s, r] = F[r, s] for the grid G[s, r] = P[r, s], where

        F[r, s] = sum_m a[r,m] (b[s,m] sum_{k>s} P[r,k] c[k,m]
                                + c[s,m] sum_{k<s} P[r,k] b[k,m]).

    With the inclusive running sums R_x[s, r] = sum_{k<=s} G[k, r] x[k],
    the strict suffix is the total (G^T c)[r] minus R_c[s, r] and the
    strict prefix is R_b[s, r] minus G[s, r] b[s]. The totals and the
    G[s, r] corrections are (n+1)^2 products; both running sums, weighted
    and contracted over m, are one ``prefix_trilinear`` node over the
    stacked factors [b | c]. The stacked factors are built once per run.
    """

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c
        self.stacked = ad.concat([b, c], axis=1)
        self.signed = ad.concat([c, ad.neg(b)], axis=1)
        self.doubled = ad.concat([a, a], axis=1)
        self.diagonal = ad.matmul(ad.mul(b, c), ad.transpose(a))  # the G[s, r] b[s] c[s] a[r] terms

    def field(self, grid):
        running = ad.prefix_trilinear(grid, self.stacked, self.signed, self.doubled)
        totals = ad.matmul(self.b, ad.transpose(
            ad.mul(self.a, ad.matmul(ad.transpose(grid), self.c))))
        return ad.add(running, ad.sub(totals, ad.mul(grid, self.diagonal)))
