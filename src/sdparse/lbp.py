"""Loopy belief propagation unrolled for a fixed number of iterations.

Because every pairwise factor touches exactly two edge variables,
factor-to-variable and variable-to-factor messages collapse into a single
directed variable-to-variable message per factor direction. Every message
is normalized, so it is carried as its log-odds r = log m(1) - log m(0).
With l the belief logit of each edge, the message from edge u into edge v
through a part with score s is

    cavity      c     = l[u] - r[v->u]
    message     r_new = softplus(c + s) - softplus(c)

and the beliefs are

    l      = unary + sum of the incoming r_new
    log b1 = -softplus(-l),   log b0 = -softplus(l).

This is the normalized log-space recipe (m(0) = logaddexp(cav0, cav1),
m(1) = logaddexp(cav0, cav1 + s)) with the common cav0 divided out, so no
probability floors are needed.

l is an (n+1) x (n+1) head-by-dependent grid, and the messages are dense
(n+1)^3 tensors, one per direction of each part type
(``potentials.MESSAGES``):

    type     tensor      carries          reverse message   incoming sum
    sib      r[i,j,k]    (i,j) -> (i,k)   r[i,k,j]          over axis 1
    cop      r[i,k,j]    (i,j) -> (k,j)   r[k,i,j]          over axis 0
    gp down  d[i,j,k]    (i,j) -> (j,k)   u                 over axis 0
    gp up    u[i,j,k]    (j,k) -> (i,j)   d                 over axis 2

Each update is one ``autodiff.cavity_message`` node, in one
``potentials.sweep``: it takes the source grid broadcast along one axis,
the aligned reverse tensor (none on the first sweep) and the type's score
tensor s, and computes the message as

    r_new = log1p(logistic(c) * E),   E = expm1(s),

with one exponential, for logistic(c). E depends only on the scores, so
``lbp_run`` computes it once per part type (``autodiff.message_shift``)
for both directions and every sweep. Cells where logistic(c) * E < -1/2
(1 + it could cancel) or |s| > ``autodiff.SHIFT_BOUND`` take the
two-softplus form above. A score tensor is 0 off its type's geometry,
where E = 0 and the message is exactly 0, so no message needs a mask.
Updates are synchronous; messages start at 0.
The state (``potentials.InferenceState``) keeps the grid l and the
message tensors of each iteration and reads the edges' beliefs from l
through the edge mask: b1 = exp(-softplus(-l)) is the logistic of l.
"""

from __future__ import annotations

from . import autodiff as ad
from .errors import ConfigError
from .potentials import InferenceState, aligned, sweep

__all__ = ["lbp_run"]


def lbp_run(pot, iterations=3):
    """Belief trajectory of ``iterations`` synchronous sweeps, each sending
    every message from the previous snapshot, then summing fresh beliefs.
    Messages start uniform (log-odds 0), so iteration 0's beliefs are the
    normalized unaries."""
    if iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {iterations}")
    state = InferenceState(pot, [pot.edge_scores], [{}])
    shifts = {kind: ad.message_shift(s.data) for kind, s in pot.scores.items()}

    def update(kind, reverse, source):
        # the state grows after the sweep, so its last messages are the
        # previous iteration's
        previous = state.messages[-1]
        return ad.cavity_message(source, aligned(previous[reverse], kind) if previous else None,
                                 pot.scores[kind], shifts[kind])

    for _ in range(iterations):
        messages, logit = sweep(pot, state.logits[-1], update, pot.edge_scores)
        state.logits.append(logit)
        state.messages.append(messages)
    return state
