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

Each update is one ``softplus_shift`` node of the cavity (the source grid
broadcast along one axis minus the aligned reverse tensor) against the
type's score tensor. A score tensor is 0 off its type's geometry, and
softplus(c + 0) - softplus(c) is exactly 0, so no message needs a mask.
Updates are synchronous; messages start at 0. The state keeps the grid
l of each iteration and reads the edges' beliefs from it through the
edge mask (``potentials.InferenceState``), so b1 = exp(-softplus(-l)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError
from .potentials import FORWARD, MESSAGES, InferenceState, aligned, on_grid

__all__ = ["MessageState", "lbp_init", "lbp_step", "lbp_run"]


@dataclass
class MessageState(InferenceState):
    """Message log-odds and beliefs per iteration: ``messages[t]`` maps
    each name of ``potentials.MESSAGES`` to its (n+1)^3 log-odds tensor
    ({} at t = 0, when every message is 0), and ``logits[t]`` is the grid
    of belief logits."""

    messages: list = field(default_factory=list)  # dicts of Tensors, (n+1)^3

    @staticmethod
    def _q(logit):
        # b1 = exp(log b1), as the loss reads it
        return np.exp(-ad.softplus(-logit).data)

    def message_log_ratios(self, t=-1):
        """log m(1) - log m(0) per directed message at iteration t: for
        each pair in the potentials' reporting order, first the message
        from its second edge into its first, then the reverse."""
        messages, out = self.messages[t], []
        for kind, rows in self.pot.blocks():
            pair = np.zeros((len(rows), 2))
            if messages and len(rows):
                cells, forward = tuple(rows.T), FORWARD[kind]
                pair[:, 0] = aligned(messages[MESSAGES[forward][3]].data, kind)[cells]
                pair[:, 1] = messages[forward].data[cells]
            out.append(pair.reshape(-1))
        return np.concatenate(out)

    def directed_messages(self):
        """(src_edge, dst_edge, part_type, part) per direction, in the
        order of ``message_log_ratios``."""
        return [message for a, b, kind, part in self.pot.pairs()
                for message in ((b, a, kind, part), (a, b, kind, part))]


def lbp_init(pot):
    """Uniform messages (log-odds 0); initial beliefs are the normalized
    unaries."""
    state = MessageState(pot)
    state.messages.append({})
    state.logits.append(pot.edge_scores)
    return state


def lbp_step(state):
    """One synchronous sweep: all messages from the previous snapshot,
    then fresh beliefs."""
    pot = state.pot
    logit, previous = state.logits[-1], state.messages[-1]
    messages = {}
    total = pot.edge_scores
    for name, (kind, source, target, reverse) in MESSAGES.items():
        if kind not in pot.scores:
            continue
        cavity = on_grid(logit, source)
        if previous:
            cavity = ad.sub(cavity, aligned(previous[reverse], kind))
        messages[name] = ad.softplus_shift(cavity, pot.scores[kind])
        total = ad.add(total, ad.tensor_sum(messages[name], axis=target))
    state.messages.append(messages)
    state.logits.append(total)
    return state


def lbp_run(pot, iterations=3):
    if iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {iterations}")
    state = lbp_init(pot)
    for _ in range(iterations):
        lbp_step(state)
    return state
