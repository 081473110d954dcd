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
probability floors are needed. Updates are synchronous from the previous
iteration's snapshot, and the per-direction coupling is gathered once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad

__all__ = ["MessageState", "lbp_init", "lbp_step", "lbp_run"]


@dataclass
class MessageState:
    """Message log-odds and beliefs per iteration.

    Directed message 2p runs from the second edge of pair p into the
    first; message 2p+1 runs the other way. ``rev`` maps a direction to
    its opposite and ``coupling`` holds each direction's part score.
    ``logit[t]`` is each edge's belief logit and ``log_b0[t]``/``log_b1[t]``
    its normalized log beliefs.
    """

    pot: object
    src: np.ndarray
    dst: np.ndarray
    rev: np.ndarray
    pair_of: np.ndarray
    coupling: object      # Tensor, (D,)
    log_odds: list = field(default_factory=list)  # Tensors, (D,)
    logit: list = field(default_factory=list)     # Tensors, (E,)
    log_b0: list = field(default_factory=list)
    log_b1: list = field(default_factory=list)

    @property
    def iterations(self):
        return len(self.log_b0) - 1

    def q1(self, t=-1):
        return np.exp(self.log_b1[t].data)

    def marginals(self, t=-1):
        q = self.q1(t)
        return {e: float(q[k]) for k, e in enumerate(self.pot.edges)}

    @property
    def marginal_tensor(self):
        return ad.exp(self.log_b1[-1])

    def final_log_marginals(self):
        return self.log_b0[-1], self.log_b1[-1]

    def message_log_ratios(self, t=-1):
        """log m(1) - log m(0) per directed message at iteration t."""
        return self.log_odds[t].data

    def directed_messages(self):
        """(src_edge, dst_edge, part_type, part) per direction index."""
        pot = self.pot
        return [(pot.edges[src], pot.edges[dst]) + pot.pair_part(p)
                for src, dst, p in zip(self.src, self.dst, self.pair_of)]

    def _push_beliefs(self, logit):
        self.logit.append(logit)
        self.log_b0.append(ad.neg(ad.softplus(logit)))
        self.log_b1.append(ad.neg(ad.softplus(ad.neg(logit))))


def _directions(pot):
    P = pot.pair_count
    src = np.empty(2 * P, dtype=np.intp)
    dst = np.empty(2 * P, dtype=np.intp)
    rev = np.empty(2 * P, dtype=np.intp)
    pair_of = np.empty(2 * P, dtype=np.intp)
    src[0::2] = pot.pair_e2
    dst[0::2] = pot.pair_e1
    src[1::2] = pot.pair_e1
    dst[1::2] = pot.pair_e2
    rev[0::2] = np.arange(1, 2 * P, 2)
    rev[1::2] = np.arange(0, 2 * P, 2)
    pair_of[0::2] = np.arange(P)
    pair_of[1::2] = np.arange(P)
    return src, dst, rev, pair_of


def lbp_init(pot):
    """Uniform messages (log-odds 0); initial beliefs are the normalized
    unaries."""
    src, dst, rev, pair_of = _directions(pot)
    state = MessageState(pot, src, dst, rev, pair_of, ad.take(pot.pair_scores, pair_of))
    state.log_odds.append(ad.constant(np.zeros(2 * pot.pair_count)))
    state._push_beliefs(pot.unary)
    return state


def lbp_step(state):
    """One synchronous sweep: all messages from the previous snapshot,
    then fresh beliefs."""
    pot = state.pot
    cavity = ad.sub(ad.take(state.logit[-1], state.src),
                    ad.take(state.log_odds[-1], state.rev))
    ratio = ad.sub(ad.softplus(ad.add(cavity, state.coupling)), ad.softplus(cavity))
    state.log_odds.append(ratio)
    state._push_beliefs(ad.add(pot.unary, ad.segment_sum(ratio, state.dst, pot.edge_count)))
    return state


def lbp_run(pot, iterations=3):
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    state = lbp_init(pot)
    for _ in range(iterations):
        lbp_step(state)
    return state
