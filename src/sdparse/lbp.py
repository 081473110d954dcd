"""Loopy belief propagation unrolled for a fixed number of iterations.

Because every pairwise factor touches exactly two edge variables,
factor-to-variable and variable-to-factor messages collapse into a single
directed variable-to-variable message per factor direction. For the
message from edge u into edge v through a part with score s:

    cavity(x)   = belief_u(x) - incoming message v->u        (log space)
    m_new(v=0)  = logaddexp(cavity(0), cavity(1))
    m_new(v=1)  = logaddexp(cavity(0), cavity(1) + s)

Messages are renormalized to sum to one after every update; beliefs are
the unary potential plus all incoming messages, renormalized. All
signals live in log space throughout, so no probability floors are
needed; updates are synchronous from the previous iteration's snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log

import numpy as np

from . import autodiff as ad

__all__ = ["MessageState", "lbp_init", "lbp_step", "lbp_run"]


@dataclass
class MessageState:
    """Directed messages and beliefs per iteration, in log space.

    Directed message 2p runs from the second edge of pair p into the
    first; message 2p+1 runs the other way. ``rev`` maps a direction to
    its opposite.
    """

    pot: object
    src: np.ndarray
    dst: np.ndarray
    rev: np.ndarray
    pair_of: np.ndarray
    log_m0: list = field(default_factory=list)  # Tensors, (D,)
    log_m1: list = field(default_factory=list)
    log_b0: list = field(default_factory=list)  # Tensors, (E,)
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
        return self.log_m1[t].data - self.log_m0[t].data

    def directed_messages(self):
        """(src_edge, dst_edge, part_type, part) per direction index."""
        pot = self.pot
        return [(pot.edges[src], pot.edges[dst]) + pot.pair_part(p)
                for src, dst, p in zip(self.src, self.dst, self.pair_of)]


def _beliefs(pot, dst, lm0, lm1):
    E = pot.edge_count
    if pot.pair_count:
        sum0 = ad.segment_sum(lm0, dst, E)
        sum1 = ad.segment_sum(lm1, dst, E)
    else:
        sum0 = ad.constant(np.zeros(E))
        sum1 = ad.constant(np.zeros(E))
    raw0 = sum0
    raw1 = ad.add(pot.unary, sum1)
    z = ad.logaddexp(raw0, raw1)
    return ad.sub(raw0, z), ad.sub(raw1, z)


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
    """Uniform messages; initial beliefs are the normalized unaries."""
    src, dst, rev, pair_of = _directions(pot)
    state = MessageState(pot, src, dst, rev, pair_of)
    uniform = ad.constant(np.full(2 * pot.pair_count, log(0.5)))
    state.log_m0.append(uniform)
    state.log_m1.append(uniform)
    b0, b1 = _beliefs(pot, dst, uniform, uniform)
    state.log_b0.append(b0)
    state.log_b1.append(b1)
    return state


def lbp_step(state):
    """One synchronous sweep: all messages from the previous snapshot,
    then fresh beliefs."""
    pot = state.pot
    if pot.pair_count == 0:
        state.log_m0.append(state.log_m0[-1])
        state.log_m1.append(state.log_m1[-1])
        state.log_b0.append(state.log_b0[-1])
        state.log_b1.append(state.log_b1[-1])
        return state
    lb0, lb1 = state.log_b0[-1], state.log_b1[-1]
    lm0, lm1 = state.log_m0[-1], state.log_m1[-1]
    cav0 = ad.sub(ad.take(lb0, state.src), ad.take(lm0, state.rev))
    cav1 = ad.sub(ad.take(lb1, state.src), ad.take(lm1, state.rev))
    coupl = ad.take(pot.pair_scores, state.pair_of)
    new0 = ad.logaddexp(cav0, cav1)
    new1 = ad.logaddexp(cav0, ad.add(cav1, coupl))
    z = ad.logaddexp(new0, new1)
    state.log_m0.append(ad.sub(new0, z))
    state.log_m1.append(ad.sub(new1, z))
    b0, b1 = _beliefs(pot, state.dst, state.log_m0[-1], state.log_m1[-1])
    state.log_b0.append(b0)
    state.log_b1.append(b1)
    return state


def lbp_run(pot, iterations=3):
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    state = lbp_init(pot)
    for _ in range(iterations):
        lbp_step(state)
    return state
