"""Mean-field inference unrolled for a fixed number of iterations.

Each edge variable keeps an independent Bernoulli posterior Q. One
synchronous update recomputes every logit from the previous iterate:

    logit^t(e)  =  s_edge(e)  +  sum over parts {e, f} of Q^{t-1}(f) * s_part

so a part couples its two member edges symmetrically: each receives the
partner's current on-probability times the part score. Updates are
Jacobi-style (all edges from the same snapshot), which makes the result
independent of edge order. Logits are clamped to +-clamp before the
sigmoid; the whole trajectory is kept as (n+1) x (n+1) logit and Q grids
(Q held at 0 off the edge mask, ``potentials.InferenceState``) and is
differentiable end to end.

The field is computed in one of two ways, with the same result:

* From a ``LogPotentials``' dense score tensors: per message tensor of
  ``potentials.MESSAGES``, the source edges' Q times the part scores,
  summed into the targets; O(n^3) per iteration. Hand-built instances,
  ``trace`` and the tests use this form, and ``message_values`` reads
  each part's two field terms through the part masks.
* From the scorer's factors (``ScoreFactors``). Every part score is the
  rank-d form sum_m g1[a,m] g2[b,m] g3[c,m] over the part's first edge
  (a, b) and third node c, so the field factorises over m:

    sib  field(i,j) = sum_m g1[i,m] (g2[j,m] sum_{k>j} Q[i,k] g3[k,m]
                                     + g3[j,m] sum_{k<j} Q[i,k] g2[k,m])
    cop  field(h,j) = sum_m g2[j,m] (g1[h,m] sum_{k>h} Q[k,j] g3[k,m]
                                     + g3[h,m] sum_{i<h} Q[i,j] g1[i,m])
    gp   field      = g1 (g2 * Q g3)^T + (g2 * Q^T g1) g3^T - Q^T * (C + C^T)

  where C = (g1 * g3) g2^T removes the two-cycle chains i -> j -> i that
  are not parts. The strict prefix and suffix sums are running sums, so
  an iteration costs O(n^2 d) and no part is ever enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .potentials import MESSAGES, InferenceState, LogPotentials, on_grid

__all__ = ["BeliefState", "FactoredBeliefState", "mf_init", "mf_step", "mf_run",
           "DEFAULT_CLAMP"]

DEFAULT_CLAMP = 30.0


def _clamped(t, clamp):
    return t if clamp is None else ad.clamp(t, -clamp, clamp)


@dataclass
class BeliefState(InferenceState):
    """Mean-field trajectory over a ``LogPotentials``' dense grid.

    Besides the clamped logit grids it keeps qs[t] = sigmoid(logits[t]),
    held at 0 off the edge mask so padding never enters a field.
    """

    clamp: float = DEFAULT_CLAMP
    qs: list = field(default_factory=list)      # Tensors, (n+1, n+1)
    mask: Tensor = field(init=False, default=None)  # 1 on candidate edges

    def __post_init__(self):
        self.mask = ad.constant(self.pot.edge_set.mask.astype(np.float64))

    @staticmethod
    def _q(logit):
        return ad.sigmoid(logit).data

    def message_values(self, t=-1):
        """Q^{t-1}(src) * s_part per directed message: the signed field
        terms that built iteration t (t >= 1 or negative), in
        ``directed_messages()`` order."""
        q = self.qs[t - 1].data[self.pot.edge_set.mask]
        first, second = self.pot.pair_edges()
        scores = self.pot.part_scores()
        return np.stack([q[second] * scores, q[first] * scores], axis=1).reshape(-1)

    def field(self, q):
        """Field Q induces on every (head, dep) cell, from the dense score
        tensors; O(n^3)."""
        total = ad.constant(np.zeros(q.shape))
        for kind, source, target, _ in MESSAGES.values():
            if kind in self.pot.scores:
                terms = ad.mul(self.pot.scores[kind], on_grid(q, source))
                total = ad.add(total, ad.tensor_sum(terms, axis=target))
        return total

    def push(self, raw_logit):
        """Append the iterate for one raw (unclamped) logit tensor."""
        logit = _clamped(raw_logit, self.clamp)
        self.logits.append(logit)
        self.qs.append(ad.mul(ad.sigmoid(logit), self.mask))


@dataclass
class FactoredBeliefState(BeliefState):
    """Mean-field trajectory over a ``ScoreFactors``' dense grid, with the
    factored field."""

    gp_cycle: Tensor = field(init=False, default=None)  # C + C^T of the gp factors

    def __post_init__(self):
        super().__post_init__()
        if "gp" in self.pot.tri:
            g1, g2, g3 = self.pot.tri["gp"]
            cycle = ad.matmul(ad.mul(g1, g3), ad.transpose(g2))
            self.gp_cycle = ad.add(cycle, ad.transpose(cycle))

    def field(self, q):
        """Field Q induces on every (head, dep) cell, from running sums and
        matrix products over the part factors; O(n^2 d)."""
        n1 = q.shape[0]
        cells = ad.reshape(q, (n1, n1, 1))
        terms = []
        tri = self.pot.tri
        if "sib" in tri:
            # partners of (i, j) share head i: rows of Q, summed over k > j, k < j
            g1, g2, g3 = tri["sib"]
            inner = ad.add(ad.mul(g2, _after(ad.mul(cells, g3), axis=1)),
                           ad.mul(g3, _before(ad.mul(cells, g2), axis=1)))
            terms.append(ad.tensor_sum(ad.mul(_column(g1), inner), axis=2))
        if "cop" in tri:
            # partners of (h, j) share dependent j: columns of Q, over k > h, i < h
            g1, g2, g3 = tri["cop"]
            g1, g3 = _column(g1), _column(g3)
            inner = ad.add(ad.mul(g1, _after(ad.mul(cells, g3), axis=0)),
                           ad.mul(g3, _before(ad.mul(cells, g1), axis=0)))
            terms.append(ad.tensor_sum(ad.mul(g2, inner), axis=2))
        if "gp" in tri:
            g1, g2, g3 = tri["gp"]
            q_t = ad.transpose(q)
            as_first = ad.matmul(g1, ad.transpose(ad.mul(g2, ad.matmul(q, g3))))
            as_second = ad.matmul(ad.mul(g2, ad.matmul(q_t, g1)), ad.transpose(g3))
            terms.append(ad.sub(ad.add(as_first, as_second), ad.mul(q_t, self.gp_cycle)))
        if not terms:
            return ad.constant(np.zeros((n1, n1)))
        total = terms[0]
        for term in terms[1:]:
            total = ad.add(total, term)
        return total


def _column(g):
    """(n+1, d) factor as (n+1, 1, d), to broadcast along dependents."""
    return ad.reshape(g, (g.shape[0], 1, g.shape[1]))


def _after(x, axis):
    """Strict suffix sums along ``axis``: out[k] = sum of x[l] for l > k."""
    return ad.sub(ad.tensor_sum(x, axis=axis, keepdims=True), ad.cumsum(x, axis))


def _before(x, axis):
    """Strict prefix sums along ``axis``: out[k] = sum of x[l] for l < k."""
    return ad.sub(ad.cumsum(x, axis), x)


def mf_init(pot, clamp=DEFAULT_CLAMP):
    """Iteration 0: posterior logits are just the unary scores.

    ``pot`` is a ``LogPotentials`` or the scorer's ``ScoreFactors``; the
    latter runs on the factored field.
    """
    state_type = BeliefState if isinstance(pot, LogPotentials) else FactoredBeliefState
    state = state_type(pot, clamp=clamp)
    state.push(pot.edge_scores)
    return state


def mf_step(state):
    """Append one synchronous update to the trajectory."""
    state.push(ad.add(state.pot.edge_scores, state.field(state.qs[-1])))
    return state


def mf_run(pot, iterations=3, clamp=DEFAULT_CLAMP):
    if iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {iterations}")
    state = mf_init(pot, clamp)
    for _ in range(iterations):
        mf_step(state)
    return state
