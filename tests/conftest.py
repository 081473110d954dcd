"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import sdparse.autodiff as ad
from sdparse.graph import part_mask
from sdparse.potentials import aligned

from message_reference import directed_messages


def numeric_grad(fn, arrays, step=1e-6):
    """Central finite differences of a scalar function of ``arrays``.

    ``fn`` takes no arguments and reads the arrays in place; the arrays are
    perturbed one coordinate at a time and restored afterwards.
    """
    grads = []
    for arr in arrays:
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            kept = arr[idx]
            arr[idx] = kept + step
            plus = fn()
            arr[idx] = kept - step
            minus = fn()
            arr[idx] = kept
            grad[idx] = (plus - minus) / (2.0 * step)
        grads.append(grad)
    return grads


def part_rows(n):
    """Each part type's stored triples for a length-n sentence, one per
    row: the cells of its ``part_mask``, in row-major order."""
    return {kind: np.argwhere(part_mask(n, kind)) for kind in ("sib", "cop", "gp")}


def unary_scores(pot):
    """The edge scores of a potential in edge order, read off the grid."""
    return pot.edge_scores.data[pot.edge_set.mask]


def part_scores(pot):
    """The part scores of a potential in part order."""
    return pot.gather({kind: s.data for kind, s in pot.scores.items()})


def pair_tuples(pot):
    """(first edge, second edge, part type, stored triple) per pair of a
    potential, in part order: every second of its directed messages."""
    return directed_messages(pot)[1::2]


def pair_list(pot, scores=None):
    """A potential's pairs as ``from_arrays`` entries
    (edge_a, edge_b, score, type_name), in part order."""
    scores = part_scores(pot) if scores is None else scores
    return [(a, b, float(s), kind) for (a, b, kind, _), s in zip(pair_tuples(pot), scores)]


def pair_arrays(pot):
    """(first edge, second edge) index arrays and the scores of a
    potential's pairs, in part order: the pair list the dense layout
    replaced."""
    first, second = pot.pair_edges()
    return first, second, part_scores(pot)


def unary_log(pot, edge, value):
    """log phi of one edge variable taking ``value``, read off the grid."""
    if value not in (0, 1):
        raise ValueError("edge variables are Boolean")
    return float(pot.edge_scores.data[tuple(edge)]) if value == 1 else 0.0


def pair_log(pot, pair_idx, value1, value2):
    """log phi of pair ``pair_idx`` (part order) at the two values."""
    return float(part_scores(pot)[pair_idx]) if value1 == value2 == 1 else 0.0


def joint_log_score(pot, on_edges):
    """Unnormalized log score of one full assignment (set of on edges)."""
    grid = np.zeros(pot.edge_set.mask.shape, dtype=bool)
    for edge in on_edges:
        grid[tuple(edge)] = True
    on = grid[pot.edge_set.mask]
    first, second = pot.pair_edges()
    return float(unary_scores(pot)[on].sum()) + float(part_scores(pot)[on[first] & on[second]].sum())


def log_marginals(state):
    """(log Q(0), log Q(1)) of a state's last iterate as (E,) tensors in
    edge order: -softplus(l) and -softplus(-l) of the last logit grid's
    edge cells, stable for extreme logits."""
    logit = ad.take(ad.reshape(state.logits[-1], (-1,)), np.flatnonzero(state.pot.edge_set.mask))
    return ad.neg(ad.softplus(logit)), ad.neg(ad.softplus(ad.neg(logit)))


def potential_grads(upstream, state):
    """Gradients of <upstream, Q^(T)> w.r.t. the unary scores (edge order)
    and the pair scores (part order) of the LogPotentials an
    inference state ran on (either engine); Q^(T) is read as
    exp(log Q(1)) of the final log-marginals, so the sweep starts at
    log Q(1) seeded with upstream * Q."""
    pot = state.pot
    log_q = log_marginals(state)[1]
    ad.backward(log_q, np.asarray(upstream, dtype=np.float64) * np.exp(log_q.data))
    grid = pot.edge_scores.grad
    # a sib or cop score sits in both orientations' cells
    grads = {kind: s.grad if kind == "gp" else s.grad + aligned(s.grad, kind)
             for kind, s in pot.scores.items() if s.grad is not None}
    return {
        "unary": np.zeros(len(pot.edge_set)) if grid is None else grid[pot.edge_set.mask],
        "pairs": pot.gather(grads),
    }


@pytest.fixture
def rng():
    return np.random.default_rng(0)
