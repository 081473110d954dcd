"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import sdparse.autodiff as ad
from sdparse.potentials import aligned


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


def pair_list(pot, scores=None):
    """A potential's pairs as ``from_arrays`` entries
    (edge_a, edge_b, score, type_name), in reporting order."""
    scores = pot.part_scores() if scores is None else scores
    return [(a, b, float(s), kind) for (a, b, kind, _), s in zip(pot.pairs(), scores)]


def pair_arrays(pot):
    """(first edge, second edge) index arrays and the scores of a
    potential's pairs, in reporting order: the pair list the dense layout
    replaced."""
    first, second = pot.pair_edges()
    return first, second, pot.part_scores()


def unary_log(pot, edge, value):
    """log phi of one edge variable taking ``value``, read off the grid."""
    if value not in (0, 1):
        raise ValueError("edge variables are Boolean")
    return float(pot.edge_scores.data[tuple(edge)]) if value == 1 else 0.0


def pair_log(pot, pair_idx, value1, value2):
    """log phi of pair ``pair_idx`` (reporting order) at the two values."""
    return float(pot.part_scores()[pair_idx]) if value1 == value2 == 1 else 0.0


def joint_log_score(pot, on_edges):
    """Unnormalized log score of one full assignment (set of on edges)."""
    grid = np.zeros(pot.edge_set.mask.shape, dtype=bool)
    for edge in on_edges:
        grid[tuple(edge)] = True
    on = grid[pot.edge_set.mask]
    first, second = pot.pair_edges()
    return float(pot.unary.data[on].sum()) + float(pot.part_scores()[on[first] & on[second]].sum())


def potential_grads(upstream, state):
    """Gradients of <upstream, Q^(T)> w.r.t. the unary scores (edge order)
    and the pair scores (reporting order) of the LogPotentials an
    inference state ran on (either engine); Q^(T) is read as
    exp(log Q(1)) of the final log-marginals."""
    pot = state.pot
    q = ad.exp(state.final_log_marginals()[1])
    ad.backward([q], [np.asarray(upstream, dtype=np.float64)])
    grid = pot.edge_scores.grad
    # a sib or cop score sits in both orientations' cells
    grads = {kind: s.grad if s.grad is None or kind == "gp" else s.grad + aligned(s.grad, kind)
             for kind, s in pot.scores.items()}
    return {
        "unary": np.zeros(pot.edge_count) if grid is None else grid[pot.edge_set.mask],
        "pairs": pot.gather(grads),
    }


@pytest.fixture
def rng():
    return np.random.default_rng(0)
