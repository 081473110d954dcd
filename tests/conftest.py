"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


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


@pytest.fixture
def rng():
    return np.random.default_rng(0)
