"""Mean-field updates unrolled as differentiable layers, checked against a
slow per-edge reference, a scalar recurrence, and finite differences."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sdparse.mf import DEFAULT_CLAMP, mf_run
from sdparse.potentials import from_arrays
from sdparse.synthetic import random_potentials, two_edge_instance

from conftest import (numeric_grad, pair_arrays, pair_list, part_scores, potential_grads,
                      unary_scores)

# the two-edge instance with coupling log 2, iterated to convergence
TWO_EDGE_FIXED_POINT = 0.6029962210857664


def naive_mf(pot, iterations, clamp=DEFAULT_CLAMP):
    """Direct per-edge loops over the coupling table."""

    def clip(x):
        return x if clamp is None else np.clip(x, -clamp, clamp)

    def expit(x):
        return 1.0 / (1.0 + np.exp(-x))

    unary = unary_scores(pot)
    first, second, scores = pair_arrays(pot)
    qs = [expit(clip(unary.copy()))]
    for _ in range(iterations):
        field = np.zeros_like(unary)
        q = qs[-1]
        for p in range(len(scores)):
            a, b = first[p], second[p]
            field[a] += q[b] * scores[p]
            field[b] += q[a] * scores[p]
        qs.append(expit(clip(unary + field)))
    return qs


def mf_second_order_field(state, edge, t=-1):
    """Field iterate t induces on one edge (scalar, by direct summation
    over the parts containing it)."""
    pot = state.pot
    k = pot.edge_set.positions()[tuple(edge)]
    q = state.q1(t)
    first, second, s = pair_arrays(pot)
    total = 0.0
    for p in range(len(s)):
        if first[p] == k:
            total += q[second[p]] * s[p]
        elif second[p] == k:
            total += q[first[p]] * s[p]
    return total


def test_init_is_sigmoid_of_unary():
    pot = from_arrays(((0, 1), (0, 2)), np.array([1.0, -2.0]), [])
    state = mf_run(pot, 1)
    np.testing.assert_allclose(state.q1(0), 1.0 / (1.0 + np.exp(-np.array([1.0, -2.0]))), atol=1e-14)


def test_update_field_collects_every_coupled_neighbor():
    # for two words, edge (0,1) sits in exactly one part of each type:
    # a sibling with (0,2), a co-parent with (2,1), a grandparent with (1,2)
    pot = random_potentials(2, np.random.default_rng(5), coupling_scale=0.4)
    state = mf_run(pot, 1)
    idx = {e: k for k, e in enumerate(pot.edge_set.edges)}
    q0 = state.q1(0)
    partner_and_score = {}
    for ea, eb, score, kind in pair_list(pot):
        if ea == (0, 1):
            partner_and_score[kind] = (eb, score)
        elif eb == (0, 1):
            partner_and_score[kind] = (ea, score)
    assert set(partner_and_score) == {"sib", "cop", "gp"}
    assert partner_and_score["sib"][0] == (0, 2)
    assert partner_and_score["cop"][0] == (2, 1)
    assert partner_and_score["gp"][0] == (1, 2)
    field = sum(q0[idx[e]] * s for e, s in partner_and_score.values())
    want = unary_scores(pot)[idx[(0, 1)]] + field
    assert state.logits[1].data[0, 1] == pytest.approx(want, abs=1e-12)


def test_two_edge_trajectory_matches_scalar_recurrence():
    coupling = math.log(2.0)
    state = mf_run(two_edge_instance(coupling), iterations=3)
    q = 0.5
    for t in range(4):
        np.testing.assert_allclose(state.q1(t), q, atol=1e-14)
        q = 1.0 / (1.0 + math.exp(-coupling * q))


def test_two_edge_trajectory_frozen_values():
    state = mf_run(two_edge_instance(math.log(2.0)), iterations=3)
    for t, want in enumerate([0.5, 0.585786, 0.600137, 0.602522]):
        np.testing.assert_allclose(state.q1(t), want, atol=1e-6)


def test_two_edge_fixed_point():
    state = mf_run(two_edge_instance(math.log(2.0)), iterations=200)
    np.testing.assert_allclose(state.q1(200), TWO_EDGE_FIXED_POINT, atol=1e-12)


def test_zero_coupling_reduces_to_independent_sigmoids(rng):
    pot = random_potentials(3, rng, unary_scale=2.0, coupling_scale=0.0)
    state = mf_run(pot, iterations=3)
    want = 1.0 / (1.0 + np.exp(-unary_scores(pot)))
    for t in range(4):
        np.testing.assert_allclose(state.q1(t), want, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_matches_naive_reference(seed):
    pot = random_potentials(3, np.random.default_rng(seed), coupling_scale=0.6)
    state = mf_run(pot, iterations=4)
    want = naive_mf(pot, 4)
    assert len(state.logits) == 5
    for t in range(5):
        np.testing.assert_allclose(state.q1(t), want[t], atol=1e-12)


def test_clamp_saturates_and_none_disables():
    pot = from_arrays(((0, 1),), np.array([100.0]), [])
    clamped = mf_run(pot, iterations=1)
    assert clamped.logits[0].data[0, 1] == pytest.approx(30.0)
    assert clamped.logits[1].data[0, 1] == pytest.approx(30.0)
    pot2 = from_arrays(((0, 1),), np.array([100.0]), [])
    free = mf_run(pot2, iterations=1, clamp=None)
    assert free.logits[1].data[0, 1] == pytest.approx(100.0)


def test_iterations_must_be_positive():
    with pytest.raises(ValueError):
        mf_run(two_edge_instance(0.1), iterations=0)


def test_permutation_equivariance(rng):
    pot = random_potentials(3, rng, coupling_scale=0.5)
    order = rng.permutation(len(pot.edge_set))
    edges = pot.edge_set.edges
    pairs = pair_list(pot)[::-1]
    shuffled = from_arrays([edges[i] for i in order], unary_scores(pot)[order], pairs)
    a = mf_run(pot, iterations=3).marginals()
    b = mf_run(shuffled, iterations=3).marginals()
    assert list(a) == list(b) == list(edges)
    for e in edges:
        assert a[e] == pytest.approx(b[e], abs=1e-12)


def test_second_order_field_matches_vectorized_update(rng):
    pot = random_potentials(3, rng, coupling_scale=0.4)
    state = mf_run(pot, iterations=3, clamp=None)
    idx = {e: k for k, e in enumerate(pot.edge_set.edges)}
    q = state.q1(2)
    # the field Q^2 induced is what iteration 3 added to the unary scores
    field = state.logits[3].data - pot.edge_scores.data
    for e in pot.edge_set.edges:
        want = sum(q[idx[b if a == e else a]] * s
                   for a, b, s, _ in pair_list(pot) if e in (a, b))
        assert mf_second_order_field(state, e, 2) == pytest.approx(want, abs=1e-12)
        assert field[e] == pytest.approx(want, abs=1e-12)


def test_message_values_name_both_directions():
    # unequal unaries, so the two directions carry different values
    pot = from_arrays(((0, 1), (0, 2)), (1.0, -0.5), [((0, 1), (0, 2), math.log(2.0), "sib")],
                      requires_grad=False)
    state = mf_run(pot, iterations=2)
    assert state.directed_messages() == [((0, 2), (0, 1), "sib", (0, 1, 2)),
                                         ((0, 1), (0, 2), "sib", (0, 1, 2))]
    for t in (1, 2):
        # each direction carries Q^(t-1) of its source times the part score
        q = state.q1(t - 1)
        np.testing.assert_allclose(mf_run(pot, iterations=t).message_values(),
                                   [q[1] * math.log(2.0), q[0] * math.log(2.0)],
                                   rtol=0, atol=1e-15)
    first = mf_run(pot, iterations=1).message_values()
    assert first[0] < first[1]


@pytest.mark.parametrize("iterations", [1, 3])
def test_backward_matches_finite_differences(iterations):
    rng = np.random.default_rng(7)
    base = random_potentials(3, rng, coupling_scale=0.3)
    upstream = rng.normal(size=len(base.edge_set))
    unary0 = unary_scores(base).copy()
    scores0 = part_scores(base)

    def rebuild(unary, scores, grad=False):
        return from_arrays(base.edge_set.edges, unary, pair_list(base, scores), requires_grad=grad)

    pot = rebuild(unary0, scores0, grad=True)
    state = mf_run(pot, iterations=iterations)
    got = potential_grads(upstream, state)

    def value():
        q = naive_mf(rebuild(unary0, scores0), iterations)[-1]
        return float(np.dot(upstream, q))

    want_unary, want_scores = numeric_grad(value, [unary0, scores0], step=1e-6)
    np.testing.assert_allclose(got["unary"], want_unary, atol=1e-8)
    np.testing.assert_allclose(got["pairs"], want_scores, atol=1e-8)
