"""Mean-field updates unrolled as differentiable layers, checked against a
slow per-edge reference, a scalar recurrence, and finite differences."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sdparse.mf import DEFAULT_CLAMP, mf_init, mf_run, mf_step
from sdparse.potentials import from_arrays
from sdparse.synthetic import random_potentials, two_edge_instance

from conftest import numeric_grad, pair_arrays, pair_list, potential_grads

# the two-edge instance with coupling log 2, iterated to convergence
TWO_EDGE_FIXED_POINT = 0.6029962210857664


def naive_mf(pot, iterations, clamp=DEFAULT_CLAMP):
    """Direct per-edge loops over the coupling table."""

    def clip(x):
        return x if clamp is None else np.clip(x, -clamp, clamp)

    def expit(x):
        return 1.0 / (1.0 + np.exp(-x))

    unary = pot.unary.data
    first, second, scores = pair_arrays(pot)
    qs = [expit(clip(unary.copy()))]
    for _ in range(iterations):
        field = np.zeros_like(unary)
        q = qs[-1]
        for p in range(pot.pair_count):
            a, b = first[p], second[p]
            field[a] += q[b] * scores[p]
            field[b] += q[a] * scores[p]
        qs.append(expit(clip(unary + field)))
    return qs


def mf_second_order_field(state, edge):
    """Field the latest iterate induces on one edge (scalar, by direct
    summation over the parts containing it)."""
    pot = state.pot
    k = pot.edge_set.positions()[tuple(edge)]
    q = state.q1()
    first, second, s = pair_arrays(pot)
    total = 0.0
    for p in range(pot.pair_count):
        if first[p] == k:
            total += q[second[p]] * s[p]
        elif second[p] == k:
            total += q[first[p]] * s[p]
    return total


def test_init_is_sigmoid_of_unary():
    pot = from_arrays(((0, 1), (0, 2)), np.array([1.0, -2.0]), [])
    state = mf_init(pot, DEFAULT_CLAMP)
    np.testing.assert_allclose(state.q1(0), 1.0 / (1.0 + np.exp(-np.array([1.0, -2.0]))), atol=1e-14)


def test_update_field_collects_every_coupled_neighbor():
    # for two words, edge (0,1) sits in exactly one part of each type:
    # a sibling with (0,2), a co-parent with (2,1), a grandparent with (1,2)
    pot = random_potentials(2, np.random.default_rng(5), coupling_scale=0.4)
    state = mf_step(mf_init(pot, DEFAULT_CLAMP))
    idx = {e: k for k, e in enumerate(pot.edges)}
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
    want = pot.unary.data[idx[(0, 1)]] + field
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
    want = 1.0 / (1.0 + np.exp(-pot.unary.data))
    for t in range(4):
        np.testing.assert_allclose(state.q1(t), want, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_matches_naive_reference(seed):
    pot = random_potentials(3, np.random.default_rng(seed), coupling_scale=0.6)
    state = mf_run(pot, iterations=4)
    want = naive_mf(pot, 4)
    assert len(state.qs) == 5
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
    order = rng.permutation(pot.edge_count)
    edges = pot.edges
    pairs = pair_list(pot)[::-1]
    shuffled = from_arrays([edges[i] for i in order], pot.unary.data[order], pairs)
    a = mf_run(pot, iterations=3).marginals(3)
    b = mf_run(shuffled, iterations=3).marginals(3)
    assert list(a) == list(b) == list(edges)
    for e in edges:
        assert a[e] == pytest.approx(b[e], abs=1e-12)


def test_final_log_marginals_are_consistent():
    state = mf_run(two_edge_instance(math.log(2.0)), iterations=3)
    log_off, log_on = state.final_log_marginals()
    q = state.q1(3)
    np.testing.assert_allclose(np.exp(log_on.data), q, atol=1e-12)
    np.testing.assert_allclose(np.exp(log_off.data), 1.0 - q, atol=1e-12)


def test_second_order_field_matches_vectorized_update(rng):
    pot = random_potentials(3, rng, coupling_scale=0.4)
    state = mf_run(pot, iterations=2)
    idx = {e: k for k, e in enumerate(pot.edges)}
    q = state.q1(2)
    field = state.field(state.qs[-1]).data
    for e in pot.edges:
        want = sum(q[idx[b if a == e else a]] * s
                   for a, b, s, _ in pair_list(pot) if e in (a, b))
        assert mf_second_order_field(state, e) == pytest.approx(want, abs=1e-12)
        assert field[e] == pytest.approx(want, abs=1e-12)


def test_coupling_terms_name_both_directions():
    pot = two_edge_instance(math.log(2.0))
    state = mf_run(pot, iterations=1)
    terms = list(state.coupling_terms(1))
    assert len(terms) == 2
    srcs = {(t[0], t[1]) for t in terms}
    assert srcs == {((0, 1), (0, 2)), ((0, 2), (0, 1))}
    for _, _, kind, part, value in terms:
        assert kind == "sib"
        assert part == (0, 1, 2)
        assert value == pytest.approx(0.5 * math.log(2.0))


@pytest.mark.parametrize("iterations", [1, 3])
def test_backward_matches_finite_differences(iterations):
    rng = np.random.default_rng(7)
    base = random_potentials(3, rng, coupling_scale=0.3)
    upstream = rng.normal(size=base.edge_count)
    unary0 = base.unary.data.copy()
    scores0 = base.part_scores()

    def rebuild(unary, scores, grad=False):
        return from_arrays(base.edges, unary, pair_list(base, scores), requires_grad=grad)

    pot = rebuild(unary0, scores0, grad=True)
    state = mf_run(pot, iterations=iterations)
    got = potential_grads(upstream, state)

    def value():
        q = naive_mf(rebuild(unary0, scores0), iterations)[-1]
        return float(np.dot(upstream, q))

    want_unary, want_scores = numeric_grad(value, [unary0, scores0], step=1e-6)
    np.testing.assert_allclose(got["unary"], want_unary, atol=1e-8)
    np.testing.assert_allclose(got["pairs"], want_scores, atol=1e-8)
