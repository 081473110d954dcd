"""Loopy belief propagation over pairwise couplings, checked against hand
message arithmetic, the enumeration oracle on trees, and a slow reference."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sdparse.errors import DataError
from sdparse.exact import exact_infer
from sdparse.lbp import lbp_init, lbp_run, lbp_step, neighbor_sets
from sdparse.graph import build_candidate_edges, enumerate_parts
from sdparse.potentials import from_arrays, potential_grads
from sdparse.synthetic import random_potentials, two_edge_instance

from conftest import numeric_grad


def naive_lbp(pot, iterations):
    """Slow reference: explicit directed messages in probability space
    would underflow, so this follows the same log-space recipe with plain
    loops instead of vectorized gathers."""
    E, P = pot.edge_count, pot.pair_count
    unary = pot.unary.data
    scores = pot.pair_scores.data
    # direction 2p sends e2 -> e1, direction 2p+1 sends e1 -> e2
    src = np.empty(2 * P, dtype=int)
    dst = np.empty(2 * P, dtype=int)
    rev = np.empty(2 * P, dtype=int)
    for p in range(P):
        src[2 * p], dst[2 * p] = pot.pair_e2[p], pot.pair_e1[p]
        src[2 * p + 1], dst[2 * p + 1] = pot.pair_e1[p], pot.pair_e2[p]
        rev[2 * p], rev[2 * p + 1] = 2 * p + 1, 2 * p

    def beliefs(lm0, lm1):
        b0, b1 = np.zeros(E), unary.copy()
        for d in range(2 * P):
            b0[dst[d]] += lm0[d]
            b1[dst[d]] += lm1[d]
        z = np.logaddexp(b0, b1)
        return b0 - z, b1 - z

    lm0 = np.full(2 * P, math.log(0.5))
    lm1 = np.full(2 * P, math.log(0.5))
    b0, b1 = beliefs(lm0, lm1)
    trail = [np.exp(b1)]
    for _ in range(iterations):
        n0, n1 = np.empty_like(lm0), np.empty_like(lm1)
        for d in range(2 * P):
            cav0 = b0[src[d]] - lm0[rev[d]]
            cav1 = b1[src[d]] - lm1[rev[d]]
            m0 = np.logaddexp(cav0, cav1)
            m1 = np.logaddexp(cav0, cav1 + scores[d // 2])
            z = np.logaddexp(m0, m1)
            n0[d], n1[d] = m0 - z, m1 - z
        lm0, lm1 = n0, n1
        b0, b1 = beliefs(lm0, lm1)
        trail.append(np.exp(b1))
    return trail


def test_neighbor_sets_for_two_words():
    parts = enumerate_parts(build_candidate_edges(2))
    nbrs = neighbor_sets(parts)
    got = {(e, kind) for e, kind, _ in nbrs[(0, 1)]}
    assert got == {((0, 2), "sib"), ((2, 1), "cop"), ((1, 2), "gp")}


def test_duplicate_coupling_of_a_pair_is_rejected():
    # a well-formed part list never couples the same unordered pair twice;
    # a hand-built one that does must be refused loudly
    from sdparse.graph import PartList

    broken = PartList(n=2, sib=((0, 1, 2), (0, 1, 2)), cop=(), gp=())
    with pytest.raises(DataError):
        neighbor_sets(broken)


def test_initial_beliefs_are_sigmoid_of_unary():
    pot = from_arrays(((0, 1), (0, 2)), np.array([1.0, -2.0]), [])
    state = lbp_init(pot)
    np.testing.assert_allclose(state.q1(0), 1.0 / (1.0 + np.exp(-pot.unary.data)), atol=1e-14)


def test_messages_stay_normalized():
    pot = random_potentials(3, np.random.default_rng(2), coupling_scale=0.8)
    state = lbp_run(pot, iterations=4)
    for t in range(1, 5):
        total = np.logaddexp(state.log_m0[t].data, state.log_m1[t].data)
        np.testing.assert_allclose(total, 0.0, atol=1e-12)


def test_beliefs_stay_normalized():
    pot = random_potentials(3, np.random.default_rng(2), coupling_scale=0.8)
    state = lbp_run(pot, iterations=4)
    for t in range(5):
        total = np.logaddexp(state.log_b0[t].data, state.log_b1[t].data)
        np.testing.assert_allclose(total, 0.0, atol=1e-12)


def test_two_edge_hand_messages_and_beliefs():
    # coupling log 2, zero unaries: after one round each direction sends
    # (2/5, 3/5) and both beliefs land exactly on the true marginal 0.6
    state = lbp_run(two_edge_instance(math.log(2.0)), iterations=3)
    np.testing.assert_allclose(np.exp(state.log_m0[1].data), 0.4, atol=1e-14)
    np.testing.assert_allclose(np.exp(state.log_m1[1].data), 0.6, atol=1e-14)
    np.testing.assert_allclose(state.message_log_ratios(1), math.log(1.5), atol=1e-14)
    for t in (1, 2, 3):
        np.testing.assert_allclose(state.q1(t), 0.6, atol=1e-14)


def test_single_coupling_is_exact_for_any_strength():
    rng = np.random.default_rng(11)
    for _ in range(10):
        u = rng.normal(size=2)
        s = rng.normal() * 2.0
        pot = from_arrays(((0, 1), (1, 2)), u, [((0, 1), (1, 2), s, "gp")])
        got = lbp_run(pot, iterations=2).q1(2)
        want = exact_infer(pot)
        for k, e in enumerate(pot.edges):
            assert got[k] == pytest.approx(want.marginals[e], abs=1e-9)


def test_chain_of_three_edges_is_exact_after_two_rounds():
    rng = np.random.default_rng(21)
    for _ in range(10):
        u = rng.normal(size=3)
        s1, s2 = rng.normal(size=2)
        pot = from_arrays(
            ((0, 1), (0, 2), (0, 3)),
            u,
            [((0, 1), (0, 2), s1, "sib"), ((0, 2), (0, 3), s2, "sib")],
        )
        want = exact_infer(pot)
        for T in (2, 4):
            got = lbp_run(pot, iterations=T).q1(T)
            for k, e in enumerate(pot.edges):
                assert got[k] == pytest.approx(want.marginals[e], abs=1e-9)


def test_zero_coupling_reduces_to_independent_sigmoids(rng):
    pot = random_potentials(3, rng, unary_scale=2.0, coupling_scale=0.0)
    state = lbp_run(pot, iterations=3)
    want = 1.0 / (1.0 + np.exp(-pot.unary.data))
    for t in range(4):
        np.testing.assert_allclose(state.q1(t), want, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_matches_naive_reference(seed):
    pot = random_potentials(3, np.random.default_rng(seed), coupling_scale=0.6)
    state = lbp_run(pot, iterations=4)
    want = naive_lbp(pot, 4)
    for t in range(5):
        np.testing.assert_allclose(state.q1(t), want[t], atol=1e-12)


def test_no_couplings_keeps_stepping_without_error():
    pot = from_arrays(((0, 1), (0, 2)), np.array([0.3, -0.4]), [])
    state = lbp_step(lbp_init(pot))
    np.testing.assert_allclose(state.q1(1), 1.0 / (1.0 + np.exp(-pot.unary.data)), atol=1e-14)


def test_permutation_equivariance(rng):
    pot = random_potentials(3, rng, coupling_scale=0.5)
    order = rng.permutation(pot.edge_count)
    edges = tuple(pot.edges[i] for i in order)
    pairs = [
        (pot.pair_parts[p][0], pot.pair_parts[p][1],
         pot.pair_scores.data[p], pot.pair_types[p])
        for p in reversed(range(pot.pair_count))
    ]
    shuffled = from_arrays(edges, pot.unary.data[order], pairs)
    a = lbp_run(pot, iterations=3).q1(3)
    b = lbp_run(shuffled, iterations=3).q1(3)
    for k, e in enumerate(pot.edges):
        assert a[k] == pytest.approx(b[edges.index(e)], abs=1e-12)


def test_final_log_marginals_are_consistent():
    state = lbp_run(two_edge_instance(math.log(2.0)), iterations=3)
    log_off, log_on = state.final_log_marginals()
    q = state.q1(3)
    np.testing.assert_allclose(np.exp(log_on.data), q, atol=1e-12)
    np.testing.assert_allclose(np.exp(log_off.data), 1.0 - q, atol=1e-12)


def test_directed_messages_list_both_directions_per_part():
    pot = two_edge_instance(0.3)
    state = lbp_run(pot, iterations=1)
    dirs = state.directed_messages()
    assert len(dirs) == 2
    assert dirs[0][:2] == ((0, 2), (0, 1))
    assert dirs[1][:2] == ((0, 1), (0, 2))


@pytest.mark.parametrize("iterations", [1, 3])
def test_backward_matches_finite_differences(iterations):
    rng = np.random.default_rng(13)
    base = random_potentials(3, rng, coupling_scale=0.3)
    upstream = rng.normal(size=base.edge_count)
    unary0 = base.unary.data.copy()
    scores0 = base.pair_scores.data.copy()
    pairs_meta = [(a, b, k) for (a, b), k in zip(base.pair_parts, base.pair_types)]

    def rebuild(unary, scores, grad=False):
        pairs = [(a, b, s, k) for (a, b, k), s in zip(pairs_meta, scores)]
        return from_arrays(base.edges, unary, pairs, requires_grad=grad)

    pot = rebuild(unary0, scores0, grad=True)
    state = lbp_run(pot, iterations=iterations)
    got = potential_grads(upstream, state)

    def value():
        q = naive_lbp(rebuild(unary0, scores0), iterations)[-1]
        return float(np.dot(upstream, q))

    want_unary, want_scores = numeric_grad(value, [unary0, scores0], step=1e-6)
    np.testing.assert_allclose(got["unary"], want_unary, atol=1e-8)
    np.testing.assert_allclose(got["pairs"], want_scores, atol=1e-8)
