"""Loopy belief propagation over pairwise couplings, checked against hand
message arithmetic, the enumeration oracle on trees, a slow per-message
reference, and the vectorised pair-list engine the dense layout replaced."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sdparse.config import RunConfig
from sdparse.exact import exact_infer
from sdparse.lbp import lbp_init, lbp_run, lbp_step
from sdparse.model import ParserModel
from sdparse.potentials import PART_TYPE_ORDER, from_arrays, from_parts
from sdparse.sdp_io import build_vocab
from sdparse.synthetic import random_potentials, toy_corpus, two_edge_instance
from sdparse.training import TrainConfig, sentence_loss

from conftest import numeric_grad, pair_arrays, pair_list, potential_grads
from pair_list_reference import reference_sentence_loss


def naive_lbp(pot, iterations):
    """Slow reference: explicit directed messages in probability space
    would underflow, so this follows the same log-space recipe with plain
    loops over the pair list instead of dense tensors. Returns the
    per-iteration edge marginals and log m(1) - log m(0) of every directed
    message."""
    E, P = pot.edge_count, pot.pair_count
    unary = pot.unary.data
    first, second, scores = pair_arrays(pot)
    # direction 2p sends e2 -> e1, direction 2p+1 sends e1 -> e2
    src = np.empty(2 * P, dtype=int)
    dst = np.empty(2 * P, dtype=int)
    rev = np.empty(2 * P, dtype=int)
    for p in range(P):
        src[2 * p], dst[2 * p] = second[p], first[p]
        src[2 * p + 1], dst[2 * p + 1] = first[p], second[p]
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
    ratios = [lm1 - lm0]
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
        ratios.append(lm1 - lm0)
    return trail, ratios


def test_initial_beliefs_are_sigmoid_of_unary():
    pot = from_arrays(((0, 1), (0, 2)), np.array([1.0, -2.0]), [])
    state = lbp_init(pot)
    np.testing.assert_allclose(state.q1(0), 1.0 / (1.0 + np.exp(-pot.unary.data)), atol=1e-14)


def test_message_log_odds_match_normalized_reference():
    pot = random_potentials(3, np.random.default_rng(2), coupling_scale=0.8)
    state = lbp_run(pot, iterations=4)
    _, want = naive_lbp(pot, 4)
    for t in range(1, 5):
        np.testing.assert_allclose(state.message_log_ratios(t), want[t], atol=1e-12)


def test_beliefs_stay_normalized():
    pot = random_potentials(3, np.random.default_rng(2), coupling_scale=0.8)
    states = [lbp_init(pot)] + [lbp_run(pot, iterations=t) for t in range(1, 5)]
    for state in states:
        log_b0, log_b1 = state.final_log_marginals()
        total = np.logaddexp(log_b0.data, log_b1.data)
        np.testing.assert_allclose(total, 0.0, atol=1e-12)


def test_two_edge_hand_messages_and_beliefs():
    # coupling log 2, zero unaries: after one round each direction sends
    # (2/5, 3/5) and both beliefs land exactly on the true marginal 0.6
    state = lbp_run(two_edge_instance(math.log(2.0)), iterations=3)
    ratio = state.message_log_ratios(1)
    np.testing.assert_allclose(1.0 / (1.0 + np.exp(ratio)), 0.4, atol=1e-14)
    np.testing.assert_allclose(1.0 / (1.0 + np.exp(-ratio)), 0.6, atol=1e-14)
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


def _without(pot, kind):
    """``pot`` with every part of one type (or none) removed."""
    parts = pot.parts
    keep = [k != kind for k in PART_TYPE_ORDER]
    mask = np.repeat(keep, [len(getattr(parts, k)) for k in PART_TYPE_ORDER])
    return from_parts(pot.edge_set, pot.unary.data, parts.filter(*keep),
                      pot.part_scores()[mask], requires_grad=False)


@pytest.mark.parametrize("off", [None, "sib", "cop", "gp"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_dense_messages_match_naive_reference(n, off):
    pot = _without(random_potentials(n, np.random.default_rng(40 + n), coupling_scale=0.7), off)
    state = lbp_run(pot, iterations=4)
    want_q, want_ratios = naive_lbp(pot, 4)
    assert state.message_log_ratios(0).shape == (2 * pot.pair_count,)
    for t in range(1, 5):
        np.testing.assert_allclose(state.q1(t), want_q[t], rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.message_log_ratios(t), want_ratios[t],
                                   rtol=0, atol=1e-12)
    if off is not None:
        assert off not in pot.scores and not len(getattr(pot.parts, off))


def test_message_order_follows_the_parts():
    # a sib, a cop and a gp pair over five edges, given in mixed order and
    # with the symmetric pairs' edges swapped
    edges = ((0, 1), (0, 2), (2, 1), (1, 3), (3, 2))
    pot = from_arrays(edges, np.zeros(5), [((1, 3), (3, 2), 0.5, "gp"),
                                            ((0, 2), (0, 1), 0.25, "sib"),
                                            ((2, 1), (0, 1), -0.5, "cop")])
    assert pot.pairs() == [((0, 1), (0, 2), "sib", (0, 1, 2)),
                           ((0, 1), (2, 1), "cop", (0, 2, 1)),
                           ((1, 3), (3, 2), "gp", (1, 3, 2))]
    np.testing.assert_array_equal(pot.part_scores(), [0.25, -0.5, 0.5])
    state = lbp_run(pot, iterations=2)
    assert [d[:2] for d in state.directed_messages()] == [
        ((0, 2), (0, 1)), ((0, 1), (0, 2)), ((2, 1), (0, 1)), ((0, 1), (2, 1)),
        ((3, 2), (1, 3)), ((1, 3), (3, 2))]
    np.testing.assert_allclose(state.message_log_ratios(2), naive_lbp(pot, 2)[1][2],
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_matches_naive_reference(seed):
    pot = random_potentials(3, np.random.default_rng(seed), coupling_scale=0.6)
    state = lbp_run(pot, iterations=4)
    want, _ = naive_lbp(pot, 4)
    for t in range(5):
        np.testing.assert_allclose(state.q1(t), want[t], atol=1e-12)


def test_no_couplings_keeps_stepping_without_error():
    pot = from_arrays(((0, 1), (0, 2)), np.array([0.3, -0.4]), [])
    state = lbp_step(lbp_init(pot))
    np.testing.assert_allclose(state.q1(1), 1.0 / (1.0 + np.exp(-pot.unary.data)), atol=1e-14)


def test_permutation_equivariance(rng):
    pot = random_potentials(3, rng, coupling_scale=0.5)
    order = rng.permutation(pot.edge_count)
    edges = pot.edges
    pairs = pair_list(pot)[::-1]
    shuffled = from_arrays([edges[i] for i in order], pot.unary.data[order], pairs)
    a = lbp_run(pot, iterations=3).marginals(3)
    b = lbp_run(shuffled, iterations=3).marginals(3)
    assert list(a) == list(b) == list(edges)
    for e in edges:
        assert a[e] == pytest.approx(b[e], abs=1e-12)


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
    assert dirs[0] == ((0, 2), (0, 1), "sib", (0, 1, 2))
    assert dirs[1] == ((0, 1), (0, 2), "sib", (0, 1, 2))


@pytest.mark.parametrize("iterations", [1, 3])
def test_backward_matches_finite_differences(iterations):
    rng = np.random.default_rng(13)
    base = random_potentials(3, rng, coupling_scale=0.3)
    upstream = rng.normal(size=base.edge_count)
    unary0 = base.unary.data.copy()
    scores0 = base.part_scores()

    def rebuild(unary, scores, grad=False):
        return from_arrays(base.edges, unary, pair_list(base, scores), requires_grad=grad)

    pot = rebuild(unary0, scores0, grad=True)
    state = lbp_run(pot, iterations=iterations)
    got = potential_grads(upstream, state)

    def value():
        q = naive_lbp(rebuild(unary0, scores0), iterations)[0][-1]
        return float(np.dot(upstream, q))

    want_unary, want_scores = numeric_grad(value, [unary0, scores0], step=1e-6)
    np.testing.assert_allclose(got["unary"], want_unary, atol=1e-8)
    np.testing.assert_allclose(got["pairs"], want_scores, atol=1e-8)


# each part type switched off in turn, and all of them on
PART_SWITCHES = [{}, {"use_sib": False}, {"use_cop": False}, {"use_gp": False}]


@pytest.mark.parametrize("switches", PART_SWITCHES)
@pytest.mark.parametrize("n", [1, 2, 5, 20])
def test_sentence_loss_matches_the_pair_list_engine(n, switches):
    data = toy_corpus(np.random.default_rng(60 + n), size=1, min_len=n, max_len=n)
    sentence, gold = data[0]
    vocab = build_vocab(toy_corpus(np.random.default_rng(0), size=6) + data, min_count=1)
    cfg = RunConfig(word_dim=4, pos_dim=3, encoder_hidden=4, unary_dim=8, binary_dim=6,
                    **switches)
    model = ParserModel(cfg.model_config(), vocab, np.random.default_rng(n))
    rng = np.random.default_rng(n + 1)
    for p in model.params.values():
        # part scores of order 1, so the messages are far from 0
        p.data = rng.normal(0.0, 0.42, size=p.data.shape)
    train_cfg = TrainConfig(inference="lbp", iterations=3)

    def gradients(loss_fn):
        model.zero_grad()
        loss = loss_fn(model, sentence, gold, train_cfg)
        loss.backward()
        return loss.item(), {k: p.grad for k, p in model.params.items() if p.grad is not None}

    got_loss, got = gradients(sentence_loss)
    want_loss, want = gradients(reference_sentence_loss)
    assert got_loss == pytest.approx(want_loss, rel=1e-9)
    assert got.keys() == want.keys()
    for name, g in want.items():
        assert np.max(np.abs(got[name] - g)) <= 1e-9 * np.max(np.abs(g)), name
