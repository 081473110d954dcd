"""Loopy belief propagation over pairwise couplings, checked against hand
message arithmetic, the enumeration oracle on trees, a slow per-message
reference, the vectorised pair-list engine the dense layout replaced, and
the per-message tape nodes the one unrolled node replaced; and the
forward-only parse and trace of both engines against taped runs."""

from __future__ import annotations

import gc
import json
import math
import tracemalloc

import numpy as np
import pytest

import sdparse.autodiff as ad
from sdparse import lbp, pipeline
from sdparse.config import RunConfig
from sdparse.errors import CapacityError, ConfigError
from sdparse.exact import exact_infer
from sdparse.graph import SemGraph, decode, kept_edges
from sdparse.lbp import lbp_run
from sdparse.model import ModelConfig, ParserModel
from sdparse.pipeline import (PAIR_BYTES_FIXED, PAIR_BYTES_PER_SWEEP, parse_sentence,
                              run_inference, sentence_potentials, trace_sentence)
from sdparse.potentials import from_arrays
from sdparse.sdp_io import build_vocab
from sdparse.synthetic import random_potentials, toy_corpus, two_edge_instance
from sdparse.training import (TrainConfig, combined_loss, edge_loss, label_loss, sentence_loss,
                              train)

from conftest import (log_marginals, numeric_grad, pair_arrays, pair_list, pair_tuples,
                      part_scores, potential_grads, unary_scores)
from message_reference import reference_lbp_run
from pair_list_reference import reference_sentence_loss


def naive_lbp(pot, iterations):
    """Slow reference: explicit directed messages in probability space
    would underflow, so this follows the same log-space recipe with plain
    loops over the pair list instead of dense tensors. Returns the
    per-iteration edge marginals and log m(1) - log m(0) of every directed
    message."""
    unary = unary_scores(pot)
    first, second, scores = pair_arrays(pot)
    E, P = len(unary), len(scores)
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
    state = lbp_run(pot, 1)
    np.testing.assert_allclose(state.q1(0), 1.0 / (1.0 + np.exp(-unary_scores(pot))), atol=1e-14)


def test_message_log_odds_match_normalized_reference():
    pot = random_potentials(3, np.random.default_rng(2), coupling_scale=0.8)
    _, want = naive_lbp(pot, 4)
    for t in range(1, 5):
        np.testing.assert_allclose(lbp_run(pot, iterations=t).message_values(), want[t],
                                   atol=1e-12)


def test_beliefs_stay_normalized():
    pot = random_potentials(3, np.random.default_rng(2), coupling_scale=0.8)
    states = [lbp_run(pot, iterations=t) for t in range(1, 5)]
    for state in states:
        log_b0, log_b1 = log_marginals(state)
        total = np.logaddexp(log_b0.data, log_b1.data)
        np.testing.assert_allclose(total, 0.0, atol=1e-12)


def test_two_edge_hand_messages_and_beliefs():
    # coupling log 2, zero unaries: after one round each direction sends
    # (2/5, 3/5) and both beliefs land exactly on the true marginal 0.6
    pot = two_edge_instance(math.log(2.0))
    state = lbp_run(pot, iterations=3)
    ratio = lbp_run(pot, iterations=1).message_values()
    np.testing.assert_allclose(1.0 / (1.0 + np.exp(ratio)), 0.4, atol=1e-14)
    np.testing.assert_allclose(1.0 / (1.0 + np.exp(-ratio)), 0.6, atol=1e-14)
    np.testing.assert_allclose(ratio, math.log(1.5), atol=1e-14)
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
        for k, e in enumerate(pot.edge_set.edges):
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
            for k, e in enumerate(pot.edge_set.edges):
                assert got[k] == pytest.approx(want.marginals[e], abs=1e-9)


def test_zero_coupling_reduces_to_independent_sigmoids(rng):
    pot = random_potentials(3, rng, unary_scale=2.0, coupling_scale=0.0)
    state = lbp_run(pot, iterations=3)
    want = 1.0 / (1.0 + np.exp(-unary_scores(pot)))
    for t in range(4):
        np.testing.assert_allclose(state.q1(t), want, atol=1e-12)


def _without(pot, kind):
    """``pot`` with every part of one type (or none) removed."""
    return from_arrays(pot.edge_set.edges, unary_scores(pot),
                       [pair for pair in pair_list(pot) if pair[3] != kind], requires_grad=False)


@pytest.mark.parametrize("off", [None, "sib", "cop", "gp"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_dense_messages_match_naive_reference(n, off):
    pot = _without(random_potentials(n, np.random.default_rng(40 + n), coupling_scale=0.7), off)
    state = lbp_run(pot, iterations=4)
    want_q, want_ratios = naive_lbp(pot, 4)
    assert state.message_values().shape == (2 * len(part_scores(pot)),)
    for t in range(1, 5):
        np.testing.assert_allclose(state.q1(t), want_q[t], rtol=0, atol=1e-12)
        np.testing.assert_allclose(lbp_run(pot, iterations=t).message_values(),
                                   want_ratios[t], rtol=0, atol=1e-12)
    if off is not None:
        assert off not in pot.scores and off not in pot.part_masks


def test_message_order_follows_the_parts():
    # a sib, a cop and a gp pair over five edges, given in mixed order and
    # with the symmetric pairs' edges swapped
    edges = ((0, 1), (0, 2), (2, 1), (1, 3), (3, 2))
    pot = from_arrays(edges, np.zeros(5), [((1, 3), (3, 2), 0.5, "gp"),
                                            ((0, 2), (0, 1), 0.25, "sib"),
                                            ((2, 1), (0, 1), -0.5, "cop")])
    assert pair_tuples(pot) == [((0, 1), (0, 2), "sib", (0, 1, 2)),
                                ((0, 1), (2, 1), "cop", (0, 2, 1)),
                                ((1, 3), (3, 2), "gp", (1, 3, 2))]
    np.testing.assert_array_equal(part_scores(pot), [0.25, -0.5, 0.5])
    state = lbp_run(pot, iterations=2)
    assert [d[:2] for d in state.directed_messages()] == [
        ((0, 2), (0, 1)), ((0, 1), (0, 2)), ((2, 1), (0, 1)), ((0, 1), (2, 1)),
        ((3, 2), (1, 3)), ((1, 3), (3, 2))]
    np.testing.assert_allclose(state.message_values(), naive_lbp(pot, 2)[1][2],
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
    state = lbp_run(pot, 1)
    np.testing.assert_allclose(state.q1(1), 1.0 / (1.0 + np.exp(-unary_scores(pot))), atol=1e-14)


def test_permutation_equivariance(rng):
    pot = random_potentials(3, rng, coupling_scale=0.5)
    order = rng.permutation(len(pot.edge_set))
    edges = pot.edge_set.edges
    pairs = pair_list(pot)[::-1]
    shuffled = from_arrays([edges[i] for i in order], unary_scores(pot)[order], pairs)
    a = lbp_run(pot, iterations=3).marginals()
    b = lbp_run(shuffled, iterations=3).marginals()
    assert list(a) == list(b) == list(edges)
    for e in edges:
        assert a[e] == pytest.approx(b[e], abs=1e-12)


def test_directed_messages_list_both_directions_per_part():
    pot = two_edge_instance(0.3)
    state = lbp_run(pot, iterations=1)
    dirs = state.directed_messages()
    assert len(dirs) == 2
    assert dirs[0] == ((0, 2), (0, 1), "sib", (0, 1, 2))
    assert dirs[1] == ((0, 1), (0, 2), "sib", (0, 1, 2))


def test_lbp_run_refuses_fewer_than_one_iteration():
    with pytest.raises(ConfigError, match="iterations must be >= 1, got 0"):
        lbp_run(two_edge_instance(0.3), iterations=0)


def test_run_inference_refuses_an_unknown_engine():
    with pytest.raises(ConfigError, match="unknown inference engine 'bp'"):
        run_inference(two_edge_instance(0.3), "bp")


@pytest.mark.parametrize("iterations", [1, 3])
def test_with_no_part_every_iterate_is_the_unary_grid(iterations):
    """A sweep with no part sends nothing: every grid is the edge scores,
    and the edge loss's gradient is the logistic of the score less gold."""
    pot = from_arrays(((0, 1), (1, 2), (2, 1)), np.array([0.3, -0.2, 1.1]), [],
                      requires_grad=True)
    state = lbp_run(pot, iterations)
    assert state.iterations == iterations and state.messages == {}
    assert all(_same_bits(logit.data, pot.edge_scores.data) for logit in state.logits)
    ad.backward(edge_loss(state, SemGraph(2, [(0, 1, "x")])), np.ones(()))
    s = unary_scores(pot)
    mask = pot.edge_set.mask
    np.testing.assert_allclose(pot.edge_scores.grad[mask],
                               1.0 / (1.0 + np.exp(-s)) - np.array([1.0, 0.0, 0.0]),
                               rtol=0, atol=1e-15)
    assert not pot.edge_scores.grad[~mask].any()


def _guard_counter(monkeypatch):
    """Counts, over every ``lbp.message_kernel`` call from here on,
    the cells on each of its guards: P = logistic(c) expm1(s) < -1/2 with
    |s| <= SHIFT_BOUND ("cancel"), and |s| > SHIFT_BOUND ("wide")."""
    counts = {"cancel": 0, "wide": 0}
    kernel = lbp.message_kernel

    def counting(source, reverse, s, shift, keep=False):
        c = source - (0.0 if reverse is None else reverse)
        wide = np.abs(s) > lbp.SHIFT_BOUND
        p = np.exp(-np.logaddexp(0.0, -c)) * np.expm1(np.where(wide, 0.0, s))
        counts["cancel"] += int(np.count_nonzero((p < -0.5) & ~wide))
        counts["wide"] += int(np.count_nonzero(wide))
        return kernel(source, reverse, s, shift, keep)

    monkeypatch.setattr(lbp, "message_kernel", counting)
    return counts


def _assert_backward_matches_finite_differences(base, upstream, iterations):
    """Gradients of <upstream, Q^(T)> from lbp_run's backward against
    finite differences of the slow reference's Q^(T)."""
    unary0 = unary_scores(base).copy()
    scores0 = part_scores(base)

    def rebuild(unary, scores, grad=False):
        return from_arrays(base.edge_set.edges, unary, pair_list(base, scores), requires_grad=grad)

    pot = rebuild(unary0, scores0, grad=True)
    state = lbp_run(pot, iterations=iterations)
    got = potential_grads(upstream, state)

    def value():
        q = naive_lbp(rebuild(unary0, scores0), iterations)[0][-1]
        return float(np.dot(upstream, q))

    want_unary, want_scores = numeric_grad(value, [unary0, scores0], step=1e-6)
    np.testing.assert_allclose(got["unary"], want_unary, atol=1e-8)
    np.testing.assert_allclose(got["pairs"], want_scores, atol=1e-8)


@pytest.mark.parametrize("iterations", [1, 2, 3])
def test_backward_matches_finite_differences(iterations):
    rng = np.random.default_rng(13)
    base = random_potentials(3, rng, coupling_scale=0.3)
    _assert_backward_matches_finite_differences(base, rng.normal(size=len(base.edge_set)),
                                                iterations)


@pytest.mark.parametrize("iterations", [1, 2, 3])
def test_backward_through_guarded_cells_matches_finite_differences(monkeypatch, iterations):
    """Scores that put cells on both guards of the message kernel."""
    counts = _guard_counter(monkeypatch)
    rng = np.random.default_rng(17)
    base = random_potentials(3, rng, unary_scale=3.0, coupling_scale=25.0)
    _assert_backward_matches_finite_differences(base, rng.normal(size=len(base.edge_set)),
                                                iterations)
    assert counts["cancel"] and counts["wide"]


# each part type switched off in turn, and all of them on
PART_SWITCHES = [{}, {"use_sib": False}, {"use_cop": False}, {"use_gp": False}]


def _small_model(n, switches, tri_scale=0.42):
    """(model, sentence, gold): a small model with every weight drawn at
    scale 0.42, which keeps part scores of order 1 so the messages are far
    from 0, but the trilinear weights at ``tri_scale``; 2.5 gives part
    scores of a trained model (|s| up to about 50 at n = 8)."""
    data = toy_corpus(np.random.default_rng(60 + n), size=1, min_len=n, max_len=n)
    sentence, gold = data[0]
    vocab = build_vocab(toy_corpus(np.random.default_rng(0), size=6) + data, min_count=1)
    cfg = RunConfig(word_dim=4, pos_dim=3, encoder_hidden=4, unary_dim=8, binary_dim=6,
                    **switches)
    model = ParserModel(cfg.model_config(), vocab, np.random.default_rng(n))
    rng = np.random.default_rng(n + 1)
    for name, p in model.params.items():
        scale = tri_scale if name.startswith("tri_") else 0.42
        p.data = rng.normal(0.0, scale, size=p.data.shape)
    return model, sentence, gold


@pytest.mark.parametrize("switches", PART_SWITCHES)
@pytest.mark.parametrize("n", [1, 2, 5, 20])
def test_sentence_loss_matches_the_pair_list_engine(n, switches):
    model, sentence, gold = _small_model(n, switches)
    train_cfg = TrainConfig(inference="lbp", iterations=3)

    def gradients(loss_fn):
        model.zero_grad()
        loss = loss_fn(model, sentence, gold, train_cfg)
        ad.backward(loss, 1.0)
        return loss.item(), {k: p.grad for k, p in model.params.items() if p.grad is not None}

    got_loss, got = gradients(sentence_loss)
    want_loss, want = gradients(reference_sentence_loss)
    assert got_loss == pytest.approx(want_loss, rel=1e-9)
    assert got.keys() == want.keys()
    for name, g in want.items():
        assert np.max(np.abs(got[name] - g)) <= 1e-9 * np.max(np.abs(g)), name


def _assert_messages_equal(got, want):
    """Two states' message dicts hold bitwise-equal tensors under the same
    names."""
    assert got.messages.keys() == want.messages.keys()
    for name, message in want.messages.items():
        np.testing.assert_array_equal(got.messages[name].data, message.data)


def _assert_matches_the_per_message_reference(model, sentence, gold):
    """lbp_run and the per-message reference on one sentence: every logit
    grid, and the message tensors of a run of every depth, bitwise equal,
    and every parameter gradient of the training loss within 1e-12 of the
    reference's largest entry."""
    cfg = TrainConfig(inference="lbp", iterations=3)

    def run(engine):
        model.zero_grad()
        scores, pot = sentence_potentials(model, sentence, "lbp")
        state = engine(pot, cfg.iterations)
        loss = combined_loss(edge_loss(state, gold), label_loss(model, scores, gold),
                             cfg.interpolation)
        ad.backward(loss, 1.0)
        return state, {k: p.grad.copy() for k, p in model.params.items() if p.grad is not None}

    got_state, got = run(lbp_run)
    want_state, want = run(reference_lbp_run)
    for t in range(cfg.iterations + 1):
        np.testing.assert_array_equal(got_state.logits[t].data, want_state.logits[t].data)
    for t in range(1, cfg.iterations + 1):
        _assert_messages_equal(lbp_run(got_state.pot, t), reference_lbp_run(want_state.pot, t))
    assert got.keys() == want.keys()
    for name, g in want.items():
        assert np.max(np.abs(got[name] - g)) <= 1e-12 * np.max(np.abs(g)), name


@pytest.mark.parametrize("switches", PART_SWITCHES)
@pytest.mark.parametrize("n", [2, 8])
def test_unrolled_node_matches_the_per_message_reference(n, switches):
    _assert_matches_the_per_message_reference(*_small_model(n, switches))


def test_unrolled_node_matches_the_per_message_reference_on_guarded_cells(monkeypatch):
    """Trained-scale part scores, where cells take both guards of the
    message kernel: P < -1/2 and |s| > SHIFT_BOUND."""
    counts = _guard_counter(monkeypatch)
    _assert_matches_the_per_message_reference(*_small_model(8, {}, tri_scale=2.5))
    assert counts["cancel"] and counts["wide"]


def test_backward_twice_gives_equal_gradients():
    """The node's backward writes into no array it keeps, so a second
    sweep over the same loss repeats the first bit for bit."""
    model, sentence, gold = _small_model(8, {}, tri_scale=2.5)
    loss = sentence_loss(model, sentence, gold, TrainConfig(inference="lbp", iterations=3))
    grads = []
    for _ in range(2):
        model.zero_grad()
        ad.backward(loss, 1.0)
        grads.append({k: p.grad.copy() for k, p in model.params.items() if p.grad is not None})
    assert grads[0].keys() == grads[1].keys()
    for name, g in grads[0].items():
        np.testing.assert_array_equal(grads[1][name], g)


def test_all_sweeps_are_one_node_and_only_the_last_grid_carries_gradient():
    base = random_potentials(4, np.random.default_rng(5), coupling_scale=0.5)
    pot = from_arrays(base.edge_set.edges, unary_scores(base), pair_list(base), requires_grad=True)
    state = lbp_run(pot, iterations=3)
    assert state.logits[0] is pot.edge_scores
    assert state.logits[-1]._parents == (pot.edge_scores, *pot.scores.values())
    assert not any(grid.requires_grad for grid in state.logits[1:-1])
    for t in (1, 2, 3):
        assert not any(m.requires_grad for m in lbp_run(pot, iterations=t).messages.values())
    fixed = lbp_run(base, 3)
    assert not fixed.logits[-1].requires_grad
    np.testing.assert_array_equal(fixed.logits[-1].data, state.logits[-1].data)


@pytest.mark.parametrize("iterations", [1, 3])
def test_the_state_keeps_one_dict_of_the_last_sweeps_messages(iterations):
    base = random_potentials(4, np.random.default_rng(5), coupling_scale=0.5)
    pot = from_arrays(base.edge_set.edges, unary_scores(base), pair_list(base), requires_grad=True)
    state = lbp_run(pot, iterations)
    assert list(state.messages) == ["sib", "cop", "down", "up"]
    _assert_messages_equal(state, reference_lbp_run(pot, iterations))


@pytest.mark.parametrize("engine", ["mf", "lbp"])
def test_trace_sentence_reads_each_depth_from_a_run_of_that_depth(engine):
    model, sentence, _ = _small_model(5, {})
    _, pot = sentence_potentials(model, sentence, "lbp")
    key = "value" if engine == "mf" else "log_odds"

    def name(edge):
        return f"{edge[0]}->{edge[1]}"

    steps = []
    for t in range(4):
        # a one-sweep run holds the grid of depth 0 too
        state = run_inference(pot, engine, max(t, 1))
        messages = zip(state.directed_messages(), state.message_values().tolist()) if t else ()
        steps.append({"iteration": t,
                      "q": dict(zip(map(name, pot.edge_set.edges), state.q1(t).tolist())),
                      "messages": [{"src": name(src), "dst": name(dst), "type": kind,
                                    "part": list(part), key: value}
                                   for (src, dst, kind, part), value in messages]})
    # the reference runs record their tape, the trace none: the same text
    assert state.logits[-1].requires_grad
    want = {"n": 5, "engine": engine, "iterations": 3, "edges": list(map(name, pot.edge_set.edges)),
            "steps": steps}
    got = trace_sentence(model, sentence, engine, iterations=3)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


# ------------------------------------------------- forward-only entry points

def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _tensors(state, scores):
    """Every tensor of a parse's inference state and scores."""
    pot = state.pot
    yield from state.logits
    yield from state.messages.values()
    yield pot.edge_scores
    yield from getattr(pot, "scores", {}).values()
    yield scores.edge_scores
    yield scores.label_head
    yield scores.label_dep
    for factors in scores.tri.values():
        yield from factors


@pytest.mark.parametrize("engine", ["mf", "lbp"])
def test_parse_sentence_is_bitwise_a_taped_run_and_returns_no_gradient(engine):
    model, sentence, _ = _small_model(6, {})
    graph, state, scores = parse_sentence(model, sentence, engine, iterations=3)
    taped_scores, pot = sentence_potentials(model, sentence, engine)
    taped = run_inference(pot, engine, 3)
    assert taped.logits[-1].requires_grad
    assert len(state.logits) == len(taped.logits) == 4
    assert all(_same_bits(got.data, want.data) for got, want in zip(state.logits, taped.logits))
    assert state.messages.keys() == taped.messages.keys()
    assert all(_same_bits(state.messages[k].data, m.data) for k, m in taped.messages.items())
    assert _same_bits(state.q1(), taped.q1())
    heads, deps = kept_edges(pot.edge_set, taped.q1(), 0.5)
    assert len(heads)
    taped_rows = model.label_scores(taped_scores, heads, deps)
    assert taped_rows.requires_grad
    assert _same_bits(model.label_scores(scores, heads, deps).data, taped_rows.data)
    want = decode(sentence.n, heads, deps, taped_rows.data, model.vocab.id2label)
    assert graph.edges == want.edges
    assert not any(t.requires_grad for t in _tensors(state, scores))


def test_no_grad_is_restored_when_nested_and_after_a_parse_raises(monkeypatch):
    model, sentence, gold = _small_model(6, {})
    params = tuple(model.params.values())
    with ad.no_grad():
        with ad.no_grad():
            assert not ad.records(params)
        assert not ad.records(params)
        # parse_sentence opens a block of its own inside this one
        parse_sentence(model, sentence, "mf")
        assert not ad.records(params)
    assert ad.records(params)
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "PAIR_LENGTH_CAP", 5)
        with pytest.raises(CapacityError, match="length cap of 5"):
            parse_sentence(model, sentence, "lbp")
    assert ad.records(params)
    model.zero_grad()
    ad.backward(sentence_loss(model, sentence, gold, TrainConfig(inference="lbp")), 1.0)
    assert all(p.grad is not None for p in params)


def test_lbp_run_under_no_grad_keeps_no_logistics(monkeypatch):
    base = random_potentials(5, np.random.default_rng(5), coupling_scale=0.5)
    pot = from_arrays(base.edge_set.edges, unary_scores(base), pair_list(base), requires_grad=True)
    kernel, logistics = lbp.message_kernel, []

    def recording(*args):
        out = kernel(*args)
        logistics.append(out[1:])
        return out

    monkeypatch.setattr(lbp, "message_kernel", recording)
    taped = lbp_run(pot, iterations=3)
    assert taped.logits[-1].requires_grad
    # the node keeps logistic(c) of each message
    assert len(logistics) == 12 and all(kept is not None for kept, _ in logistics)
    logistics.clear()
    with ad.no_grad():
        state = lbp_run(pot, iterations=3)
    assert logistics == [(None, None)] * 12
    # iterate 0 is the caller's edge scores; every later grid is a constant
    assert state.logits[0] is pot.edge_scores
    tensors = state.logits[1:] + list(state.messages.values())
    assert not any(t.requires_grad or t._parents for t in tensors)
    assert all(_same_bits(got.data, want.data) for got, want in zip(state.logits, taped.logits))
    assert all(_same_bits(state.messages[k].data, m.data) for k, m in taped.messages.items())


def _declared_bytes_per_cell(iterations):
    """The bytes per (n+1)^3 cell the length caps are derived from."""
    return PAIR_BYTES_FIXED + PAIR_BYTES_PER_SWEEP * iterations


def test_one_training_step_peaks_below_the_declared_bytes_per_cell():
    """PAIR_LENGTH_CAP is derived from the declared bytes per cell at T = 3,
    an upper bound on an LBP step's traced peak per (n+1)^3 cell from
    n = 30 on (the figure falls with n); check it at n = 30, desk dims."""
    n = 30
    sentence, gold = toy_corpus(np.random.default_rng(3), size=1, min_len=n, max_len=n)[0]
    model = ParserModel(ModelConfig(), build_vocab([(sentence, gold)], min_count=1),
                        np.random.default_rng(0))
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loss = sentence_loss(model, sentence, gold, TrainConfig(inference="lbp", iterations=3))
        ad.backward(loss, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < _declared_bytes_per_cell(3) * (n + 1) ** 3


def test_a_training_batch_peaks_below_the_declared_bytes_per_cell():
    """``train`` on two n = 30 sentences in one batch (desk dims): the
    sentence past the first starts its forward with no tape held, so the
    step peaks near 250 bytes per (n+1)^3 cell at T = 3, and each further
    sweep keeps four more float64 logistics (346 bytes at T = 6)."""
    n = 30
    data = toy_corpus(np.random.default_rng(3), size=2, min_len=n, max_len=n)
    for iterations in (3, 6):
        model = ParserModel(ModelConfig(), build_vocab(data, min_count=1),
                            np.random.default_rng(0))
        cfg = TrainConfig(inference="lbp", iterations=iterations, max_steps=1,
                          batch_token_budget=2 * n)
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = train(model, data, None, cfg)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert result.steps == 1
        assert peak < _declared_bytes_per_cell(iterations) * (n + 1) ** 3, iterations


def test_one_lbp_parse_peaks_below_200_bytes_per_cell():
    """A parse records no tape, so loopy BP keeps no logistics: one n = 45
    parse (desk dims, T = 3) peaks near 134 bytes per (n+1)^3 cell, where
    a taped run of the same forward peaks near 258."""
    n = 45
    sentence, gold = toy_corpus(np.random.default_rng(3), size=1, min_len=n, max_len=n)[0]
    model = ParserModel(ModelConfig(), build_vocab([(sentence, gold)], min_count=1),
                        np.random.default_rng(0))
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        parse_sentence(model, sentence, "lbp", iterations=3)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 200 * (n + 1) ** 3
