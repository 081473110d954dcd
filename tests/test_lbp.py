"""Loopy belief propagation over pairwise couplings, checked against hand
message arithmetic, the enumeration oracle on trees, a slow per-message
reference, the vectorised pair-list engine the dense layout replaced, and
the per-message tape nodes the one unrolled node replaced; and the
forward-only parse and trace of both engines against taped runs."""

from __future__ import annotations

import gc
import math
import tracemalloc

import numpy as np
import pytest

import sdparse.autodiff as ad
from sdparse import lbp, mf, pipeline
from sdparse.config import RunConfig
from sdparse.errors import CapacityError, ConfigError
from sdparse.exact import exact_infer
from sdparse.graph import SemGraph, decode, kept_edges
from sdparse.lbp import lbp_run
from sdparse.model import ModelConfig, ParserModel
from sdparse.pipeline import (PAIR_BYTES_FIXED, PAIR_BYTES_PER_SWEEP, parse_sentence,
                              run_inference, sentence_potentials, trace_sentence)
from sdparse.graph import build_candidate_edges, part_mask
from sdparse.potentials import _MIRROR, LogPotentials, aligned, from_arrays
from sdparse.sdp_io import build_vocab
from sdparse.synthetic import random_potentials, toy_corpus, two_edge_instance
from sdparse.training import (TrainConfig, combined_loss, edge_loss, label_loss, sentence_loss,
                              train)

from conftest import (log_marginals, numeric_grad, pair_arrays, pair_list, pair_tuples,
                      part_scores, potential_grads, unary_scores)
from message_reference import (directed_messages, last_sweep, message_values, reference_lbp_run,
                               run_with_messages, sweep_values)
from pair_list_reference import reference_sentence_loss
import lbp_reference


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
        np.testing.assert_allclose(sweep_values(pot, "lbp", t), want[t], atol=1e-12)


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
    ratio = sweep_values(pot, "lbp", 1)
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
    assert sweep_values(pot, "lbp", 4).shape == (2 * len(part_scores(pot)),)
    for t in range(1, 5):
        np.testing.assert_allclose(state.q1(t), want_q[t], rtol=0, atol=1e-12)
        np.testing.assert_allclose(sweep_values(pot, "lbp", t),
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
    assert [d[:2] for d in directed_messages(pot)] == [
        ((0, 2), (0, 1)), ((0, 1), (0, 2)), ((2, 1), (0, 1)), ((0, 1), (2, 1)),
        ((3, 2), (1, 3)), ((1, 3), (3, 2))]
    np.testing.assert_allclose(sweep_values(pot, "lbp", 2), naive_lbp(pot, 2)[1][2],
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
    dirs = directed_messages(two_edge_instance(0.3))
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
    sweeps = []
    state = lbp_run(pot, iterations, on_sweep=sweeps.append)
    assert state.iterations == iterations and sweeps == [{}] * iterations
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
    """Two sweeps' message dicts hold bitwise-equal arrays under the same
    names."""
    assert got.keys() == want.keys()
    for name, message in want.items():
        assert _same_bits(got[name], message), name


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
        _assert_messages_equal(last_sweep(lbp_run, got_state.pot, t)[1],
                               last_sweep(reference_lbp_run, want_state.pot, t)[1])
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


# part-score scales: the desk model's initial weights, and a trained
# model's, which reach both message guards
SCORE_SCALES = {"desk": 1e-4, "trained": 15.0}


def _dense_potentials(n, case, seed):
    """Leaf LogPotentials of a length-n sentence with every part: edge
    scores of scale 2, and symmetric part scores at a ``case`` of
    ``SCORE_SCALES``, or for "wide" trained-scale scores with cells at
    exactly +-SHIFT_BOUND, just inside and beyond it, or for "nan"
    desk-scale scores with a NaN edge score, so that every message out of
    that edge has a NaN cavity."""
    rng = np.random.default_rng(seed)
    edge_set = build_candidate_edges(n)
    grid = np.where(edge_set.mask, rng.normal(scale=2.0, size=edge_set.mask.shape), 0.0)
    if case == "nan":
        grid[0, 1] = np.nan
    masks = {kind: part_mask(n, kind) for kind in ("sib", "cop", "gp")} if n > 1 else {}
    bound = lbp.SHIFT_BOUND
    edges = [bound, -bound, np.nextafter(bound, 0.0), -np.nextafter(bound, 0.0), bound + 5.0,
             -bound - 5.0]
    scores = {}
    for kind, mask in masks.items():
        scale = SCORE_SCALES["desk" if case == "nan" else "trained" if case == "wide" else case]
        dense = np.where(mask, rng.normal(scale=scale, size=mask.shape), 0.0)
        if case == "wide":
            cells = rng.choice(np.flatnonzero(mask), size=min(mask.sum(), 24), replace=False)
            dense.flat[cells] = np.resize(edges, len(cells))
        scores[kind] = ad.parameter(dense + aligned(dense, kind) if kind in _MIRROR else dense)
    return LogPotentials(edge_set, ad.parameter(grid), scores, masks)


def _run_bits(run, pot, iterations, upstream):
    """The bytes of every grid, every sweep's messages and, after a
    backward pass from the last grid seeded with ``upstream``, the
    gradient of the edge scores and of each score tensor."""
    sweeps = []
    state = run(pot, iterations, on_sweep=sweeps.append)
    out = [grid.data.tobytes() for grid in state.logits]
    out += [m.tobytes() for messages in sweeps for m in messages.values()]
    for tensor in (pot.edge_scores, *pot.scores.values()):
        tensor.grad = None
    ad.backward(state.logits[-1], upstream)
    out += [t.grad.tobytes() for t in (pot.edge_scores, *pot.scores.values())]
    with ad.no_grad():
        sweeps.clear()
        state = run(pot, iterations, on_sweep=sweeps.append)
    out += [grid.data.tobytes() for grid in state.logits]
    return out + [m.tobytes() for messages in sweeps for m in messages.values()]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("case", ["desk", "trained", "wide", "nan"])
@pytest.mark.parametrize("iterations", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 7, 20, 33])
def test_lbp_run_is_bitwise_the_kept_reference(monkeypatch, n, iterations, case):
    """``lbp_run`` against the unrolled node it replaced (``lbp_reference``),
    taped and forward-only, byte for byte: every grid, the messages handed
    to ``on_sweep`` and the backward pass. The trained-scale and wide
    cases reach both guards of the message kernel."""
    pot = _dense_potentials(n, case, seed=10 * n + iterations)
    upstream = np.random.default_rng(n).normal(size=pot.edge_scores.shape)
    counts = _guard_counter(monkeypatch)
    got = _run_bits(lbp_run, pot, iterations, upstream)
    want = _run_bits(lbp_reference.lbp_run, pot, iterations, upstream)
    assert len(got) == len(want)
    assert all(a == b for a, b in zip(got, want))
    if case in ("trained", "wide") and n > 2:
        assert counts["cancel"] and counts["wide"]


def test_kept_logistics_and_hook_messages_are_c_contiguous(monkeypatch):
    """Every logistic(c) the unrolled node keeps for its backward, and every
    message it hands to ``on_sweep``, is C-ordered, also for sib and cop,
    whose reverse messages are read through a transposed view."""
    kernel, kept = lbp.message_kernel, []

    def recording(*args):
        out = kernel(*args)
        kept.append(out[1])
        return out

    monkeypatch.setattr(lbp, "message_kernel", recording)
    sweeps = []
    lbp_run(_dense_potentials(6, "trained", seed=1), 3, on_sweep=sweeps.append)
    assert len(kept) == 12 and all(logistic.flags.c_contiguous for logistic in kept)
    assert all(m.flags.c_contiguous for messages in sweeps for m in messages.values())


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
    fixed = lbp_run(base, 3)
    assert not fixed.logits[-1].requires_grad
    np.testing.assert_array_equal(fixed.logits[-1].data, state.logits[-1].data)


@pytest.mark.parametrize("iterations", [1, 3])
def test_on_sweep_sees_one_dict_of_each_sweeps_messages(iterations):
    """A taped run hands its hook plain arrays, one dict per sweep, equal
    to the per-message reference's; the state keeps none of them."""
    base = random_potentials(4, np.random.default_rng(5), coupling_scale=0.5)
    pot = from_arrays(base.edge_set.edges, unary_scores(base), pair_list(base), requires_grad=True)
    got, want = [], []
    state = lbp_run(pot, iterations, on_sweep=got.append)
    reference_lbp_run(pot, iterations, on_sweep=want.append)
    assert state.logits[-1].requires_grad and not hasattr(state, "messages")
    assert len(got) == len(want) == iterations
    for messages, reference in zip(got, want):
        assert list(messages) == ["sib", "cop", "down", "up"]
        assert all(type(m) is np.ndarray for m in messages.values())
        _assert_messages_equal(messages, reference)


@pytest.mark.parametrize("engine", ["mf", "lbp"])
def test_trace_sentence_reads_each_depth_from_a_run_of_that_depth(engine):
    """The arrays of a T = 3 trace: iteration t's marginals and sweep t's
    (P, 2) messages are bitwise those of a taped run of depth t, read per
    directed message; the stored triples and member edges are those of
    the directed messages, in part order."""
    model, sentence, _ = _small_model(5, {})
    _, pot = sentence_potentials(model, sentence, "lbp")
    edges, triples, ends, marginals, messages = trace_sentence(model, sentence, engine, 3)
    directed = directed_messages(pot)
    assert list(map(tuple, edges.tolist())) == list(pot.edge_set.edges)
    assert list(triples) == ["sib", "cop", "gp"]
    assert [(kind, tuple(part)) for kind, parts in triples.items() for part in parts.tolist()] \
        == [(kind, part) for _, _, kind, part in directed[::2]]
    assert [(edges[a].tolist(), edges[b].tolist()) for a, b in ends] \
        == [(list(dst), list(src)) for src, dst, _, _ in directed[::2]]
    assert len(marginals) == 4 and len(messages) == 3
    for t in range(4):
        # a one-sweep run holds the grid of depth 0 too
        state, sweep = run_with_messages(pot, engine, max(t, 1))
        assert _same_bits(marginals[t], state.q1(t))
        if t:
            assert messages[t - 1].shape == (len(directed) // 2, 2)
            assert _same_bits(messages[t - 1].reshape(-1), message_values(pot, sweep))
    # the reference runs record their tape, the trace none
    assert state.logits[-1].requires_grad


@pytest.mark.parametrize("engine", ["mf", "lbp"])
def test_a_trace_runs_its_engine_once(monkeypatch, engine):
    """A T = 10 trace makes one engine call of T sweeps, and no other."""
    model, sentence, _ = _small_model(5, {})
    calls = []
    for module, name in ((mf, "mf_run"), (lbp, "lbp_run")):
        def counting(pot, iterations=3, *args, _run=getattr(module, name), _name=name,
                     **kwargs):
            calls.append((_name, iterations))
            return _run(pot, iterations, *args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    *_, marginals, messages = trace_sentence(model, sentence, engine, iterations=10)
    assert len(marginals) == 11 and len(messages) == 10
    assert calls == [(f"{engine}_run", 10)]


# ------------------------------------------------- forward-only entry points

def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _tensors(state, scores):
    """Every tensor of a parse's inference state and scores."""
    pot = state.pot
    yield from state.logits
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
    taped_sweeps, sweeps = [], []
    taped = lbp_run(pot, iterations=3, on_sweep=taped_sweeps.append)
    assert taped.logits[-1].requires_grad
    # the node keeps logistic(c) of each message
    assert len(logistics) == 12 and all(kept is not None for kept, _ in logistics)
    logistics.clear()
    with ad.no_grad():
        state = lbp_run(pot, iterations=3, on_sweep=sweeps.append)
    assert logistics == [(None, None)] * 12
    # iterate 0 is the caller's edge scores; every later grid is a constant
    assert state.logits[0] is pot.edge_scores
    assert not any(t.requires_grad or t._parents for t in state.logits[1:])
    assert all(_same_bits(got.data, want.data) for got, want in zip(state.logits, taped.logits))
    for got, want in zip(sweeps, taped_sweeps, strict=True):
        _assert_messages_equal(got, want)


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
    step peaks near 239 bytes per (n+1)^3 cell at T = 3, and each further
    sweep keeps four more float64 logistics (335 bytes at T = 6)."""
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
    parse (desk dims, T = 3) peaks near 93 bytes per (n+1)^3 cell, where
    the taped forward of a training step on it peaks near 140."""
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
