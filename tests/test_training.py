"""Losses, the optimizer, batching, the training loop, and the end-to-end
gradient check, against hand arithmetic and closed forms."""

from __future__ import annotations

import contextlib
import math
import sys
import threading
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest

import sdparse.autodiff as ad
from sdparse import pipeline, training
from sdparse.errors import CapacityError, ConfigError, NumericError
from sdparse.graph import SemGraph, build_candidate_edges, kept_edges
from sdparse.mf import mf_run
from sdparse.pipeline import run_inference
from sdparse.model import ModelConfig, ParserModel
from sdparse.potentials import from_arrays
from sdparse.sdp_io import build_vocab
from sdparse.synthetic import random_potentials, toy_corpus
from sdparse.training import (
    _UPDATE_BLOCK,
    Optimizer,
    TrainConfig,
    combined_loss,
    edge_loss,
    gradcheck,
    label_loss,
    make_batches,
    sentence_loss,
    train,
)

from label_reference import reference_label_loss, reference_label_rows
from test_autodiff import _graph_nodes

TINY = ModelConfig(word_dim=4, pos_dim=3, encoder_layers=0, unary_dim=5, binary_dim=3)


def _tiny_model(data, seed=9, **overrides):
    cfg = ModelConfig(**{**TINY.__dict__, **overrides})
    return ParserModel(cfg, build_vocab(data, min_count=1), np.random.default_rng(seed))


@pytest.mark.parametrize("engine", ["mf", "lbp"])
def test_every_parameter_gradient_is_owned_and_summed_in_place(engine):
    """After one sentence every parameter's gradient is an array backward
    owns, so the next sentence of a batch adds into it, with no fresh
    full-size sum; the pretrained channel and a one-layer encoder put
    every kind of parameter on the tape."""
    data = toy_corpus(np.random.default_rng(4), size=2, min_len=4, max_len=6)
    vocab = build_vocab(data, min_count=1)
    table = {form: np.full(3, 0.1 * k) for k, form in enumerate(vocab.form2id)}
    cfg = ModelConfig(**{**TINY.__dict__, "encoder_layers": 1, "encoder_hidden": 4,
                         "use_pretrained": True, "pretrained_proj_dim": 2})
    model = ParserModel(cfg, vocab, np.random.default_rng(9), pretrained=(table, 3))
    train_cfg = TrainConfig(inference=engine, iterations=2)
    ad.backward(sentence_loss(model, *data[0], train_cfg), 1.0)
    for name, p in model.params.items():
        assert p.grad is not None and p._owned() is p.grad, name
    first = {name: (p.grad, p.grad.copy()) for name, p in model.params.items()}
    ad.backward(sentence_loss(model, *data[1], train_cfg), 1.0)
    assert all(p.grad is first[name][0] for name, p in model.params.items())
    # what was added in place is the second sentence's gradient
    model.zero_grad()
    ad.backward(sentence_loss(model, *data[1], train_cfg), 1.0)
    for name, p in model.params.items():
        summed, alone = first[name]
        np.testing.assert_array_equal(summed, alone + p.grad)


@pytest.mark.parametrize("engine", ["mf", "lbp"])
@pytest.mark.parametrize("parts", [True, False], ids=["parts-on", "parts-off"])
@pytest.mark.parametrize("scale", [1.0, 60.0], ids=["init", "trained"])
def test_a_sweep_never_reads_a_weight_once_its_gradient_is_final(engine, parts, scale):
    """Overwriting each parameter's weights with NaN as soon as the sweep
    reports it leaves every gradient bitwise that of a plain sweep, with
    dropout on, the pretrained channel and a BiLSTM on the tape, and the
    trilinear weights at their initial scale or scaled until the part
    scores are a trained model's (loopy BP's message guards taken)."""
    data = toy_corpus(np.random.default_rng(7), size=1, min_len=7, max_len=7)
    vocab = build_vocab(data, min_count=1)
    table = {form: np.full(3, 0.1 * k) for k, form in enumerate(vocab.form2id)}
    dropouts = {f: getattr(ModelConfig.full(), f) for f in ModelConfig().__dict__
                if f.startswith("dropout")}
    cfg = ModelConfig(**dropouts, use_pretrained=True, pretrained_proj_dim=4,
                      **({} if parts else {"use_sib": False, "use_cop": False, "use_gp": False}))
    model = ParserModel(cfg, vocab, np.random.default_rng(9), pretrained=(table, 3))
    for name, p in model.params.items():
        if name.startswith("tri_"):
            p.data *= scale
    kept = {name: p.data.copy() for name, p in model.params.items()}
    train_cfg = TrainConfig(inference=engine)

    def gradients(on_leaf=None):
        model.zero_grad()
        loss = sentence_loss(model, *data[0], train_cfg, rng=np.random.default_rng(3))
        ad.backward(loss, 1.0, on_leaf=on_leaf)
        return loss.item(), {name: p.grad for name, p in model.params.items()}

    plain = gradients()
    poisoned = []

    def poison(leaf):
        leaf.data[...] = np.nan
        poisoned.append(leaf)

    try:
        swept = gradients(poison)
    finally:
        for name, p in model.params.items():
            p.data[...] = kept[name]
    graded = [p for name, p in model.params.items() if plain[1][name] is not None]
    assert len(graded) > (30 if parts else 20)
    assert sorted(map(id, poisoned)) == sorted(map(id, graded))
    assert swept[0] == plain[0]
    for name in model.params:
        np.testing.assert_array_equal(swept[1][name], plain[1][name], err_msg=name)


@pytest.mark.parametrize("engine", ["mf", "lbp"])
def test_after_backward_only_the_loss_keeps_an_interior_gradient(engine):
    data = toy_corpus(np.random.default_rng(4), size=1, min_len=5, max_len=5)
    model = _tiny_model(data)
    loss = sentence_loss(model, *data[0], TrainConfig(inference=engine))
    ad.backward(loss, 1.0)
    assert loss.grad == 1.0
    interior = [node for node in _graph_nodes(loss) if node._vjp is not None]
    assert len(interior) > 10
    assert all(node.grad is None for node in interior if node is not loss)


def _recording_losses(monkeypatch):
    """Wrap ``training.sentence_loss`` so that each call first checks that
    no taped loss of an earlier call is still alive; returns the list of
    weak references to the taped losses' values."""
    taped = []

    def recording(*args, **kwargs):
        assert all(ref() is None for ref in taped)
        loss = sentence_loss(*args, **kwargs)
        if loss.requires_grad:
            taped.append(weakref.ref(loss.data))
        return loss

    monkeypatch.setattr(training, "sentence_loss", recording)
    return taped


@pytest.mark.parametrize("engine", ["mf", "lbp"])
def test_train_frees_each_sentence_tape_before_the_next_forward(monkeypatch, engine):
    data = toy_corpus(np.random.default_rng(4), size=6, min_len=4, max_len=6)
    taped = _recording_losses(monkeypatch)
    train(_tiny_model(data), data, data[:2],
          TrainConfig(inference=engine, max_steps=4, batch_token_budget=12))
    assert len(taped) > 4


def test_gradcheck_frees_its_analytic_tape_before_the_finite_differences(monkeypatch):
    data = toy_corpus(np.random.default_rng(5), size=2, min_len=3, max_len=3)
    taped = _recording_losses(monkeypatch)
    gradcheck(_tiny_model(data, seed=11), *data[0], TrainConfig(seed=0), coords=4, seed=0)
    assert len(taped) == 6


# ---------------------------------------------------------------- edge loss

def test_edge_loss_confident_and_correct_is_tiny():
    pot = from_arrays(((0, 1), (1, 2)), np.array([40.0, -40.0]), [])
    state = mf_run(pot, iterations=1, clamp=None)
    loss = edge_loss(state, SemGraph(2, [(0, 1, "TOP")]))
    assert float(loss.data) == pytest.approx(0.0, abs=1e-12)


def test_edge_loss_uniform_marginals_cost_log2_per_candidate():
    pot = random_potentials(2, np.random.default_rng(0), unary_scale=0.0, coupling_scale=0.0)
    state = mf_run(pot, iterations=2)
    loss = edge_loss(state, SemGraph(2, [(0, 1, "TOP")]))
    assert float(loss.data) == pytest.approx(4.0 * math.log(2.0), abs=1e-12)


def test_edge_loss_charges_confident_mistakes():
    # one candidate edge at probability 3/4 that should be absent
    pot = from_arrays(((0, 1),), np.array([math.log(3.0)]), [])
    state = mf_run(pot, iterations=1)
    loss = edge_loss(state, SemGraph(1, []))
    assert float(loss.data) == pytest.approx(-math.log(0.25), abs=1e-12)


@pytest.mark.parametrize("engine", ["mf", "lbp"])
def test_edge_loss_is_the_log_loss_of_the_final_marginals(engine):
    state = run_inference(random_potentials(3, np.random.default_rng(3), coupling_scale=0.8),
                          engine, 3)
    gold = SemGraph(3, [(0, 2, "TOP"), (2, 1, "a"), (1, 3, "b")])
    on = np.array([edge in gold.edge_pairs() for edge in state.pot.edge_set.edges])
    q = state.q1()
    want = -np.sum(np.log(np.where(on, q, 1.0 - q)))
    assert edge_loss(state, gold).item() == pytest.approx(want, rel=1e-12)


def test_edge_loss_gradient_is_marginal_minus_gold():
    pot = from_arrays(((0, 1), (1, 2)), np.array([0.3, -0.2]), [], requires_grad=True)
    state = mf_run(pot, iterations=1)
    loss = edge_loss(state, SemGraph(2, [(0, 1, "x")]))
    ad.backward(loss, np.ones(()))
    q = state.q1(1)
    np.testing.assert_allclose(pot.edge_scores.grad[pot.edge_set.mask], q - np.array([1.0, 0.0]),
                               atol=1e-12)


# --------------------------------------------------------------- label loss

def _label_fixture(scores_row, labels=("TOP", "a", "b", "c")):
    """ScoreFactors and a model stand-in for n=1 whose one candidate edge
    (0, 1) scores ``scores_row``: the label role vectors are 1-D ones and
    the label weights zero, so the edge's label scores are the bias."""
    from sdparse.model import ParserModel, ScoreFactors

    ones = ad.constant(np.ones((2, 1)))
    s = ScoreFactors(
        edge_set=build_candidate_edges(1),
        edge_scores=ad.constant(np.zeros((2, 2))),
        label_head=ones,
        label_dep=ones,
        tri={},
    )

    class Vocab:
        label2id = {lab: i for i, lab in enumerate(labels)}

        def label_id(self, lab):
            return self.label2id[lab]

    class Model:
        vocab = Vocab()
        params = {"label_W": ad.constant(np.zeros((1, len(labels)))),
                  "label_b": ad.constant(np.asarray(scores_row, dtype=np.float64))}
        label_scores = ParserModel.label_scores

    return s, Model()


def test_label_loss_without_gold_edges_is_zero():
    scores, model = _label_fixture([1.0, 2.0, 3.0, 4.0])
    loss = label_loss(model, scores, SemGraph(1, []))
    assert float(loss.data) == 0.0


def test_label_loss_uniform_scores_cost_log_c():
    scores, model = _label_fixture([2.0, 2.0, 2.0, 2.0])
    loss = label_loss(model, scores, SemGraph(1, [(0, 1, "a")]))
    assert float(loss.data) == pytest.approx(math.log(4.0), abs=1e-12)


def test_label_loss_strong_correct_score_hand_value():
    # gold label 10, three competitors at 0: log(1 + 3 e^-10)
    scores, model = _label_fixture([0.0, 10.0, 0.0, 0.0])
    loss = label_loss(model, scores, SemGraph(1, [(0, 1, "a")]))
    want = math.log1p(3.0 * math.exp(-10.0))
    assert float(loss.data) == pytest.approx(want, rel=1e-12)
    assert float(loss.data) == pytest.approx(1.3619e-4, rel=1e-3)


def test_label_loss_only_reads_gold_edges():
    scores, model = _label_fixture([0.0, 1.0, 0.0, 0.0])
    a = label_loss(model, scores, SemGraph(1, [(0, 1, "a")]))
    scores2, model2 = _label_fixture([0.0, 1.0, 0.0, 0.0])
    b = label_loss(model2, scores2, SemGraph(1, [(0, 1, "b")]))
    assert float(a.data) < float(b.data)


@pytest.mark.parametrize("n", [1, 7, 20])
def test_label_scores_and_loss_are_bitwise_the_grid_reference(n):
    """Scoring only the named edges gives, byte for byte, the rows that the
    whole-grid path gives those edges (gold and kept), and the same label
    loss and parameter gradients, with label dropout drawn."""
    data = toy_corpus(np.random.default_rng(n), size=1, min_len=n, max_len=n)
    sentence, gold = data[0]
    model = ParserModel(ModelConfig(dropout_label=0.3, dropout_unary=0.3),
                        build_vocab(data, min_count=1), np.random.default_rng(5))
    factors = model.score_factors(sentence, rng=np.random.default_rng(11))
    grid = reference_label_rows(model, factors).data
    positions = factors.edge_set.positions()
    q = run_inference(factors, "mf", 3).q1()
    gold_cells = np.array(sorted(gold.edge_pairs())).T
    for heads, deps in (gold_cells, kept_edges(factors.edge_set, q, 0.5)):
        rows = model.label_scores(factors, heads, deps).data
        assert rows.tobytes() == grid[positions[heads, deps]].tobytes()

    grads = []
    for loss_fn in (label_loss, reference_label_loss):
        model.zero_grad()
        loss = loss_fn(model, factors, gold)
        ad.backward(loss, 1.0)
        grads.append((loss.data.tobytes(),
                      {k: p.grad.tobytes() for k, p in model.params.items() if p.grad is not None}))
    assert grads[0] == grads[1]
    assert "label_W" in grads[0][1] and "proj_label_dep_W" in grads[0][1]


def test_combined_loss_interpolates():
    e = ad.constant(np.array(2.0))
    l = ad.constant(np.array(6.0))
    assert float(combined_loss(e, l, 0.0).data) == pytest.approx(2.0)
    assert float(combined_loss(e, l, 1.0).data) == pytest.approx(6.0)
    assert float(combined_loss(e, l, 0.07).data) == pytest.approx(0.07 * 6.0 + 0.93 * 2.0)


def test_interpolation_zero_leaves_label_scorer_untrained():
    data = toy_corpus(np.random.default_rng(3), size=3)
    model = _tiny_model(data)
    cfg = TrainConfig(interpolation=0.0, max_steps=1)
    sent, gold = data[0]
    model.zero_grad()
    loss = sentence_loss(model, sent, gold, cfg)
    ad.backward(loss, np.ones(()))
    for name in ("label_W", "label_b", "proj_label_head_W", "proj_label_dep_W"):
        g = model.params[name].grad
        assert g is None or not np.any(g)


# ---------------------------------------------------------------- optimizer

def _params(values):
    return {f"p{i}": ad.parameter(np.array(v)) for i, v in enumerate(values)}


def test_learning_rate_halves_every_decay_interval():
    cfg = TrainConfig(learning_rate=1e-2, lr_decay=0.5, decay_every_steps=10000, l2=0.0)
    opt = Optimizer(_params([1.0]), cfg)
    assert opt.learning_rate() == pytest.approx(1e-2)
    opt.step_count = 9999
    assert opt.learning_rate() == pytest.approx(1e-2)
    opt.step_count = 10000
    assert opt.learning_rate() == pytest.approx(5e-3)
    opt.step_count = 25000
    assert opt.learning_rate() == pytest.approx(2.5e-3)


def test_first_step_moves_by_roughly_the_learning_rate():
    params = _params([0.0])
    cfg = TrainConfig(learning_rate=1e-2, l2=0.0)
    opt = Optimizer(params, cfg)
    params["p0"].grad = np.array(0.5)
    opt.apply()
    # zero first-moment decay: update = lr * g / (sqrt(g^2) + eps) = lr
    assert float(params["p0"].data) == pytest.approx(-1e-2, rel=1e-6)


def test_second_moment_accumulates_with_decay():
    params = _params([0.0])
    cfg = TrainConfig(learning_rate=1e-2, beta2=0.95, epsilon=1e-8, l2=0.0)
    opt = Optimizer(params, cfg)
    params["p0"].grad = np.array(2.0)
    opt.apply()
    params["p0"].grad = np.array(1.0)
    opt.apply()
    want_first = -1e-2 * 2.0 / (2.0 + 1e-8)
    v = 0.95 * (0.05 * 4.0) + 0.05 * 1.0
    vhat = v / (1.0 - 0.95 ** 2)
    want_second = -1e-2 * 1.0 / (math.sqrt(vhat) + 1e-8)
    assert float(params["p0"].data) == pytest.approx(want_first + want_second, rel=1e-9)


def test_amsgrad_switch_is_one_way_and_uses_running_max():
    params = _params([0.0])
    cfg = TrainConfig(learning_rate=1e-2, beta2=0.95, epsilon=1e-8, l2=0.0)
    opt = Optimizer(params, cfg)
    params["p0"].grad = np.array(4.0)
    opt.apply()
    v_before = float(opt.v["p0"])
    opt.switch_to_amsgrad()
    assert opt.mode == "amsgrad"
    opt.switch_to_amsgrad()  # repeat is a no-op
    assert opt.mode == "amsgrad"
    # a tiny gradient cannot shrink the denominator once the max is kept
    params["p0"].grad = np.array(1e-6)
    opt.apply()
    assert float(opt.v_max["p0"]) >= v_before * 0.95
    assert float(opt.v["p0"]) < float(opt.v_max["p0"])


def test_non_finite_gradient_aborts_with_parameter_name():
    params = _params([0.0])
    opt = Optimizer(params, TrainConfig(l2=0.0))
    params["p0"].grad = np.array(np.nan)
    with pytest.raises(NumericError) as err:
        opt.apply()
    assert "p0" in str(err.value)


def test_l2_shrinks_parameters_even_with_zero_gradient():
    params = _params([5.0])
    cfg = TrainConfig(learning_rate=1e-2, l2=1e-3)
    opt = Optimizer(params, cfg)
    params["p0"].grad = np.array(0.0)
    opt.apply()
    assert 0.0 < float(params["p0"].data) < 5.0


def _split_updates(monkeypatch, cpus=2, run_min=1000):
    """Let an optimizer made after this call start a worker for a model of
    at least two ``run_min`` runs, as if the process could use ``cpus``."""
    monkeypatch.setattr(training, "_RUN_MIN", run_min)
    monkeypatch.setattr(training.os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _recording_threads(monkeypatch):
    """Record the thread and the block of every ``_adam_block`` call."""
    threads, adam_block = [], training._adam_block

    def recording(*args, **kwargs):
        threads.append((threading.get_ident(), kwargs["w"]))
        adam_block(*args, **kwargs)

    monkeypatch.setattr(training, "_adam_block", recording)
    return threads


def _wait_for(condition):
    for _ in range(1000):
        if condition():
            return
        time.sleep(0.01)
    raise AssertionError("the worker took no block in 10 s")


# 145,014 elements in 8 blocks: w, b, three of big (131, 131 and 38 rows)
# and three of vec
def _textbook_start(rng):
    return {"w": rng.normal(size=(3, 4)), "b": np.array(0.7),
            "big": rng.normal(size=(300, 250)), "vec": rng.normal(size=70001)}


@pytest.mark.parametrize("amsgrad, beta1, worker", [
    pytest.param(amsgrad, beta1, worker, id=name + ("-worker" if worker else ""))
    for name, amsgrad, beta1 in [("False", False, 0.3), ("True", True, 0.3),
                                 ("beta1=0-adam", False, 0.0), ("beta1=0-amsgrad", True, 0.0)]
    for worker in (False, True)
])
def test_updates_follow_the_textbook_formula(rng, monkeypatch, amsgrad, beta1, worker):
    """Three Adam or AMSGrad steps with l2 on a 0-d parameter, a small
    matrix, and a matrix and a vector that span several update blocks,
    bitwise equal to the plain formula (at beta1 = 0 the optimizer keeps
    no first moment, and the formula's m is g): all applied on the calling
    thread, or vec, big and w queued first and updated by the worker
    while the caller waits, then b applied."""
    if worker:
        _split_updates(monkeypatch)
    threads = _recording_threads(monkeypatch)
    cfg = TrainConfig(learning_rate=3e-2, beta1=beta1, beta2=0.9, epsilon=1e-8, l2=0.05)
    start = _textbook_start(rng)
    params = {k: ad.parameter(v.copy()) for k, v in start.items()}
    opt = Optimizer(params, cfg)
    if amsgrad:
        opt.switch_to_amsgrad()
    want = {k: v.copy() for k, v in start.items()}
    m = {k: np.zeros_like(v) for k, v in start.items()}
    v2 = {k: np.zeros_like(v) for k, v in start.items()}
    v_max = {k: np.zeros_like(v) for k, v in start.items()}
    for t in (1, 2, 3):
        grads = {k: rng.normal(size=v.shape) * 10.0 ** (2 - t) for k, v in start.items()}
        for k, p in params.items():
            p.grad = grads[k].copy()
            g = grads[k] + cfg.l2 * want[k]
            m[k] = cfg.beta1 * m[k] + (1 - cfg.beta1) * g
            v2[k] = cfg.beta2 * v2[k] + (1 - cfg.beta2) * g * g
            v_max[k] = np.maximum(v_max[k], v2[k])
            m_hat = m[k] / (1 - cfg.beta1 ** t)
            v_hat = (v_max[k] if amsgrad else v2[k]) / (1 - cfg.beta2 ** t)
            want[k] = want[k] - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
        before = threading.active_count()
        threads.clear()
        if worker:
            for k in ("vec", "big", "w"):
                opt.queue(params[k])
            _wait_for(lambda: len(threads) == 7)
            assert len({ident for ident, _ in threads}) == 1
            assert threads[0][0] != threading.get_ident()
        opt.apply()
        assert threading.active_count() == before
        assert len(threads) == 8 and {ident for ident, _ in threads} <= {
            threads[0][0], threading.get_ident()}
        for k, p in params.items():
            assert isinstance(p.data, np.ndarray) and p.data.shape == start[k].shape
            np.testing.assert_array_equal(p.data, want[k])
            np.testing.assert_array_equal(p.grad, grads[k])   # gradients are not touched
            np.testing.assert_array_equal(opt.v[k], v2[k])
            if beta1:
                np.testing.assert_array_equal(opt.m[k], m[k])
            if amsgrad:
                np.testing.assert_array_equal(opt.v_max[k], v_max[k])


@pytest.mark.parametrize("amsgrad", [False, True], ids=["adam", "amsgrad"])
@pytest.mark.parametrize("beta1", [0.0, 0.3])
def test_a_step_queued_during_the_backward_is_bitwise_an_applied_one(monkeypatch, amsgrad,
                                                                     beta1):
    """Three batches of two sentences, whose last backward pass queues
    each finished gradient for the worker, end at the weights and moments
    of the same batches each applied after its backward pass."""
    _split_updates(monkeypatch)
    data = toy_corpus(np.random.default_rng(2), size=6, min_len=4, max_len=7)
    cfg = TrainConfig(beta1=beta1)
    started = []
    start_worker = training._Update.start_worker
    monkeypatch.setattr(training._Update, "start_worker",
                        lambda update: started.append(start_worker(update)))
    runs = []
    for hooked in (False, True):
        model = ParserModel(ModelConfig(), build_vocab(data, min_count=1),
                            np.random.default_rng(0))
        opt = Optimizer(model.params, cfg)
        if amsgrad:
            opt.switch_to_amsgrad()
        for k in range(0, 6, 2):
            model.zero_grad()
            for i in (k, k + 1):
                loss = sentence_loss(model, *data[i], cfg)
                ad.backward(loss, 0.5, on_leaf=opt.queue if hooked and i > k else None)
            opt.apply()
        runs.append((model, opt))
    assert len(started) == 3
    (plain, plain_opt), (hooked, hooked_opt) = runs
    for name in plain.params:
        np.testing.assert_array_equal(hooked.params[name].data, plain.params[name].data)
        for moments in ("m", "v", "v_max"):
            if getattr(plain_opt, moments) is not None:
                np.testing.assert_array_equal(getattr(hooked_opt, moments)[name],
                                              getattr(plain_opt, moments)[name])


def test_blocks_queued_while_the_worker_takes_them_are_each_updated_once(monkeypatch, rng):
    """300 one-block parameters queued one at a time while the worker
    takes them, with the interpreter switching threads every microsecond:
    each block is updated once, by one of the two threads, and the weights
    and moments are bitwise those of a step applied on the calling thread."""
    _split_updates(monkeypatch, run_min=100)
    start = {f"p{i:03d}": rng.normal(size=50) for i in range(300)}
    grads = {k: rng.normal(size=50) for k in start}
    threads, runs = _recording_threads(monkeypatch), []
    for queued in (False, True):
        params = {k: ad.parameter(v.copy()) for k, v in start.items()}
        for k, p in params.items():
            p.grad = grads[k]
        opt = Optimizer(params, TrainConfig())
        threads.clear()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            if queued:
                for p in params.values():
                    opt.queue(p)
            opt.apply()
        finally:
            sys.setswitchinterval(switch)
        assert sorted(id(w.base) for _, w in threads) == sorted(
            id(p.data) for p in params.values())
        runs.append((params, opt))
    for k in start:
        np.testing.assert_array_equal(runs[1][0][k].data, runs[0][0][k].data)
        np.testing.assert_array_equal(runs[1][1].v[k], runs[0][1].v[k])


def test_a_desk_model_updates_in_one_run_on_the_calling_thread(monkeypatch):
    """At the real run size, a desk-dims model's update starts no thread,
    however many CPUs the process may use, also when its backward pass
    queues the gradients."""
    _split_updates(monkeypatch, cpus=64, run_min=training._RUN_MIN)
    threads = _recording_threads(monkeypatch)
    monkeypatch.setattr(training.threading, "Thread", None)
    data = toy_corpus(np.random.default_rng(0), size=4)
    model = ParserModel(ModelConfig(), build_vocab(data, min_count=1), np.random.default_rng(0))
    assert 30_000 < sum(p.data.size for p in model.params.values()) < 2 * training._RUN_MIN
    opt = Optimizer(model.params, TrainConfig())
    for p in model.params.values():
        p.grad = np.ones_like(p.data)
    opt.apply()
    ad.backward(sentence_loss(model, *data[0], TrainConfig()), 1.0, on_leaf=opt.queue)
    opt.apply()
    assert threads and {ident for ident, _ in threads} == {threading.get_ident()}


@pytest.mark.parametrize("worker", [False, True], ids=["caller", "worker"])
def test_non_finite_gradients_name_the_earliest_queued_parameter(
        monkeypatch, rng, worker):
    """At step 2, NaNs in big's last block and vec's first, with vec
    queued before big: the error names vec, which comes after big in
    parameter order, and no thread is left. On the calling thread alone
    the first block is the bad one, so no weight moves."""
    if worker:
        _split_updates(monkeypatch)
    params = {k: ad.parameter(v) for k, v in _textbook_start(rng).items()}
    opt = Optimizer(params, TrainConfig(l2=0.0))
    for p in params.values():
        p.grad = np.ones_like(p.data)
    opt.apply()
    before = {k: p.data.copy() for k, p in params.items()}
    params["big"].grad[-1, -1] = np.nan
    params["vec"].grad[0] = np.nan
    threads = threading.active_count()
    opt.queue(params["vec"])
    opt.queue(params["big"])
    with pytest.raises(NumericError) as err:
        opt.apply()
    assert "'vec'" in str(err.value) and "step 2" in str(err.value)
    assert threading.active_count() == threads
    if not worker:
        for k, p in params.items():
            np.testing.assert_array_equal(p.data, before[k])


def test_an_error_in_a_worker_run_reaches_the_caller(monkeypatch, rng):
    """The worker fails on big's first block after the calling thread has
    failed on its second: the error raised is the worker's, the earlier
    in the queue."""
    _split_updates(monkeypatch)
    params = {k: ad.parameter(v) for k, v in _textbook_start(rng).items()}
    for p in params.values():
        p.grad = np.ones_like(p.data)
    caller, entered, caller_failed = threading.get_ident(), threading.Event(), threading.Event()

    def failing(*args, **kwargs):
        if threading.get_ident() == caller:
            caller_failed.set()
            raise RuntimeError("caller failed")
        entered.set()
        caller_failed.wait(10)
        raise RuntimeError("worker failed")

    monkeypatch.setattr(training, "_adam_block", failing)
    threads = threading.active_count()
    opt = Optimizer(params, TrainConfig())
    opt.queue(params["big"])
    assert entered.wait(10)
    with pytest.raises(RuntimeError, match="worker failed"):
        opt.apply()
    assert caller_failed.is_set()
    assert threading.active_count() == threads


def test_an_error_in_the_backward_pass_after_the_worker_started_leaves_no_thread(monkeypatch):
    """train's last backward pass of a batch raises after it has queued
    three gradients for a worker it started: the worker is joined before
    the error leaves train."""
    _split_updates(monkeypatch)
    data = toy_corpus(np.random.default_rng(0), size=4, min_len=4, max_len=6)
    started, reported = [], []
    start_worker = training._Update.start_worker
    monkeypatch.setattr(training._Update, "start_worker",
                        lambda update: started.append(start_worker(update)))
    backward = ad.backward

    def failing(loss, seed, on_leaf=None):
        def hook(leaf):
            on_leaf(leaf)
            reported.append(leaf)
            if len(reported) == 3:
                raise RuntimeError("backward failed")

        backward(loss, seed, on_leaf=None if on_leaf is None else hook)

    monkeypatch.setattr(ad, "backward", failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="backward failed"):
        train(ParserModel(ModelConfig(), build_vocab(data, min_count=1),
                          np.random.default_rng(0)), data, None, TrainConfig(max_steps=2))
    assert len(started) == 1 and len(reported) == 3
    assert threading.active_count() == threads


def test_zero_beta1_keeps_no_first_moment():
    params = {"w": ad.parameter(np.ones((3, 4))), "b": ad.parameter(np.array(0.5))}
    opt = Optimizer(params, TrainConfig(beta1=0.0))
    assert opt.m is None and opt.v_max is None and sorted(opt.v) == ["b", "w"]
    opt.switch_to_amsgrad()
    assert opt.m is None and sorted(opt.v_max) == ["b", "w"]
    assert Optimizer(params, TrainConfig(beta1=0.5)).m["w"].shape == (3, 4)


def test_non_finite_gradient_in_a_late_block_names_the_parameter():
    rows = 3 * _UPDATE_BLOCK // 100 + 7
    params = {"small": ad.parameter(np.zeros(5)), "big": ad.parameter(np.zeros((rows, 100)))}
    opt = Optimizer(params, TrainConfig(l2=0.0))
    params["small"].grad = np.ones(5)
    grad = np.ones((rows, 100))
    grad[-1, -1] = np.nan
    params["big"].grad = grad
    with pytest.raises(NumericError) as err:
        opt.apply()
    assert "'big'" in str(err.value) and "step 1" in str(err.value)


@pytest.mark.parametrize("value", [-0.1, 1.5, math.nan])
def test_interpolation_out_of_range_is_a_config_error(value):
    with pytest.raises(ConfigError, match="interpolation must be in"):
        TrainConfig(interpolation=value).validate()


def test_an_infinite_logit_clamp_is_no_clamp():
    TrainConfig(logit_clamp=math.inf).validate()


def test_l2_default_depends_on_inference_engine():
    assert TrainConfig(inference="mf").l2 == pytest.approx(3e-9)
    assert TrainConfig(inference="lbp").l2 == pytest.approx(3e-8)
    assert TrainConfig(inference="mf", l2=1e-4).l2 == pytest.approx(1e-4)


# ------------------------------------------------------------------ batching

def test_batches_pack_up_to_the_token_budget(rng):
    data = toy_corpus(rng, size=20)
    batches = make_batches(data, token_budget=12, rng=np.random.default_rng(1))
    flat = [pair for batch in batches for pair in batch]
    assert len(flat) == len(data)
    for batch in batches:
        tokens = sum(s.n for s, _ in batch)
        assert tokens <= 12 or len(batch) == 1
        # sentences inside one batch have near-uniform length (sorted packing)
        lengths = [s.n for s, _ in batch]
        assert max(lengths) - min(lengths) <= 2


def test_batch_order_is_seeded(rng):
    data = toy_corpus(rng, size=20)
    a = make_batches(data, 12, np.random.default_rng(4))
    b = make_batches(data, 12, np.random.default_rng(4))
    c = make_batches(data, 12, np.random.default_rng(5))
    key = lambda batches: [[s.n for s, _ in batch] for batch in batches]
    assert key(a) == key(b)
    assert key(a) != key(c)


# ------------------------------------------------------------ training loop

def test_training_is_deterministic():
    data = toy_corpus(np.random.default_rng(42), size=6)
    cfg = TrainConfig(max_steps=8, seed=3, batch_token_budget=20)
    runs = []
    for _ in range(2):
        model = _tiny_model(data)
        res = train(model, data, data, cfg)
        runs.append((res.best_score, res.steps,
                     [row["train_loss"] for row in res.history]))
    assert runs[0] == runs[1]


def test_training_restores_best_snapshot():
    data = toy_corpus(np.random.default_rng(42), size=6)
    model = _tiny_model(data)
    cfg = TrainConfig(max_steps=30, seed=3, batch_token_budget=20)
    res = train(model, data, data, cfg)
    from sdparse.pipeline import parse_sentence
    from sdparse.metrics import f1

    preds = [parse_sentence(model, s, engine=cfg.inference, iterations=cfg.iterations)[0]
             for s, _ in data]
    score = f1(preds, [g for _, g in data])[2]
    assert score == pytest.approx(res.best_score, abs=1e-12)


def test_training_returns_the_best_epoch_parameters_after_a_worse_one():
    data = toy_corpus(np.random.default_rng(42), size=6)
    model = _tiny_model(data)
    best = {"score": -1.0}

    def log(row):
        if row["dev_labeled_f1"] > best["score"]:
            best.update(score=row["dev_labeled_f1"], arrays=model.state_arrays())

    res = train(model, data, data, TrainConfig(max_steps=27, seed=3, batch_token_budget=20),
                log=log)
    assert res.history[-1]["dev_labeled_f1"] < res.best_score == best["score"]
    for name, arr in best["arrays"].items():
        np.testing.assert_array_equal(model.params[name].data, arr)


def test_training_drops_overlong_sentences():
    rng = np.random.default_rng(42)
    short = toy_corpus(rng, size=1, min_len=2, max_len=2)
    long = toy_corpus(rng, size=1, min_len=6, max_len=6)
    data = short + long
    model = _tiny_model(data)
    # Budget of 1 token forces one sentence per batch, so the first epoch
    # takes exactly as many steps as there are usable sentences.
    cfg = TrainConfig(max_steps=3, seed=3, max_sentence_length=2,
                      batch_token_budget=1)
    res = train(model, data, data, cfg)
    assert res.history[0]["step"] == 1  # the length-6 sentence was dropped

    all_long = toy_corpus(np.random.default_rng(1), size=3, min_len=5, max_len=7)
    with pytest.raises(ConfigError):
        train(_tiny_model(all_long), all_long, all_long,
              TrainConfig(max_steps=2, seed=3, max_sentence_length=2))


def test_a_sentence_over_the_lbp_cap_fails_before_the_first_step(monkeypatch):
    data = toy_corpus(np.random.default_rng(42), size=6)   # lengths 3 and 4
    assert {s.n for s, _ in data} == {3, 4}

    def refuse(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(pipeline, "PAIR_LENGTH_CAP", 3)
    monkeypatch.setattr(training, "sentence_loss", refuse)
    cfg = TrainConfig(inference="lbp", max_steps=2, seed=3, max_sentence_length=3)
    # a dev sentence: training drops the 4-token ones, dev keeps them
    with pytest.raises(CapacityError, match="4-token sentence exceeds the length cap of 3"):
        train(_tiny_model(data), data, data, cfg)
    # a kept training sentence, with no dev set
    with pytest.raises(CapacityError, match="length cap of 3"):
        train(_tiny_model(data), data, [], replace(cfg, max_sentence_length=4))
    # mean-field has no cap, so it reaches the first step
    with pytest.raises(AssertionError, match="a training step ran"):
        train(_tiny_model(data), data, data, replace(cfg, inference="mf"))


def test_a_sentence_lbp_training_takes_at_three_sweeps_fails_at_ten(monkeypatch):
    """Each taped sweep adds to the declared bytes per cell, so ``train``
    derives its up-front cap from ``iterations``; a dev sentence is only
    parsed, which tapes nothing, and keeps the three-sweep cap."""
    data = toy_corpus(np.random.default_rng(42), size=6)   # lengths 3 and 4

    def refuse(*args, **kwargs):
        raise AssertionError("a training step ran")

    # caps of 4 tokens at T = 3 and of 3 at T = 10
    monkeypatch.setattr(pipeline, "PAIR_MEMORY_BUDGET", 50_000)
    monkeypatch.setattr(training, "sentence_loss", refuse)
    cfg = TrainConfig(inference="lbp", max_steps=2, seed=3)
    with pytest.raises(AssertionError, match="a training step ran"):
        train(_tiny_model(data), data, [], replace(cfg, iterations=3))
    with pytest.raises(CapacityError, match="4-token sentence exceeds the length cap of 3"):
        train(_tiny_model(data), data, [], replace(cfg, iterations=10))
    # training keeps the 3-token sentences, dev the 4-token ones
    with pytest.raises(AssertionError, match="a training step ran"):
        train(_tiny_model(data), data, data, replace(cfg, iterations=10, max_sentence_length=3))


def test_history_rows_carry_progress_fields():
    data = toy_corpus(np.random.default_rng(42), size=6)
    model = _tiny_model(data)
    res = train(model, data, data, TrainConfig(max_steps=6, seed=3, batch_token_budget=20))
    assert res.history
    row = res.history[0]
    for key in ("epoch", "step", "train_loss", "dev_labeled_f1", "lr", "optimizer"):
        assert key in row
    assert row["optimizer"] == "adam"


# ------------------------------------------------------------- the gradcheck

def test_gradcheck_passes_on_a_tiny_model():
    data = toy_corpus(np.random.default_rng(5), size=2, min_len=3, max_len=3)
    model = _tiny_model(data, seed=11)
    sent, gold = data[0]
    cfg = TrainConfig(seed=0)
    result = gradcheck(model, sent, gold, cfg, coords=40, seed=0)
    assert result.coords_checked >= 6 * 40
    assert set(result.per_combo) == {(engine, t) for engine in ("mf", "lbp") for t in (1, 2, 3)}
    assert result.max_rel_error < 1e-5
    assert result.ok()


def test_gradcheck_tapes_only_its_analytic_pass(monkeypatch):
    """The finite-difference losses run under no_grad and give bitwise the
    errors of taped ones."""
    data = toy_corpus(np.random.default_rng(5), size=2, min_len=3, max_len=3)
    sent, gold = data[0]
    taped_losses = []

    def counting(*args, **kwargs):
        loss = sentence_loss(*args, **kwargs)
        taped_losses.append(loss.requires_grad)
        return loss

    def check():
        model = _tiny_model(data, seed=11)
        return gradcheck(model, sent, gold, TrainConfig(seed=0), coords=12, seed=0).per_combo

    monkeypatch.setattr(training, "sentence_loss", counting)
    per_combo = check()
    # one taped analytic pass per combination; every other loss is a constant
    assert sum(taped_losses) == 6 and len(taped_losses) > 6 * 12
    monkeypatch.setattr(ad, "no_grad", contextlib.nullcontext)
    taped_losses.clear()
    taped = check()
    assert all(taped_losses)
    assert {k: v.hex() for k, v in per_combo.items()} == {k: v.hex() for k, v in taped.items()}
