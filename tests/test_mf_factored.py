"""Mean-field on the scorer's factors, checked against mean-field on the
enumerated parts (the dense (n+1)^3 layout of ``potentials.from_factors``,
whose field sums over every part): every iterate, end-to-end gradients,
and the marginals `sdparse parse` writes."""

from __future__ import annotations

import dataclasses
import gc
import json
import tracemalloc

import numpy as np
import pytest

import sdparse.autodiff as ad
import sdparse.cli as cli
from sdparse import pipeline, training
from sdparse.checkpoint import save_checkpoint
from sdparse.config import RunConfig
from sdparse.errors import ConfigError
from sdparse.mf import mf_run
from sdparse.model import ParserModel
from sdparse.sdp_io import build_vocab, parse_sdp, write_sdp
from sdparse.synthetic import toy_corpus
from sdparse.training import TrainConfig, sentence_loss

ITERATIONS = 3
# parameters drawn at this scale give part scores of order 1 and push
# about a tenth of the final logits to the clamp at 30
PARAM_SCALE = 0.42
# each part type switched off in turn, and all of them on
PART_SWITCHES = [
    {},
    {"use_sib": False},
    {"use_cop": False},
    {"use_gp": False},
]


def _vocab():
    return build_vocab(toy_corpus(np.random.default_rng(0), size=6), min_count=1)


def _model(vocab, seed=1, **switches):
    cfg = RunConfig(word_dim=4, pos_dim=3, encoder_hidden=4, unary_dim=8,
                    binary_dim=6, **switches)
    model = ParserModel(cfg.model_config(), vocab, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for p in model.params.values():
        p.data = rng.normal(0.0, PARAM_SCALE, size=p.data.shape)
    return model, cfg


def _sentence(n, seed):
    return toy_corpus(np.random.default_rng(seed), size=1, min_len=n, max_len=n)[0]


_sentence_potentials = pipeline.sentence_potentials


def _pair_list(model, sentence, engine="mf", rng=None):
    """The dense LogPotentials of every part, whatever the engine."""
    return _sentence_potentials(model, sentence, "lbp", rng=rng)


@pytest.mark.parametrize("clamp", [30.0, None])
@pytest.mark.parametrize("switches", PART_SWITCHES)
@pytest.mark.parametrize("n", [1, 2, 3, 7, 25])
def test_every_iterate_matches_the_pair_list(n, switches, clamp):
    model, _ = _model(_vocab(), seed=n, **switches)
    sentence, _ = _sentence(n, seed=100 + n)
    _, pot = _pair_list(model, sentence)
    want = mf_run(pot, ITERATIONS, clamp)
    factors = model.score_factors(sentence)
    got = mf_run(factors, ITERATIONS, clamp)
    # the factored field keeps no message tensor, at any depth
    assert all(mf_run(factors, t, clamp).messages == {} for t in range(1, ITERATIONS + 1))
    assert got.iterations == ITERATIONS
    for t in range(ITERATIONS + 1):
        np.testing.assert_allclose(got.q1(t), want.q1(t), rtol=0, atol=1e-12)
    assert list(got.marginals()) == list(want.marginals())
    # Q is 0 off the edge mask: the factored field sums over every cell of
    # the grid, and scores off the mask (column 0, the diagonal) never enter
    padded = factors.edge_scores.data.copy()
    padded[~factors.edge_set.mask] = 25.0
    noisy = mf_run(dataclasses.replace(factors, edge_scores=ad.constant(padded)),
                   ITERATIONS, clamp)
    for t in range(ITERATIONS + 1):
        np.testing.assert_array_equal(noisy.q1(t), got.q1(t))


def test_message_values_of_a_factored_state_is_a_config_error():
    model, _ = _model(_vocab())
    sentence, _ = _sentence(4, seed=3)
    factors = model.score_factors(sentence)
    for t in (1, ITERATIONS):
        with pytest.raises(ConfigError, match="keeps no message tensors.*trace"):
            mf_run(factors, t).message_values()


@pytest.mark.parametrize("clamp", [30.0, None])
@pytest.mark.parametrize("switches", PART_SWITCHES)
def test_loss_gradients_match_the_pair_list(monkeypatch, switches, clamp):
    model, _ = _model(_vocab(), seed=5, **switches)
    sentence, gold = _sentence(7, seed=11)
    cfg = TrainConfig(inference="mf", iterations=ITERATIONS, logit_clamp=clamp)

    def gradients():
        model.zero_grad()
        loss = sentence_loss(model, sentence, gold, cfg)
        ad.backward([loss], [1.0])
        # parameters of a switched-off part type get no gradient at all
        return loss.item(), {k: p.grad for k, p in model.params.items()
                             if p.grad is not None}

    got_loss, got = gradients()
    monkeypatch.setattr(training, "sentence_potentials", _pair_list)
    want_loss, want = gradients()

    assert got_loss == pytest.approx(want_loss, rel=1e-12)
    assert got.keys() == want.keys()
    for name, g in want.items():
        scale = np.max(np.abs(g))
        assert np.max(np.abs(got[name] - g)) <= 1e-9 * scale, name


def test_parse_marginal_rows_match_the_pair_list(tmp_path, monkeypatch):
    vocab = _vocab()
    model, cfg = _model(vocab, seed=9)
    checkpoint = tmp_path / "model.npz"
    save_checkpoint(checkpoint, model, cfg, vocab)
    corpus = tmp_path / "in.sdp"
    write_sdp(toy_corpus(np.random.default_rng(4), size=3, min_len=5, max_len=12), corpus)

    def parse(tag):
        out, marg = tmp_path / f"{tag}.sdp", tmp_path / f"{tag}.jsonl"
        rc = cli.main(["parse", "--checkpoint", str(checkpoint), "--input", str(corpus),
                       "--output", str(out), "--engine", "mf", "--marginals", str(marg)])
        assert rc == 0
        rows = [json.loads(line) for line in marg.read_text().splitlines()]
        return rows, parse_sdp(out)

    rows, graphs = parse("factored")
    monkeypatch.setattr(pipeline, "sentence_potentials", _pair_list)
    want_rows, want_graphs = parse("pairs")

    assert len(rows) == len(want_rows) == 3
    for row, want in zip(rows, want_rows):
        assert list(row["q"]) == list(want["q"])
        np.testing.assert_allclose(list(row["q"].values()), list(want["q"].values()),
                                   rtol=0, atol=1e-12)
    assert [g for _, g in graphs] == [g for _, g in want_graphs]


def test_parsing_many_lengths_retains_no_memory():
    # nothing sized by a sentence's length outlives its parse: one
    # sentence of each length 31-80 leaves under 1 MiB traced
    model, _ = _model(_vocab())
    sentences = [_sentence(n, seed=n)[0] for n in range(31, 81)]
    pipeline.parse_sentence(model, sentences[0])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for sentence in sentences:
            pipeline.parse_sentence(model, sentence)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20, f"{retained / 2 ** 20:.2f} MiB retained"
