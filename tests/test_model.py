"""Embeddings, encoder, role projections, and the biaffine/trilinear
scorers, checked against direct numpy recomputation."""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

import sdparse.autodiff as ad
from sdparse.errors import ConfigError
from sdparse.graph import Sentence, Token
from sdparse.model import ROLES, ModelConfig, ParserModel
from sdparse.pipeline import parse_sentence
from sdparse.potentials import from_factors
from sdparse.sdp_io import build_vocab
from sdparse.synthetic import toy_corpus

from conftest import part_rows, unary_scores

TINY = ModelConfig(word_dim=4, pos_dim=3, encoder_layers=0, unary_dim=5, binary_dim=3)


@pytest.fixture
def corpus():
    return toy_corpus(np.random.default_rng(1), size=6)


@pytest.fixture
def vocab(corpus):
    return build_vocab(corpus, min_count=1)


@pytest.fixture
def model(vocab):
    return ParserModel(TINY, vocab, np.random.default_rng(9))


@pytest.fixture
def sentence(corpus):
    return corpus[0][0]


def test_config_dimensions():
    assert TINY.input_dim == 7
    assert TINY.context_dim == 7  # no encoder: context is the raw input
    deep = ModelConfig(word_dim=4, pos_dim=3, encoder_layers=2, encoder_hidden=6)
    assert deep.context_dim == 12  # both directions concatenated


def test_config_validation_rejects_bad_values():
    with pytest.raises(ConfigError):
        ModelConfig(word_dim=0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(dropout_embed=1.0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(encoder_layers=-1).validate()


def test_use_pretrained_without_a_table_is_a_config_error(vocab):
    with pytest.raises(ConfigError, match="no embedding table was given"):
        ParserModel(ModelConfig(use_pretrained=True), vocab, np.random.default_rng(0))


def test_embed_shape_and_reserved_root_row(model, sentence, vocab):
    out = model.embed(sentence)
    assert out.data.shape == (sentence.n + 1, 7)
    want_root = np.concatenate([
        model.params["word_emb"].data[vocab.TOP_ID],
        model.params["pos_emb"].data[vocab.TOP_ID],
    ])
    np.testing.assert_array_equal(out.data[0], want_root)


def test_embed_unknown_form_uses_unknown_row(model, vocab):
    s = Sentence(tokens=(Token("never-seen-form", "x", "N"),))
    out = model.embed(s)
    want = np.concatenate([
        model.params["word_emb"].data[vocab.UNK_ID],
        model.params["pos_emb"].data[vocab.pos_id("N")],
    ])
    np.testing.assert_array_equal(out.data[1], want)


def test_encoder_disabled_is_identity(model, sentence):
    emb = model.embed(sentence)
    ctx = model.encode(emb)
    np.testing.assert_array_equal(ctx.data, emb.data)


def test_encoder_enabled_changes_shape_and_values(vocab, sentence):
    cfg = ModelConfig(word_dim=4, pos_dim=3, encoder_layers=1, encoder_hidden=4,
                      unary_dim=5, binary_dim=3)
    m = ParserModel(cfg, vocab, np.random.default_rng(9))
    ctx = m.encode(m.embed(sentence))
    assert ctx.data.shape == (sentence.n + 1, 8)
    rerun = m.encode(m.embed(sentence))
    np.testing.assert_array_equal(ctx.data, rerun.data)


def _tanh(x):
    """tanh(x) = 2 sigmoid(2x) - 1, from the ops the parser has."""
    two = ad.constant(2.0)
    return ad.sub(ad.mul(ad.sigmoid(ad.mul(x, two)), two), ad.constant(1.0))


def _matvec(M, v):
    """M @ v for a vector v, as the 2-D product of M and v as a column."""
    return ad.reshape(ad.matmul(M, ad.reshape(v, (-1, 1))), (-1,))


def reference_encode(model, inputs, rng=None):
    """The encoder as per-token autodiff ops: one gate matmul, gather and
    nonlinearity per position and direction, rows re-stacked at the end.
    Given ``rng``, draws dropout masks in the order ``ParserModel.encode``
    does."""
    cfg = model.config
    h_dim = cfg.encoder_hidden

    def direction(rows, prefix):
        Wx, Wh, b = (model.params[f"{prefix}_{w}"] for w in ("Wx", "Wh", "b"))
        h = ad.constant(np.zeros(h_dim))
        cell = ad.constant(np.zeros(h_dim))
        recur_mask = None
        if rng is not None and cfg.dropout_lstm_recur > 0.0:
            p = cfg.dropout_lstm_recur
            recur_mask = ad.constant((rng.random(h_dim) >= p) / (1.0 - p))
        outs = []
        for x in rows:
            h_in = ad.mul(h, recur_mask) if recur_mask is not None else h
            gates = ad.add(ad.add(_matvec(Wx, x), _matvec(Wh, h_in)), b)
            i, f, g, o = (ad.take(gates, np.arange(k * h_dim, (k + 1) * h_dim))
                          for k in range(4))
            i, f, g, o = ad.sigmoid(i), ad.sigmoid(f), _tanh(g), ad.sigmoid(o)
            cell = ad.add(ad.mul(f, cell), ad.mul(i, g))
            h = ad.mul(o, _tanh(cell))
            outs.append(h)
        return outs

    current = inputs
    for layer in range(cfg.encoder_layers):
        if rng is not None and cfg.dropout_lstm_ff > 0.0:
            p = cfg.dropout_lstm_ff
            current = ad.mul(current, ad.constant((rng.random(current.shape) >= p) / (1.0 - p)))
        rows = [ad.take(current, t) for t in range(current.shape[0])]
        fw = direction(rows, f"lstm{layer}_fw")
        bw = direction(list(reversed(rows)), f"lstm{layer}_bw")
        bw.reverse()
        current = ad.concat([ad.reshape(ad.concat([f, bk]), (1, -1))
                             for f, bk in zip(fw, bw)], axis=0)
    return current


DROPPED = dict(dropout_embed=0.5, dropout_lstm_ff=0.5, dropout_lstm_recur=0.5,
               dropout_unary=0.5, dropout_label=0.5, dropout_binary=0.5)


@pytest.mark.parametrize("n", [1, 9])
def test_fused_encoder_matches_per_token_reference(vocab, n):
    cfg = ModelConfig(word_dim=4, pos_dim=3, encoder_layers=2, encoder_hidden=5,
                      unary_dim=5, binary_dim=3, **DROPPED)
    m = ParserModel(cfg, vocab, np.random.default_rng(9))
    sent = _sentence_of_length(n, seed=70 + n)
    upstream = np.random.default_rng(n).normal(size=(n + 1, 10))

    def run(encode):
        rng = np.random.default_rng(4)
        m.zero_grad()
        out = encode(m.embed(sent, rng=rng), rng=rng)
        ad.backward(out, upstream)
        grads = {name: p.grad for name, p in m.params.items() if p.grad is not None}
        return out.data, grads, rng.random(4)

    got, got_grads, got_next = run(m.encode)
    want, want_grads, want_next = run(lambda x, **kw: reference_encode(m, x, **kw))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert sorted(got_grads) == sorted(want_grads)
    assert any(name.startswith("lstm1_bw") for name in got_grads)
    for name, g in want_grads.items():
        assert np.abs(got_grads[name] - g).max() <= 1e-9 * np.abs(g).max(), name
    # the same masks were drawn in the same order, so the rng ends in step
    np.testing.assert_array_equal(got_next, want_next)


def test_fused_encoder_matches_reference_in_eval_mode(vocab, sentence):
    cfg = ModelConfig(word_dim=4, pos_dim=3, encoder_layers=2, encoder_hidden=3,
                      unary_dim=5, binary_dim=3, **DROPPED)
    m = ParserModel(cfg, vocab, np.random.default_rng(2))
    emb = m.embed(sentence)
    np.testing.assert_allclose(m.encode(emb).data, reference_encode(m, emb).data,
                               rtol=0, atol=1e-12)


def test_role_projections_shapes_and_values(model, sentence):
    ctx = model.encode(model.embed(sentence))
    roles = model.project_roles(ctx)
    assert set(roles) == set(ROLES)
    slope = model.config.leaky_slope
    for name, t in roles.items():
        width = TINY.unary_dim if name.startswith(("edge", "label")) else TINY.binary_dim
        assert t.data.shape == (sentence.n + 1, width)
        pre = ctx.data @ model.params[f"proj_{name}_W"].data.T + model.params[f"proj_{name}_b"].data
        want = np.where(pre >= 0, pre, slope * pre)
        np.testing.assert_allclose(t.data, want, atol=1e-12)


def biaffine(v1, v2, U, b):
    """v1^T U v2 + b for single vectors. v1 is the dependent role vector."""
    return ad.add(ad.tensor_sum(ad.mul(_matvec(U, v2), v1)), b)


def diagonal_biaffine(v1, v2, W, b):
    """Per-label scores sum_m W[m,l] v1[m] v2[m] + b[l]."""
    return ad.add(_matvec(ad.transpose(W), ad.mul(v1, v2)), b)


def trilinear(v1, v2, v3, U1, U2, U3):
    """Rank-decomposed trilinear form: sum_m (U1 v1)_m (U2 v2)_m (U3 v3)_m."""
    return ad.tensor_sum(ad.mul(ad.mul(_matvec(U1, v1), _matvec(U2, v2)),
                                _matvec(U3, v3)))


def test_biaffine_hand_value():
    v1 = ad.constant(np.array([1.0, 2.0]))
    v2 = ad.constant(np.array([3.0, -1.0]))
    U = ad.constant(np.array([[1.0, 0.0], [0.0, 2.0]]))
    b = ad.constant(np.array(0.5))
    # v1' U v2 + b = 1*3 + 2*2*(-1) + 0.5
    assert biaffine(v1, v2, U, b).data == pytest.approx(-0.5)


def test_diagonal_biaffine_hand_value():
    v1 = ad.constant(np.array([1.0, 2.0]))
    v2 = ad.constant(np.array([3.0, -1.0]))
    W = ad.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
    b = ad.constant(np.array([0.0, 10.0]))
    out = diagonal_biaffine(v1, v2, W, b)
    np.testing.assert_allclose(out.data, [3.0, 8.0])


def test_trilinear_matches_rank_sum():
    rng = np.random.default_rng(3)
    d, r = 4, 5
    v1, v2, v3 = (rng.normal(size=d) for _ in range(3))
    U1, U2, U3 = (rng.normal(size=(r, d)) for _ in range(3))
    got = trilinear(*(ad.constant(x) for x in (v1, v2, v3, U1, U2, U3))).data
    want = np.sum((U1 @ v1) * (U2 @ v2) * (U3 @ v3))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_trilinear_equals_full_tensor_contraction():
    rng = np.random.default_rng(123)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        r = int(rng.integers(1, 5))
        v1, v2, v3 = (rng.normal(size=d) for _ in range(3))
        U1, U2, U3 = (rng.normal(size=(r, d)) for _ in range(3))
        got = trilinear(*(ad.constant(x) for x in (v1, v2, v3, U1, U2, U3))).data
        tensor = np.einsum("ma,mb,mc->abc", U1, U2, U3)
        want = np.einsum("abc,a,b,c->", tensor, v1, v2, v3)
        np.testing.assert_allclose(got, want, atol=1e-10)


def _scores_and_roles(model, sentence):
    factors = model.score_factors(sentence)
    ctx = model.encode(model.embed(sentence))
    roles = {k: v.data for k, v in model.project_roles(ctx).items()}
    return factors, from_factors(factors), roles


def test_score_counts_for_two_words(model, corpus):
    sent = Sentence(tokens=corpus[0][0].tokens[:2])
    factors, pot, _ = _scores_and_roles(model, sent)
    assert unary_scores(pot).shape == (4,)
    heads, deps = np.nonzero(factors.edge_set.mask)
    assert model.label_scores(factors, heads, deps).shape == (4, len(model.vocab.label2id))
    assert [np.count_nonzero(pot.part_masks[kind]) for kind in ("sib", "cop", "gp")] == [1, 2, 2]
    assert {kind: s.shape for kind, s in pot.scores.items()} == {
        "sib": (3, 3, 3), "cop": (3, 3, 3), "gp": (3, 3, 3)}


def test_edge_scores_match_direct_biaffine(model, sentence):
    factors, pot, roles = _scores_and_roles(model, sentence)
    U = model.params["edge_U"].data
    b = model.params["edge_b"].data
    for pos, (h, d) in enumerate(pot.edge_set.edges):
        want = roles["edge_dep"][d] @ U @ roles["edge_head"][h] + b
        assert unary_scores(pot)[pos] == pytest.approx(float(want), abs=1e-12)
        assert factors.edge_scores.data[h, d] == unary_scores(pot)[pos]


def test_label_scores_match_direct_product(model, sentence):
    factors, _, roles = _scores_and_roles(model, sentence)
    W = model.params["label_W"].data
    b = model.params["label_b"].data
    heads, deps = np.nonzero(factors.edge_set.mask)
    got = model.label_scores(factors, heads, deps).data
    for pos, (h, d) in enumerate(factors.edge_set.edges):
        want = (roles["label_dep"][d] * roles["label_head"][h]) @ W + b
        np.testing.assert_allclose(got[pos], want, atol=1e-12)


def _tri(roles, model, kind, r1, r2, r3, nodes):
    U1 = model.params[f"tri_{kind}_U1"].data
    U2 = model.params[f"tri_{kind}_U2"].data
    U3 = model.params[f"tri_{kind}_U3"].data
    a, b, c = nodes
    return float(np.sum((U1 @ roles[r1][a]) * (U2 @ roles[r2][b]) * (U3 @ roles[r3][c])))


def test_sibling_scores_read_head_then_both_dependents(model, sentence):
    _, pot, roles = _scores_and_roles(model, sentence)
    S = pot.scores["sib"].data
    for i, j, k in np.argwhere(pot.part_masks["sib"]):
        want = _tri(roles, model, "sib", "sib_head", "sib_dep", "sib_dep", (i, j, k))
        assert S[i, j, k] == pytest.approx(want, abs=1e-10)
        assert S[i, k, j] == S[i, j, k]


def test_coparent_scores_read_shared_dependent_in_the_middle(model, sentence):
    _, pot, roles = _scores_and_roles(model, sentence)
    S = pot.scores["cop"].data
    for i, k, j in np.argwhere(pot.part_masks["cop"]):
        want = _tri(roles, model, "cop", "cop_head", "cop_dep", "cop_head", (i, j, k))
        assert S[i, k, j] == pytest.approx(want, abs=1e-10)
        assert S[k, i, j] == S[i, k, j]


def test_grandparent_scores_are_directional(model, sentence):
    _, pot, roles = _scores_and_roles(model, sentence)
    S = pot.scores["gp"].data
    for i, j, k in np.argwhere(pot.part_masks["gp"]):
        want = _tri(roles, model, "gp", "gp_head", "gp_head_dep", "gp_dep", (i, j, k))
        assert S[i, j, k] == pytest.approx(want, abs=1e-10)


def test_disabled_part_types_are_dropped(vocab, sentence):
    cfg = ModelConfig(word_dim=4, pos_dim=3, encoder_layers=0, unary_dim=5,
                      binary_dim=3, use_sib=False, use_cop=False, use_gp=True)
    m = ParserModel(cfg, vocab, np.random.default_rng(9))
    pot = from_factors(m.score_factors(sentence))
    assert set(pot.scores) == set(pot.part_masks) == {"gp"}
    assert np.count_nonzero(pot.part_masks["gp"]) == len(part_rows(sentence.n)["gp"])


# each part type switched off in turn, and all of them on
PART_SWITCHES = [{}, {"use_sib": False}, {"use_cop": False}, {"use_gp": False}]
# stored triple (a, b, c) -> the factor rows of its first edge and third node
FACTOR_ORDER = {"sib": (0, 1, 2), "cop": (0, 2, 1), "gp": (0, 1, 2)}
# the permutation that maps a stored triple onto the second cell of a
# symmetric type's score tensor
MIRROR = {"sib": (0, 2, 1), "cop": (1, 0, 2)}


def gathered_part_scores(factors, parts):
    """Reference part scores: gather the factor rows of every part and sum
    their product, sum_m g1[a,m] g2[b,m] g3[c,m], one (P, d) row per part.
    A disabled or empty type gets no entry."""
    out = {}
    for kind, order in FACTOR_ORDER.items():
        triples = parts[kind]
        if kind not in factors.tri or not len(triples):
            continue
        g1, g2, g3 = factors.tri[kind]
        a, b, c = (triples[:, col] for col in order)
        prod = ad.mul(ad.mul(ad.take(g1, a), ad.take(g2, b)), ad.take(g3, c))
        out[kind] = ad.tensor_sum(prod, axis=1)
    return out


def _cells(kind, triples):
    """Index tuples of every cell a part type's triples fill."""
    cells = [tuple(triples.T)]
    if kind in MIRROR:
        cells.append(tuple(triples[:, MIRROR[kind]].T))
    return cells


def _scaled_model(vocab, seed, **switches):
    """Encoder on and every parameter redrawn at 0.42, so part scores are
    of order 1."""
    cfg = ModelConfig(word_dim=4, pos_dim=3, encoder_hidden=4, unary_dim=8,
                      binary_dim=6, **switches)
    m = ParserModel(cfg, vocab, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for p in m.params.values():
        p.data = rng.normal(0.0, 0.42, size=p.data.shape)
    return m


def _sentence_of_length(n, seed):
    return toy_corpus(np.random.default_rng(seed), size=1, min_len=n, max_len=n)[0][0]


@pytest.mark.parametrize("switches", PART_SWITCHES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 25])
def test_dense_part_scores_match_per_part_gathers(vocab, n, switches):
    m = _scaled_model(vocab, seed=n, **switches)
    sent = _sentence_of_length(n, seed=50 + n)
    factors = m.score_factors(sent)
    pot = from_factors(factors)
    parts = part_rows(n)
    want = gathered_part_scores(factors, parts)
    for kind in ("sib", "cop", "gp"):
        enabled = switches.get(f"use_{kind}", True)
        assert (kind in want) == (kind in pot.scores) == (enabled and n > 1)
        if kind not in want:
            continue
        # the part's score on each of its cells, 0 everywhere else
        dense = np.zeros((n + 1,) * 3)
        for cells in _cells(kind, parts[kind]):
            dense[cells] = want[kind].data
        np.testing.assert_allclose(pot.scores[kind].data, dense, rtol=0, atol=1e-12)


@pytest.mark.parametrize("switches", PART_SWITCHES)
@pytest.mark.parametrize("n", [7, 25])
def test_dense_part_score_gradients_match_per_part_gathers(vocab, n, switches):
    m = _scaled_model(vocab, seed=n, **switches)
    sent = _sentence_of_length(n, seed=50 + n)
    pot = from_factors(m.score_factors(sent))
    parts = part_rows(n)
    reference = gathered_part_scores(m.score_factors(sent), parts)
    rng = np.random.default_rng(n)
    upstream = {kind: rng.normal(size=s.shape) for kind, s in pot.scores.items()}
    # a part's score sits on each of its cells, so its gradient sums theirs
    per_part = {kind: sum(upstream[kind][cells] for cells in _cells(kind, parts[kind]))
                for kind in reference}

    def param_grads(outputs, seeds):
        m.zero_grad()
        for kind, out in outputs.items():
            ad.backward(out, seeds[kind])
        return {name: p.grad for name, p in m.params.items()}

    got = param_grads(pot.scores, upstream)
    want = param_grads(reference, per_part)
    assert [name for name, g in got.items() if g is not None] == \
        [name for name, g in want.items() if g is not None]
    for name, g in want.items():
        if g is not None:
            assert np.abs(got[name] - g).max() <= 1e-9 * np.abs(g).max(), name


def test_eval_mode_ignores_dropout_config(vocab, sentence):
    kw = dict(word_dim=4, pos_dim=3, encoder_layers=1, encoder_hidden=4,
              unary_dim=5, binary_dim=3)
    plain = ParserModel(ModelConfig(**kw), vocab, np.random.default_rng(9))
    dropped = ParserModel(ModelConfig(**kw, dropout_embed=0.5, dropout_unary=0.5,
                                      dropout_binary=0.5, dropout_lstm_ff=0.5,
                                      dropout_lstm_recur=0.5, dropout_label=0.5),
                          vocab, np.random.default_rng(9))
    a = plain.score_factors(sentence)
    b = dropped.score_factors(sentence)
    np.testing.assert_array_equal(a.edge_scores.data, b.edge_scores.data)


def test_train_mode_dropout_is_seeded(vocab, sentence):
    cfg = ModelConfig(word_dim=4, pos_dim=3, encoder_layers=0, unary_dim=5,
                      binary_dim=3, dropout_unary=0.5)
    m = ParserModel(cfg, vocab, np.random.default_rng(9))
    a = m.score_factors(sentence, rng=np.random.default_rng(4))
    b = m.score_factors(sentence, rng=np.random.default_rng(4))
    c = m.score_factors(sentence, rng=np.random.default_rng(5))
    np.testing.assert_array_equal(a.edge_scores.data, b.edge_scores.data)
    assert not np.array_equal(a.edge_scores.data, c.edge_scores.data)


def test_score_backward_reaches_every_group(model, sentence):
    factors = model.score_factors(sentence)
    pot = from_factors(factors)
    label_rows = model.label_scores(factors, *np.nonzero(factors.edge_set.mask))
    model.zero_grad()
    for out in [pot.edge_scores, label_rows, *pot.scores.values()]:
        ad.backward(out, np.ones_like(out.data))
    groups = model.param_groups()
    for name in ("embeddings", "projections", "edge_biaffine", "label_biaffine", "trilinear"):
        touched = [model.params[p].grad for p in groups[name]]
        assert any(g is not None and np.any(g != 0) for g in touched), name


def test_edge_bias_gradient_is_edge_count(model, sentence):
    pot = from_factors(model.score_factors(sentence))
    model.zero_grad()
    # one unit of upstream gradient on each candidate edge's score
    ad.backward(pot.edge_scores, pot.edge_set.mask.astype(np.float64))
    assert model.params["edge_b"].grad == pytest.approx(sentence.n ** 2)


def test_param_groups_partition_all_parameters(model):
    groups = model.param_groups()
    seen = [name for names in groups.values() for name in names]
    assert len(seen) == len(set(seen))
    assert sorted(seen) == sorted(model.params)


def test_pretrained_channel_shapes_and_fallback(corpus):
    vocab = build_vocab(corpus, min_count=1)
    dim = 6
    table = {f: np.full(dim, 0.1 * i) for i, f in enumerate(vocab.form2id) if f not in ("<unk>", "<top>")}
    cfg = ModelConfig(word_dim=4, pos_dim=3, encoder_layers=0, unary_dim=5,
                      binary_dim=3, use_pretrained=True, pretrained_proj_dim=2)
    m = ParserModel(cfg, vocab, np.random.default_rng(9), pretrained=(table, dim))
    assert cfg.input_dim == 4 + 3 + 2
    s = Sentence(tokens=(Token("never-seen-form", "x", "N"),))
    out = m.embed(s)
    assert out.data.shape == (2, 9)
    W = m.params["pretrained_proj_W"].data
    b = m.params["pretrained_proj_b"].data
    # unseen form: the stored vector is all zeros, leaving only the bias
    np.testing.assert_allclose(out.data[1, 7:], b, atol=1e-12)
    known = corpus[0][0].tokens[0].form
    s2 = Sentence(tokens=(Token(known, "x", "N"),))
    got = m.embed(s2).data[1, 7:]
    np.testing.assert_allclose(got, W @ table[known] + b, atol=1e-12)


def test_a_mean_field_parse_at_unary_dim_600_peaks_below_1500_bytes_per_cell():
    """Label scores are computed only for the kept edges, so a mean-field
    parse at the paper's unary_dim (600) that keeps no edge builds no
    (n+1)^2 x unary_dim array, which alone would take 4,800 bytes per
    (n+1)^2 cell: n = 40 peaks near 720 bytes per cell."""
    n = 40
    sentence, gold = toy_corpus(np.random.default_rng(3), size=1, min_len=n, max_len=n)[0]
    model = ParserModel(ModelConfig(unary_dim=600), build_vocab([(sentence, gold)], min_count=1),
                        np.random.default_rng(0))
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        # no marginal is above 1, so no edge is kept
        graph, _, _ = parse_sentence(model, sentence, "mf", iterations=3, threshold=1.0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert not graph.edges
    assert peak < 1500 * (n + 1) ** 2
