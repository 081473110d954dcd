"""The dense log-potential layout: built from the scorer's factors or
scattered from explicit pairs, read back through the part masks in part
order, and joint log-scores."""

from __future__ import annotations

import numpy as np
import pytest

import sdparse.autodiff as ad
from sdparse import pipeline
from sdparse.errors import DataError
from sdparse.exact import exact_infer
from sdparse.model import ModelConfig, ParserModel
from sdparse.potentials import from_arrays, from_factors
from sdparse.sdp_io import build_vocab
from sdparse.pipeline import run_inference
from sdparse.synthetic import random_potentials, toy_corpus, two_edge_instance
from sdparse.training import TrainConfig, sentence_loss

from conftest import (joint_log_score, pair_list, pair_log, pair_tuples, part_rows, part_scores,
                      unary_log, unary_scores)
from factor_reference import reference_from_factors
from test_graph import reference_edge_pairs
from test_lbp import PART_SWITCHES, _guard_counter, _same_bits, _small_model


@pytest.fixture
def scored():
    data = toy_corpus(np.random.default_rng(1), size=2)
    vocab = build_vocab(data, min_count=1)
    cfg = ModelConfig(word_dim=4, pos_dim=3, encoder_layers=0, unary_dim=5, binary_dim=3)
    model = ParserModel(cfg, vocab, np.random.default_rng(9))
    return model.score_factors(data[0][0])


def test_from_factors_preserves_scores_and_pair_wiring(scored):
    factors = scored
    pot = from_factors(factors)
    n = factors.edge_set.n
    np.testing.assert_array_equal(
        unary_scores(pot), factors.edge_scores.data[factors.edge_set.mask])
    assert pot.edge_scores is factors.edge_scores
    assert len(pot.edge_set) == len(pot.edge_set.edges)
    # typed blocks appear in the documented order, one pair per part
    assert pair_tuples(pot) == reference_edge_pairs(n)
    assert len(part_scores(pot)) == sum(map(len, part_rows(n).values()))
    assert set(pot.part_masks) == set(pot.scores) == {"sib", "cop", "gp"}
    assert not any(mask.flags.writeable for mask in pot.part_masks.values())
    # each pair scores sum_m g1[a,m] g2[b,m] g3[c,m] over its first edge
    # (a, b) and third node c
    want = []
    for (a, b), edge_b, kind, _ in pair_tuples(pot):
        c = ({edge_b[0], edge_b[1]} - {a, b}).pop()
        g1, g2, g3 = (g.data for g in factors.tri[kind])
        want.append(np.sum(g1[a] * g2[b] * g3[c]))
    np.testing.assert_allclose(part_scores(pot), want, rtol=0, atol=1e-12)


def test_each_score_node_keeps_its_part_mask_and_no_cubic_float_array(scored):
    # one node per part type over that type's factors; besides its output it
    # keeps the potentials' boolean mask itself, not a float64 copy of it,
    # and no float (n+1)^3 array
    pot = from_factors(scored)
    cube = (scored.edge_set.n + 1,) * 3
    assert pot.scores.keys() == pot.part_masks.keys() == {"sib", "cop", "gp"}
    for kind, s in pot.scores.items():
        assert s._parents == scored.tri[kind]
        kept = [cell.cell_contents for cell in s._vjp.__closure__]
        arrays = [a for a in kept if isinstance(a, np.ndarray)]
        assert any(a is pot.part_masks[kind] for a in arrays)
        assert not any(a.shape == cube and a.dtype != bool for a in arrays)


# all three part types, each pair of them (one disabled), and each alone
PART_SETS = PART_SWITCHES + [
    {"use_cop": False, "use_gp": False},
    {"use_sib": False, "use_gp": False},
    {"use_sib": False, "use_cop": False},
]


def _lbp_step(monkeypatch, build, model, sentence, gold):
    """(potentials, loss, parameter gradients) of one LBP training loss
    with ``build`` in place of ``from_factors``."""
    built = []

    def building(factors):
        built.append(build(factors))
        return built[-1]

    monkeypatch.setattr(pipeline, "from_factors", building)
    model.zero_grad()
    loss = sentence_loss(model, sentence, gold, TrainConfig(inference="lbp", iterations=3))
    ad.backward(loss, 1.0)
    return built[0], loss, {k: p.grad.copy() for k, p in model.params.items()
                            if p.grad is not None}


def _assert_matches_the_reference_chain(monkeypatch, model, sentence, gold):
    pot, loss, grads = _lbp_step(monkeypatch, from_factors, model, sentence, gold)
    ref_pot, ref_loss, ref_grads = _lbp_step(
        monkeypatch, reference_from_factors, model, sentence, gold)
    assert _same_bits(loss.data, ref_loss.data)
    assert pot.scores.keys() == ref_pot.scores.keys()
    for kind, s in pot.scores.items():
        assert _same_bits(s.data, ref_pot.scores[kind].data), kind
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert _same_bits(g, ref_grads[name]), name
    return pot, grads


@pytest.mark.parametrize("switches", PART_SETS)
@pytest.mark.parametrize("n", [2, 8])
def test_part_score_node_matches_the_reference_chain_bitwise(monkeypatch, n, switches):
    pot, grads = _assert_matches_the_reference_chain(monkeypatch, *_small_model(n, switches))
    enabled = {kind for kind in ("sib", "cop", "gp") if switches.get(f"use_{kind}", True)}
    assert set(pot.scores) == enabled
    assert {name.split("_")[1] for name in grads if name.startswith("tri_")} == enabled


def test_one_word_sentence_gets_no_score_tensor_from_either_build(monkeypatch):
    pot, grads = _assert_matches_the_reference_chain(monkeypatch, *_small_model(1, {}))
    assert pot.scores == {} and pot.part_masks == {}
    assert not any(name.startswith("tri_") for name in grads)


def test_part_score_node_matches_the_reference_chain_on_guarded_cells(monkeypatch):
    """Trained-scale part scores (|s| up to about 50), on which the LBP
    message kernel takes both of its guards."""
    counts = _guard_counter(monkeypatch)
    _assert_matches_the_reference_chain(monkeypatch, *_small_model(8, {}, tri_scale=2.5))
    assert counts["cancel"] and counts["wide"]


def test_from_arrays_validates_lengths():
    edges = ((0, 1), (0, 2))
    with pytest.raises(DataError):
        from_arrays(edges, np.zeros(3), [])
    with pytest.raises(DataError):
        from_arrays(edges, np.zeros(2), [((0, 1), (0, 5), 1.0, "sib")])
    with pytest.raises(DataError):
        from_arrays(edges, np.zeros(2), [((0, 1), (0, 2), 1.0, "sibling")])


@pytest.mark.parametrize("pair", [
    ((0, 1), (0, 2), "cop"),    # shared head: a sibling pair, not co-parents
    ((0, 1), (2, 1), "sib"),    # shared dependent
    ((0, 1), (0, 2), "gp"),     # no chain
    ((0, 2), (1, 2), "gp"),     # shared dependent
    ((1, 2), (2, 1), "gp"),     # a two-cycle is no grandparent part
    ((1, 2), (0, 1), "gp"),     # a chain named second edge first
])
def test_from_arrays_rejects_pairs_off_their_geometry(pair):
    edges = ((0, 1), (0, 2), (1, 2), (2, 1))
    edge_a, edge_b, kind = pair
    with pytest.raises(DataError, match=f"do not form a {kind} part"):
        from_arrays(edges, np.zeros(4), [(edge_a, edge_b, 1.0, kind)])


def test_from_arrays_rejects_bad_edges_and_repeated_parts():
    for edges in (((0, 1), (0, 1)), ((1, 1),), ((1, 0),), ((-1, 2),)):
        with pytest.raises(DataError):
            from_arrays(edges, np.zeros(len(edges)), [])
    edges = ((0, 1), (0, 2))
    with pytest.raises(DataError, match="more than once"):
        from_arrays(edges, np.zeros(2), [((0, 1), (0, 2), 1.0, "sib"),
                                         ((0, 2), (0, 1), 2.0, "sib")])


def test_joint_log_score_enumerates_two_edges():
    s = np.log(2.0)
    pot = from_arrays(((0, 1), (0, 2)), (0.25, -0.5), [((0, 1), (0, 2), s, "sib")],
                      requires_grad=False)
    e1, e2 = pot.edge_set.edges
    assert joint_log_score(pot, set()) == pytest.approx(0.0)
    assert joint_log_score(pot, {e1}) == pytest.approx(0.25)
    assert joint_log_score(pot, {e2}) == pytest.approx(-0.5)
    assert joint_log_score(pot, {e1, e2}) == pytest.approx(0.25 - 0.5 + s)


def test_accessors_look_up_by_edge_and_pair():
    pot = from_arrays(((0, 1), (0, 2)), (0.25, -0.5), [((0, 1), (0, 2), 1.5, "sib")],
                      requires_grad=False)
    assert unary_log(pot, pot.edge_set.edges[0], 1) == pytest.approx(0.25)
    assert unary_log(pot, pot.edge_set.edges[0], 0) == 0.0
    assert pair_log(pot, 0, 1, 1) == pytest.approx(1.5)
    assert pair_log(pot, 0, 1, 0) == 0.0
    assert pair_log(pot, 0, 0, 1) == 0.0


def test_from_arrays_sorts_shuffled_edges():
    rng = np.random.default_rng(5)
    pot = random_potentials(3, rng, coupling_scale=0.5)
    edges, unary = pot.edge_set.edges, unary_scores(pot)
    order = rng.permutation(len(edges))
    shuffled = from_arrays([edges[i] for i in order], unary[order], pair_list(pot)[::-1])
    # reported in row-major order, with the unaries permuted to match
    assert shuffled.edge_set.edges == edges
    np.testing.assert_array_equal(unary_scores(shuffled), unary)
    assert exact_infer(shuffled).marginals == exact_infer(pot).marginals
    for engine in ("mf", "lbp"):
        assert (run_inference(shuffled, engine, 3).marginals()
                == run_inference(pot, engine, 3).marginals()), engine


def test_from_arrays_sorts_reversed_parts():
    # two sib and two gp parts, each type's given in reverse row-major order
    edges = ((0, 1), (0, 2), (0, 3), (1, 2), (2, 1))
    unary = np.array([0.8, -0.3, 0.1, -1.2, 0.4])
    pairs = [((0, 2), (0, 3), 0.7, "sib"), ((0, 1), (0, 2), -0.4, "sib"),
             ((0, 2), (2, 1), 0.9, "gp"), ((0, 1), (1, 2), -0.6, "gp")]
    given = from_arrays(edges, unary, pairs)
    ordered = from_arrays(edges, unary, pairs[1::-1] + pairs[:1:-1])
    want = [((0, 1), (0, 2), "sib", (0, 1, 2)), ((0, 2), (0, 3), "sib", (0, 2, 3)),
            ((0, 1), (1, 2), "gp", (0, 1, 2)), ((0, 2), (2, 1), "gp", (0, 2, 1))]
    assert pair_tuples(given) == pair_tuples(ordered) == want
    np.testing.assert_array_equal(part_scores(given), [-0.4, 0.7, -0.6, 0.9])
    np.testing.assert_array_equal(part_scores(ordered), [-0.4, 0.7, -0.6, 0.9])
    for engine in ("mf", "lbp"):
        got, ref = run_inference(given, engine, 3), run_inference(ordered, engine, 3)
        assert got.directed_messages() == ref.directed_messages() == [
            message for a, b, kind, part in want
            for message in ((b, a, kind, part), (a, b, kind, part))]
        for t in (1, 2, 3):
            np.testing.assert_array_equal(run_inference(given, engine, t).message_values(),
                                          run_inference(ordered, engine, t).message_values())
        assert got.marginals() == ref.marginals(), engine
    # mean-field's first readout, by hand: Q^0(src) * s per direction
    q0 = 1.0 / (1.0 + np.exp(-unary))
    np.testing.assert_allclose(run_inference(given, "mf", 1).message_values(), [
        q0[1] * -0.4, q0[0] * -0.4, q0[2] * 0.7, q0[1] * 0.7,
        q0[3] * -0.6, q0[0] * -0.6, q0[4] * 0.9, q0[1] * 0.9], rtol=0, atol=1e-15)
    assert exact_infer(given).marginals == exact_infer(ordered).marginals
