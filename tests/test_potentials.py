"""The dense log-potential layout: built from the scorer's factors or
scattered from explicit pairs, read back through the part masks in part
order, and joint log-scores."""

from __future__ import annotations

import numpy as np
import pytest

from sdparse.errors import DataError
from sdparse.exact import exact_infer
from sdparse.model import ModelConfig, ParserModel
from sdparse.potentials import from_arrays, from_factors
from sdparse.sdp_io import build_vocab
from sdparse.pipeline import run_inference
from sdparse.synthetic import random_potentials, toy_corpus, two_edge_instance

from conftest import (joint_log_score, pair_list, pair_log, pair_tuples, part_rows, part_scores,
                      unary_log, unary_scores)
from test_graph import reference_edge_pairs


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


def test_each_score_multiplies_the_part_mask_it_keeps(scored):
    # the mask factor on the tape is the potentials' boolean mask itself,
    # not a float64 copy of it
    pot = from_factors(scored)
    assert pot.scores.keys() == pot.part_masks.keys() == {"sib", "cop", "gp"}
    for kind, s in pot.scores.items():
        masked = s._parents[0] if kind in ("sib", "cop") else s  # sib, cop: s + its mirror
        assert masked._parents[1].data is pot.part_masks[kind]


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
    pot = two_edge_instance(s, unaries=(0.25, -0.5))
    e1, e2 = pot.edge_set.edges
    assert joint_log_score(pot, set()) == pytest.approx(0.0)
    assert joint_log_score(pot, {e1}) == pytest.approx(0.25)
    assert joint_log_score(pot, {e2}) == pytest.approx(-0.5)
    assert joint_log_score(pot, {e1, e2}) == pytest.approx(0.25 - 0.5 + s)


def test_accessors_look_up_by_edge_and_pair():
    pot = two_edge_instance(1.5, unaries=(0.25, -0.5))
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
