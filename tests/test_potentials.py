"""The dense log-potential layout: built from the scorer's factors or
scattered from explicit pairs, read back in part-list order, and joint
log-scores."""

from __future__ import annotations

import numpy as np
import pytest

from sdparse.errors import DataError
from sdparse.exact import exact_infer
from sdparse.graph import build_candidate_edges, enumerate_parts
from sdparse.model import ModelConfig, ParserModel
from sdparse.potentials import from_arrays, from_factors, from_parts
from sdparse.sdp_io import build_vocab
from sdparse.pipeline import run_inference
from sdparse.synthetic import random_potentials, toy_corpus, two_edge_instance

from conftest import joint_log_score, pair_list, pair_log, unary_log
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
        pot.unary.data, factors.edge_scores.data[factors.edge_set.mask])
    assert pot.edge_scores is factors.edge_scores
    assert pot.edge_count == len(pot.edges)
    # typed blocks appear in the documented order, one pair per part
    assert pot.pairs() == reference_edge_pairs(n)
    assert pot.pair_count == enumerate_parts(build_candidate_edges(n)).total()
    # each pair scores sum_m g1[a,m] g2[b,m] g3[c,m] over its first edge
    # (a, b) and third node c
    want = []
    for (a, b), edge_b, kind, _ in pot.pairs():
        c = ({edge_b[0], edge_b[1]} - {a, b}).pop()
        g1, g2, g3 = (g.data for g in factors.tri[kind])
        want.append(np.sum(g1[a] * g2[b] * g3[c]))
    np.testing.assert_allclose(pot.part_scores(), want, rtol=0, atol=1e-12)


def test_from_parts_rejects_a_foreign_part_list(scored):
    edge_set = scored.edge_set
    unary = np.zeros(len(edge_set))
    other = enumerate_parts(build_candidate_edges(edge_set.n + 1))
    with pytest.raises(DataError):
        from_parts(edge_set, unary, other, np.zeros(other.total()), requires_grad=False)
    own = enumerate_parts(edge_set)
    with pytest.raises(DataError):
        from_parts(edge_set, unary, own, np.zeros(own.total() - 1), requires_grad=False)


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
    e1, e2 = pot.edges
    assert joint_log_score(pot, set()) == pytest.approx(0.0)
    assert joint_log_score(pot, {e1}) == pytest.approx(0.25)
    assert joint_log_score(pot, {e2}) == pytest.approx(-0.5)
    assert joint_log_score(pot, {e1, e2}) == pytest.approx(0.25 - 0.5 + s)


def test_accessors_look_up_by_edge_and_pair():
    pot = two_edge_instance(1.5, unaries=(0.25, -0.5))
    assert unary_log(pot, pot.edges[0], 1) == pytest.approx(0.25)
    assert unary_log(pot, pot.edges[0], 0) == 0.0
    assert pair_log(pot, 0, 1, 1) == pytest.approx(1.5)
    assert pair_log(pot, 0, 1, 0) == 0.0
    assert pair_log(pot, 0, 0, 1) == 0.0


def test_from_arrays_sorts_shuffled_edges():
    rng = np.random.default_rng(5)
    pot = random_potentials(3, rng, coupling_scale=0.5)
    edges, unary = pot.edges, pot.unary.data
    order = rng.permutation(len(edges))
    shuffled = from_arrays([edges[i] for i in order], unary[order], pair_list(pot)[::-1])
    # reported in row-major order, with the unaries permuted to match
    assert shuffled.edges == edges
    np.testing.assert_array_equal(shuffled.unary.data, unary)
    assert exact_infer(shuffled).marginals == exact_infer(pot).marginals
    for engine in ("mf", "lbp"):
        assert (run_inference(shuffled, engine, 3).marginals()
                == run_inference(pot, engine, 3).marginals()), engine
