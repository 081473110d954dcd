"""Assembling per-sentence scores into a factor-graph potential table and
evaluating joint log-scores."""

from __future__ import annotations

import numpy as np
import pytest

from sdparse.errors import DataError
from sdparse.graph import build_candidate_edges, enumerate_parts
from sdparse.model import ModelConfig, ParserModel
from sdparse.potentials import (
    PART_TYPE_ORDER,
    assemble,
    from_arrays,
    joint_log_score,
)
from sdparse.sdp_io import build_vocab
from sdparse.synthetic import toy_corpus, two_edge_instance

from test_graph import reference_edge_pairs


@pytest.fixture
def scored():
    data = toy_corpus(np.random.default_rng(1), size=2)
    vocab = build_vocab(data, min_count=1)
    cfg = ModelConfig(word_dim=4, pos_dim=3, encoder_layers=0, unary_dim=5, binary_dim=3)
    model = ParserModel(cfg, vocab, np.random.default_rng(9))
    sent = data[0][0]
    parts = enumerate_parts(build_candidate_edges(sent.n))
    return model.score_sentence(sent, parts), parts


def test_assemble_preserves_scores_and_pair_wiring(scored):
    scores, parts = scored
    pot = assemble(scores, parts)
    np.testing.assert_array_equal(pot.unary.data, scores.s_edge.data)
    want = np.concatenate([scores.s_sib.data, scores.s_cop.data, scores.s_gp.data])
    np.testing.assert_array_equal(pot.pair_scores.data, want)
    assert pot.edge_count == len(pot.edges)
    assert pot.pair_count == parts.total()
    # typed blocks appear in the documented order
    np.testing.assert_array_equal(pot.pair_kind, np.sort(pot.pair_kind))
    index = {e: i for i, e in enumerate(pot.edges)}
    want_pairs = reference_edge_pairs(parts.n)
    assert pot.pair_count == len(want_pairs)
    for p, (e1, e2, kind, part) in enumerate(want_pairs):
        assert pot.pair_e1[p] == index[e1]
        assert pot.pair_e2[p] == index[e2]
        assert PART_TYPE_ORDER[pot.pair_kind[p]] == kind
        assert pot.pair_part(p) == (kind, part)


def test_assemble_rejects_foreign_part_list(scored):
    scores, _ = scored
    other = enumerate_parts(build_candidate_edges(scores.parts.n + 1))
    with pytest.raises(DataError):
        assemble(scores, other)


def test_from_arrays_validates_lengths():
    edges = ((0, 1), (0, 2))
    with pytest.raises(DataError):
        from_arrays(edges, np.zeros(3), [])
    with pytest.raises(DataError):
        from_arrays(edges, np.zeros(2), [((0, 1), (0, 5), 1.0, "sib")])
    with pytest.raises(DataError):
        from_arrays(edges, np.zeros(2), [((0, 1), (0, 2), 1.0, "sibling")])


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
    assert pot.unary_log(pot.edges[0], 1) == pytest.approx(0.25)
    assert pot.unary_log(pot.edges[0], 0) == 0.0
    assert pot.pair_log(0, 1, 1) == pytest.approx(1.5)
    assert pot.pair_log(0, 1, 0) == 0.0
    assert pot.pair_log(0, 0, 1) == 0.0
