"""Tests for the synthetic corpora and potential generators.

The coupling-signal corpus is the centrepiece: its gold rule ("node 2
attaches to node k iff word 1 equals word k") is invisible to any
edge-factored scorer, and the doubled-suffix construction makes the
resulting F1 ceiling exact.  The arithmetic behind that ceiling is
re-derived here so a regression in the generator breaks a test rather
than silently weakening the learning-signal acceptance run.
"""

from __future__ import annotations

import numpy as np
import pytest

from sdparse.graph import SemGraph
from sdparse.metrics import f1
from sdparse.potentials import LogPotentials
from sdparse.synthetic import (
    COUPLING_CORPUS_LENGTH,
    coupling_signal_corpus,
    random_potentials,
    roundtrip_corpus,
    toy_corpus,
    two_edge_instance,
)

from conftest import pair_log, unary_log
from test_graph import reference_edge_pairs


# ------------------------------------------------ coupling-signal corpus

def test_coupling_corpus_shape_and_alphabet():
    data = coupling_signal_corpus()
    assert len(data) == 32
    for sent, gold in data:
        assert sent.n == COUPLING_CORPUS_LENGTH == 15
        assert gold.n == 15
        assert all(tok.form in ("a", "b") for tok in sent.tokens)
        assert [tok.pos for tok in sent.tokens] == [f"p{i}" for i in range(1, 16)]


def test_coupling_corpus_sentences_come_in_doubled_pairs():
    data = coupling_signal_corpus()
    for i in range(0, len(data), 2):
        sent_a, _ = data[i]
        sent_b, _ = data[i + 1]
        assert sent_a.tokens[0].form == "a"
        assert sent_b.tokens[0].form == "b"
        assert [t.form for t in sent_a.tokens[1:]] == \
            [t.form for t in sent_b.tokens[1:]]


def test_coupling_corpus_gold_follows_equality_rule():
    for sent, gold in coupling_signal_corpus():
        words = [t.form for t in sent.tokens]
        edges = gold.edge_pairs()
        assert (0, 1) in edges and (1, 2) in edges
        for k in range(3, 16):
            assert ((2, k) in edges) == (words[0] == words[k - 1])
        # nothing else
        extras = edges - {(0, 1), (1, 2)} - {(2, k) for k in range(3, 16)}
        assert not extras
        assert all(gold.label_of(h, d) == ("TOP" if h == 0 else "arg")
                   for h, d in edges)


def test_coupling_corpus_each_pair_splits_every_ambiguous_edge():
    """Within a doubled pair, exactly one of the two sentences carries
    each (2, k) edge — the one whose first word matches word k."""
    data = coupling_signal_corpus()
    for i in range(0, len(data), 2):
        _, gold_a = data[i]
        _, gold_b = data[i + 1]
        ed_a = gold_a.edge_pairs()
        ed_b = gold_b.edge_pairs()
        for k in range(3, 16):
            assert ((2, k) in ed_a) != ((2, k) in ed_b)


def test_coupling_corpus_positions_are_balanced():
    """Every tail position sees both letters in at least a quarter of the
    suffixes, so no (suffix, k) cell degenerates into a constant."""
    data = coupling_signal_corpus(suffixes=16)
    tails = [tuple(t.form for t in sent.tokens[1:]) for sent, _ in data[::2]]
    mat = np.array([[1 if w == "b" else 0 for w in tail] for tail in tails])
    counts = mat.sum(axis=0)
    assert np.all(counts >= 4) and np.all(counts <= 12)


def test_coupling_corpus_is_deterministic():
    a = coupling_signal_corpus()
    b = coupling_signal_corpus()
    for (sa, ga), (sb, gb) in zip(a, b):
        assert [t.form for t in sa.tokens] == [t.form for t in sb.tokens]
        assert ga.edges == gb.edges


def _edge_factored_ceiling(data):
    """Best unlabeled ex-top F1 any per-edge decision rule can reach.

    An edge-factored scorer sees only the two endpoint tokens plus the
    shared positional tags, so within a doubled pair its decision on
    (2, k) is identical for both sentences while the gold differs: each
    included ambiguous cell contributes exactly one true and one false
    positive.  The (1, 2) edge is free (always gold); the top edge is
    outside the ex-top metric.  Maximize F1 over how many of the
    16 x 13 ambiguous cells the predictor includes.
    """
    pairs = len(data) // 2
    cells = pairs * (COUPLING_CORPUS_LENGTH - 2)  # ambiguous (suffix, k) cells
    certain_tp = 2 * pairs  # (1, 2) in every sentence
    gold_total = certain_tp + cells  # each cell is gold in exactly 1 of 2
    best = 0.0
    for included in range(cells + 1):
        tp = certain_tp + included
        fp = included
        prec = tp / (tp + fp)
        rec = tp / gold_total
        best = max(best, 2 * prec * rec / (prec + rec))
    return best


def test_first_order_ceiling_is_below_seventy_percent():
    data = coupling_signal_corpus()
    ceiling = _edge_factored_ceiling(data)
    # include-all is optimal: (64 + 2*208) / (272 + 2*208)
    assert ceiling == pytest.approx(480 / 688)
    assert ceiling < 0.70


def test_include_all_predictor_hits_the_ceiling_exactly():
    """Simulate the best edge-factored policy (emit every ambiguous edge)
    through the real scorer-independent metric code."""
    data = coupling_signal_corpus()
    preds = []
    golds = []
    for sent, gold in data:
        n = sent.n
        edges = [(0, 1, "arg"), (1, 2, "arg")]
        edges += [(2, k, "arg") for k in range(3, n + 1)]
        preds.append(SemGraph(n, edges))
        golds.append(gold)
    _, _, score = f1(preds, golds, labeled=False, include_top=False)
    assert score == pytest.approx(480 / 688)
    assert score < 0.70


def test_omniscient_predictor_scores_one():
    data = coupling_signal_corpus()
    golds = [g for _, g in data]
    assert f1(golds, golds, labeled=False, include_top=False)[2] == 1.0


# --------------------------------------------------- potential generators

def test_two_edge_instance_structure():
    pot = two_edge_instance(np.log(2.0), unaries=(0.5, -0.5))
    assert isinstance(pot, LogPotentials)
    assert pot.edges == ((0, 1), (0, 2))
    assert unary_log(pot, (0, 1), 1) == pytest.approx(0.5)
    assert unary_log(pot, (0, 2), 1) == pytest.approx(-0.5)
    assert unary_log(pot, (0, 1), 0) == 0.0
    assert pot.pair_count == 1
    assert pot.pairs() == [((0, 1), (0, 2), "sib", (0, 1, 2))]
    # the score sits on both orientations of the one sibling cell pair
    sib = pot.scores["sib"].data
    assert sib[0, 1, 2] == sib[0, 2, 1] == pytest.approx(np.log(2.0))
    assert np.count_nonzero(sib) == 2 and set(pot.scores) == {"sib"}
    assert pair_log(pot, 0, 1, 1) == pytest.approx(np.log(2.0))
    assert pair_log(pot, 0, 1, 0) == 0.0


def test_random_potentials_cover_every_part():
    rng = np.random.default_rng(0)
    pot = random_potentials(3, rng, unary_scale=1.0, coupling_scale=0.1)
    # heads 0..3 x deps 1..3 minus the three self-loops
    assert len(pot.edges) == 9
    want = reference_edge_pairs(3)
    assert {kind for _, _, kind, _ in want} == {"sib", "cop", "gp"}
    assert pot.pair_count == len(want)
    assert pot.pairs() == want
    # every pair score lands only on the both-on cell
    scores = pot.part_scores()
    for p in range(pot.pair_count):
        assert pair_log(pot, p, 1, 1) == scores[p]
        assert pair_log(pot, p, 1, 0) == pair_log(pot, p, 0, 1) == 0.0
    # in the dense layout a symmetric part fills its two mirrored cells and
    # a gp part the one cell its down and up messages share
    cells = {kind: np.count_nonzero(s.data) for kind, s in pot.scores.items()}
    count = {kind: sum(k == kind for _, _, k, _ in want) for kind in cells}
    assert cells == {"sib": 2 * count["sib"], "cop": 2 * count["cop"], "gp": count["gp"]}


def test_random_potentials_scale_zero_kills_couplings():
    pot = random_potentials(3, np.random.default_rng(1), coupling_scale=0.0)
    assert np.all(pot.part_scores() == 0.0)
    assert all(not s.data.any() for s in pot.scores.values())


# ------------------------------------------------------- other corpora

def test_toy_corpus_respects_length_bounds_and_has_top():
    data = toy_corpus(np.random.default_rng(3), size=20, min_len=3, max_len=5)
    assert len(data) == 20
    for sent, gold in data:
        assert 3 <= sent.n <= 5
        tops = [(h, d) for h, d in gold.edge_pairs() if h == 0]
        assert len(tops) == 1
        assert gold.label_of(*tops[0]) == "TOP"


def test_roundtrip_corpus_exercises_format_corners():
    data = roundtrip_corpus(np.random.default_rng(0), size=50)
    assert len(data) == 50
    has_topless = any(all(h != 0 for h, _ in g.edge_pairs()) for _, g in data)
    has_cycle = any(
        {(1, 2), (2, 3), (3, 1)} <= g.edge_pairs() for _, g in data
    )
    assert has_topless and has_cycle
    for _, gold in data:
        assert len(gold.edges) == len(gold.edge_pairs())  # no conflicting duplicates
