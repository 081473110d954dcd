"""Micro-averaged F1, root-edge F1, length buckets, and cycle statistics."""

from __future__ import annotations

import pytest

from sdparse.errors import DataError
from sdparse.graph import SemGraph
from sdparse.metrics import BUCKETS, EvalReport, bucket_f1, cycle_rate, evaluate, f1, top_f1


def g(n, *edges):
    return SemGraph(n, list(edges))


def test_f1_hand_example():
    pred = g(3, (1, 2, "a"), (1, 3, "b"))
    gold = g(3, (1, 2, "a"), (2, 3, "b"), (3, 1, "c"))
    p, r, f = f1([pred], [gold])
    assert p == pytest.approx(1 / 2)
    assert r == pytest.approx(1 / 3)
    assert f == pytest.approx(2 * (1 / 2) * (1 / 3) / (1 / 2 + 1 / 3))


def test_unlabeled_ignores_labels():
    pred = g(2, (1, 2, "wrong"))
    gold = g(2, (1, 2, "right"))
    assert f1([pred], [gold])[2] == 0.0
    assert f1([pred], [gold], labeled=False)[2] == 1.0


def test_micro_averaging_pools_over_sentences():
    preds = [g(2, (1, 2, "a")), g(2)]
    golds = [g(2, (1, 2, "a")), g(2, (1, 2, "a"))]
    p, r, f = f1(preds, golds)
    assert (p, r) == (1.0, 0.5)
    assert f == pytest.approx(2 / 3)


def test_top_edges_are_excluded_unless_requested():
    pred = g(2, (0, 1, "TOP"), (1, 2, "a"))
    gold = g(2, (0, 2, "TOP"), (1, 2, "a"))
    assert f1([pred], [gold])[2] == 1.0
    assert f1([pred], [gold], include_top=True)[2] == pytest.approx(0.5)


def test_empty_predictions_define_zero_precision():
    assert f1([g(2)], [g(2, (1, 2, "a"))]) == (0.0, 0.0, 0.0)
    assert f1([g(2)], [g(2)]) == (0.0, 0.0, 0.0)


def test_length_mismatch_is_an_error():
    with pytest.raises(DataError):
        f1([g(2)], [g(2), g(2)])
    with pytest.raises(DataError):
        cycle_rate([])


@pytest.mark.parametrize("score", [f1, top_f1, bucket_f1], ids=lambda f: f.__name__)
def test_every_score_refuses_lists_that_do_not_pair_up(score):
    a, b = g(2, (0, 1, "TOP")), g(3, (0, 2, "TOP"))
    with pytest.raises(DataError, match="1 predictions for 2 gold graphs"):
        score([a], [a, b])
    with pytest.raises(DataError, match="2 predictions for 1 gold graphs"):
        score([a, b], [a])


def test_top_f1_is_label_blind_and_root_only():
    pred = g(2, (0, 1, "TOP"), (1, 2, "a"))
    gold = g(2, (0, 1, "anything"), (2, 1, "b"))
    assert top_f1([pred], [gold]) == (1.0, 1.0, 1.0)


def test_bucket_assignment_boundaries():
    assert BUCKETS == ("1-10", "11-20", "21-30", "31-40", "41+")
    short = [g(10, (1, 2, "a"))]
    eleven = [g(11, (1, 2, "a"))]
    long = [g(45, (1, 2, "a"))]
    got = bucket_f1(short + eleven + long, [g(10, (1, 2, "a")), g(11, (1, 2, "x")), g(45, (1, 2, "a"))])
    assert got["1-10"] == 1.0
    assert got["11-20"] == 0.0
    assert got["41+"] == 1.0
    assert "21-30" not in got  # no sentences of that length


def test_cycle_rate_counts_word_cycles_only():
    acyclic = g(2, (0, 1, "TOP"), (1, 2, "a"))
    cyclic = g(2, (1, 2, "a"), (2, 1, "b"))
    assert cycle_rate([acyclic, cyclic, cyclic]) == pytest.approx(2 / 3)


def test_evaluate_report_round_trips_through_dict_and_text():
    pred = g(2, (0, 1, "TOP"), (1, 2, "a"))
    gold = g(2, (0, 1, "TOP"), (1, 2, "a"))
    report = evaluate([pred], [gold])
    assert isinstance(report, EvalReport)
    assert report.labeled == (1.0, 1.0, 1.0)
    d = report.to_dict()
    assert d["labeled"]["f1"] == 1.0
    assert d["sentences"] == 1
    text = report.to_text()
    lines = dict(line.split("=") for line in text.strip().splitlines())
    assert float(lines["labeled_f1"]) == 1.0
    assert float(lines["cycle_rate"]) == 0.0
    assert int(lines["sentences"]) == 1
