"""Candidate edges, second-order part enumeration, decoding, and cycle
detection, each checked against an independent brute-force construction."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdparse.errors import DataError
from sdparse.graph import (
    SemGraph,
    Sentence,
    Token,
    build_candidate_edges,
    decode,
    enumerate_parts,
    has_cycle,
)


def brute_force_pairs(n):
    """Classify every unordered pair of distinct candidate edges directly.

    Returns three sets of frozensets of edges: sibling pairs (same head),
    co-parent pairs (same dependent), and grandparent pairs (one edge's
    dependent is the other's head).
    """
    edges = build_candidate_edges(n).edges
    sib, cop, gp = set(), set(), set()
    for e1, e2 in itertools.combinations(edges, 2):
        (h1, d1), (h2, d2) = e1, e2
        if h1 == h2 and d1 != d2:
            sib.add(frozenset((e1, e2)))
        if d1 == d2 and h1 != h2:
            cop.add(frozenset((e1, e2)))
        # a chain i->j->k with all three nodes distinct; mutual pairs
        # (i,j),(j,i) are not coupled, which also keeps every unordered
        # pair in at most one part
        if (d1 == h2 and h1 != d2) or (d2 == h1 and h2 != d1):
            gp.add(frozenset((e1, e2)))
    return sib, cop, gp


def tuple_parts(n):
    """Reference enumeration as Python tuples, in the loop order whose
    rows ``enumerate_parts`` must reproduce: sib (i, j, k) with j < k,
    cop (i, k, j) with i < k, gp (i, j, k) with all three distinct."""
    rng_all = range(n + 1)
    words = range(1, n + 1)
    sib = [
        (i, j, k)
        for i in rng_all for j in words for k in words
        if j < k and j != i and k != i
    ]
    cop = [
        (i, k, j)
        for i in rng_all for k in rng_all for j in words
        if i < k and j != i and j != k
    ]
    gp = [
        (i, j, k)
        for i in rng_all for j in words for k in words
        if i != j and j != k and k != i
    ]
    return sib, cop, gp


def reference_edge_pairs(n):
    """(edge1, edge2, type, part) for every part of a length-n sentence,
    in pair order: the sib, then the cop, then the gp reference rows."""
    sib, cop, gp = tuple_parts(n)
    return ([((i, j), (i, k), "sib", (i, j, k)) for i, j, k in sib]
            + [((i, j), (k, j), "cop", (i, k, j)) for i, k, j in cop]
            + [((i, j), (j, k), "gp", (i, j, k)) for i, j, k in gp])


def part_pair_sets(n):
    by_type = {"sib": set(), "cop": set(), "gp": set()}
    for e1, e2, kind, _ in reference_edge_pairs(n):
        by_type[kind].add(frozenset((e1, e2)))
    return by_type


def test_candidate_edges_exclude_root_as_dependent():
    for n in range(1, 6):
        edges = build_candidate_edges(n).edges
        assert len(edges) == n * n
        assert all(1 <= d <= n for _, d in edges)
        assert all(h != d for h, d in edges)
        assert any(h == 0 for h, _ in edges)


def test_candidate_edge_index_is_consistent():
    cand = build_candidate_edges(4)
    positions = cand.positions()
    for pos, edge in enumerate(cand.edges):
        assert positions[edge] == pos
    assert cand.edges == tuple((h, d) for h in range(5) for d in range(1, 5) if h != d)
    assert np.all(positions[~cand.mask] == len(cand))


def test_candidate_edges_require_positive_length():
    with pytest.raises(DataError):
        build_candidate_edges(0)


@pytest.mark.parametrize("n", range(1, 7))
def test_part_counts_match_closed_forms(n):
    parts = enumerate_parts(build_candidate_edges(n))

    def c2(m):
        return m * (m - 1) // 2

    assert len(parts.sib) == c2(n) + n * c2(n - 1)
    assert len(parts.cop) == n * c2(n)
    assert len(parts.gp) == n * (n - 1) ** 2
    assert parts.total() == len(parts.sib) + len(parts.cop) + len(parts.gp)


@pytest.mark.parametrize("n", range(1, 8))
def test_part_arrays_equal_tuple_reference(n):
    parts = enumerate_parts(build_candidate_edges(n))
    for got, want in zip((parts.sib, parts.cop, parts.gp), tuple_parts(n)):
        assert got.dtype == np.intp and got.shape == (len(want), 3)
        assert not got.flags.writeable
        assert [tuple(row) for row in got.tolist()] == want


@pytest.mark.parametrize("n", range(1, 7))
def test_parts_match_brute_force_classification(n):
    want_sib, want_cop, want_gp = brute_force_pairs(n)
    got = part_pair_sets(n)
    assert got["sib"] == want_sib
    assert got["cop"] == want_cop
    assert got["gp"] == want_gp


@pytest.mark.parametrize("n", range(1, 7))
def test_no_edge_pair_is_coupled_twice(n):
    by_type = part_pair_sets(n)
    seen = []
    for e1, e2, _, _ in reference_edge_pairs(n):
        seen.append(frozenset((e1, e2)))
    assert len(seen) == len(set(seen))
    assert len(by_type["sib"] & by_type["cop"]) == 0
    assert len(by_type["sib"] & by_type["gp"]) == 0
    assert len(by_type["cop"] & by_type["gp"]) == 0


def test_part_orientation_conventions():
    parts = enumerate_parts(build_candidate_edges(3))
    for i, j, k in parts.sib:
        assert j < k and j != i and k != i
    for i, k, j in parts.cop:
        assert i < k and j != i and j != k
    for i, j, k in parts.gp:
        assert len({i, j, k}) == 3


def test_part_filter_drops_requested_types():
    parts = enumerate_parts(build_candidate_edges(3))
    only_sib = parts.filter(use_sib=True, use_cop=False, use_gp=False)
    assert len(only_sib.sib) == len(parts.sib)
    assert len(only_sib.cop) == 0 and len(only_sib.gp) == 0
    none = parts.filter(use_sib=False, use_cop=False, use_gp=False)
    assert none.total() == 0


def test_semgraph_validates_ranges_and_duplicates():
    SemGraph(2, [(0, 1, "TOP"), (1, 2, "a")])
    with pytest.raises(DataError):
        SemGraph(2, [(1, 1, "a")])
    with pytest.raises(DataError):
        SemGraph(2, [(3, 1, "a")])
    with pytest.raises(DataError):
        SemGraph(2, [(1, 0, "a")])
    with pytest.raises(DataError):
        SemGraph(2, [(1, 2, "a"), (1, 2, "b")])


def test_semgraph_label_lookup_and_equality():
    g = SemGraph(2, [(1, 2, "a")])
    assert g.label_of(1, 2) == "a"
    assert g == SemGraph(2, [(1, 2, "a")])
    assert g != SemGraph(2, [(1, 2, "b")])
    assert set(g.edge_pairs()) == {(1, 2)}


def test_sentence_indexing_is_one_based():
    s = Sentence(tokens=(Token("x", "x", "N"), Token("y", "y", "V")))
    assert s.n == 2
    assert s.token(1).form == "x"
    assert s.token(2).form == "y"


def test_decode_threshold_is_strict():
    probs = {(0, 1): 0.5, (1, 2): 0.500001, (2, 1): 0.49}
    labels = {(0, 1): "TOP", (1, 2): "a", (2, 1): "a"}
    g = decode(2, probs, labels)
    assert set(g.edge_pairs()) == {(1, 2)}


def test_decode_missing_label_is_an_error():
    with pytest.raises(DataError):
        decode(2, {(1, 2): 0.9}, {})


def test_decode_monotone_in_threshold():
    probs = {(0, 1): 0.9, (1, 2): 0.6, (2, 1): 0.3}
    labels = {e: "x" for e in probs}
    sizes = [len(decode(2, probs, labels, threshold=t).edges) for t in (0.2, 0.5, 0.8, 0.95)]
    assert sizes == sorted(sizes, reverse=True)


def _reachability_has_cycle(edges, n):
    """Floyd-Warshall style reachability closure over word nodes."""
    reach = [[False] * (n + 1) for _ in range(n + 1)]
    for h, d in edges:
        if h >= 1:
            reach[h][d] = True
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    return any(reach[i][i] for i in range(1, n + 1))


def test_has_cycle_examples():
    assert not has_cycle(SemGraph(3, [(0, 1, "TOP"), (1, 2, "a"), (2, 3, "a")]))
    assert has_cycle(SemGraph(2, [(1, 2, "a"), (2, 1, "a")]))
    # a root edge closing the loop through node 0 does not count
    assert not has_cycle(SemGraph(2, [(0, 1, "TOP"), (1, 2, "a")]))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.data())
def test_has_cycle_matches_reachability_oracle(n, data):
    cand = [(h, d) for h, d in build_candidate_edges(n).edges]
    chosen = data.draw(st.lists(st.sampled_from(cand), unique=True, max_size=len(cand)))
    g = SemGraph(n, [(h, d, "x") for h, d in chosen])
    assert has_cycle(g) == _reachability_has_cycle(chosen, n)
