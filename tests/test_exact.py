"""Brute-force inference over all edge assignments, checked against hand
arithmetic and a second, independent enumerator written in plain Python."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from sdparse import exact
from sdparse.errors import CapacityError
from sdparse.exact import ENUMERATION_CAP, exact_infer
from sdparse.potentials import from_arrays
from sdparse.synthetic import random_potentials, two_edge_instance

from conftest import joint_log_score


def slow_enumerate(pot):
    """Reference enumeration: python loops, no bit tricks. Returns
    (log Z, marginals, best assignment's log score)."""
    edges = pot.edge_set.edges
    scores = []
    marg_mass = {e: 0.0 for e in edges}
    for bits in itertools.product((0, 1), repeat=len(edges)):
        on = {e for e, b in zip(edges, bits) if b}
        s = joint_log_score(pot, on)
        scores.append(s)
    log_z = np.logaddexp.reduce(scores)
    # second pass for marginals to keep the code dead simple
    for e_pos, e in enumerate(edges):
        on_scores = []
        for bits in itertools.product((0, 1), repeat=len(edges)):
            if bits[e_pos]:
                on = {ee for ee, b in zip(edges, bits) if b}
                on_scores.append(joint_log_score(pot, on))
        marg_mass[e] = math.exp(np.logaddexp.reduce(on_scores) - log_z)
    return log_z, marg_mass, max(scores)


def test_single_edge_closed_form():
    pot = from_arrays(((0, 1),), np.array([0.7]), [])
    res = exact_infer(pot)
    assert res.log_partition == pytest.approx(np.logaddexp(0.0, 0.7), abs=1e-14)
    assert res.marginals[(0, 1)] == pytest.approx(1.0 / (1.0 + math.exp(-0.7)), abs=1e-14)


def test_two_coupled_edges_hand_values():
    # unaries 0, coupling log 2: states score 1,1,1,2 -> Z = 5
    pot = two_edge_instance(math.log(2.0))
    res = exact_infer(pot)
    assert res.log_partition == pytest.approx(math.log(5.0), abs=1e-13)
    assert res.marginals[(0, 1)] == pytest.approx(0.6, abs=1e-13)
    assert res.marginals[(0, 2)] == pytest.approx(0.6, abs=1e-13)


def test_zero_potentials_give_uniform_marginals():
    pot = random_potentials(2, np.random.default_rng(0), unary_scale=0.0, coupling_scale=0.0)
    res = exact_infer(pot)
    assert res.log_partition == pytest.approx(4.0 * math.log(2.0), abs=1e-12)
    for p in res.marginals.values():
        assert p == pytest.approx(0.5, abs=1e-13)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 3])
def test_matches_independent_enumerator(seed, n):
    pot = random_potentials(n, np.random.default_rng(seed), coupling_scale=0.5)
    res = exact_infer(pot)
    log_z, marg, _ = slow_enumerate(pot)
    assert res.log_partition == pytest.approx(log_z, abs=1e-10)
    for e in pot.edge_set.edges:
        assert res.marginals[e] == pytest.approx(marg[e], abs=1e-10)


def test_enumeration_cap_is_enforced():
    n = 5  # 25 candidate edges
    assert n * n > ENUMERATION_CAP
    pot = random_potentials(n, np.random.default_rng(0))
    with pytest.raises(CapacityError):
        exact_infer(pot)


def test_partition_dominates_best_and_empty():
    for seed in range(5):
        pot = random_potentials(3, np.random.default_rng(seed), coupling_scale=0.3)
        res = exact_infer(pot)
        assert res.log_partition >= slow_enumerate(pot)[2]
        assert res.log_partition >= 0.0  # the empty assignment always scores zero
        assert all(0.0 <= p <= 1.0 for p in res.marginals.values())


def test_raising_a_unary_raises_its_marginal():
    base = from_arrays(((0, 1), (0, 2)), np.array([0.2, -0.3]), [((0, 1), (0, 2), 0.4, "sib")])
    bumped = from_arrays(((0, 1), (0, 2)), np.array([1.2, -0.3]), [((0, 1), (0, 2), 0.4, "sib")])
    assert exact_infer(bumped).marginals[(0, 1)] > exact_infer(base).marginals[(0, 1)]


@pytest.mark.parametrize("block", [1, 7, 64, 1 << 20])
def test_block_size_does_not_change_the_result(monkeypatch, block):
    # 512 assignments of the 9 edges of a three-word sentence, scored in
    # blocks that do and do not divide them
    pot = random_potentials(3, np.random.default_rng(4), coupling_scale=0.8)
    monkeypatch.setattr(exact, "_BLOCK", block)
    res = exact_infer(pot)
    log_z, marg, _ = slow_enumerate(pot)
    assert res.log_partition == pytest.approx(log_z, abs=1e-12)
    for e in pot.edge_set.edges:
        assert res.marginals[e] == pytest.approx(marg[e], abs=1e-12)
