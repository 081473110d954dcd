"""Glue that runs one sentence through scoring, inference, and decoding.

Mean-field runs on the scorer's factors (``ParserModel.score_factors``)
and never enumerates a second-order part, so a parse costs O(T n^2 d).
Loopy BP and ``trace_sentence`` run on the dense (n+1)^3 layout that
``potentials.from_factors`` builds from the same factors; nothing
part-shaped is cached between sentences. That path refuses a sentence
longer than ``PAIR_LENGTH_CAP`` with a CapacityError before it builds any
(n+1)^3 tensor. Only ``trace_sentence`` reads the parts out of their
masks, from one run (``lbp_run`` hands it each sweep's messages;
mean-field's are the part scores times the kept marginals), and returns
the run's arrays, nothing per part or row: ``cli`` writes the text.
Decoding scores labels only for the edges whose final marginal clears
the threshold (``graph.kept_edges``); ``graph.decode`` builds their graph.

``parse_sentence`` and ``trace_sentence`` are forward-only: they run
under ``autodiff.no_grad``, so no tape is recorded, LBP keeps no
logistics for a backward, and nothing they return requires gradients.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import lbp, mf
from .errors import CapacityError, ConfigError, NumericError
from .graph import decode, kept_edges
from .potentials import FORWARD, MESSAGES, aligned, from_factors

__all__ = ["run_inference", "parse_sentence", "trace_sentence", "PAIR_LENGTH_CAP"]

# Longest sentence the dense (n+1)^3 path accepts: the longest whose LBP
# training (``train`` on a batch, desk dims) fits the budget the pair list
# had at n = 90. Each taped sweep keeps four float64 logistics per cell, so
# the declared bytes per (n+1)^3 cell are a fixed part plus a per-sweep
# part, T < 3 counted as 3. Traced peaks per cell (n = 30, two sentences in
# one step; they fall with n) are 144, 239, 335 and 463 bytes at T = 1, 3,
# 6 and 10, against 300, 300, 408 and 552 declared: at T <= 3, n = 154
# (3.72M cells) peaks below 1.04 GiB. A parse records no tape, releases each
# message once it is read, and peaks at 93-98 bytes for T = 3-30 (n = 45),
# so it keeps the T = 3 cap at any T.
# Mean-field is O(n^2) and uncapped.
PAIR_MEMORY_BUDGET = 1.05 * 2**30
PAIR_BYTES_FIXED = 192
PAIR_BYTES_PER_SWEEP = 36


# ``trace`` holds its run's arrays (per part its triple, two edges and two
# values per sweep; parts per cell rise toward 2) and one block of rows: it
# peaks at 189 / 244 / 437 bytes per cell at n = 30, T = 1 / 3 / 10 (178 / 236 /
# 439 at n = 45, desk dims) and writes 750-855 bytes of text per cell and sweep
# (n = 30-96). Memory and text share the budget: 96 / 70 / 47 tokens at T = 1 / 3 / 10.
TRACE_BYTES_FIXED = 250
TRACE_BYTES_PER_SWEEP = 950


def _length_cap(bytes_per_cell):
    """The longest sentence whose (n+1)^3 cells at ``bytes_per_cell`` fit
    PAIR_MEMORY_BUDGET."""
    return int((PAIR_MEMORY_BUDGET / bytes_per_cell) ** (1 / 3)) - 1


def _taped_length_cap(sweeps):
    """The longest sentence whose LBP training batch with ``sweeps``
    taped sweeps fits PAIR_MEMORY_BUDGET."""
    return _length_cap(PAIR_BYTES_FIXED + PAIR_BYTES_PER_SWEEP * max(sweeps, 3))


PAIR_LENGTH_CAP = _taped_length_cap(3)


def run_inference(pot, engine="mf", iterations=3, clamp=mf.DEFAULT_CLAMP):
    if engine == "mf":
        return mf.mf_run(pot, iterations=iterations, clamp=clamp)
    if engine == "lbp":
        return lbp.lbp_run(pot, iterations=iterations)
    raise ConfigError(f"unknown inference engine {engine!r} (expected 'mf' or 'lbp')")


def sentence_potentials(model, sentence, engine="mf", rng=None):
    """(scores, potentials) to run ``engine`` on: the scorer's ScoreFactors
    (with dropout drawn from ``rng`` when one is given) and, for
    mean-field, the factors again, otherwise the dense LogPotentials built
    from them. The dense path raises CapacityError above PAIR_LENGTH_CAP
    tokens, before any (n+1)^3 tensor is built."""
    check_length(sentence, engine)
    factors = model.score_factors(sentence, rng=rng)
    return factors, factors if engine == "mf" else from_factors(factors)


def check_length(sentence, engine, sweeps=0):
    """Raise CapacityError when ``engine`` runs on the dense (n+1)^3 layout
    (any engine but mean-field) and ``sentence`` is longer than
    PAIR_LENGTH_CAP, or than the cap of a training run that tapes
    ``sweeps`` LBP sweeps (a forward-only run tapes none)."""
    cap = min(PAIR_LENGTH_CAP, _taped_length_cap(sweeps))
    if engine != "mf" and sentence.n > cap:
        raise CapacityError(
            f"{sentence.n}-token sentence exceeds the length cap of "
            f"{cap} (engine 'lbp' and trace); mean-field has no cap")


@ad.no_grad()
def parse_sentence(model, sentence, engine="mf", iterations=3, threshold=0.5,
                   clamp=mf.DEFAULT_CLAMP):
    """Parse one sentence; returns (SemGraph, inference state, scores).

    Raises NumericError when a final marginal is not finite, rather than
    decoding it as an absent edge.
    """
    scores, pot = sentence_potentials(model, sentence, engine)
    state = run_inference(pot, engine, iterations, clamp)
    q = state.q1()
    if not np.all(np.isfinite(q)):
        raise NumericError(f"non-finite edge marginals from {engine} (T={iterations}) "
                           f"on a {sentence.n}-token sentence")
    heads, deps = kept_edges(pot.edge_set, q, threshold)
    graph = decode(sentence.n, heads, deps, model.label_scores(scores, heads, deps).data,
                   model.vocab.id2label)
    return graph, state, scores


@ad.no_grad()
def trace_sentence(model, sentence, engine="mf", iterations=3,
                   clamp=mf.DEFAULT_CLAMP):
    """The arrays of one forward-only run, in edge and part order: each
    edge's (head, dep), (E, 2); per part type, its stored triples, one row
    per part; each part's first and second edge position, (P, 2); per
    iteration t = 0..T the (E,) marginals; and per sweep the (P, 2)
    messages of every part, into its first edge and into its second:
    mean-field's Q^{t-1}(src) * s_part, loopy BP's log m(1) - log m(0).
    Raises CapacityError above the trace cap for T before scoring, and
    NumericError on a value that is not finite."""
    cap = _length_cap(TRACE_BYTES_FIXED + TRACE_BYTES_PER_SWEEP * max(iterations, 1))
    if sentence.n > cap:
        raise CapacityError(f"{sentence.n}-token sentence exceeds the trace length cap "
                            f"of {cap} at T={iterations}")
    # both engines run on the dense layout, which names every part
    _, pot = sentence_potentials(model, sentence, engine="lbp")
    ends = np.stack(pot.pair_edges(), axis=1)
    sweeps = []  # per sweep, the (P, 2) values into each part's first and second edge
    if engine == "lbp":
        def read(messages):
            into_first = {k: aligned(messages[MESSAGES[FORWARD[k]][3]], k) for k in pot.scores}
            into_second = {k: messages[FORWARD[k]] for k in pot.scores}
            sweeps.append(np.stack([pot.gather(into_first), pot.gather(into_second)], axis=1))

        state = lbp.lbp_run(pot, iterations, on_sweep=read)
    else:
        state = run_inference(pot, engine, iterations, clamp)
        scores = pot.gather({kind: s.data for kind, s in pot.scores.items()})
        sweeps = [scores[:, None] * q[ends[:, ::-1]] for q in map(state.q1, range(iterations))]
    qs = [state.q1(t) for t in range(iterations + 1)]
    if not all(np.isfinite(values).all() for values in qs + sweeps):
        raise NumericError(f"non-finite marginals or messages from {engine} "
                           f"(T={iterations}) on a {sentence.n}-token sentence")
    return (np.argwhere(pot.edge_set.mask),
            {kind: np.argwhere(mask) for kind, mask in pot._part_order()}, ends, qs, sweeps)
