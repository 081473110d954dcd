"""Glue that runs one sentence through scoring, inference, and decoding.

Mean-field runs on the scorer's factors (``ParserModel.score_factors``)
and never enumerates a second-order part, so a parse costs O(T n^2 d).
Loopy BP and ``trace_sentence`` run on the dense (n+1)^3 layout that
``potentials.from_factors`` builds from the same factors; nothing
part-shaped is cached between sentences. That path refuses a sentence
longer than ``PAIR_LENGTH_CAP`` with a CapacityError before it builds any
(n+1)^3 tensor. Only ``trace_sentence`` reads the parts out of their
masks, through the state's ``directed_messages`` and ``message_values``.
Decoding scores labels only for the edges whose final marginal clears the
threshold (``graph.kept_edges``), and ``graph.decode`` builds their graph.

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
from .potentials import from_factors

__all__ = ["run_inference", "parse_sentence", "trace_sentence", "PAIR_LENGTH_CAP"]

# Longest sentence the dense (n+1)^3 path accepts: the longest whose LBP
# training (``train`` on a batch, desk dims) fits the budget the pair list
# had at n = 90. Each taped sweep keeps four float64 logistics per cell, so
# the declared bytes per (n+1)^3 cell are a fixed part plus a per-sweep
# part, T < 3 counted as 3. Traced peaks per cell (n = 30, two sentences in
# one step; they fall with n) are 185, 250, 346 and 474 bytes at T = 1, 3,
# 6 and 10, against 300, 300, 408 and 552 declared: at T <= 3, n = 154
# (3.72M cells) peaks below 1.04 GiB. A parse records no tape and peaks at
# 134-138 bytes for T = 3-30 (n = 45), so it keeps the T = 3 cap at any T.
# Mean-field is O(n^2) and uncapped.
PAIR_MEMORY_BUDGET = 1.05 * 2**30
PAIR_BYTES_FIXED = 192
PAIR_BYTES_PER_SWEEP = 36


def _taped_length_cap(sweeps):
    """The longest sentence whose LBP training batch with ``sweeps``
    taped sweeps fits PAIR_MEMORY_BUDGET."""
    per_cell = PAIR_BYTES_FIXED + PAIR_BYTES_PER_SWEEP * max(sweeps, 3)
    return int((PAIR_MEMORY_BUDGET / per_cell) ** (1 / 3)) - 1


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
    """Per-iteration marginals and per-part message terms, JSON-ready.

    Each directed message of iteration t reports the ``message_values``
    of a t-sweep run, whose sweeps are the first t of the full run because
    both engines are deterministic: mean-field the signed field contribution
    Q_src * s_part the source edge sends its partner (key ``value``),
    belief propagation the log-odds log m(1) - log m(0) (key
    ``log_odds``).
    """
    # both engines run on the dense layout, which names every part
    _, pot = sentence_potentials(model, sentence, engine="lbp")
    state = run_inference(pot, engine, iterations, clamp)
    key = "value" if engine == "mf" else "log_odds"
    directed = state.directed_messages()

    def name(edge):
        return f"{edge[0]}->{edge[1]}"

    steps = []
    for t in range(state.iterations + 1):
        q = state.q1(t)
        values = run_inference(pot, engine, t, clamp).message_values().tolist() if t else []
        steps.append({
            "iteration": t,
            "q": {name(e): float(q[k]) for k, e in enumerate(pot.edge_set.edges)},
            "messages": [{"src": name(src), "dst": name(dst), "type": kind,
                          "part": list(part), key: value}
                         for (src, dst, kind, part), value in zip(directed, values)],
        })

    return {
        "n": sentence.n,
        "engine": engine,
        "iterations": state.iterations,
        "edges": [name(e) for e in pot.edge_set.edges],
        "steps": steps,
    }
