"""Glue that runs one sentence through scoring, inference, and decoding.

Mean-field runs on the scorer's factors (``ParserModel.score_factors``)
and never enumerates a second-order part, so a parse costs O(T n^2 d).
Loopy BP and ``trace_sentence`` enumerate the parts as index arrays,
read each one's score from the dense per-type tables of
``ParserModel.score_sentence`` and assemble the O(n^3) pair arrays;
nothing part-shaped is cached between sentences. That path refuses a
sentence longer than ``PAIR_LENGTH_CAP`` with a CapacityError before it
enumerates anything. Decoding looks up labels only for the edges whose
marginal clears the threshold.
"""

from __future__ import annotations

import numpy as np

from . import lbp, mf
from .errors import CapacityError, ConfigError, NumericError
from .graph import build_candidate_edges, decode, enumerate_parts
from .potentials import assemble

__all__ = ["run_inference", "parse_sentence", "trace_sentence", "PAIR_LENGTH_CAP"]

# Longest sentence the pair-list path accepts. It holds about 1.96 n^3
# pairs, and an LBP training step (loss and backward) peaks at about 800
# traced bytes per pair (790 at n = 45 and at n = 60, desk dims), so
# n = 90 (1.43M pairs) peaks near 1.1 GiB. Mean-field is O(n^2) and uncapped.
PAIR_LENGTH_CAP = 90


def run_inference(pot, engine="mf", iterations=3, clamp=mf.DEFAULT_CLAMP):
    if engine == "mf":
        return mf.mf_run(pot, iterations=iterations, clamp=clamp)
    if engine == "lbp":
        return lbp.lbp_run(pot, iterations=iterations)
    raise ConfigError(f"unknown inference engine {engine!r} (expected 'mf' or 'lbp')")


def pair_potentials(model, sentence, train=False, rng=None):
    """ScoreSet and the assembled pair-list LogPotentials for one sentence.

    Raises CapacityError above PAIR_LENGTH_CAP tokens, before any part is
    enumerated.
    """
    if sentence.n > PAIR_LENGTH_CAP:
        raise CapacityError(
            f"{sentence.n}-token sentence exceeds the pair-list length cap of "
            f"{PAIR_LENGTH_CAP} (engine 'lbp' and trace); mean-field has no cap")
    parts = enumerate_parts(build_candidate_edges(sentence.n))
    scores = model.score_sentence(sentence, parts, train=train, rng=rng)
    return scores, assemble(scores, scores.parts)


def sentence_potentials(model, sentence, engine="mf", train=False, rng=None):
    """(scores, potentials) to run ``engine`` on: for mean-field both are
    the scorer's ScoreFactors, otherwise ``pair_potentials``."""
    if engine == "mf":
        factors = model.score_factors(sentence, train=train, rng=rng)
        return factors, factors
    return pair_potentials(model, sentence, train=train, rng=rng)


def parse_sentence(model, sentence, engine="mf", iterations=3, threshold=0.5,
                   clamp=mf.DEFAULT_CLAMP):
    """Parse one sentence; returns (SemGraph, inference state, scores).

    Raises NumericError when a final marginal is not finite, rather than
    decoding it as an absent edge.
    """
    scores, pot = sentence_potentials(model, sentence, engine)
    state = run_inference(pot, engine, iterations, clamp)
    if not np.all(np.isfinite(state.q1())):
        raise NumericError(f"non-finite edge marginals from {engine} (T={iterations}) "
                           f"on a {sentence.n}-token sentence")
    q = state.q1()
    kept = np.flatnonzero(q > threshold)
    label_ids = np.argmax(scores.s_label.data[kept], axis=1)
    probs = {pot.edges[k]: float(q[k]) for k in kept}
    labels = {pot.edges[k]: model.vocab.label_of(int(label))
              for k, label in zip(kept, label_ids)}
    graph = decode(sentence.n, probs, labels, threshold)
    return graph, state, scores


def trace_sentence(model, sentence, engine="mf", iterations=3,
                   clamp=mf.DEFAULT_CLAMP):
    """Per-iteration marginals and per-part message terms, JSON-ready.

    Mean-field reports the signed field contribution Q_src * s_part each
    source edge sends its partner; belief propagation reports the
    log-odds log m(1) - log m(0) of each directed message.
    """
    _, pot = pair_potentials(model, sentence)
    state = run_inference(pot, engine, iterations, clamp)

    def name(edge):
        return f"{edge[0]}->{edge[1]}"

    steps = []
    for t in range(state.iterations + 1):
        q = state.q1(t)
        entry = {
            "iteration": t,
            "q": {name(e): float(q[k]) for k, e in enumerate(pot.edges)},
            "messages": [],
        }
        if t > 0:
            if engine == "mf":
                for src, dst, kind, part, value in state.coupling_terms(t):
                    entry["messages"].append({
                        "src": name(src), "dst": name(dst), "type": kind,
                        "part": list(part), "value": value,
                    })
            else:
                ratios = state.message_log_ratios(t)
                for d, (src, dst, kind, part) in enumerate(state.directed_messages()):
                    entry["messages"].append({
                        "src": name(src), "dst": name(dst), "type": kind,
                        "part": list(part), "log_odds": float(ratios[d]),
                    })
        steps.append(entry)

    return {
        "n": sentence.n,
        "engine": engine,
        "iterations": state.iterations,
        "edges": [name(e) for e in pot.edges],
        "steps": steps,
    }
