"""Glue that runs one sentence through scoring, inference, and decoding.

Mean-field runs on the scorer's factors (``ParserModel.score_factors``)
and never enumerates a second-order part, so a parse costs O(T n^2 d).
Loopy BP and ``trace_sentence`` run on the dense (n+1)^3 layout that
``potentials.from_factors`` builds from the same factors; nothing
part-shaped is cached between sentences. That path refuses a sentence
longer than ``PAIR_LENGTH_CAP`` with a CapacityError before it builds any
(n+1)^3 tensor. Only ``trace_sentence`` enumerates the parts, to report
messages in part-list order. Decoding looks up labels only for the edges
whose marginal clears the threshold, and builds no per-edge tuple or
dict for the others.
"""

from __future__ import annotations

import numpy as np

from . import lbp, mf
from .errors import CapacityError, ConfigError, NumericError
from .graph import decode
from .potentials import from_factors

__all__ = ["run_inference", "parse_sentence", "trace_sentence", "PAIR_LENGTH_CAP"]

# Longest sentence the dense (n+1)^3 path accepts. An LBP training step
# (loss and backward, T = 3) peaks at about 760 traced bytes per (n+1)^3
# cell (759 at n = 45, 739 at n = 60, desk dims), so n = 113 (1.48M cells)
# peaks near 1.05 GiB, the budget the pair list had at n = 90.
# Mean-field is O(n^2) and uncapped.
PAIR_LENGTH_CAP = 113


def run_inference(pot, engine="mf", iterations=3, clamp=mf.DEFAULT_CLAMP):
    if engine == "mf":
        return mf.mf_run(pot, iterations=iterations, clamp=clamp)
    if engine == "lbp":
        return lbp.lbp_run(pot, iterations=iterations)
    raise ConfigError(f"unknown inference engine {engine!r} (expected 'mf' or 'lbp')")


def sentence_potentials(model, sentence, engine="mf", train=False, rng=None):
    """(scores, potentials) to run ``engine`` on: the scorer's ScoreFactors
    and, for mean-field, the factors again, otherwise the dense
    LogPotentials built from them. The dense path raises CapacityError
    above PAIR_LENGTH_CAP tokens, before any (n+1)^3 tensor is built."""
    dense = engine != "mf"
    if dense and sentence.n > PAIR_LENGTH_CAP:
        raise CapacityError(
            f"{sentence.n}-token sentence exceeds the length cap of "
            f"{PAIR_LENGTH_CAP} (engine 'lbp' and trace); mean-field has no cap")
    factors = model.score_factors(sentence, train=train, rng=rng)
    return factors, from_factors(factors) if dense else factors


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
    kept = np.flatnonzero(q > threshold)
    heads, deps = np.nonzero(pot.edge_set.mask)
    edges = list(zip(heads[kept].tolist(), deps[kept].tolist()))
    label_ids = np.argmax(scores.s_label.data[kept], axis=1)
    probs = dict(zip(edges, q[kept].tolist()))
    labels = {e: model.vocab.label_of(int(label)) for e, label in zip(edges, label_ids)}
    graph = decode(sentence.n, probs, labels, threshold)
    return graph, state, scores


def trace_sentence(model, sentence, engine="mf", iterations=3,
                   clamp=mf.DEFAULT_CLAMP):
    """Per-iteration marginals and per-part message terms, JSON-ready.

    Mean-field reports the signed field contribution Q_src * s_part each
    source edge sends its partner; belief propagation reports the
    log-odds log m(1) - log m(0) of each directed message.
    """
    # both engines run on the dense layout, which names every part
    _, pot = sentence_potentials(model, sentence, engine="lbp")
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
