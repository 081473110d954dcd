"""Seeded benchmark inputs: SDP corpora and a pretrained embedding table.

Everything here depends only on the seed it is given and writes plain
text in the corpus format the parser reads (``ID FORM LEMMA POS TOP PRED
ARG1..ARGP``), so this module does not import the parser.

Sentence lengths are a fixed multiset per workload (every length of the
range, each once) in a seeded order; the seed draws the order, words,
tags and gold graphs. That keeps the amount of work per run independent
of the seed, so runs with different seeds measure the same load.
"""

from __future__ import annotations

import numpy as np

VOCAB_TYPES = 300
POS_TAGS = ("NN", "NNS", "NNP", "VB", "VBD", "VBZ", "JJ", "RB", "IN", "DT",
            "PRP", "CC")
LABELS = ("ARG1", "ARG2", "ARG3", "BV", "compound", "mwe", "poss", "conj",
          "loc", "times")
# label frequencies fall off like a real corpus: ARG1/ARG2 dominate
_LABEL_P = np.array([0.32, 0.25, 0.05, 0.12, 0.08, 0.03, 0.04, 0.05, 0.04, 0.02])
# extra heads per dependent, and reversed edges that close two-cycles
MULTI_HEAD_P = 0.25
CYCLE_P = 0.05
EMBEDDING_DIM = 100


def lexicon(seed):
    """(forms, pos tag per form, Zipf sampling weights) for one seed."""
    rng = np.random.default_rng([seed, 0])
    onsets = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z")
    vowels = ("a", "e", "i", "o", "u")
    forms = []
    seen = set()
    while len(forms) < VOCAB_TYPES:
        syllables = int(rng.integers(1, 4))
        form = "".join(onsets[rng.integers(len(onsets))] + vowels[rng.integers(len(vowels))]
                       for _ in range(syllables))
        if form not in seen:
            seen.add(form)
            forms.append(form)
    tags = [POS_TAGS[i] for i in rng.integers(len(POS_TAGS), size=VOCAB_TYPES)]
    weights = 1.0 / (np.arange(VOCAB_TYPES) + 2.7)
    return forms, tags, weights / weights.sum()


def length_order(lengths, seed):
    """The lengths in a seeded order."""
    rng = np.random.default_rng([seed, 1])
    return [lengths[i] for i in rng.permutation(len(lengths))]


def gold_edges(n, rng):
    """(head, dep, label) triples: one TOP edge, a head for every other
    word, extra heads for some words, and a few reversed edges that close
    two-cycles."""
    root = int(rng.integers(1, n + 1))
    edges = {(0, root): "TOP"}

    def label():
        return LABELS[rng.choice(len(LABELS), p=_LABEL_P)]

    def near_head(dep):
        while True:
            head = dep + int(rng.choice((-1, 1))) * int(rng.geometric(0.35))
            if 1 <= head <= n and head != dep:
                return head

    for dep in range(1, n + 1):
        if dep == root:
            continue
        edges[(near_head(dep), dep)] = label()
        if rng.random() < MULTI_HEAD_P:
            edges.setdefault((near_head(dep), dep), label())
    for head, dep in sorted(edges):
        if head and rng.random() < CYCLE_P:
            edges.setdefault((dep, head), label())
    return sorted((h, d, lab) for (h, d), lab in edges.items())


def sentence(n, rng, lex):
    """One sentence: (tokens as (form, lemma, pos) triples, gold edges)."""
    forms, tags, weights = lex
    ids = rng.choice(len(forms), size=n, p=weights)
    tokens = [(forms[i], forms[i], tags[i]) for i in ids]
    return tokens, gold_edges(n, rng)


def corpus(lengths, seed):
    """Sentences of the given lengths, in order, drawn from one seed."""
    rng = np.random.default_rng([seed, 2])
    lex = lexicon(seed)
    return [sentence(n, rng, lex) for n in lengths]


def format_sdp(sentences):
    """Corpus text; a token is a predicate iff it heads a word edge."""
    blocks = []
    for tokens, edges in sentences:
        labels = {(h, d): lab for h, d, lab in edges}
        preds = sorted({h for h, _, _ in edges if h >= 1})
        rows = []
        for i, (form, lemma, pos) in enumerate(tokens, start=1):
            cols = [str(i), form, lemma, pos,
                    "+" if (0, i) in labels else "-",
                    "+" if i in preds else "-"]
            cols.extend(labels.get((p, i), "_") for p in preds)
            rows.append("\t".join(cols))
        blocks.append("\n".join(rows))
    return "\n\n".join(blocks) + "\n"


def embedding_text(seed):
    """Pretrained vectors (``form v1 .. vd`` lines) for most of the seed's
    lexicon; the rarest tenth has no vector, as with a real table."""
    forms, _, _ = lexicon(seed)
    rng = np.random.default_rng([seed, 3])
    covered = forms[: int(0.9 * len(forms))]
    table = rng.normal(0.0, 0.5, size=(len(covered), EMBEDDING_DIM))
    return "".join(form + " " + " ".join(f"{v:.6f}" for v in row) + "\n"
                   for form, row in zip(covered, table))
