"""Reading and writing the tab-separated dependency-graph corpus format.

One sentence per blank-line-separated block, ``#`` lines are comments.
Each token row has, tab-separated:

    ID  FORM  LEMMA  POS  TOP  PRED  ARG1 ... ARGP

IDs are 1-based and contiguous. TOP and PRED hold ``+`` or ``-``. A ``+``
in TOP adds the edge (0, id, "TOP"). Tokens with ``+`` in PRED are the
sentence's predicates, numbered in token order; argument column p holds
the label of the edge from predicate p to this token, or ``_`` for no
edge. Every row of a sentence must carry exactly 6 + P columns where P is
the number of predicates, so a label in an argument column can only ever
reference an actual predicate.

Serialization marks a token as predicate iff it heads at least one
word-to-word edge. Root edges are stored only through the TOP column, so
a synthetic root edge with a non-"TOP" label does not survive a round
trip; gold graphs always use the reserved label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import Counter

import numpy as np

from .errors import DataError
from .graph import Sentence, SemGraph, Token, TOP_LABEL

__all__ = [
    "Vocabulary", "build_vocab", "parse_sdp", "parse_sdp_lines",
    "write_sdp", "format_sdp", "load_pretrained",
]

UNK = "<unk>"
TOP_TOKEN = "<top>"


@dataclass
class Vocabulary:
    """String-to-id maps for forms, POS tags, and edge labels.

    Forms below the frequency cutoff map to the unknown id. Ids 0 and 1 of
    the form and POS tables are reserved for unknown and the root token;
    label id 0 is the reserved root-edge label.
    """

    form2id: dict = field(default_factory=dict)
    pos2id: dict = field(default_factory=dict)
    label2id: dict = field(default_factory=dict)
    min_count: int = 7

    UNK_ID = 0
    TOP_ID = 1

    def __post_init__(self):
        self.id2label = [None] * len(self.label2id)
        for lab, i in self.label2id.items():
            self.id2label[i] = lab

    def word_id(self, form):
        return self.form2id.get(form, self.UNK_ID)

    def pos_id(self, pos):
        return self.pos2id.get(pos, self.UNK_ID)

    def label_id(self, label):
        if label not in self.label2id:
            raise DataError(f"unknown edge label {label!r}")
        return self.label2id[label]

    @property
    def num_words(self):
        return len(self.form2id)

    @property
    def num_pos(self):
        return len(self.pos2id)

    @property
    def num_labels(self):
        return len(self.label2id)

    def to_dict(self):
        return {
            "form2id": self.form2id,
            "pos2id": self.pos2id,
            "label2id": self.label2id,
            "min_count": self.min_count,
        }

    @classmethod
    def from_dict(cls, d):
        """The vocabulary ``to_dict`` gave; each id map must be a bijection
        onto 0..len-1, or DataError is raised."""
        maps = {key: dict(d[key]) for key in ("form2id", "pos2id", "label2id")}
        for key, ids in maps.items():
            if sorted(ids.values()) != list(range(len(ids))):
                raise DataError(f"vocabulary {key} does not map onto the ids 0..{len(ids) - 1}")
        return cls(**maps, min_count=int(d["min_count"]))


def build_vocab(data, min_count=7):
    """Frequency-sorted vocabulary from (Sentence, SemGraph) pairs.

    Forms seen fewer than ``min_count`` times share the unknown id; POS
    tags and labels get ids regardless of frequency. Ties break
    lexicographically so construction is deterministic.
    """
    form_counts = Counter()
    pos_counts = Counter()
    label_counts = Counter()
    for sent, graph in data:
        for tok in sent.tokens:
            form_counts[tok.form] += 1
            pos_counts[tok.pos] += 1
        for _, _, label in graph.edges:
            label_counts[label] += 1

    form2id = {UNK: 0, TOP_TOKEN: 1}
    for form, c in sorted(form_counts.items(), key=lambda kv: (-kv[1], kv[0])):
        if c >= min_count and form not in form2id:
            form2id[form] = len(form2id)

    pos2id = {UNK: 0, TOP_TOKEN: 1}
    for pos, _ in sorted(pos_counts.items(), key=lambda kv: (-kv[1], kv[0])):
        if pos not in pos2id:
            pos2id[pos] = len(pos2id)

    label2id = {TOP_LABEL: 0}
    label_counts.pop(TOP_LABEL, None)
    for label, _ in sorted(label_counts.items(), key=lambda kv: (-kv[1], kv[0])):
        label2id[label] = len(label2id)

    return Vocabulary(form2id, pos2id, label2id, min_count)


def _flag(value, source, line_no, column):
    if value == "+":
        return True
    if value == "-":
        return False
    raise DataError(
        f"{source} line {line_no}: {column} column must be '+' or '-', got {value!r}")


def parse_sdp_lines(lines, source="<string>"):
    """Parse an iterable of lines into (Sentence, SemGraph) pairs."""
    data = []
    block = []  # (line_no, columns)

    def flush():
        if not block:
            return
        tokens = []
        top_edges = []
        pred_rows = []  # token index of each '+' predicate, in order
        rows = []
        for line_no, cols in block:
            if len(cols) < 6:
                raise DataError(f"{source} line {line_no}: expected at least 6 columns, got {len(cols)}")
            idx = len(tokens) + 1
            if cols[0] != str(idx):
                raise DataError(f"{source} line {line_no}: token id {cols[0]!r}, expected {idx}")
            tokens.append(Token(cols[1], cols[2], cols[3]))
            if _flag(cols[4], source, line_no, "TOP"):
                top_edges.append((0, idx, TOP_LABEL))
            if _flag(cols[5], source, line_no, "PRED"):
                pred_rows.append(idx)
            rows.append((line_no, idx, cols[6:]))

        n_preds = len(pred_rows)
        edges = list(top_edges)
        for line_no, idx, args in rows:
            if len(args) != n_preds:
                raise DataError(
                    f"{source} line {line_no}: {len(args)} argument columns for "
                    f"{n_preds} predicates")
            for p, label in enumerate(args):
                if label == "_":
                    continue
                head = pred_rows[p]
                if head == idx:
                    raise DataError(f"{source} line {line_no}: self-edge on token {idx}")
                edges.append((head, idx, label))
        sent = Sentence(tuple(tokens))
        data.append((sent, SemGraph(sent.n, edges)))
        block.clear()

    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if line.startswith("#"):
            continue
        if not line.strip():
            flush()
            continue
        block.append((line_no, line.split("\t")))
    flush()
    return data


def text_lines(path, error=DataError):
    """The lines of the UTF-8 text file ``path``. A file that cannot be
    opened, or that holds a byte that is not UTF-8, raises ``error`` (the
    reader's DataError or ConfigError) naming the file, and the byte's
    line."""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    with fh:
        try:
            yield from fh
        except OSError as exc:
            raise error(f"cannot read {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise error(f"{path} line {_undecodable_line(path)}: not UTF-8 text "
                        f"({exc.reason})") from None


def _undecodable_line(path):
    """The line of the first byte of ``path`` that is not UTF-8. A text
    file decodes in chunks ahead of the lines it returns, so this reads
    the bytes again."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return raw.count(b"\n", 0, exc.start) + 1
    return "?"


def parse_sdp(path):
    return parse_sdp_lines(text_lines(path), source=str(path))


def format_sdp(data):
    """Serialize (Sentence, SemGraph) pairs; inverse of parse on gold graphs."""
    blocks = []
    for sent, graph in data:
        labels = graph._labels  # the graph's own (head, dep) -> label dict
        is_pred = {h for h, _ in labels if h >= 1}
        preds = sorted(is_pred)
        rows = []
        for i, tok in enumerate(sent.tokens, start=1):
            cols = [
                str(i), tok.form, tok.lemma, tok.pos,
                "+" if (0, i) in labels else "-",
                "+" if i in is_pred else "-",
            ]
            cols.extend([labels.get((p, i), "_") for p in preds])
            rows.append("\t".join(cols))
        blocks.append("\n".join(rows))
    return "\n\n".join(blocks) + "\n"


def write_sdp(data, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_sdp(data))


def load_pretrained(path):
    """Load word vectors from a text file of ``form v1 ... vd`` lines.

    Returns (dict form -> float64 array, dim). The dimension is fixed by
    the first line; any disagreeing line is an error.
    """
    table = {}
    dim = None
    for line_no, line in enumerate(text_lines(path), start=1):
        parts = line.rstrip("\n").split()
        if not parts:
            continue
        form, values = parts[0], parts[1:]
        if dim is None:
            dim = len(values)
            if dim == 0:
                raise DataError(f"{path} line {line_no}: no vector components")
        elif len(values) != dim:
            raise DataError(
                f"{path} line {line_no}: expected {dim} components, got {len(values)}")
        try:
            vector = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError:
            raise DataError(f"{path} line {line_no}: a component is not a number") from None
        if not np.all(np.isfinite(vector)):
            raise DataError(f"{path} line {line_no}: non-finite component")
        table[form] = vector
    if dim is None:
        raise DataError(f"{path}: empty embedding file")
    return table, dim
