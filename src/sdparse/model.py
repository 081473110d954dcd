"""Neural scorer: embeddings, BiLSTM encoder, role projections, and the
biaffine / trilinear score functions.

Pipeline for one sentence (root node included as position 0):

    o_i = word_emb(w_i) (+) pos_emb(t_i) [ (+) proj(pretrained(w_i)) ]
    r_0..r_n = BiLSTM(o_0..o_n)                  (identity when layers=0)
    role vectors = single-layer FNNs over r_i, leaky-ReLU activation

Edge existence scores use a full bilinear form with the dependent's
vector first,

    s_edge(h, d) = dep_vec(d)^T U head_vec(h) + b,

label scores use a diagonal bilinear slab (one weight vector per label),
and each second-order part type has its own rank-decomposed trilinear

    s(v1, v2, v3) = sum_m (U1 v1)_m (U2 v2)_m (U3 v3)_m.

Sibling parts read (head_i, dep_j, dep_k), co-parent parts
(head_i, dep_j, head_k), grandparent parts (head_i, head_dep_j, dep_k).

``score_factors`` stops before any part is enumerated: it returns the
edge scores as a dense head-by-dependent matrix and, per part type, the
factor matrices g1 = role1 U1^T, g2 = role2 U2^T, g3 = role3 U3^T whose
row products make up every part score. ``score_sentence`` gathers those
rows into one score per enumerated part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DataError
from .graph import build_candidate_edges
from .sdp_io import Vocabulary

__all__ = [
    "ModelConfig", "ParserModel", "ScoreSet", "ScoreFactors",
    "biaffine", "diagonal_biaffine", "trilinear",
    "ROLES",
]

# one single-layer projection per scoring role
ROLES = (
    "edge_head", "edge_dep",
    "label_head", "label_dep",
    "sib_head", "sib_dep",
    "cop_head", "cop_dep",
    "gp_head", "gp_dep", "gp_head_dep",
)
_UNARY_ROLES = {"edge_head", "edge_dep", "label_head", "label_dep"}
# the roles read by the factors (g1, g2, g3) of each part type's trilinear form
TRI_ROLES = {
    "sib": ("sib_head", "sib_dep", "sib_dep"),
    "cop": ("cop_head", "cop_dep", "cop_head"),
    "gp": ("gp_head", "gp_head_dep", "gp_dep"),
}


@dataclass
class ModelConfig:
    """Scorer dimensions and switches. Defaults are the small desk scale;
    ``full()`` gives the full-scale settings."""

    word_dim: int = 16
    pos_dim: int = 8
    use_pretrained: bool = False
    pretrained_proj_dim: int = 125
    encoder_layers: int = 1
    encoder_hidden: int = 32
    unary_dim: int = 32
    binary_dim: int = 16
    leaky_slope: float = 0.1
    use_sib: bool = True
    use_cop: bool = True
    use_gp: bool = True
    dropout_embed: float = 0.0
    dropout_lstm_ff: float = 0.0
    dropout_lstm_recur: float = 0.0
    dropout_unary: float = 0.0
    dropout_label: float = 0.0
    dropout_binary: float = 0.0

    @classmethod
    def desk(cls, **overrides):
        return cls(**overrides)

    @classmethod
    def full(cls, **overrides):
        base = dict(
            word_dim=100, pos_dim=50, use_pretrained=True,
            pretrained_proj_dim=125, encoder_layers=3, encoder_hidden=600,
            unary_dim=600, binary_dim=150,
            dropout_embed=0.2, dropout_lstm_ff=0.45, dropout_lstm_recur=0.25,
            dropout_unary=0.25, dropout_label=0.33, dropout_binary=0.25,
        )
        base.update(overrides)
        return cls(**base)

    def validate(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name.startswith("dropout") and not (0.0 <= v < 1.0):
                raise ConfigError(f"{f.name} must be in [0,1), got {v}")
        for name in ("word_dim", "pos_dim", "encoder_hidden", "unary_dim", "binary_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.encoder_layers < 0:
            raise ConfigError("encoder_layers must be >= 0")

    @property
    def input_dim(self):
        d = self.word_dim + self.pos_dim
        if self.use_pretrained:
            d += self.pretrained_proj_dim
        return d

    @property
    def context_dim(self):
        if self.encoder_layers == 0:
            return self.input_dim
        return 2 * self.encoder_hidden


@dataclass
class ScoreSet:
    """All scores of one sentence, aligned with the candidate edge order
    and the (possibly part-type-filtered) part list."""

    edge_set: object
    parts: object
    s_edge: Tensor        # (E,)
    s_label: Tensor       # (E, num_labels)
    s_sib: Tensor         # (|sib|,)
    s_cop: Tensor         # (|cop|,)
    s_gp: Tensor          # (|gp|,)
    _sib_index: dict = field(default_factory=dict)
    _cop_index: dict = field(default_factory=dict)
    _gp_index: dict = field(default_factory=dict)

    def __post_init__(self):
        self._sib_index = {p: k for k, p in enumerate(self.parts.sib)}
        self._cop_index = {p: k for k, p in enumerate(self.parts.cop)}
        self._gp_index = {p: k for k, p in enumerate(self.parts.gp)}

    def edge_score(self, head, dep):
        return float(self.s_edge.data[self.edge_set.index[(head, dep)]])

    def label_scores(self, head, dep):
        return self.s_label.data[self.edge_set.index[(head, dep)]]

    def sib_score(self, head, dep1, dep2):
        j, k = min(dep1, dep2), max(dep1, dep2)
        return float(self.s_sib.data[self._sib_index[(head, j, k)]])

    def cop_score(self, head1, head2, dep):
        i, k = min(head1, head2), max(head1, head2)
        return float(self.s_cop.data[self._cop_index[(i, k, dep)]])

    def gp_score(self, grand, mid, dep):
        return float(self.s_gp.data[self._gp_index[(grand, mid, dep)]])


@dataclass
class ScoreFactors:
    """Scores of one sentence with no second-order part enumerated.

    ``edge_scores[h, d]`` is s_edge(h, d) on the whole (n+1) x (n+1)
    head-by-dependent grid; cells that are not candidate edges (column 0
    and the diagonal) are never read. ``tri`` maps each part type enabled
    in the config to its factors (g1, g2, g3), each (n+1, binary_dim): a
    part whose first edge is (a, b) and whose third node is c scores
    sum_m g1[a,m] g2[b,m] g3[c,m] (first edges: (i, j) of sib (i, j, k),
    cop (i, k, j) and gp (i, j, k)).
    """

    edge_set: object
    edge_scores: Tensor   # (n+1, n+1)
    s_label: Tensor       # (E, num_labels), candidate edge order
    tri: dict

    @property
    def edges(self):
        return self.edge_set.edges

    @property
    def index(self):
        return self.edge_set.index

    @property
    def edge_count(self):
        return len(self.edge_set)


def biaffine(v1, v2, U, b):
    """v1^T U v2 + b for single vectors. v1 is the dependent role vector."""
    return ad.tensor_sum(ad.mul(ad.matmul(U, v2), v1)) + b


def diagonal_biaffine(v1, v2, W, b):
    """Per-label scores sum_m W[m,l] v1[m] v2[m] + b[l]."""
    return ad.matmul(ad.mul(v1, v2), W) + b


def trilinear(v1, v2, v3, U1, U2, U3):
    """Rank-decomposed trilinear form: sum_m (U1 v1)_m (U2 v2)_m (U3 v3)_m."""
    return ad.tensor_sum(ad.mul(ad.mul(ad.matmul(U1, v1), ad.matmul(U2, v2)),
                                ad.matmul(U3, v3)))


def _uniform(rng, shape, fan_in):
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _dropout(x, p, rng):
    """Inverted dropout; returns x untouched when p == 0."""
    if p <= 0.0:
        return x
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return ad.mul(x, ad.constant(mask))


class ParserModel:
    """Holds all parameters and computes a ScoreSet per sentence."""

    def __init__(self, config, vocab, rng, pretrained=None, pretrained_table=None):
        config.validate()
        self.config = config
        self.vocab = vocab
        self.params = {}

        def param(name, values):
            self.params[name] = ad.parameter(values)

        c = config
        param("word_emb", _uniform(rng, (vocab.num_words, c.word_dim), c.word_dim))
        param("pos_emb", _uniform(rng, (vocab.num_pos, c.pos_dim), c.pos_dim))

        self.pretrained_table = None
        if c.use_pretrained:
            if pretrained_table is not None:
                table = np.asarray(pretrained_table, dtype=np.float64)
                if table.shape[0] != vocab.num_words:
                    raise ConfigError(
                        f"pretrained table has {table.shape[0]} rows for "
                        f"{vocab.num_words} vocabulary entries")
            elif pretrained is not None:
                vectors, dim = pretrained
                table = np.zeros((vocab.num_words, dim))
                for form, idx in vocab.form2id.items():
                    if form in vectors:
                        table[idx] = vectors[form]
            else:
                raise ConfigError("use_pretrained is set but no embedding table was given")
            self.pretrained_table = table
            dim = table.shape[1]
            param("pretrained_proj_W", _uniform(rng, (c.pretrained_proj_dim, dim), dim))
            param("pretrained_proj_b", np.zeros(c.pretrained_proj_dim))

        in_dim = c.input_dim
        for layer in range(c.encoder_layers):
            for direction in ("fw", "bw"):
                h = c.encoder_hidden
                prefix = f"lstm{layer}_{direction}"
                param(f"{prefix}_Wx", _uniform(rng, (4 * h, in_dim), in_dim))
                param(f"{prefix}_Wh", _uniform(rng, (4 * h, h), h))
                param(f"{prefix}_b", np.zeros(4 * h))
            in_dim = 2 * c.encoder_hidden

        ctx = c.context_dim
        for role in ROLES:
            out = c.unary_dim if role in _UNARY_ROLES else c.binary_dim
            param(f"proj_{role}_W", _uniform(rng, (out, ctx), ctx))
            param(f"proj_{role}_b", np.zeros(out))

        param("edge_U", rng.normal(0.0, 1.0, size=(c.unary_dim, c.unary_dim)))
        param("edge_b", np.zeros(()))
        param("label_W", rng.normal(0.0, 1.0, size=(c.unary_dim, vocab.num_labels)))
        param("label_b", np.zeros(vocab.num_labels))
        for kind in ("sib", "cop", "gp"):
            for slot in ("U1", "U2", "U3"):
                param(f"tri_{kind}_{slot}",
                      rng.normal(0.0, 0.25, size=(c.binary_dim, c.binary_dim)))

    # ------------------------------------------------------------- plumbing

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def num_params(self):
        return sum(p.size for p in self.params.values())

    def param_groups(self):
        """Logical parameter groups, used for gradient-check coverage."""
        groups = {"embeddings": [], "encoder": [], "projections": [],
                  "edge_biaffine": [], "label_biaffine": [], "trilinear": []}
        for name in self.params:
            if name.endswith("_emb") or name.startswith("pretrained_proj"):
                groups["embeddings"].append(name)
            elif name.startswith("lstm"):
                groups["encoder"].append(name)
            elif name.startswith("proj_"):
                groups["projections"].append(name)
            elif name.startswith("edge_"):
                groups["edge_biaffine"].append(name)
            elif name.startswith("label_"):
                groups["label_biaffine"].append(name)
            elif name.startswith("tri_"):
                groups["trilinear"].append(name)
        return {g: names for g, names in groups.items() if names}

    def state_arrays(self):
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state_arrays(self, arrays):
        missing = sorted(set(self.params) ^ set(arrays))
        if missing:
            raise ConfigError(f"parameter name mismatch: {missing}")
        for name, p in self.params.items():
            if p.data.shape != arrays[name].shape:
                raise ConfigError(
                    f"parameter {name}: shape {arrays[name].shape} does not match "
                    f"{p.data.shape}")
            p.data = arrays[name].astype(np.float64)

    # ----------------------------------------------------------- forward ops

    def embed(self, sentence, train=False, rng=None):
        """Input vectors o_0..o_n as an (n+1, input_dim) tensor.

        Position 0 uses the reserved root rows; unseen forms fall back to
        the unknown row.
        """
        v = self.vocab
        word_ids = [v.TOP_ID] + [v.word_id(t.form) for t in sentence.tokens]
        pos_ids = [v.TOP_ID] + [v.pos_id(t.pos) for t in sentence.tokens]
        words = ad.take(self.params["word_emb"], word_ids)
        tags = ad.take(self.params["pos_emb"], pos_ids)
        if train:
            p = self.config.dropout_embed
            words = _dropout(words, p, rng)
            tags = _dropout(tags, p, rng)
        channels = [words, tags]
        if self.config.use_pretrained:
            raw = ad.constant(self.pretrained_table[word_ids])
            proj = ad.matmul(raw, ad.transpose(self.params["pretrained_proj_W"]))
            proj = proj + self.params["pretrained_proj_b"]
            if train:
                proj = _dropout(proj, self.config.dropout_embed, rng)
            channels.append(proj)
        return ad.concat(channels, axis=1)

    def _lstm_direction(self, rows, prefix, train, rng):
        h_dim = self.config.encoder_hidden
        Wx = self.params[f"{prefix}_Wx"]
        Wh = self.params[f"{prefix}_Wh"]
        b = self.params[f"{prefix}_b"]
        h = ad.constant(np.zeros(h_dim))
        cell = ad.constant(np.zeros(h_dim))
        recur_mask = None
        if train and self.config.dropout_lstm_recur > 0.0:
            p = self.config.dropout_lstm_recur
            recur_mask = ad.constant((rng.random(h_dim) >= p) / (1.0 - p))
        outs = []
        for x in rows:
            h_in = ad.mul(h, recur_mask) if recur_mask is not None else h
            gates = ad.matmul(Wx, x) + ad.matmul(Wh, h_in) + b
            i = ad.sigmoid(gates[0:h_dim])
            f = ad.sigmoid(gates[h_dim:2 * h_dim])
            g = ad.tanh(gates[2 * h_dim:3 * h_dim])
            o = ad.sigmoid(gates[3 * h_dim:4 * h_dim])
            cell = ad.add(ad.mul(f, cell), ad.mul(i, g))
            h = ad.mul(o, ad.tanh(cell))
            outs.append(h)
        return outs

    def encode(self, inputs, train=False, rng=None):
        """Bidirectional LSTM over positions 0..n; identity when layers=0."""
        current = inputs
        for layer in range(self.config.encoder_layers):
            if train:
                current = _dropout(current, self.config.dropout_lstm_ff, rng)
            rows = [current[t] for t in range(current.shape[0])]
            fw = self._lstm_direction(rows, f"lstm{layer}_fw", train, rng)
            bw = self._lstm_direction(list(reversed(rows)), f"lstm{layer}_bw", train, rng)
            bw.reverse()
            current = ad.stack([ad.concat([f, bk]) for f, bk in zip(fw, bw)], axis=0)
        return current

    def project_roles(self, context, train=False, rng=None):
        """One leaky-ReLU projection of the context vectors per role."""
        cfg = self.config
        out = {}
        for role in ROLES:
            W = self.params[f"proj_{role}_W"]
            b = self.params[f"proj_{role}_b"]
            h = ad.leaky_relu(ad.matmul(context, ad.transpose(W)) + b, cfg.leaky_slope)
            if train:
                if role in ("edge_head", "edge_dep"):
                    h = _dropout(h, cfg.dropout_unary, rng)
                elif role in ("label_head", "label_dep"):
                    h = _dropout(h, cfg.dropout_label, rng)
                else:
                    h = _dropout(h, cfg.dropout_binary, rng)
            out[role] = h
        return out

    def score_factors(self, sentence, train=False, rng=None):
        """ScoreFactors for one sentence: dense edge scores, label scores
        per candidate edge, and the trilinear factors of each part type
        enabled in the config."""
        edge_set = build_candidate_edges(sentence.n)
        context = self.encode(self.embed(sentence, train, rng), train, rng)
        roles = self.project_roles(context, train, rng)
        p = self.params

        # s_edge(h, d) = dep(d)^T U head(h) + b for every (h, d) at once
        edge_scores = ad.matmul(roles["edge_head"],
                                ad.transpose(ad.matmul(roles["edge_dep"], p["edge_U"])))
        edge_scores = edge_scores + p["edge_b"]

        lab_dep = ad.take(roles["label_dep"], edge_set.deps)
        lab_head = ad.take(roles["label_head"], edge_set.heads)
        s_label = ad.matmul(ad.mul(lab_dep, lab_head), p["label_W"]) + p["label_b"]

        tri = {}
        for kind, role_names in TRI_ROLES.items():
            if getattr(self.config, f"use_{kind}"):
                tri[kind] = tuple(
                    ad.matmul(roles[role], ad.transpose(p[f"tri_{kind}_{slot}"]))
                    for role, slot in zip(role_names, ("U1", "U2", "U3")))
        return ScoreFactors(edge_set, edge_scores, s_label, tri)

    def score_sentence(self, sentence, parts, train=False, rng=None):
        """ScoreSet for one sentence; part types disabled in the config are
        dropped from the returned part list."""
        cfg = self.config
        parts = parts.filter(cfg.use_sib, cfg.use_cop, cfg.use_gp)
        if parts.n != sentence.n:
            raise DataError(f"part list built for n={parts.n}, sentence has n={sentence.n}")

        factors = self.score_factors(sentence, train, rng)
        edge_set = factors.edge_set
        s_edge = ad.take(ad.reshape(factors.edge_scores, (-1,)), edge_set.flat)

        def tri_scores(kind, triples, order):
            if not triples:
                return ad.constant(np.zeros(0))
            g1, g2, g3 = factors.tri[kind]
            a = np.array([t[order[0]] for t in triples], dtype=np.intp)
            b = np.array([t[order[1]] for t in triples], dtype=np.intp)
            c = np.array([t[order[2]] for t in triples], dtype=np.intp)
            prod = ad.mul(ad.mul(ad.take(g1, a), ad.take(g2, b)), ad.take(g3, c))
            return ad.tensor_sum(prod, axis=1)

        # stored orders: sib (i, j, k), cop (i, k, j), gp (i, j, k)
        s_sib = tri_scores("sib", parts.sib, (0, 1, 2))
        s_cop = tri_scores("cop", parts.cop, (0, 2, 1))
        s_gp = tri_scores("gp", parts.gp, (0, 1, 2))

        return ScoreSet(edge_set, parts, s_edge, factors.s_label, s_sib, s_cop, s_gp)

    def score_backward(self, scoreset, grads):
        """Push upstream gradients on score arrays into parameter .grad.

        ``grads`` maps any of s_edge/s_label/s_sib/s_cop/s_gp to an array
        of the matching shape.
        """
        outs, seeds = [], []
        for name, g in grads.items():
            t = getattr(scoreset, name)
            if t.shape != np.shape(g):
                raise ValueError(f"{name}: upstream shape {np.shape(g)} != {t.shape}")
            outs.append(t)
            seeds.append(g)
        ad.backward(outs, seeds)
