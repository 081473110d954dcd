"""Neural scorer: embeddings, BiLSTM encoder, role projections, and the
biaffine / trilinear score functions.

Pipeline for one sentence (root node included as position 0):

    o_i = word_emb(w_i) (+) pos_emb(t_i) [ (+) proj(pretrained(w_i)) ]
    r_0..r_n = BiLSTM(o_0..o_n)                  (identity when layers=0)
    role vectors = single-layer FNNs over r_i, leaky-ReLU activation

Each direction of each BiLSTM layer is one ``autodiff.lstm`` node: the
input projection of all positions is one matrix product, and the
backward pass forms every weight gradient with one product, so the tape
holds no per-token entries.

Edge existence scores use a full bilinear form with the dependent's
vector first,

    s_edge(h, d) = dep_vec(d)^T U head_vec(h) + b,

label scores use a diagonal bilinear slab (one weight vector per label),
and each second-order part type has its own rank-decomposed trilinear

    s(v1, v2, v3) = sum_m (U1 v1)_m (U2 v2)_m (U3 v3)_m.

Sibling parts read (head_i, dep_j, dep_k), co-parent parts
(head_i, dep_j, head_k), grandparent parts (head_i, head_dep_j, dep_k).

``score_factors`` is the scorer's output. It enumerates no part: it
returns the edge scores as a dense head-by-dependent matrix, the label
role vectors (``label_scores`` scores only the edges a caller names) and,
per part type, the factor matrices g1 = role1 U1^T, g2 = role2 U2^T,
g3 = role3 U3^T whose row products make up every part score. Mean-field
runs on the factors directly; ``potentials.from_factors`` turns them into
the dense (n+1)^3 score tensors that loopy BP and ``trace`` read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DataError
from .graph import build_candidate_edges

__all__ = ["ModelConfig", "ParserModel", "ScoreFactors", "ROLES"]

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
    def full(cls):
        return cls(
            word_dim=100, pos_dim=50, use_pretrained=True,
            pretrained_proj_dim=125, encoder_layers=3, encoder_hidden=600,
            unary_dim=600, binary_dim=150,
            dropout_embed=0.2, dropout_lstm_ff=0.45, dropout_lstm_recur=0.25,
            dropout_unary=0.25, dropout_label=0.33, dropout_binary=0.25,
        )

    def validate(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name.startswith("dropout") and not (0.0 <= v < 1.0):
                raise ConfigError(f"{f.name} must be in [0,1), got {v}")
        for name in ("word_dim", "pos_dim", "pretrained_proj_dim", "encoder_hidden",
                     "unary_dim", "binary_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if not math.isfinite(self.leaky_slope):
            raise ConfigError(f"leaky_slope must be finite, got {self.leaky_slope}")
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
    label_head: Tensor    # (n+1, unary_dim), read by ParserModel.label_scores
    label_dep: Tensor     # (n+1, unary_dim), read by ParserModel.label_scores
    tri: dict


def _uniform(rng, shape):
    """Uniform in +-1/sqrt(fan_in), the fan-in being the last axis."""
    bound = 1.0 / math.sqrt(shape[-1])
    return rng.uniform(-bound, bound, size=shape)


def _normal(std):
    return lambda rng, shape: rng.normal(0.0, std, size=shape)


def _zeros(rng, shape):
    return np.zeros(shape)


def _dropout(x, p, rng):
    """Inverted dropout; returns x untouched when p == 0."""
    if p <= 0.0:
        return x
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return ad.mul(x, ad.constant(mask))


class ParserModel:
    """Holds all parameters and computes a ScoreFactors per sentence.

    ``_declare`` gives every parameter's name, shape and initialiser once.
    A new model draws them from ``rng`` in that order. A model rebuilt
    from ``state`` (name -> array, as a checkpoint stores them, the
    pretrained table included when the config uses one) takes the arrays
    as they are and draws nothing; arrays that are not exactly the
    declared names and shapes raise DataError.
    """

    def __init__(self, config, vocab, rng=None, pretrained=None, state=None):
        config.validate()
        self.config = config
        self.vocab = vocab
        self.pretrained_table = None
        if state is not None:
            self._load(state)
            return
        if config.use_pretrained:
            if pretrained is None:
                raise ConfigError("use_pretrained is set but no embedding table was given")
            vectors, dim = pretrained
            table = np.zeros((vocab.num_words, dim))
            for form, idx in vocab.form2id.items():
                if form in vectors:
                    table[idx] = vectors[form]
            self.pretrained_table = table
        table_dim = 0 if self.pretrained_table is None else self.pretrained_table.shape[1]
        self.params = {name: ad.parameter(init(rng, shape))
                       for name, shape, init in self._declare(table_dim)}

    def _declare(self, table_dim):
        """(name, shape, init) of every parameter, in drawing order;
        ``init(rng, shape)`` gives its initial values."""
        c, v = self.config, self.vocab
        specs = [("word_emb", (v.num_words, c.word_dim), _uniform),
                 ("pos_emb", (v.num_pos, c.pos_dim), _uniform)]
        if c.use_pretrained:
            specs += [("pretrained_proj_W", (c.pretrained_proj_dim, table_dim), _uniform),
                      ("pretrained_proj_b", (c.pretrained_proj_dim,), _zeros)]
        in_dim, h = c.input_dim, c.encoder_hidden
        for layer in range(c.encoder_layers):
            for direction in ("fw", "bw"):
                prefix = f"lstm{layer}_{direction}"
                specs += [(f"{prefix}_Wx", (4 * h, in_dim), _uniform),
                          (f"{prefix}_Wh", (4 * h, h), _uniform),
                          (f"{prefix}_b", (4 * h,), _zeros)]
            in_dim = 2 * h
        for role in ROLES:
            out = c.unary_dim if role in _UNARY_ROLES else c.binary_dim
            specs += [(f"proj_{role}_W", (out, c.context_dim), _uniform),
                      (f"proj_{role}_b", (out,), _zeros)]
        specs += [("edge_U", (c.unary_dim, c.unary_dim), _normal(1.0)),
                  ("edge_b", (), _zeros),
                  ("label_W", (c.unary_dim, v.num_labels), _normal(1.0)),
                  ("label_b", (v.num_labels,), _zeros)]
        specs += [(f"tri_{kind}_{slot}", (c.binary_dim, c.binary_dim), _normal(0.25))
                  for kind in ("sib", "cop", "gp") for slot in ("U1", "U2", "U3")]
        return specs

    def _load(self, state):
        """Take the parameters and the pretrained table from ``state``."""
        table = state.get("pretrained_table")
        table_dim = table.shape[-1] if table is not None and table.ndim else 0
        shapes = {name: shape for name, shape, _ in self._declare(table_dim)}
        declared = dict(shapes)
        if self.config.use_pretrained:
            declared["pretrained_table"] = (self.vocab.num_words, table_dim)
            self.pretrained_table = table
        _check_arrays(declared, state)
        self.params = {name: ad.parameter(state[name]) for name in shapes}

    # ------------------------------------------------------------- plumbing

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

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
        _check_arrays({name: p.data.shape for name, p in self.params.items()}, arrays)
        for name, p in self.params.items():
            p.data = arrays[name].astype(np.float64)

    # ----------------------------------------------------------- forward ops

    def embed(self, sentence, rng=None):
        """Input vectors o_0..o_n as an (n+1, input_dim) tensor.

        Position 0 uses the reserved root rows; unseen forms fall back to
        the unknown row. Embedding dropout draws from ``rng`` when one is
        given.
        """
        v = self.vocab
        word_ids = [v.TOP_ID] + [v.word_id(t.form) for t in sentence.tokens]
        pos_ids = [v.TOP_ID] + [v.pos_id(t.pos) for t in sentence.tokens]
        words = ad.take(self.params["word_emb"], word_ids)
        tags = ad.take(self.params["pos_emb"], pos_ids)
        if rng is not None:
            p = self.config.dropout_embed
            words = _dropout(words, p, rng)
            tags = _dropout(tags, p, rng)
        channels = [words, tags]
        if self.config.use_pretrained:
            raw = ad.constant(self.pretrained_table[word_ids])
            proj = ad.linear(raw, self.params["pretrained_proj_W"])
            proj = ad.add(proj, self.params["pretrained_proj_b"])
            if rng is not None:
                proj = _dropout(proj, self.config.dropout_embed, rng)
            channels.append(proj)
        return ad.concat(channels, axis=1)

    def _lstm(self, prefix, rows, recur_mask):
        p = self.params
        return ad.lstm(rows, p[f"{prefix}_Wx"], p[f"{prefix}_Wh"], p[f"{prefix}_b"], recur_mask)

    def encode(self, inputs, rng=None):
        """Bidirectional LSTM over positions 0..n; identity when layers=0.

        Each direction of each layer is one ``autodiff.lstm`` node; the
        backward direction runs over the rows reversed by ``take``. Given
        ``rng``, dropout masks are drawn from it per layer in the order:
        feed-forward mask over the inputs, forward recurrent mask,
        backward recurrent mask.
        """
        cfg = self.config
        current = inputs
        reverse = np.arange(inputs.shape[0])[::-1]
        for layer in range(cfg.encoder_layers):
            if rng is not None:
                current = _dropout(current, cfg.dropout_lstm_ff, rng)
            fw_mask = bw_mask = None
            if rng is not None and cfg.dropout_lstm_recur > 0.0:
                p = cfg.dropout_lstm_recur
                fw_mask, bw_mask = ((rng.random(cfg.encoder_hidden) >= p) / (1.0 - p)
                                    for _ in range(2))
            fw = self._lstm(f"lstm{layer}_fw", current, fw_mask)
            bw = self._lstm(f"lstm{layer}_bw", ad.take(current, reverse), bw_mask)
            current = ad.concat([fw, ad.take(bw, reverse)], axis=1)
        return current

    def project_roles(self, context, rng=None):
        """One leaky-ReLU projection of the context vectors per role, with
        its role's dropout drawn from ``rng`` when one is given."""
        cfg = self.config
        out = {}
        for role in ROLES:
            W = self.params[f"proj_{role}_W"]
            b = self.params[f"proj_{role}_b"]
            h = ad.leaky_relu(ad.add(ad.linear(context, W), b), cfg.leaky_slope)
            if rng is not None:
                if role in ("edge_head", "edge_dep"):
                    h = _dropout(h, cfg.dropout_unary, rng)
                elif role in ("label_head", "label_dep"):
                    h = _dropout(h, cfg.dropout_label, rng)
                else:
                    h = _dropout(h, cfg.dropout_binary, rng)
            out[role] = h
        return out

    def score_factors(self, sentence, rng=None):
        """ScoreFactors for one sentence: dense edge scores, the label
        role vectors, and the trilinear factors of each part type
        enabled in the config. Dropout is on exactly when a generator
        ``rng`` is given; a training step passes one, a parse none."""
        edge_set = build_candidate_edges(sentence.n)
        context = self.encode(self.embed(sentence, rng), rng)
        roles = self.project_roles(context, rng)
        p = self.params

        # s_edge(h, d) = dep(d)^T U head(h) + b for every (h, d) at once
        edge_scores = ad.matmul(roles["edge_head"],
                                ad.transpose(ad.matmul(roles["edge_dep"], p["edge_U"])))
        edge_scores = ad.add(edge_scores, p["edge_b"])

        tri = {}
        for kind, role_names in TRI_ROLES.items():
            if getattr(self.config, f"use_{kind}"):
                tri[kind] = tuple(
                    ad.linear(roles[role], p[f"tri_{kind}_{slot}"])
                    for role, slot in zip(role_names, ("U1", "U2", "U3")))
        return ScoreFactors(edge_set, edge_scores, roles["label_head"], roles["label_dep"], tri)

    def label_scores(self, factors, heads, deps):
        """(K, num_labels) label scores (label_head[h] * label_dep[d]) W + b
        of the K edges (heads[k], deps[k]) alone."""
        pairs = ad.mul(ad.take(factors.label_head, heads), ad.take(factors.label_dep, deps))
        return ad.add(ad.matmul(pairs, self.params["label_W"]), self.params["label_b"])


def _check_arrays(declared, arrays):
    """Raise DataError unless ``arrays`` has exactly the ``declared``
    names (name -> shape), each array with its declared shape."""
    if set(arrays) != set(declared):
        raise DataError(f"stored arrays do not match the model's: "
                        f"{sorted(set(arrays) ^ set(declared))}")
    for name, shape in declared.items():
        if arrays[name].shape != shape:
            raise DataError(f"array {name}: shape {arrays[name].shape} does not match "
                            f"the model's {shape}")
