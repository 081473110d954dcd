"""Losses, optimizer, training loop, and finite-difference gradient checks.

The objective interpolates a labeled and an unlabeled term,

    L = lambda * L_label + (1 - lambda) * L_edge,

where L_edge is the summed Bernoulli cross-entropy of the final inference
marginals against gold edge existence (over every candidate edge), and
L_label is the summed softmax cross-entropy of the label scores over gold
edges only, so the label scorer never trains on absent edges. With l the
last logit of an edge, its cross-entropy is -log Q(1) = softplus(-l) for
a gold edge and -log Q(0) = softplus(l) for any other.

The optimizer is Adam with beta1=0, beta2=0.95 and bias correction, a
stepped learning-rate halving, and a one-time switch to AMSGrad (element-
wise max of second moments) when dev F1 stalls. L2 regularization is added
straight to the gradients. Sentences longer than a cap are dropped;
batches pack length-sorted sentences up to a token budget and are
shuffled per epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericError
from .metrics import f1
from .mf import DEFAULT_CLAMP
from .pipeline import check_length, parse_sentence, run_inference, sentence_potentials

__all__ = [
    "TrainConfig", "edge_loss", "label_loss", "combined_loss",
    "Optimizer", "make_batches", "train", "TrainResult",
    "gradcheck", "GradCheckResult", "sentence_loss",
]


@dataclass
class TrainConfig:
    """Optimization hyperparameters, at desk scale by default."""

    interpolation: float = 0.07   # weight on the label loss
    learning_rate: float = 1e-2
    beta1: float = 0.0
    beta2: float = 0.95
    epsilon: float = 1e-8
    lr_decay: float = 0.5
    decay_every_steps: int = 10000
    amsgrad_patience_steps: int = 5000
    early_stop_steps: int = 10000
    max_steps: int = 5000
    batch_token_budget: int = 500
    iterations: int = 3
    inference: str = "mf"
    l2: float = None
    seed: int = 1
    max_sentence_length: int = 60
    threshold: float = 0.5
    logit_clamp: float = DEFAULT_CLAMP

    def __post_init__(self):
        if self.l2 is None:
            self.l2 = 3e-9 if self.inference == "mf" else 3e-8

    def validate(self):
        if not 0.0 <= self.interpolation <= 1.0:
            raise ConfigError(f"interpolation must be in [0,1], got {self.interpolation}")
        if self.inference not in ("mf", "lbp"):
            raise ConfigError(f"inference must be 'mf' or 'lbp', got {self.inference!r}")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.seed < 0:   # numpy seeds a generator only from one >= 0
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # each check is written so that NaN fails it
        for name in ("learning_rate", "epsilon", "decay_every_steps", "max_steps",
                     "batch_token_budget", "max_sentence_length"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        # an infinite learning rate, epsilon or L2 weight makes every update NaN or 0
        for name in ("learning_rate", "epsilon", "l2"):
            if math.isinf(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("beta1", "beta2", "threshold"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0,1)")
        if not self.l2 >= 0.0:
            raise ConfigError(f"l2 must be >= 0, got {self.l2}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError(f"lr_decay must be in (0,1], got {self.lr_decay}")
        for name in ("amsgrad_patience_steps", "early_stop_steps"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        # None, which library callers pass, runs unclamped
        if self.logit_clamp is not None and not self.logit_clamp > 0.0:
            raise ConfigError(f"logit_clamp must be positive, got {self.logit_clamp}")


# ------------------------------------------------------------------- losses

def _gold_cells(gold):
    """(heads, deps) index arrays of the gold edges, in sorted order."""
    cells = np.array(sorted(gold.edge_pairs()), dtype=np.intp).reshape(-1, 2)
    return cells[:, 0], cells[:, 1]


def edge_loss(state, gold):
    """Summed log loss of final marginals against gold edge existence:
    the softplus of the last logit grid's edge cells, each negated when
    the edge is gold. It reads only the last grid, which under loopy BP
    is the one grid that carries gradient."""
    mask = state.pot.edge_set.mask
    sign = np.ones(mask.shape)
    sign[_gold_cells(gold)] = -1.0
    logit = ad.take(ad.reshape(state.logits[-1], (-1,)), np.flatnonzero(mask))
    return ad.tensor_sum(ad.softplus(ad.mul(logit, ad.constant(sign[mask]))))


def label_loss(scores, gold, vocab):
    """Summed softmax cross-entropy of label scores over gold edges."""
    heads, deps = _gold_cells(gold)
    if not len(heads):
        return ad.constant(0.0)
    rows = scores.edge_set.positions()[heads, deps]
    gold_ids = [vocab.label_id(gold.label_of(h, d))
                for h, d in zip(heads.tolist(), deps.tolist())]
    picked = ad.take(scores.s_label, rows)
    lse = ad.logsumexp(picked, axis=1)
    # row k's gold cell of the flattened (gold edges, labels) scores
    cells = np.arange(len(rows)) * picked.shape[1] + gold_ids
    gold_scores = ad.take(ad.reshape(picked, (-1,)), cells)
    return ad.tensor_sum(ad.sub(lse, gold_scores))


def combined_loss(edge_term, label_term, interpolation):
    lam = float(interpolation)
    return ad.add(ad.mul(ad.constant(lam), label_term),
                  ad.mul(ad.constant(1.0 - lam), edge_term))


def sentence_loss(model, sentence, gold, cfg, rng=None):
    """Combined loss of one sentence under the configured engine, with
    dropout drawn from ``rng`` when one is given."""
    scores, pot = sentence_potentials(model, sentence, cfg.inference, rng=rng)
    state = run_inference(pot, cfg.inference, cfg.iterations, cfg.logit_clamp)
    return combined_loss(edge_loss(state, gold),
                         label_loss(scores, gold, model.vocab),
                         cfg.interpolation)


# ---------------------------------------------------------------- optimizer

class Optimizer:
    """Adam with bias correction, stepped lr decay, optional AMSGrad mode,
    and L2 regularization added to the raw gradients. At beta1 = 0 the
    first moment is the regularized gradient itself, so none is stored."""

    def __init__(self, params, cfg):
        self.params = params
        self.cfg = cfg
        self.step_count = 0
        self.mode = "adam"
        # np.zeros maps fresh zero pages; zeros_like would write every byte
        self.m = None if cfg.beta1 == 0 else {k: np.zeros(p.data.shape)
                                               for k, p in params.items()}
        self.v = {k: np.zeros(p.data.shape) for k, p in params.items()}
        self.v_max = None

    def switch_to_amsgrad(self):
        """One-way switch; current second moments seed the running max."""
        if self.mode == "adam":
            self.mode = "amsgrad"
            self.v_max = {k: v.copy() for k, v in self.v.items()}

    def learning_rate(self):
        c = self.cfg
        return c.learning_rate * c.lr_decay ** (self.step_count // c.decay_every_steps)

    def apply(self):
        """One update from the gradients currently stored on the params.

        Each block of rows is checked for a non-finite gradient just before
        it is updated, so a step that raises NumericError may already have
        updated the blocks and parameters before the offending one.
        """
        c = self.cfg
        lr = self.learning_rate()
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            state = {"w": p.data, "g": g, "v": self.v[name]}
            if self.m is not None:
                state["m"] = self.m[name]
            if self.mode == "amsgrad":
                state["v_max"] = self.v_max[name]
            # update a block of rows at a time so the intermediate values
            # stay in cache; atleast_1d views a 0-d parameter as one row
            state = {key: np.atleast_1d(a) for key, a in state.items()}
            w = state["w"]
            rows = max(1, _UPDATE_BLOCK * len(w) // max(w.size, 1))
            scratch = np.empty((2, rows) + w.shape[1:])
            finite = np.empty((rows,) + w.shape[1:], dtype=bool)
            for r in range(0, len(w), rows):
                block = {key: a[r:r + rows] for key, a in state.items()}
                k = len(block["w"])
                if not np.isfinite(block["g"], out=finite[:k]).all():
                    raise NumericError(
                        f"non-finite gradient in parameter {name!r} at step {t}")
                _adam_block(c, lr, t, scratch[0, :k], scratch[1, :k], **block)


# elements per block of an optimizer update (256 KiB of float64)
_UPDATE_BLOCK = 1 << 15


def _adam_block(c, lr, t, s, u, w, g, v, m=None, v_max=None):
    """Adam (AMSGrad when ``v_max`` is given) on one block of rows, in
    place, with the scratch blocks ``s`` and ``u`` for every intermediate;
    ``g`` is not modified. Each value is rounded as in the plain formula

        g' = g + l2 w;  m = b1 m + (1 - b1) g';  v = b2 v + ((1 - b2) g') g'
        w -= (lr m_hat) / (sqrt(v_hat) + eps)

    At beta1 = 0, m = g' and m_hat = m / (1 - 0^t) = g' exactly, so no
    ``m`` is passed and lr g' takes the place of lr m_hat.
    """
    if c.l2:
        np.multiply(w, c.l2, out=s)
        s += g
    else:
        np.copyto(s, g)
    if m is not None:
        np.multiply(s, 1.0 - c.beta1, out=u)
        m *= c.beta1
        m += u
    np.multiply(s, 1.0 - c.beta2, out=u)
    u *= s
    v *= c.beta2
    v += u
    if v_max is not None:
        np.maximum(v_max, v, out=v_max)
        v = v_max
    if m is None:
        np.multiply(s, lr, out=u)
    else:
        np.divide(m, 1.0 - c.beta1 ** t, out=u)
        u *= lr
    np.divide(v, 1.0 - c.beta2 ** t, out=s)
    np.sqrt(s, out=s)
    s += c.epsilon
    u /= s
    w -= u


# ----------------------------------------------------------------- batching

def make_batches(data, token_budget, rng):
    """Pack length-sorted sentences into batches of at most ``token_budget``
    tokens, then shuffle the batch order."""
    order = sorted(range(len(data)), key=lambda i: (data[i][0].n, i))
    batches = []
    current, current_tokens = [], 0
    for i in order:
        n = data[i][0].n
        if current and current_tokens + n > token_budget:
            batches.append(current)
            current, current_tokens = [], 0
        current.append(data[i])
        current_tokens += n
    if current:
        batches.append(current)
    rng.shuffle(batches)
    return batches


# -------------------------------------------------------------------- train

@dataclass
class TrainResult:
    best_score: float
    best_step: int
    steps: int
    history: list = field(default_factory=list)


def _dev_labeled_f1(model, data, cfg):
    preds, golds = [], []
    for sentence, gold in data:
        graph, _, _ = parse_sentence(model, sentence, cfg.inference,
                                     cfg.iterations, cfg.threshold, cfg.logit_clamp)
        preds.append(graph)
        golds.append(gold)
    return f1(preds, golds, labeled=True)[2]


def train(model, train_data, dev_data, cfg, log=None):
    """Train in place; the model ends at its best-dev-F1 parameters.

    Sentences over the length cap are dropped from training (kept in dev).
    A kept or dev sentence the engine cannot take (``check_length``) raises
    CapacityError before the first step. One history row per epoch goes
    to ``log`` if given.
    """
    cfg.validate()
    usable = [(s, g) for s, g in train_data if s.n <= cfg.max_sentence_length]
    if not usable:
        raise ConfigError("no training sentences under the length cap")
    for sentence, _ in usable + list(dev_data or ()):
        check_length(sentence, cfg.inference)
    batch_rng = np.random.default_rng(cfg.seed)
    dropout_rng = np.random.default_rng(cfg.seed + 1)

    optimizer = Optimizer(model.params, cfg)
    result = TrainResult(best_score=-1.0, best_step=0, steps=0)
    # the best parameters are copied only when an epoch is about to move
    # the model past them, so a run whose last epoch is its best copies
    # and restores nothing
    best_arrays, at_best = None, False

    while optimizer.step_count < cfg.max_steps:
        if at_best:
            best_arrays, at_best = model.state_arrays(), False
        epoch_losses = []
        for batch in make_batches(usable, cfg.batch_token_budget, batch_rng):
            model.zero_grad()
            seed = 1.0 / len(batch)
            for sentence, gold in batch:
                loss = sentence_loss(model, sentence, gold, cfg, rng=dropout_rng)
                ad.backward(loss, seed)
                epoch_losses.append(loss.item())
                # the tape goes before the next sentence's forward
                del loss
            optimizer.apply()
            if optimizer.step_count >= cfg.max_steps:
                break

        result.steps = optimizer.step_count
        score = _dev_labeled_f1(model, dev_data, cfg) if dev_data else 0.0
        row = {
            "epoch": len(result.history) + 1,
            "step": optimizer.step_count,
            "train_loss": float(np.mean(epoch_losses)),
            "dev_labeled_f1": score,
            "lr": optimizer.learning_rate(),
            "optimizer": optimizer.mode,
        }
        result.history.append(row)
        if log is not None:
            log(row)

        if score > result.best_score:
            result.best_score = score
            result.best_step = optimizer.step_count
            at_best = True
        else:
            stalled = optimizer.step_count - result.best_step
            if stalled >= cfg.amsgrad_patience_steps:
                optimizer.switch_to_amsgrad()
            if stalled >= cfg.early_stop_steps:
                break
        if dev_data and result.best_score >= 1.0:
            break

    if not at_best:
        model.load_state_arrays(best_arrays)
    return result


# ---------------------------------------------------------------- gradcheck

@dataclass
class GradCheckResult:
    max_rel_error: float
    per_combo: dict          # (engine, iterations) -> max rel error
    coords_checked: int

    def ok(self):
        return self.max_rel_error <= 1e-4


def _rel_error(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def gradcheck(model, sentence, gold, cfg, coords=200, seed=0):
    """Central-difference check of end-to-end loss gradients.

    Samples at least ``coords`` coordinates per combination of engine (mf,
    lbp) and depth (T = 1, 2, 3), spread over every parameter group;
    dropout is off and the logit clamp is disabled so the loss is smooth
    at the checked points. The leaky activations are piecewise linear, so
    a coordinate whose +-1e-3 interval happens to straddle a kink is
    retried with a smaller step; a genuine backward bug stays visible at
    every step size. Only the analytic pass records a tape; the
    finite-difference losses run under ``autodiff.no_grad``.
    """
    rng = np.random.default_rng(seed)
    groups = model.param_groups()
    names_by_group = [sorted(names) for _, names in sorted(groups.items())]

    def pick_coordinates():
        picks = []
        per_group = max(1, coords // len(names_by_group))
        for names in names_by_group:
            for _ in range(per_group):
                name = names[rng.integers(len(names))]
                picks.append((name, int(rng.integers(model.params[name].size))))
        while len(picks) < coords:
            name = rng.choice(sorted(model.params))
            picks.append((name, int(rng.integers(model.params[name].size))))
        return picks

    per_combo = {}
    total = 0
    for engine in ("mf", "lbp"):
        for its in (1, 2, 3):
            combo_cfg = replace(cfg, inference=engine, iterations=its, logit_clamp=None)

            def loss_value():
                with ad.no_grad():
                    return sentence_loss(model, sentence, gold, combo_cfg).item()

            model.zero_grad()
            loss = sentence_loss(model, sentence, gold, combo_cfg)
            ad.backward(loss, 1.0)
            analytic = {k: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                        for k, p in model.params.items()}
            del loss

            worst = 0.0
            for name, flat in pick_coordinates():
                data = model.params[name].data
                idx = np.unravel_index(flat, data.shape)
                keep = data[idx]
                best = math.inf
                for h in (1e-3, 1e-4, 1e-5):
                    data[idx] = keep + h
                    up = loss_value()
                    data[idx] = keep - h
                    down = loss_value()
                    data[idx] = keep
                    fd = (up - down) / (2.0 * h)
                    best = min(best, _rel_error(analytic[name][idx], fd))
                    if best < 1e-7:
                        break
                worst = max(worst, best)
                total += 1
            per_combo[(engine, its)] = worst

    return GradCheckResult(max(per_combo.values()), per_combo, total)
