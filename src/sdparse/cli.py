"""Command-line interface.

Subcommands: train, parse, eval, trace, oracle-compare, gradcheck. Exit
codes: 0 success, 2 configuration error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

import numpy as np

from . import exact, metrics, synthetic
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, ensure_structure_match, parse_config_file, parse_overrides
from .errors import CapacityError, ConfigError, DataError, NumericError
from .model import ModelConfig, ParserModel
from .pipeline import parse_sentence, run_inference, trace_sentence
from .sdp_io import build_vocab, load_pretrained, parse_sdp, write_sdp
from .training import TrainConfig, gradcheck, train

__all__ = ["main"]


def _resolve_config(args, base=None):
    """The --config file's values over ``base`` (a config echo), then
    the --set overrides, resolved."""
    file_values = dict(base or {})
    if args.config:
        file_values.update(parse_config_file(args.config))
    return RunConfig.resolve(file_values, parse_overrides(args.set))


@contextlib.contextmanager
def _writing(path):
    """Turn an OSError raised in the block, which writes ``path``, into a
    DataError naming the path (a missing directory, a file in the way)."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _load_corpus(path, what):
    if not path:
        raise ConfigError(f"no {what} corpus path configured")
    if not os.path.exists(path):
        raise DataError(f"{what} corpus not found: {path}")
    return parse_sdp(path)


def cmd_train(args):
    cfg = _resolve_config(args)
    if args.train:
        cfg.train_path = args.train
    if args.dev:
        cfg.dev_path = args.dev
    train_data = _load_corpus(cfg.train_path, "training")
    dev_data = _load_corpus(cfg.dev_path, "dev") if cfg.dev_path else train_data

    vocab = build_vocab(train_data, cfg.min_count)
    pretrained = None
    if cfg.use_pretrained:
        if not cfg.pretrained_path:
            raise ConfigError("use_pretrained=true needs pretrained_path")
        pretrained = load_pretrained(cfg.pretrained_path)
    model = ParserModel(cfg.model_config(), vocab,
                        np.random.default_rng(cfg.seed), pretrained=pretrained)

    with _writing(args.out):
        os.makedirs(args.out, exist_ok=True)
    resolved_path = os.path.join(args.out, "resolved.cfg")
    with _writing(resolved_path), open(resolved_path, "w", encoding="utf-8") as fh:
        fh.write(cfg.to_text())

    metrics_path = os.path.join(args.out, "metrics.jsonl")
    with _writing(metrics_path), open(metrics_path, "w", encoding="utf-8") as log_file:
        def log(row):
            log_file.write(json.dumps(row, sort_keys=True) + "\n")

        result = train(model, train_data, dev_data, cfg.train_config(), log=log)

    checkpoint_path = os.path.join(args.out, "checkpoint.npz")
    with _writing(checkpoint_path):
        save_checkpoint(checkpoint_path, model, cfg, vocab)
    print(f"best_dev_labeled_f1={result.best_score:.6f} at step {result.best_step} "
          f"({result.steps} steps run)")
    return 0


def cmd_parse(args):
    model, cfg, _ = load_checkpoint(args.checkpoint)
    if args.config or args.set:
        # resolved over the checkpoint's echo, they may not move a structural key
        stored = cfg.to_dict()
        ensure_structure_match(stored, _resolve_config(args, stored).to_dict())
    engine = args.engine or cfg.inference
    iterations = cfg.iterations if args.iterations is None else args.iterations
    threshold = cfg.threshold if args.threshold is None else args.threshold
    if not 0.0 <= threshold < 1.0:
        raise ConfigError(f"--threshold must be in [0,1), got {threshold}")

    data = _load_corpus(args.input, "input")
    parsed = []
    marginal_rows = []
    for idx, (sentence, _) in enumerate(data):
        graph, state, _ = parse_sentence(model, sentence, engine, iterations,
                                         threshold, cfg.logit_clamp)
        parsed.append((sentence, graph))
        if args.marginals:
            q = state.marginals()
            marginal_rows.append({
                "sentence": idx,
                "engine": engine,
                "iterations": iterations,
                "q": {f"{h}->{d}": float(p) for (h, d), p in sorted(q.items())},
            })
    with _writing(args.output):
        write_sdp(parsed, args.output)
    if args.marginals:
        with _writing(args.marginals), open(args.marginals, "w", encoding="utf-8") as fh:
            for row in marginal_rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"parsed {len(parsed)} sentences with {engine} (T={iterations})")
    return 0


def cmd_eval(args):
    pred = _load_corpus(args.pred, "prediction")
    gold = _load_corpus(args.gold, "gold")
    if len(pred) != len(gold):
        raise DataError(
            f"prediction has {len(pred)} sentences, gold has {len(gold)}")
    for idx, ((pred_sentence, _), (gold_sentence, _)) in enumerate(zip(pred, gold)):
        if pred_sentence.n != gold_sentence.n:
            raise DataError(f"sentence {idx}: prediction has {pred_sentence.n} tokens, "
                            f"gold has {gold_sentence.n}")
        # ``parse`` copies each token's form from its input
        if [t.form for t in pred_sentence.tokens] != [t.form for t in gold_sentence.tokens]:
            raise DataError(f"sentence {idx}: prediction's token forms differ from gold's")
    report = metrics.evaluate([g for _, g in pred], [g for _, g in gold],
                              include_top=args.include_top)
    sys.stdout.write(report.to_text())
    if args.json:
        with _writing(args.json), open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0


def cmd_trace(args):
    model, cfg, _ = load_checkpoint(args.checkpoint)
    data = _load_corpus(args.input, "input")
    if not 0 <= args.sentence < len(data):
        raise DataError(f"sentence index {args.sentence} out of range "
                        f"(corpus has {len(data)})")
    sentence, _ = data[args.sentence]
    engine = args.engine or cfg.inference
    iterations = cfg.iterations if args.iterations is None else args.iterations
    header, steps = trace_sentence(model, sentence, engine, iterations, cfg.logit_clamp)
    with _writing(args.out or "standard output"), (
            open(args.out, "w", encoding="utf-8") if args.out
            else contextlib.nullcontext(sys.stdout)) as fh:
        # json.dumps' text of the whole trace, a step at a time: "steps" sorts
        # after every header key
        fh.write(json.dumps(header, sort_keys=True, indent=2)[:-2] + ',\n  "steps": [')
        key = "value" if engine == "mf" else "log_odds"
        separator = "\n    "
        for step in steps:  # no enumerate: its cached tuple would keep a step alive
            fh.write(separator)
            _write_step(fh, step, key)
            separator = ",\n    "
            del step
        fh.write("\n  ]\n}\n")
    return 0


# A trace step as json.dumps(..., sort_keys=True, indent=2) lays it out in
# the top-level "steps" list. Every string of a step is ASCII built from
# indices, so none needs escaping, and json writes a float as its repr, so
# a fixed template per message row gives the same text: its keys in sorted
# order, the value's key ("log_odds" for loopy BP, "value" for mean-field)
# in its place among them.
_ROW_HEAD = '\n        {\n          "dst": "%s",\n'
_ROW_PART = ('          "part": [\n            %d,\n            %d,\n            %d\n'
             '          ],\n          "src": "%s",\n          "type": "%s"')
_ROW = {"log_odds": _ROW_HEAD + '          "log_odds": %r,\n' + _ROW_PART + "\n        }",
        "value": _ROW_HEAD + _ROW_PART + ',\n          "value": %r\n        }'}
# rows formatted and written at a time, so a step's text is never held whole
_ROW_BLOCK = 2048


def _write_step(fh, step, key):
    """Write one trace step's text; ``key`` is its rows' value key."""
    rows, template = step["messages"], _ROW[key]
    fh.write('{\n      "iteration": %d,\n      "messages": [' % step["iteration"])
    for start in range(0, len(rows), _ROW_BLOCK):
        fh.write(("," if start else "") + ",".join(
            template % ((r["dst"], r[key], *r["part"], r["src"], r["type"]) if key == "log_odds"
                        else (r["dst"], *r["part"], r["src"], r["type"], r[key]))
            for r in rows[start:start + _ROW_BLOCK]))
    q = ",".join('\n        "%s": %r' % item for item in sorted(step["q"].items()))
    fh.write('%s],\n      "q": {%s}\n    }' % ("\n      " if rows else "",
                                               q + "\n      " if q else ""))


def cmd_oracle_compare(args):
    # numpy seeds a generator only from a non-negative integer
    for flag, value, least in (("--instances", args.instances, 1),
                               ("--length", args.length, 1), ("--seed", args.seed, 0)):
        if value < least:
            raise ConfigError(f"{flag} must be >= {least}, got {value}")
    for flag, scale in (("--unary-scale", args.unary_scale),
                        ("--coupling-scale", args.coupling_scale)):
        if not scale >= 0.0:
            raise ConfigError(f"{flag} must be >= 0, got {scale}")
        if np.isinf(scale):
            raise ConfigError(f"{flag} must be finite, got {scale}")
    # a length-n instance has n^2 edge variables; refuse before building any
    if args.length ** 2 > exact.ENUMERATION_CAP:
        raise CapacityError(
            f"length {args.length} gives {args.length ** 2} edge variables, over the "
            f"enumeration cap of {exact.ENUMERATION_CAP}")
    rng = np.random.default_rng(args.seed)
    instances = [
        synthetic.random_potentials(args.length, rng, args.unary_scale,
                                    args.coupling_scale)
        for _ in range(args.instances)
    ]
    exacts = [exact.exact_infer(pot) for pot in instances]
    worst = 0.0
    for engine in ("mf", "lbp"):
        for iterations in (1, 2, 3):
            errors = []
            for pot, reference in zip(instances, exacts):
                state = run_inference(pot, engine, iterations)
                q = state.marginals()
                errors.extend(abs(q[e] - reference.marginals[e]) for e in pot.edge_set.edges)
            # an error is NaN exactly when the engine's or the oracle's marginal is
            if not np.all(np.isfinite(errors)):
                raise NumericError(f"non-finite marginals from {engine} (T={iterations}) "
                                   f"or the enumeration oracle at these scales")
            mean_err, max_err = float(np.mean(errors)), float(np.max(errors))
            worst = max(worst, max_err)
            print(f"engine={engine} iterations={iterations} "
                  f"mean_abs_err={mean_err:.6f} max_abs_err={max_err:.6f}")
    print(f"instances={args.instances} length={args.length} "
          f"worst_max_abs_err={worst:.6f}")
    return 0


def cmd_gradcheck(args):
    for flag, value, least in (("--length", args.length, 1),
                               ("--coords", args.coords, 1), ("--seed", args.seed, 0)):
        if value < least:
            raise ConfigError(f"{flag} must be >= {least}, got {value}")
    rng = np.random.default_rng(args.seed)
    data = synthetic.toy_corpus(rng, size=1, min_len=args.length,
                                max_len=args.length)
    sentence, gold = data[0]
    vocab = build_vocab(data, min_count=1)
    model_cfg = ModelConfig(word_dim=4, pos_dim=3, encoder_layers=1,
                            encoder_hidden=4, unary_dim=5, binary_dim=4)
    model = ParserModel(model_cfg, vocab, np.random.default_rng(args.seed + 1))
    cfg = TrainConfig(seed=args.seed)
    result = gradcheck(model, sentence, gold, cfg, coords=args.coords,
                       seed=args.seed)
    for (engine, iterations), err in sorted(result.per_combo.items()):
        print(f"engine={engine} iterations={iterations} max_rel_err={err:.3e}")
    print(f"coords={result.coords_checked} overall_max_rel_err="
          f"{result.max_rel_error:.3e}")
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="sdparse",
        description="Second-order semantic dependency parser with "
                    "differentiable mean-field / belief-propagation inference.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a parser")
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", default=[],
                   help="override a configuration value (repeatable)")
    p.add_argument("--train", help="training corpus (overrides train_path)")
    p.add_argument("--dev", help="dev corpus (overrides dev_path)")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("parse", help="parse a corpus with a trained model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--config", help="optional config checked against the checkpoint")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", default=[])
    p.add_argument("--engine", choices=["mf", "lbp"])
    p.add_argument("--iterations", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--marginals", help="write per-edge marginals as JSON lines")

    p = sub.add_parser("eval", help="score predictions against gold")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--include-top", action="store_true",
                   help="count root edges in the headline scores")
    p.add_argument("--json", help="also write the report as JSON")

    p = sub.add_parser("trace", help="dump per-iteration marginals and messages")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--sentence", type=int, default=0)
    p.add_argument("--engine", choices=["mf", "lbp"])
    p.add_argument("--iterations", type=int)
    p.add_argument("--out")

    p = sub.add_parser("oracle-compare",
                       help="compare approximate marginals to enumeration")
    p.add_argument("--instances", type=int, default=50)
    p.add_argument("--length", type=int, default=3)
    p.add_argument("--unary-scale", type=float, default=1.0)
    p.add_argument("--coupling-scale", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of end-to-end gradients")
    p.add_argument("--length", type=int, default=3)
    p.add_argument("--coords", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # looked up per call, so the handler is the module's current cmd_*
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DataError, CapacityError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
