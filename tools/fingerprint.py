"""A bitwise fingerprint of the parser: a JSON manifest of sha256 digests.

Every entry hashes the exact bytes of what the program computes: a
training loss and every parameter gradient after its backward pass, or
the files and standard output of a command-line run. Two trees whose
manifests are equal compute the same bits on these inputs, so a change
meant to be bitwise (a faster kernel, a refactor) is checked by running
the tool on the parent commit and on the change and comparing:

    PYTHONPATH=src python tools/fingerprint.py --out change.json
    PYTHONPATH=../parent/src python tools/fingerprint.py --out parent.json
    PYTHONPATH=src python tools/fingerprint.py --compare parent.json change.json

``--compare`` prints the keys that differ and exits 1 when any does.
The cases (``manifest``):

- ``loss/...``: ``training.sentence_loss`` plus ``autodiff.backward``
  for mean-field and loopy BP at n = 1, 2, 7 and 20 (desk dims), with
  dropout off and on, every part type on or all off, at the initial
  weights (part scores near 1e-4) and at trained scale (trilinear
  weights scaled so that part scores reach tens and loopy BP's message
  guards are taken);
- ``train-long-lbp/T...``: the 26 sentences (n = 20-45) of the
  benchmark's LBP training workload at T = 1-4, dropout on;
- ``full/...``: ``ModelConfig.full()`` without the pretrained channel
  at n = 5 and 15, both engines;
- ``cli/...``: ``train``, ``parse`` (and ``--marginals``), ``trace``,
  ``eval``, ``oracle-compare`` and ``gradcheck`` on a toy corpus;
- ``env``: the NumPy version, its BLAS and the BLAS thread variables,
  which some digests depend on.

``--quick`` keeps a small subset (n <= 7, the toy CLI runs), which the
test suite runs twice to require equal manifests.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

import sdparse.autodiff as ad
from sdparse import cli
from sdparse.model import ModelConfig, ParserModel
from sdparse.sdp_io import build_vocab, parse_sdp, write_sdp
from sdparse.synthetic import toy_corpus
from sdparse.training import TrainConfig, sentence_loss

ROOT = Path(__file__).resolve().parent.parent
# the dropouts of the paper's settings, for the "dropout on" cases
DROPOUTS = {f.name: getattr(ModelConfig.full(), f.name)
            for f in dataclasses.fields(ModelConfig) if f.name.startswith("dropout")}
NO_PARTS = {"use_sib": False, "use_cop": False, "use_gp": False}
# the trilinear weights times this give part scores of a trained model:
# |s| up to about 50 at n = 7 and 90 at n = 20, desk dims, where loopy
# BP's messages take both guards
TRAINED_SCALE = 60.0
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def digest(*arrays):
    """sha256 of the dtype, shape and bytes of each array, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def step_digest(loss, model):
    """The digest of a loss and, by sorted parameter name, every gradient
    after one backward pass from it."""
    ad.backward(loss, 1.0)
    return digest(loss.data, *(p.grad for _, p in sorted(model.params.items())
                               if p.grad is not None))


def sentence_step(model, sentence, gold, engine, iterations, rng):
    """``step_digest`` of one training sentence's loss, gradients cleared
    first; dropout drawn from ``rng`` when one is given."""
    model.zero_grad()
    cfg = TrainConfig(inference=engine, iterations=iterations)
    return step_digest(sentence_loss(model, sentence, gold, cfg, rng=rng), model)


def loss_cases(lengths):
    """``loss/...`` entries at desk dims."""
    out = {}
    for n in lengths:
        data = toy_corpus(np.random.default_rng(100 + n), size=1, min_len=n, max_len=n)
        sentence, gold = data[0]
        vocab = build_vocab(data, min_count=1)
        for parts in ("on", "off"):
            for dropout in ("off", "on"):
                cfg = ModelConfig(**(NO_PARTS if parts == "off" else {}),
                                  **(DROPOUTS if dropout == "on" else {}))
                model = ParserModel(cfg, vocab, np.random.default_rng(n))
                for scale in ("init", "trained"):
                    if scale == "trained":
                        for name, p in model.params.items():
                            if name.startswith("tri_"):
                                p.data = p.data * TRAINED_SCALE
                    for engine in ("mf", "lbp"):
                        rng = np.random.default_rng(7) if dropout == "on" else None
                        key = f"loss/{engine}/n{n}/parts-{parts}/dropout-{dropout}/{scale}"
                        out[key] = sentence_step(model, sentence, gold, engine, 3, rng)
    return out


def benchmark_lbp_cases():
    """``train-long-lbp/T...``: the benchmark's LBP training sentences."""
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench import inputs
    finally:
        sys.path.remove(str(ROOT))
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "train.sdp")
        Path(path).write_text(inputs.format_sdp(inputs.corpus(tuple(range(20, 46)), 1)),
                              encoding="utf-8")
        data = parse_sdp(path)
    vocab = build_vocab(data, 7)
    out = {}
    for iterations in (1, 2, 3, 4):
        model = ParserModel(ModelConfig(**DROPOUTS), vocab, np.random.default_rng([1, 4]))
        rng, running = np.random.default_rng(iterations), hashlib.sha256()
        for sentence, gold in data:
            running.update(sentence_step(model, sentence, gold, "lbp", iterations, rng).encode())
        out[f"train-long-lbp/T{iterations}"] = running.hexdigest()
    return out


def full_dims_cases():
    """``full/...``: paper dims without the pretrained channel."""
    data = toy_corpus(np.random.default_rng(5), size=2, min_len=5, max_len=5)
    data += toy_corpus(np.random.default_rng(15), size=1, min_len=15, max_len=15)
    vocab = build_vocab(data, min_count=1)
    model = ParserModel(dataclasses.replace(ModelConfig.full(), use_pretrained=False), vocab,
                        np.random.default_rng(3))
    out = {}
    for sentence, gold in (data[0], data[2]):
        for engine in ("mf", "lbp"):
            out[f"full/{engine}/n{sentence.n}"] = sentence_step(
                model, sentence, gold, engine, 3, np.random.default_rng(11))
    return out


def _run(argv):
    """(exit code, stdout) of one in-process command."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def _file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cli_cases(quick):
    """``cli/...``: the toy-corpus artifacts of every subcommand, run in a
    scratch directory with relative paths, which the checkpoint's config
    echo records."""
    out = {}
    with tempfile.TemporaryDirectory() as work, contextlib.chdir(work):
        write_sdp(toy_corpus(np.random.default_rng(42), size=8, min_len=3, max_len=9), "toy.sdp")
        code, text = _run(["train", "--train", "toy.sdp", "--out", "run",
                           "--set", "min_count=1", "--set", f"max_steps={6 if quick else 20}",
                           "--set", "seed=3", "--set", "batch_token_budget=30",
                           "--set", "inference=lbp"])
        out["cli/train"] = {"code": code, "stdout": text,
                            **{name: _file(f"run/{name}") for name in sorted(os.listdir("run"))}}
        checkpoint = "run/checkpoint.npz"
        for engine in ("mf", "lbp"):
            code, _ = _run(["parse", "--checkpoint", checkpoint, "--input", "toy.sdp",
                            "--output", f"parsed-{engine}.sdp", "--engine", engine,
                            "--marginals", f"marginals-{engine}.jsonl"])
            out[f"cli/parse/{engine}"] = {"code": code, "output": _file(f"parsed-{engine}.sdp"),
                                          "marginals": _file(f"marginals-{engine}.jsonl")}
            for iterations in (1, 3):
                trace = f"trace-{engine}-{iterations}.json"
                code, _ = _run(["trace", "--checkpoint", checkpoint, "--input", "toy.sdp",
                                "--sentence", "2", "--engine", engine,
                                "--iterations", str(iterations), "--out", trace])
                out[f"cli/trace/{engine}/T{iterations}"] = {"code": code, "output": _file(trace)}
            code, text = _run(["eval", "--pred", f"parsed-{engine}.sdp", "--gold", "toy.sdp",
                               "--json", f"eval-{engine}.json"])
            out[f"cli/eval/{engine}"] = {"code": code, "json": _file(f"eval-{engine}.json"),
                                         "stdout": text}
        code, text = _run(["oracle-compare", "--instances", "3", "--length", "3"])
        out["cli/oracle-compare"] = {"code": code, "stdout": text}
        code, text = _run(["gradcheck", "--length", "3", "--coords", "20"])
        out["cli/gradcheck"] = {"code": code, "stdout": text}
    return out


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except Exception:  # an older NumPy prints its configuration instead
        blas = None
    return {"numpy": np.__version__, "blas": blas,
            "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES}}


def manifest(quick=False):
    """The fingerprint as a dict: entry key -> digest (or a dict of them)."""
    out = {"env": environment()}
    out.update(loss_cases((1, 2, 7) if quick else (1, 2, 7, 20)))
    if not quick:
        out.update(benchmark_lbp_cases())
        out.update(full_dims_cases())
    out.update(cli_cases(quick))
    return out


def differing(a, b):
    """Keys whose entries differ between two manifests, missing ones too."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the manifest here (default: stdout)")
    parser.add_argument("--quick", action="store_true", help="the small case set only")
    parser.add_argument("--compare", nargs=2, metavar="MANIFEST",
                        help="list the keys that differ between two manifests")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        keys = differing(a, b)
        print("\n".join(keys) if keys else "manifests are equal")
        return 1 if keys else 0
    text = json.dumps(manifest(args.quick), sort_keys=True, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
