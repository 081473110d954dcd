"""Full pipeline walkthrough: corpus file -> train -> parse -> evaluate.

Everything here goes through the same command-line entry points a shell
user would call (`sdparse train`, `sdparse parse`, `sdparse eval`), with
a synthetic 10-sentence corpus small enough to memorize in seconds.

Run:  python3 demos/train_and_parse.py
"""

import json
import pathlib
import tempfile

import numpy as np

from sdparse.cli import main
from sdparse.sdp_io import write_sdp
from sdparse.synthetic import toy_corpus

with tempfile.TemporaryDirectory(prefix="sdparse_demo_") as tmp:
    work = pathlib.Path(tmp)
    print(f"working directory: {work}\n")

    corpus = work / "train.sdp"
    write_sdp(toy_corpus(np.random.default_rng(42), size=10), corpus)
    print(f"wrote a 10-sentence synthetic corpus to {corpus.name}:")
    print("   " + "\n   ".join(corpus.read_text().splitlines()[:6]) + "\n   ...\n")

    print("$ sdparse train --train train.sdp --out run/ --set max_steps=200 ...")
    rc = main([
        "train", "--train", str(corpus), "--out", str(work / "run"),
        "--set", "min_count=1", "--set", "max_steps=200", "--set", "seed=3",
        "--set", "inference=mf", "--set", "iterations=3",
    ])
    assert rc == 0
    print(f"\nartifacts: {sorted(p.name for p in (work / 'run').iterdir())}")
    last = (work / "run" / "metrics.jsonl").read_text().splitlines()[-1]
    print(f"last metrics row: {json.loads(last)}\n")

    print("$ sdparse parse --checkpoint run/checkpoint.npz --input train.sdp ...")
    rc = main([
        "parse", "--checkpoint", str(work / "run" / "checkpoint.npz"),
        "--input", str(corpus), "--output", str(work / "pred.sdp"),
        "--marginals", str(work / "marginals.jsonl"),
    ])
    assert rc == 0
    first_q = json.loads((work / "marginals.jsonl").read_text().splitlines()[0])
    peek = dict(list(sorted(first_q["q"].items()))[:4])
    print(f"per-edge posteriors for sentence 0 (first 4 of {len(first_q['q'])}): "
          f"{ {k: round(v, 4) for k, v in peek.items()} }\n")

    print("$ sdparse eval --pred pred.sdp --gold train.sdp")
    rc = main(["eval", "--pred", str(work / "pred.sdp"), "--gold", str(corpus)])
    assert rc == 0

    print("\nA trained model memorizes this corpus, so the labeled F1 above")
    print("should read 1.0.  Swap --set inference=lbp in the train call to run")
    print("the same pipeline with belief propagation in the training loop.")
