"""Acceptance suite: one test per headline guarantee of the package.

Run ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
guarantee; each test also prints the measured numbers next to the fixed
tolerance it is held to.  Expected values were frozen from calibration
runs of the independent oracles in this repository (enumeration over all
edge assignments, scalar recurrences, finite differences) — never from
the code paths they guard.
"""

from __future__ import annotations

import json
import math
import time
from itertools import combinations

import numpy as np
import pytest

import sdparse.autodiff as ad
import sdparse.cli as cli
from sdparse.exact import exact_infer
from sdparse.graph import build_candidate_edges, part_mask
from sdparse.metrics import f1
from sdparse.model import ModelConfig, ParserModel
from sdparse.pipeline import parse_sentence, run_inference
from sdparse.potentials import from_arrays
from sdparse.sdp_io import build_vocab, format_sdp, parse_sdp_lines, write_sdp
from sdparse.synthetic import random_potentials, toy_corpus, two_edge_instance
from sdparse.training import TrainConfig, gradcheck, train

from conftest import unary_scores
from corpora import coupling_signal_corpus, roundtrip_corpus
from test_model import trilinear


def _line(label, detail):
    print(f"{label}: {detail}")


# ---------------------------------------------------------------------------
# 1. With every pairwise score at zero, both approximate posteriors must
#    collapse to the logistic of the edge score — to near machine precision.
# ---------------------------------------------------------------------------

def test_zero_coupling_marginals_match_logistic_closed_form():
    worst = {"mf": 0.0, "lbp": 0.0}
    for n in (2, 3, 4, 5):
        pot = random_potentials(n, np.random.default_rng(100 + n),
                                unary_scale=1.0, coupling_scale=0.0)
        closed = 1.0 / (1.0 + np.exp(-unary_scores(pot)))
        for engine in ("mf", "lbp"):
            for iterations in (1, 2, 3):
                state = run_inference(pot, engine, iterations)
                q = state.marginals()
                got = np.array([q[e] for e in pot.edge_set.edges])
                worst[engine] = max(worst[engine],
                                    float(np.max(np.abs(got - closed))))
    _line("zero-coupling exactness",
          f"max|q - logistic(unary)| mf={worst['mf']:.3e} "
          f"lbp={worst['lbp']:.3e} (tolerance 1e-12, n<=5, T in 1..3)")
    assert worst["mf"] <= 1e-12
    assert worst["lbp"] <= 1e-12


# ---------------------------------------------------------------------------
# 2. On 200 random 3-word problems the unfolded engines must track the
#    enumeration oracle: mean error <= 0.02, max error <= 0.05 at depth 3.
# ---------------------------------------------------------------------------

def test_approximate_marginals_agree_with_enumeration_oracle():
    rng = np.random.default_rng(12345)
    instances = [random_potentials(3, rng, unary_scale=1.0, coupling_scale=0.1)
                 for _ in range(200)]
    references = [exact_infer(pot) for pot in instances]
    stats = {}
    for engine in ("mf", "lbp"):
        errors = []
        for pot, ref in zip(instances, references):
            q = run_inference(pot, engine, 3).marginals()
            errors.extend(abs(q[e] - ref.marginals[e]) for e in pot.edge_set.edges)
        stats[engine] = (float(np.mean(errors)), float(np.max(errors)))
    _line("oracle agreement",
          f"mf mean={stats['mf'][0]:.5f} max={stats['mf'][1]:.5f}; "
          f"lbp mean={stats['lbp'][0]:.5f} max={stats['lbp'][1]:.5f} "
          "(tolerances mean<=0.02, max<=0.05)")
    for engine in ("mf", "lbp"):
        mean_err, max_err = stats[engine]
        assert mean_err <= 0.02, engine
        assert max_err <= 0.05, engine


# ---------------------------------------------------------------------------
# 3. Belief propagation is exact on coupling structures without cycles by
#    depth 2; the two-edge log-2 instance lands exactly on 0.6.
# ---------------------------------------------------------------------------

def test_lbp_is_exact_on_tree_structured_instances():
    worst = 0.0
    rng = np.random.default_rng(7)
    for _ in range(10):
        coupling = float(rng.normal(0.0, 1.0))
        pot = from_arrays(((0, 1), (0, 2)), rng.normal(0.0, 1.0, size=2),
                          [((0, 1), (0, 2), coupling, "sib")], requires_grad=False)
        ref = exact_infer(pot)
        q = run_inference(pot, "lbp", 2).marginals()
        worst = max(worst, max(abs(q[e] - ref.marginals[e]) for e in pot.edge_set.edges))

    edges = ((0, 1), (0, 2), (0, 3))
    chain = from_arrays(edges, rng.normal(0.0, 1.0, size=3),
                        [((0, 1), (0, 2), float(rng.normal()), "sib"),
                         ((0, 2), (0, 3), float(rng.normal()), "sib")])
    ref = exact_infer(chain)
    q = run_inference(chain, "lbp", 2).marginals()
    worst = max(worst, max(abs(q[e] - ref.marginals[e]) for e in edges))

    ln2 = two_edge_instance(math.log(2.0))
    q_ln2 = run_inference(ln2, "lbp", 2).marginals()
    off = max(abs(q_ln2[e] - 0.6) for e in ln2.edge_set.edges)
    _line("tree exactness",
          f"max|belief - exact|={worst:.3e} (tolerance 1e-9 at depth 2); "
          f"two-edge log-2 instance max|q - 0.6|={off:.3e}")
    assert worst <= 1e-9
    assert off <= 1e-12


# ---------------------------------------------------------------------------
# 4. The mean-field trajectory on the two-edge log-2 instance follows the
#    scalar recurrence q <- logistic(q * ln 2): 0.5, 0.5858, 0.6001, 0.6025,
#    converging to ~0.603.
# ---------------------------------------------------------------------------

def test_mf_two_edge_trajectory_follows_scalar_recurrence():
    expected = [0.5, 0.5858, 0.6001, 0.6025]
    fixed_point = 0.6029962210857664  # q = logistic(q ln 2), by iteration

    pot = two_edge_instance(math.log(2.0))
    state = run_inference(pot, "mf", 3)
    got = [float(state.q1(t)[0]) for t in range(4)]
    steps_off = max(abs(g - e) for g, e in zip(got, expected))

    final = run_inference(pot, "mf", 200).marginals()[(0, 1)]
    _line("mean-field two-edge trajectory",
          f"q(t)={[round(g, 6) for g in got]} vs {expected} "
          f"(tolerance 1e-3/step); q(200)={final:.13f} vs "
          f"fixed point {fixed_point:.13f}")
    assert steps_off <= 1e-3
    assert abs(final - fixed_point) <= 1e-12
    assert abs(final - 0.603) <= 1e-3


# ---------------------------------------------------------------------------
# 5. End-to-end gradients (scorer -> potentials -> unfolded inference ->
#    loss) match central finite differences to 1e-4 relative error over
#    200+ coordinates per engine/depth combination, all parameter groups.
# ---------------------------------------------------------------------------

def test_end_to_end_gradients_match_finite_differences():
    data = toy_corpus(np.random.default_rng(5), size=2, min_len=3, max_len=3)
    sentence, gold = data[0]
    vocab = build_vocab(data, min_count=1)
    model = ParserModel(
        ModelConfig(word_dim=4, pos_dim=3, encoder_layers=1, encoder_hidden=4,
                    unary_dim=5, binary_dim=4),
        vocab, np.random.default_rng(11))
    start = time.time()
    result = gradcheck(model, sentence, gold, TrainConfig(), coords=200, seed=0)
    per = {f"{e}/T{t}": f"{err:.2e}" for (e, t), err in sorted(result.per_combo.items())}
    _line("end-to-end gradient check",
          f"max_rel_err={result.max_rel_error:.3e} over "
          f"{result.coords_checked} coordinates (tolerance 1e-4); "
          f"per-combination {per}; {time.time() - start:.1f}s")
    assert result.coords_checked >= 6 * 200
    assert result.max_rel_error <= 1e-4


# ---------------------------------------------------------------------------
# 6. The rank-decomposed three-way form equals the naive full-tensor
#    contraction within 1e-10 on 100 random small cases.
# ---------------------------------------------------------------------------

def test_rank_decomposed_trilinear_matches_full_tensor():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        da, db, dc = (int(rng.integers(1, 5)) for _ in range(3))
        rank = int(rng.integers(1, 5))
        v1, v2, v3 = rng.normal(size=da), rng.normal(size=db), rng.normal(size=dc)
        U1, U2, U3 = (rng.normal(size=(rank, d)) for d in (da, db, dc))
        got = trilinear(*(ad.constant(x)
                          for x in (v1, v2, v3, U1, U2, U3))).data
        tensor = np.einsum("ma,mb,mc->abc", U1, U2, U3)
        want = np.einsum("abc,a,b,c->", tensor, v1, v2, v3)
        worst = max(worst, abs(float(got) - want))
    _line("trilinear equivalence",
          f"max|rank-sum - full tensor|={worst:.3e} "
          "(tolerance 1e-10, 100 cases, dims<=4)")
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# 7. Part enumeration matches the closed-form counts and a brute-force
#    classification of all edge pairs, for n <= 6.
# ---------------------------------------------------------------------------

def test_part_enumeration_matches_closed_forms_and_classification():
    def c2(m):
        return m * (m - 1) // 2

    checked = []
    for n in range(1, 7):
        edge_set = build_candidate_edges(n)
        # the parts the parse and training paths use: each type's mask cells
        parts = {kind: np.argwhere(part_mask(n, kind)) for kind in ("sib", "cop", "gp")}
        want_sib = c2(n) + n * c2(n - 1)
        want_cop = n * c2(n)
        want_gp = n * (n - 1) ** 2
        assert len(parts["sib"]) == want_sib, n
        assert len(parts["cop"]) == want_cop, n
        assert len(parts["gp"]) == want_gp, n

        sib = set()
        cop = set()
        gp = set()
        for (h1, d1), (h2, d2) in combinations(edge_set.edges, 2):
            if h1 == h2:
                sib.add((h1,) + tuple(sorted((d1, d2))))
            if d1 == d2:
                a, b = sorted((h1, h2))
                cop.add((a, b, d1))
            if d1 == h2 and h1 != d2:
                gp.add((h1, d1, d2))
            if d2 == h1 and h2 != d1:
                gp.add((h2, d2, d1))
        assert set(map(tuple, parts["sib"].tolist())) == sib, n
        assert set(map(tuple, parts["cop"].tolist())) == cop, n
        assert set(map(tuple, parts["gp"].tolist())) == gp, n
        checked.append((n, want_sib + want_cop + want_gp))
    _line("part enumeration",
          "counts and membership match brute force for "
          + ", ".join(f"n={n} ({total} parts)" for n, total in checked))


# ---------------------------------------------------------------------------
# 8. Ten random sentences are memorized to 100% labeled F1 within 500
#    steps, with either inference engine in the loop.
# ---------------------------------------------------------------------------

def test_model_overfits_ten_sentences_with_both_engines():
    data = toy_corpus(np.random.default_rng(42), size=10)
    vocab = build_vocab(data, min_count=1)
    results = {}
    for engine in ("mf", "lbp"):
        model = ParserModel(ModelConfig(), vocab, np.random.default_rng(7))
        cfg = TrainConfig(inference=engine, iterations=3, max_steps=500, seed=3)
        start = time.time()
        res = train(model, data, data, cfg)
        results[engine] = (res.best_score, res.best_step, time.time() - start)
    _line("overfit ten sentences",
          "; ".join(f"{e}: labeled-F1={s:.4f} at step {st} ({t:.1f}s)"
                    for e, (s, st, t) in results.items())
          + " (requires 1.0 within 500 steps)")
    for engine, (score, step, _) in results.items():
        assert score == 1.0, engine
        assert step <= 500, engine


# ---------------------------------------------------------------------------
# 9. A corpus whose gold edges depend only on whether two words match —
#    invisible to any per-edge scorer by construction — is learned to
#    >= 0.95 edge F1 with pairwise parts on, while the ablation with all
#    part types off stays <= 0.70 (its provable ceiling is 480/688).
# ---------------------------------------------------------------------------

def test_second_order_parts_learn_what_first_order_cannot():
    data = coupling_signal_corpus()
    vocab = build_vocab(data, min_count=1)
    golds = [g for _, g in data]

    def run(second_order):
        cfg_m = ModelConfig(encoder_layers=0, use_sib=second_order,
                            use_cop=second_order, use_gp=second_order)
        model = ParserModel(cfg_m, vocab, np.random.default_rng(7))
        cfg_t = TrainConfig(inference="mf", iterations=3, max_steps=300,
                            batch_token_budget=500, seed=3,
                            early_stop_steps=10**9,
                            amsgrad_patience_steps=10**9)
        start = time.time()
        train(model, data, data, cfg_t)
        preds = [parse_sentence(model, s, engine="mf", iterations=3)[0]
                 for s, _ in data]
        score = f1(preds, golds, labeled=False, include_top=False)[2]
        return score, time.time() - start

    second, t_second = run(second_order=True)
    first, t_first = run(second_order=False)
    _line("second-order learning signal",
          f"with pairwise parts F1={second:.4f} ({t_second:.1f}s, needs >=0.95); "
          f"edge-factored ablation F1={first:.4f} ({t_first:.1f}s, "
          f"needs <=0.70; ceiling {480 / 688:.4f})")
    assert second >= 0.95
    assert first <= 0.70


# ---------------------------------------------------------------------------
# 10. Writing and re-reading a 50-sentence corpus with cycles,
#     multi-predicate tokens, and top-less sentences is the identity.
# ---------------------------------------------------------------------------

def test_file_format_round_trip_is_identity():
    data = roundtrip_corpus(np.random.default_rng(0), size=50)
    text_once = format_sdp(data)
    reparsed = parse_sdp_lines(text_once.splitlines(True), source="pass1")
    text_twice = format_sdp(reparsed)
    assert text_once == text_twice
    assert len(reparsed) == len(data)
    for (sent_in, gold_in), (sent_out, gold_out) in zip(data, reparsed):
        assert [ (t.form, t.lemma, t.pos) for t in sent_in.tokens] == \
            [(t.form, t.lemma, t.pos) for t in sent_out.tokens]
        assert gold_in.edges == gold_out.edges
    _line("format round trip",
          f"{len(data)} sentences, {sum(len(g.edges) for _, g in data)} edges; "
          "write-parse-write is byte-identical and graphs are preserved")


# ---------------------------------------------------------------------------
# 11. Two training runs from the same seed produce byte-identical metric
#     logs.
# ---------------------------------------------------------------------------

def test_training_runs_are_byte_deterministic(tmp_path):
    corpus = tmp_path / "train.sdp"
    write_sdp(toy_corpus(np.random.default_rng(42), size=6), corpus)
    args = ["train", "--train", str(corpus),
            "--set", "word_dim=8", "--set", "pos_dim=4",
            "--set", "encoder_layers=1", "--set", "encoder_hidden=8",
            "--set", "unary_dim=8", "--set", "binary_dim=4",
            "--set", "min_count=1", "--set", "max_steps=40",
            "--set", "seed=3", "--set", "batch_token_budget=30"]
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
    bytes_a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
    bytes_b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
    rows = len(bytes_a.splitlines())
    _line("training determinism",
          f"two identically seeded runs: metrics logs are byte-identical "
          f"({rows} rows, {len(bytes_a)} bytes)")
    assert bytes_a == bytes_b
    # the logged rows are well-formed JSON, one object per line
    for line in bytes_a.splitlines():
        json.loads(line)
