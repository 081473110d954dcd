"""End-to-end tests of the command-line interface.

Every test drives ``sdparse.cli.main`` in process, so exit codes and
artifacts are checked exactly as a shell user would see them.
"""

from __future__ import annotations

import json
import struct
import zipfile

import numpy as np
import pytest

import sdparse.cli as cli
from sdparse import pipeline
from sdparse.checkpoint import load_checkpoint, save_checkpoint
from sdparse.config import parse_config_file
from sdparse.errors import NumericError
from sdparse.graph import build_candidate_edges, enumerate_parts
from sdparse.sdp_io import parse_sdp, write_sdp
from sdparse.synthetic import toy_corpus

TRAIN_SETS = [
    "--set", "word_dim=4", "--set", "pos_dim=3", "--set", "encoder_layers=0",
    "--set", "unary_dim=5", "--set", "binary_dim=3", "--set", "min_count=1",
    "--set", "max_steps=8", "--set", "seed=3", "--set", "batch_token_budget=30",
]


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.sdp"
    write_sdp(toy_corpus(np.random.default_rng(42), size=6), path)
    return str(path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus_path):
    """A tiny model trained once and shared by the read-only tests."""
    out = tmp_path_factory.mktemp("run")
    rc = cli.main(["train", "--train", corpus_path, "--out", str(out)]
                  + TRAIN_SETS)
    assert rc == 0
    return out


# ------------------------------------------------------------------ train

def test_train_writes_the_three_artifacts(trained, corpus_path):
    for name in ("resolved.cfg", "metrics.jsonl", "checkpoint.npz"):
        assert (trained / name).exists()

    resolved = parse_config_file(trained / "resolved.cfg")
    assert resolved["word_dim"] == "4"
    assert resolved["max_steps"] == "8"
    assert resolved["train_path"] == corpus_path

    rows = [json.loads(line)
            for line in (trained / "metrics.jsonl").read_text().splitlines()]
    assert rows
    for row in rows:
        for key in ("epoch", "step", "train_loss", "dev_labeled_f1", "lr"):
            assert key in row

    model, cfg, vocab = load_checkpoint(trained / "checkpoint.npz")
    assert cfg.word_dim == 4
    assert model.params


def test_train_is_byte_deterministic(tmp_path, corpus_path):
    args = ["train", "--train", corpus_path] + TRAIN_SETS
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
    metrics_a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
    metrics_b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
    assert metrics_a == metrics_b


# ------------------------------------------------------------- exit codes

def test_unknown_config_key_exits_2(tmp_path, corpus_path, capsys):
    rc = cli.main(["train", "--train", corpus_path,
                   "--out", str(tmp_path / "x"), "--set", "wierd_key=1"])
    assert rc == 2
    assert "wierd_key" in capsys.readouterr().err


def test_missing_train_corpus_exits_3(tmp_path, capsys):
    rc = cli.main(["train", "--train", str(tmp_path / "ghost.sdp"),
                   "--out", str(tmp_path / "x")])
    assert rc == 3
    assert "ghost.sdp" in capsys.readouterr().err


def test_numeric_failure_exits_4(monkeypatch, capsys):
    def boom(args):
        raise NumericError("loss became nan at step 3")
    monkeypatch.setattr(cli, "cmd_train", boom)
    rc = cli.main(["train", "--out", "unused"])
    assert rc == 4
    assert "nan" in capsys.readouterr().err


# a value out of its range, and what the error message names
OUT_OF_RANGE_ARGUMENTS = [
    (["parse", "--iterations", "0"], "iterations must be >= 1, got 0"),
    (["parse", "--iterations", "-1"], "iterations must be >= 1, got -1"),
    (["trace", "--iterations", "0"], "iterations must be >= 1, got 0"),
    (["trace", "--iterations", "-1"], "iterations must be >= 1, got -1"),
    (["parse", "--threshold", "-0.5"], "--threshold"),
    (["parse", "--threshold", "1.5"], "--threshold"),
    (["oracle-compare", "--instances", "0"], "--instances"),
    (["gradcheck", "--length", "0"], "--length"),
]


@pytest.mark.parametrize("argv, message", OUT_OF_RANGE_ARGUMENTS,
                         ids=[" ".join(argv) for argv, _ in OUT_OF_RANGE_ARGUMENTS])
def test_out_of_range_argument_exits_2(tmp_path, trained, corpus_path, capsys, argv, message):
    command, *rest = argv
    if command in ("parse", "trace"):
        rest += ["--checkpoint", str(trained / "checkpoint.npz"), "--input", corpus_path]
    if command == "parse":
        rest += ["--output", str(tmp_path / "pred.sdp")]
    assert cli.main([command] + rest) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("line", ["w1 0.1 abc", "w1 0.1 nan", "w1 inf 0.2"])
def test_train_with_malformed_pretrained_vector_exits_3(tmp_path, corpus_path, capsys, line):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text(f"w0 0.5 0.25\n{line}\n")
    rc = cli.main(["train", "--train", corpus_path, "--out", str(tmp_path / "run"),
                   "--set", "use_pretrained=true", "--set", f"pretrained_path={vectors}"]
                  + TRAIN_SETS)
    assert rc == 3
    assert "vectors.txt line 2" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("engine", ["mf", "lbp"])
def test_parse_with_nan_weight_exits_4(tmp_path, trained, corpus_path, capsys, engine):
    model, cfg, vocab = load_checkpoint(trained / "checkpoint.npz")
    model.params["tri_sib_U2"].data[0, 0] = np.nan
    broken = tmp_path / "broken.npz"
    save_checkpoint(broken, model, cfg, vocab)
    out = tmp_path / "pred.sdp"
    rc = cli.main(["parse", "--checkpoint", str(broken), "--input", corpus_path,
                   "--output", str(out), "--engine", engine])
    assert rc == 4
    assert "non-finite edge marginals" in capsys.readouterr().err
    assert not out.exists()


def _parse_checkpoint(path, tmp_path, corpus_path):
    out = tmp_path / "pred.sdp"
    rc = cli.main(["parse", "--checkpoint", str(path), "--input", corpus_path,
                   "--output", str(out)])
    assert not out.exists()
    return rc


@pytest.mark.parametrize("percent", [50, 90, 99])
def test_parse_with_truncated_checkpoint_exits_3(tmp_path, trained, corpus_path,
                                                 capsys, percent):
    raw = (trained / "checkpoint.npz").read_bytes()
    cut = tmp_path / "cut.npz"
    cut.write_bytes(raw[:len(raw) * percent // 100])
    assert _parse_checkpoint(cut, tmp_path, corpus_path) == 3
    assert "checkpoint" in capsys.readouterr().err


def test_parse_with_byte_flipped_checkpoint_exits_3(tmp_path, trained, corpus_path,
                                                    capsys):
    path = trained / "checkpoint.npz"
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo("param:edge_U.npy")
    raw = bytearray(path.read_bytes())
    # local header: 30 fixed bytes, then the name and extra field lengths
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    last = info.header_offset + 30 + name_len + extra_len + info.compress_size - 1
    raw[last] ^= 0xFF  # the member's last data byte
    flipped = tmp_path / "flipped.npz"
    flipped.write_bytes(bytes(raw))
    assert _parse_checkpoint(flipped, tmp_path, corpus_path) == 3
    assert "damaged" in capsys.readouterr().err


def _rewrite_meta(tmp_path, trained, edit):
    """A copy of the trained checkpoint whose meta record is ``edit`` of
    the stored one: a string replaces it, a callable changes the dict."""
    with np.load(trained / "checkpoint.npz") as loaded:
        arrays = {key: loaded[key] for key in loaded.files}
    if callable(edit):
        meta = json.loads(str(arrays["__meta__"]))
        edit(meta)
        edit = json.dumps(meta)
    arrays["__meta__"] = np.array(edit)
    path = tmp_path / "meta.npz"
    np.savez(path, **arrays)
    return path


@pytest.mark.parametrize("edit,code,message", [
    ("{format_version: 1", 3, "not a JSON object"),
    ("[1, 2]", 3, "not a JSON object"),
    (lambda meta: meta.pop("config"), 3, "lacks a config"),
    (lambda meta: meta["config"].update(bogus_key=1), 2, "bogus_key"),
], ids=["not-json", "json-list", "no-config", "unknown-config-key"])
def test_parse_with_malformed_checkpoint_meta_exits_with_its_code(
        tmp_path, trained, corpus_path, capsys, edit, code, message):
    path = _rewrite_meta(tmp_path, trained, edit)
    assert _parse_checkpoint(path, tmp_path, corpus_path) == code
    assert message in capsys.readouterr().err


def test_eval_length_mismatch_exits_3(tmp_path, corpus_path, capsys):
    short = tmp_path / "short.sdp"
    write_sdp(toy_corpus(np.random.default_rng(1), size=2), short)
    rc = cli.main(["eval", "--pred", str(short), "--gold", corpus_path])
    assert rc == 3
    assert "2 sentences" in capsys.readouterr().err


def test_checkpoint_structure_mismatch_exits_2(tmp_path, trained, corpus_path,
                                               capsys):
    clash = tmp_path / "clash.cfg"
    clash.write_text("word_dim=8\nmin_count=1\n")
    rc = cli.main(["parse", "--checkpoint", str(trained / "checkpoint.npz"),
                   "--input", corpus_path, "--output", str(tmp_path / "o.sdp"),
                   "--config", str(clash)])
    assert rc == 2
    assert "word_dim" in capsys.readouterr().err


# ---------------------------------------------------------- parse / eval

def test_parse_then_eval_pipeline(tmp_path, trained, corpus_path, capsys):
    out_sdp = tmp_path / "pred.sdp"
    rc = cli.main(["parse", "--checkpoint", str(trained / "checkpoint.npz"),
                   "--input", corpus_path, "--output", str(out_sdp),
                   "--engine", "mf", "--iterations", "3"])
    assert rc == 0
    assert "parsed 6 sentences" in capsys.readouterr().out

    parsed = parse_sdp(out_sdp)
    gold = parse_sdp(corpus_path)
    assert len(parsed) == len(gold)
    for (ps, _), (gs, _) in zip(parsed, gold):
        assert [t.form for t in ps.tokens] == [t.form for t in gs.tokens]

    report_json = tmp_path / "report.json"
    rc = cli.main(["eval", "--pred", str(out_sdp), "--gold", corpus_path,
                   "--json", str(report_json)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "labeled_f1=" in text
    doc = json.loads(report_json.read_text())
    for section in ("labeled", "unlabeled", "top"):
        assert {"precision", "recall", "f1"} <= set(doc[section])


def test_parse_writes_marginal_rows(tmp_path, trained, corpus_path):
    out_sdp = tmp_path / "pred.sdp"
    marg = tmp_path / "marginals.jsonl"
    rc = cli.main(["parse", "--checkpoint", str(trained / "checkpoint.npz"),
                   "--input", corpus_path, "--output", str(out_sdp),
                   "--marginals", str(marg)])
    assert rc == 0
    rows = [json.loads(line) for line in marg.read_text().splitlines()]
    data = parse_sdp(corpus_path)
    assert len(rows) == len(data)
    for idx, row in enumerate(rows):
        assert row["sentence"] == idx
        n = data[idx][0].n
        assert len(row["q"]) == n * n  # (n+1)*n candidates minus n self-loops
        for key, p in row["q"].items():
            head, dep = key.split("->")
            assert 0 <= int(head) <= n and 1 <= int(dep) <= n
            assert 0.0 <= p <= 1.0


def test_parse_threshold_extremes_change_edge_counts(tmp_path, trained,
                                                     corpus_path):
    def edge_total(threshold):
        out = tmp_path / f"pred_{threshold}.sdp"
        rc = cli.main(["parse", "--checkpoint",
                       str(trained / "checkpoint.npz"),
                       "--input", corpus_path, "--output", str(out),
                       "--threshold", str(threshold)])
        assert rc == 0
        return sum(len(g.edges) for _, g in parse_sdp(out))

    assert edge_total(0.999999) <= edge_total(0.5) <= edge_total(1e-6)
    # near-zero threshold keeps essentially every candidate edge
    total_candidates = sum(s.n * s.n for s, _ in parse_sdp(corpus_path))
    assert edge_total(1e-6) == total_candidates


# ------------------------------------------------------------------ trace

def test_trace_emits_per_iteration_structure(tmp_path, trained, corpus_path):
    out = tmp_path / "trace.json"
    rc = cli.main(["trace", "--checkpoint", str(trained / "checkpoint.npz"),
                   "--input", corpus_path, "--sentence", "1",
                   "--engine", "mf", "--iterations", "2", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["engine"] == "mf"
    assert doc["iterations"] == 2
    assert len(doc["steps"]) == 3  # initial state plus two updates
    n = parse_sdp(corpus_path)[1][0].n
    assert len(doc["edges"]) == n * n
    assert doc["steps"][0]["messages"] == []
    for step in doc["steps"]:
        assert set(step["q"]) == set(doc["edges"])
        for p in step["q"].values():
            assert 0.0 <= p <= 1.0
    for msg in doc["steps"][1]["messages"]:
        assert {"src", "dst", "type", "part", "value"} <= set(msg)
        assert msg["type"] in ("sib", "cop", "gp")


def test_trace_lbp_reports_message_log_odds(tmp_path, trained, corpus_path):
    out = tmp_path / "trace_lbp.json"
    rc = cli.main(["trace", "--checkpoint", str(trained / "checkpoint.npz"),
                   "--input", corpus_path, "--engine", "lbp",
                   "--iterations", "1", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    msgs = doc["steps"][1]["messages"]
    assert msgs
    for msg in msgs:
        assert "log_odds" in msg
    assert doc["steps"][-1]["q"]


def _member_edges(kind, part):
    """The two edges a part couples, under its type's stored order."""
    if kind == "sib":
        i, j, k = part
        return {f"{i}->{j}", f"{i}->{k}"}
    if kind == "cop":
        i, k, j = part
        return {f"{i}->{j}", f"{k}->{j}"}
    i, j, k = part
    return {f"{i}->{j}", f"{j}->{k}"}


@pytest.mark.parametrize("engine", ["mf", "lbp"])
def test_trace_messages_run_between_the_member_edges_of_their_part(
        tmp_path, trained, corpus_path, engine):
    out = tmp_path / f"trace_{engine}.json"
    rc = cli.main(["trace", "--checkpoint", str(trained / "checkpoint.npz"),
                   "--input", corpus_path, "--sentence", "2", "--engine", engine,
                   "--iterations", "2", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    n = doc["n"]
    parts = enumerate_parts(build_candidate_edges(n))
    for step in doc["steps"][1:]:
        msgs = step["messages"]
        assert len(msgs) == 2 * parts.total()
        for msg in msgs:
            assert msg["src"] != msg["dst"]
            assert {msg["src"], msg["dst"]} == _member_edges(msg["type"], msg["part"])
        directed = {(m["src"], m["dst"]) for m in msgs}
        assert len(directed) == len(msgs)


def _five_token_corpus(tmp_path):
    path = tmp_path / "five.sdp"
    write_sdp(toy_corpus(np.random.default_rng(5), size=1, min_len=5, max_len=5), path)
    return str(path)


def _pair_list_command(command, tmp_path, trained, corpus):
    """``parse --engine lbp`` or ``trace``: the two CLI users of the dense
    (n+1)^3 layout."""
    base = ["--checkpoint", str(trained / "checkpoint.npz"), "--input", corpus]
    if command == "parse":
        return ["parse", *base, "--engine", "lbp", "--output", str(tmp_path / "pred.sdp")]
    return ["trace", *base, "--engine", "mf", "--out", str(tmp_path / "trace.json")]


@pytest.mark.parametrize("command", ["parse", "trace"])
def test_pair_list_accepts_length_at_the_cap(monkeypatch, tmp_path, trained, command):
    monkeypatch.setattr(pipeline, "PAIR_LENGTH_CAP", 5)
    corpus = _five_token_corpus(tmp_path)
    assert cli.main(_pair_list_command(command, tmp_path, trained, corpus)) == 0


@pytest.mark.parametrize("command", ["parse", "trace"])
def test_pair_list_over_the_cap_exits_3_before_enumerating(monkeypatch, tmp_path,
                                                          trained, capsys, command):
    def refuse(*args, **kwargs):
        raise AssertionError("the dense layout was built over the length cap")

    corpus = _five_token_corpus(tmp_path)
    monkeypatch.setattr(pipeline, "PAIR_LENGTH_CAP", 4)
    monkeypatch.setattr(pipeline, "from_factors", refuse)
    assert cli.main(_pair_list_command(command, tmp_path, trained, corpus)) == 3
    assert "length cap of 4" in capsys.readouterr().err
    # mean-field parsing never builds the dense layout and has no cap
    mf = ["parse", "--checkpoint", str(trained / "checkpoint.npz"), "--input", corpus,
          "--engine", "mf", "--output", str(tmp_path / "mf.sdp")]
    assert cli.main(mf) == 0


def test_trace_sentence_index_out_of_range_exits_3(trained, corpus_path,
                                                   capsys):
    rc = cli.main(["trace", "--checkpoint", str(trained / "checkpoint.npz"),
                   "--input", corpus_path, "--sentence", "99"])
    assert rc == 3
    assert "99" in capsys.readouterr().err


# --------------------------------------------------- oracle-compare / grad

def test_oracle_compare_zero_coupling_is_exact(capsys):
    rc = cli.main(["oracle-compare", "--instances", "5", "--length", "3",
                   "--coupling-scale", "0", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "worst_max_abs_err=0.000000" in out
    assert out.count("engine=mf") == 3 and out.count("engine=lbp") == 3


def test_oracle_compare_small_coupling_reports_small_error(capsys):
    rc = cli.main(["oracle-compare", "--instances", "10", "--length", "3",
                   "--coupling-scale", "0.1", "--seed", "12345"])
    assert rc == 0
    out = capsys.readouterr().out
    worst = float(out.rsplit("worst_max_abs_err=", 1)[1])
    assert 0.0 < worst < 0.05


def test_oracle_compare_accepts_length_at_the_enumeration_cap(capsys):
    # length 4 gives 16 edge variables, within the cap of 20
    rc = cli.main(["oracle-compare", "--instances", "1", "--length", "4"])
    assert rc == 0
    assert "length=4" in capsys.readouterr().out


def test_oracle_compare_over_the_cap_exits_3_before_building(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("random_potentials built an instance over the cap")

    monkeypatch.setattr(cli.synthetic, "random_potentials", refuse)
    rc = cli.main(["oracle-compare", "--length", "5"])
    assert rc == 3
    assert "enumeration cap" in capsys.readouterr().err


def test_gradcheck_command_reports_tiny_error(capsys):
    rc = cli.main(["gradcheck", "--length", "3", "--coords", "12",
                   "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    worst = float(out.rsplit("overall_max_rel_err=", 1)[1])
    assert worst < 1e-4
    assert "engine=mf" in out and "engine=lbp" in out
