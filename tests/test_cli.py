"""End-to-end tests of the command-line interface.

Every test drives ``sdparse.cli.main`` in process, so exit codes and
artifacts are checked exactly as a shell user would see them.
"""

from __future__ import annotations

import gc
import json
import struct
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest

import sdparse.autodiff as ad
import sdparse.cli as cli
from sdparse import pipeline, training
from sdparse.checkpoint import load_checkpoint, save_checkpoint
from sdparse.config import MODEL_STRUCTURE_KEYS, RunConfig, parse_config_file
from sdparse.errors import NumericError
from sdparse.model import ParserModel
from sdparse.sdp_io import build_vocab, parse_sdp, write_sdp
from sdparse.synthetic import toy_corpus

from conftest import part_rows
from message_reference import reference_trace

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
    # --set alone is resolved and checked against the checkpoint
    (["parse", "--set", "word_dim=999"], "word_dim: checkpoint=4 requested=999"),
    (["parse", "--set", "iterations=0"], "iterations must be >= 1"),
    (["parse", "--set", "inference=bogus"], "inference must be 'mf' or 'lbp', got 'bogus'"),
    # NaN must fail each check as an out-of-range value does
    (["parse", "--set", "logit_clamp=-1"], "logit_clamp must be positive, got -1.0"),
    (["parse", "--set", "logit_clamp=0"], "logit_clamp must be positive, got 0.0"),
    (["parse", "--set", "logit_clamp=nan"], "logit_clamp must be positive, got nan"),
    (["parse", "--set", "epsilon=0"], "epsilon must be positive"),
    (["parse", "--set", "learning_rate=nan"], "learning_rate must be positive"),
    (["parse", "--set", "beta1=1.0"], "beta1 must be in [0,1)"),
    (["parse", "--set", "beta2=1.0"], "beta2 must be in [0,1)"),
    (["parse", "--set", "beta2=-1"], "beta2 must be in [0,1)"),
    (["parse", "--set", "l2=-1"], "l2 must be >= 0, got -1.0"),
    (["parse", "--set", "l2=nan"], "l2 must be >= 0, got nan"),
    (["parse", "--set", "pretrained_proj_dim=-2"], "pretrained_proj_dim must be positive"),
    (["parse", "--set", "pretrained_proj_dim=0"], "pretrained_proj_dim must be positive"),
    (["parse", "--set", "leaky_slope=nan"], "leaky_slope must be finite, got nan"),
    (["oracle-compare", "--instances", "0"], "--instances"),
    (["oracle-compare", "--length", "0"], "--length must be >= 1, got 0"),
    (["oracle-compare", "--length", "-1"], "--length must be >= 1, got -1"),
    (["oracle-compare", "--length", "-5"], "--length must be >= 1, got -5"),
    (["oracle-compare", "--length", "2", "--instances", "1", "--coupling-scale", "-1"],
     "--coupling-scale must be >= 0, got -1.0"),
    (["oracle-compare", "--length", "2", "--instances", "1", "--unary-scale", "-1"],
     "--unary-scale must be >= 0, got -1.0"),
    (["oracle-compare", "--length", "2", "--instances", "1", "--coupling-scale", "inf"],
     "--coupling-scale must be finite, got inf"),
    (["oracle-compare", "--length", "2", "--instances", "1", "--unary-scale", "inf"],
     "--unary-scale must be finite, got inf"),
    (["oracle-compare", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["parse", "--set", "seed=-1"], "seed must be >= 0, got -1"),
    (["gradcheck", "--length", "0"], "--length"),
    (["gradcheck", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["gradcheck", "--coords", "0"], "--coords must be >= 1, got 0"),
    (["gradcheck", "--coords", "-5"], "--coords must be >= 1, got -5"),
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


# the schedule's and optimizer's values, refused before anything is
# written; each follows TRAIN_SETS, whose seed would otherwise win
SCHEDULE_SETTINGS = [
    ("lr_decay=nan", "lr_decay must be in (0,1], got nan"),
    ("lr_decay=-1", "lr_decay must be in (0,1], got -1.0"),
    ("lr_decay=0", "lr_decay must be in (0,1], got 0.0"),
    ("lr_decay=1.5", "lr_decay must be in (0,1], got 1.5"),
    ("amsgrad_patience_steps=-3", "amsgrad_patience_steps must be >= 0, got -3"),
    ("amsgrad_patience_steps=nan", "bad value for 'amsgrad_patience_steps'"),
    ("early_stop_steps=-1", "early_stop_steps must be >= 0, got -1"),
    ("early_stop_steps=nan", "bad value for 'early_stop_steps'"),
    ("learning_rate=inf", "learning_rate must be finite, got inf"),
    ("epsilon=inf", "epsilon must be finite, got inf"),
    ("l2=inf", "l2 must be finite, got inf"),
    ("seed=-1", "seed must be >= 0, got -1"),
]


@pytest.mark.parametrize("setting, message", SCHEDULE_SETTINGS,
                         ids=[setting for setting, _ in SCHEDULE_SETTINGS])
def test_train_with_an_out_of_range_schedule_value_exits_2(tmp_path, corpus_path, capsys,
                                                           setting, message):
    out = tmp_path / "run"
    rc = cli.main(["train", "--train", corpus_path, "--out", str(out),
                   "--set", "decay_every_steps=2"] + TRAIN_SETS + ["--set", setting])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_accepts_the_schedule_bounds(tmp_path, corpus_path):
    out = tmp_path / "run"
    rc = cli.main(["train", "--train", corpus_path, "--out", str(out),
                   "--set", "decay_every_steps=2", "--set", "lr_decay=1",
                   "--set", "amsgrad_patience_steps=0", "--set", "early_stop_steps=0"]
                  + TRAIN_SETS)
    assert rc == 0
    rows = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    assert rows and all(row["lr"] == 1e-2 for row in rows)


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
        info = zf.getinfo("arrays.npy")
    raw = bytearray(path.read_bytes())
    # local header: 30 fixed bytes, then the name and extra field lengths
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    last = info.header_offset + 30 + name_len + extra_len + info.compress_size - 1
    raw[last] ^= 0xFF  # the member's last data byte
    flipped = tmp_path / "flipped.npz"
    flipped.write_bytes(bytes(raw))
    assert _parse_checkpoint(flipped, tmp_path, corpus_path) == 3
    assert "damaged" in capsys.readouterr().err


def _rewrite_checkpoint(tmp_path, trained, edit):
    """A copy of the trained checkpoint, rewritten with np.savez (so its
    zip CRCs are valid): a string replaces the meta record, a callable
    changes the meta dict and the member arrays in place."""
    with np.load(trained / "checkpoint.npz") as loaded:
        arrays = {key: loaded[key] for key in loaded.files}
    if callable(edit):
        meta = json.loads(str(arrays["__meta__"]))
        edit(meta, arrays)
        edit = json.dumps(meta)
    arrays["__meta__"] = np.array(edit)
    path = tmp_path / "rewritten.npz"
    np.savez(path, **arrays)
    return path


def _label_past_the_end(meta, arrays):
    labels = meta["vocab"]["label2id"]
    labels[max(labels, key=labels.get)] = len(labels)


def _labels_sharing_an_id(meta, arrays):
    labels = meta["vocab"]["label2id"]
    labels[max(labels, key=labels.get)] = 1


def _form_id_999(meta, arrays):
    forms = meta["vocab"]["form2id"]
    forms[max(forms, key=forms.get)] = 999


@pytest.mark.parametrize("edit,code,message", [
    ("{format_version: 1", 3, "not a JSON object"),
    ("[1, 2]", 3, "not a JSON object"),
    (lambda meta, arrays: meta.pop("config"), 3, "lacks a config"),
    (lambda meta, arrays: meta["config"].update(bogus_key=1), 2, "bogus_key"),
    (_label_past_the_end, 3, "label2id does not map onto the ids 0.."),
    (_labels_sharing_an_id, 3, "label2id does not map onto the ids 0.."),
    (_form_id_999, 3, "form2id does not map onto the ids 0.."),
    (lambda meta, arrays: meta["config"].update(encoder_hidden="abc"), 2,
     "bad value for 'encoder_hidden'"),
    (lambda meta, arrays: meta["config"].update(encoder_hidden=4.5), 2,
     "bad value for 'encoder_hidden': expected int, got 4.5"),
    (lambda meta, arrays: meta["config"].update(use_sib=1), 2,
     "bad value for 'use_sib': expected bool, got 1"),
], ids=["not-json", "json-list", "no-config", "unknown-config-key", "label-id-past-the-end",
        "labels-sharing-an-id", "form-id-999", "text-not-an-int", "float-not-an-int",
        "int-not-a-bool"])
def test_parse_with_malformed_checkpoint_meta_exits_with_its_code(
        tmp_path, trained, corpus_path, capsys, edit, code, message):
    path = _rewrite_checkpoint(tmp_path, trained, edit)
    assert _parse_checkpoint(path, tmp_path, corpus_path) == code
    assert message in capsys.readouterr().err


def test_a_checkpoint_echo_reads_text_as_a_config_file_does(tmp_path, trained):
    path = _rewrite_checkpoint(tmp_path, trained,
                               lambda meta, arrays: meta["config"].update(use_sib="no"))
    _, cfg, _ = load_checkpoint(path)
    assert cfg.use_sib is False


def _index_entry(meta, name):
    return next(entry for entry in meta["index"] if entry[0] == name)


def _string_buffer(meta, arrays):
    arrays["arrays"] = arrays["arrays"].astype(str)


def _two_dim_buffer(meta, arrays):
    arrays["arrays"] = arrays["arrays"].reshape(1, -1)


def _overrunning_entry(meta, arrays):
    _index_entry(meta, "edge_U")[2] = arrays["arrays"].size - 1


def _missing_entry(meta, arrays):
    meta["index"].remove(_index_entry(meta, "edge_U"))


def _short_entry(meta, arrays):
    _index_entry(meta, "edge_U")[1][0] -= 1


def _malformed_entry(meta, arrays):
    meta["index"][0] = [7, "shape"]


def _changed_value(meta, arrays):
    arrays["arrays"][_index_entry(meta, "edge_U")[2]] += 1.0


@pytest.mark.parametrize("edit,message", [
    (_string_buffer, "not 1-D float64"),
    (_two_dim_buffer, "not 1-D float64"),
    (_overrunning_entry, "overruns"),
    (_missing_entry, "edge_U"),
    (_short_entry, "edge_U: shape"),
    (_malformed_entry, "index is malformed"),
    (_changed_value, "damaged"),
], ids=["string-buffer", "2d-buffer", "index-overrun", "missing-name", "shape-mismatch",
        "malformed-index", "hash-mismatch"])
def test_parse_with_damaged_checkpoint_contents_exits_3(
        tmp_path, trained, corpus_path, capsys, edit, message):
    path = _rewrite_checkpoint(tmp_path, trained, edit)
    assert _parse_checkpoint(path, tmp_path, corpus_path) == 3
    assert message in capsys.readouterr().err


def test_parse_refuses_a_format_1_checkpoint(tmp_path, trained, corpus_path, capsys):
    # format 1: one npz member per parameter, no index and no sha256
    model, cfg, vocab = load_checkpoint(trained / "checkpoint.npz")
    meta = {"format_version": 1, "config": cfg.to_dict(), "vocab": vocab.to_dict()}
    path = tmp_path / "v1.npz"
    np.savez(path, __meta__=np.array(json.dumps(meta)),
             **{f"param:{name}": p.data for name, p in model.params.items()})
    assert _parse_checkpoint(path, tmp_path, corpus_path) == 2
    assert "format version 1 unsupported" in capsys.readouterr().err


def test_eval_length_mismatch_exits_3(tmp_path, corpus_path, capsys):
    short = tmp_path / "short.sdp"
    write_sdp(toy_corpus(np.random.default_rng(1), size=2), short)
    rc = cli.main(["eval", "--pred", str(short), "--gold", corpus_path])
    assert rc == 3
    assert "2 sentences" in capsys.readouterr().err


def test_eval_of_a_sentence_with_another_token_count_exits_3(tmp_path, capsys):
    pred, gold = tmp_path / "pred.sdp", tmp_path / "gold.sdp"
    write_sdp(toy_corpus(np.random.default_rng(1), size=2, min_len=3, max_len=3), pred)
    write_sdp(toy_corpus(np.random.default_rng(1), size=2, min_len=6, max_len=6), gold)
    assert cli.main(["eval", "--pred", str(pred), "--gold", str(gold)]) == 3
    assert "sentence 0: prediction has 3 tokens, gold has 6" in capsys.readouterr().err


def test_eval_of_other_sentences_with_the_same_token_counts_exits_3(tmp_path, capsys):
    pred, gold = tmp_path / "pred.sdp", tmp_path / "gold.sdp"
    write_sdp(toy_corpus(np.random.default_rng(1), size=2, min_len=4, max_len=4), pred)
    write_sdp(toy_corpus(np.random.default_rng(2), size=2, min_len=4, max_len=4), gold)
    assert cli.main(["eval", "--pred", str(pred), "--gold", str(gold)]) == 3
    assert "sentence 0: prediction's token forms differ from gold's" in capsys.readouterr().err


# (command, output flag, a path under tmp_path that cannot be written: in a
# directory that does not exist, below a file, or a file where a directory goes)
UNWRITABLE_OUTPUTS = [
    ("parse", "--output", "missing/o.sdp"),
    ("parse", "--marginals", "missing/m.jsonl"),
    ("trace", "--out", "missing/t.json"),
    ("eval", "--json", "file/x.json"),
    ("train", "--out", "file"),
]


@pytest.mark.parametrize("command, flag, target", UNWRITABLE_OUTPUTS,
                         ids=[f"{command} {flag}" for command, flag, _ in UNWRITABLE_OUTPUTS])
def test_an_output_path_that_cannot_be_written_exits_3(tmp_path, trained, corpus_path, capsys,
                                                       command, flag, target):
    (tmp_path / "file").write_text("")
    path = str(tmp_path / target)
    checkpoint = str(trained / "checkpoint.npz")
    argv = {
        "parse": ["parse", "--checkpoint", checkpoint, "--input", corpus_path],
        "trace": ["trace", "--checkpoint", checkpoint, "--input", corpus_path],
        "eval": ["eval", "--pred", corpus_path, "--gold", corpus_path],
        "train": ["train", "--train", corpus_path] + TRAIN_SETS,
    }[command]
    if command == "parse" and flag != "--output":
        argv += ["--output", str(tmp_path / "o.sdp")]
    assert cli.main(argv + [flag, path]) == 3
    assert f"cannot write {path}" in capsys.readouterr().err


def test_checkpoint_structure_mismatch_exits_2(tmp_path, trained, corpus_path,
                                               capsys):
    clash = tmp_path / "clash.cfg"
    clash.write_text("word_dim=8\nmin_count=1\n")
    rc = cli.main(["parse", "--checkpoint", str(trained / "checkpoint.npz"),
                   "--input", corpus_path, "--output", str(tmp_path / "o.sdp"),
                   "--config", str(clash)])
    assert rc == 2
    assert "word_dim" in capsys.readouterr().err


# the checkpoint has word_dim=4 and non-default pos_dim, unary_dim, ...;
# only the structural keys given with --set are compared with it
GIVEN_STRUCTURE = [
    (["--set", "word_dim=4"], 0, None),
    (["--set", "word_dim=4", "--set", "pos_dim=5"], 2, "pos_dim: checkpoint=3 requested=5"),
]


@pytest.mark.parametrize("sets, code, message", GIVEN_STRUCTURE,
                         ids=[" ".join(sets) for sets, _, _ in GIVEN_STRUCTURE])
def test_parse_compares_only_the_structural_keys_given(tmp_path, trained, corpus_path,
                                                       capsys, sets, code, message):
    rc = cli.main(["parse", "--checkpoint", str(trained / "checkpoint.npz"),
                   "--input", corpus_path, "--output", str(tmp_path / "o.sdp")] + sets)
    assert rc == code
    err = capsys.readouterr().err
    if message:
        mismatches = err.split("checkpoint/config mismatch: ", 1)[1].strip()
        assert mismatches == message


def _moved(value):
    """A value of ``value``'s type that differs from it."""
    if isinstance(value, bool):
        return not value
    return value + (1 if isinstance(value, int) else 0.5)


@pytest.mark.parametrize("key", MODEL_STRUCTURE_KEYS)
def test_parse_refuses_each_structural_key_moved_off_the_checkpoint(tmp_path, trained,
                                                                   corpus_path, capsys, key):
    checkpoint = str(trained / "checkpoint.npz")
    stored = load_checkpoint(checkpoint)[1].to_dict()[key]
    moved = _moved(stored)
    rc = cli.main(["parse", "--checkpoint", checkpoint, "--input", corpus_path,
                   "--output", str(tmp_path / "o.sdp"), "--set", f"{key}={moved}"])
    assert rc == 2
    mismatches = capsys.readouterr().err.split("checkpoint/config mismatch: ", 1)[1].strip()
    assert mismatches == f"{key}: checkpoint={stored!r} requested={moved!r}"


def test_parse_ignores_non_structural_set_keys(tmp_path, trained, corpus_path):
    """``--engine``, ``--iterations`` and ``--threshold`` choose how parse
    runs; the config keys of the same names given with --set do not."""
    def parse(name, extra):
        out, marginals = tmp_path / f"{name}.sdp", tmp_path / f"{name}.jsonl"
        assert cli.main(["parse", "--checkpoint", str(trained / "checkpoint.npz"),
                         "--input", corpus_path, "--output", str(out),
                         "--marginals", str(marginals)] + extra) == 0
        return out.read_bytes(), marginals.read_bytes()

    assert parse("set", ["--set", "iterations=1", "--set", "threshold=0.99",
                         "--set", "inference=lbp"]) == parse("plain", [])


# ---------------------------------------------------------- parse / eval

def test_set_values_do_not_leak_between_calls(tmp_path, trained, corpus_path, capsys):
    # the argument parser is built once per process; each call's --set
    # list must start empty
    parse = ["parse", "--checkpoint", str(trained / "checkpoint.npz"),
             "--input", corpus_path, "--output", str(tmp_path / "pred.sdp")]
    assert cli.main(parse + ["--set", "inference=bogus"]) == 2
    assert "bogus" in capsys.readouterr().err
    # the checkpoint's structural values, given with --set alone, pass
    structure = [arg for key in ("word_dim", "pos_dim", "encoder_layers", "unary_dim",
                                 "binary_dim", "min_count")
                 for arg in ("--set", next(s for s in TRAIN_SETS if s.startswith(key + "=")))]
    assert cli.main(parse + structure) == 0
    assert cli.main(parse + ["--set", "word_dim=999"]) == 2
    assert "inference" not in capsys.readouterr().err


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
    parts = sum(map(len, part_rows(n).values()))
    for step in doc["steps"][1:]:
        msgs = step["messages"]
        assert len(msgs) == 2 * parts
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


def test_train_lbp_over_the_cap_exits_3_before_the_first_step(monkeypatch, tmp_path,
                                                               corpus_path, capsys):
    """With no --dev, dev scoring reads the training corpus, which keeps the
    sentences over max_sentence_length; one over the cap fails up front."""
    assert max(s.n for s, _ in parse_sdp(corpus_path)) == 4

    def refuse(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(pipeline, "PAIR_LENGTH_CAP", 3)
    monkeypatch.setattr(training, "sentence_loss", refuse)
    out = tmp_path / "run"
    rc = cli.main(["train", "--train", corpus_path, "--out", str(out)] + TRAIN_SETS
                  + ["--set", "inference=lbp", "--set", "max_sentence_length=3"])
    assert rc == 3
    assert "4-token sentence exceeds the length cap of 3" in capsys.readouterr().err
    assert not (out / "checkpoint.npz").exists()


@pytest.mark.parametrize("engine", ["mf", "lbp"])
@pytest.mark.parametrize("command", ["parse", "trace"])
def test_forward_only_commands_record_no_tape_node(monkeypatch, tmp_path, trained,
                                                   corpus_path, command, engine):
    """Any forward-only path that builds a tape node fails here."""
    init = ad.Tensor.__init__

    def untaped(self, data, requires_grad=False, _parents=(), _vjp=None):
        if _vjp is not None:
            raise AssertionError("a forward-only command recorded a tape node")
        init(self, data, requires_grad, _parents, _vjp)

    monkeypatch.setattr(ad.Tensor, "__init__", untaped)
    base = ["--checkpoint", str(trained / "checkpoint.npz"), "--input", corpus_path,
            "--engine", engine]
    if command == "parse":
        argv = ["parse", *base, "--output", str(tmp_path / "pred.sdp"),
                "--marginals", str(tmp_path / "q.jsonl")]
    else:
        argv = ["trace", *base, "--sentence", "5", "--out", str(tmp_path / "trace.json")]
    assert cli.main(argv) == 0


def test_trace_sentence_index_out_of_range_exits_3(trained, corpus_path,
                                                   capsys):
    rc = cli.main(["trace", "--checkpoint", str(trained / "checkpoint.npz"),
                   "--input", corpus_path, "--sentence", "99"])
    assert rc == 3
    assert "99" in capsys.readouterr().err


def _reference_text(checkpoint, sentence, engine, iterations):
    """json.dumps' text of the trace document built from taped runs of
    each depth (``message_reference.reference_trace``), not from
    ``trace_sentence``."""
    model, _, _ = load_checkpoint(checkpoint)
    _, pot = pipeline.sentence_potentials(model, sentence, "lbp")
    return json.dumps(reference_trace(pot, engine, iterations), sort_keys=True, indent=2) + "\n"


def _one_sentence_corpus(tmp_path, n):
    path = tmp_path / f"n{n}.sdp"
    write_sdp(toy_corpus(np.random.default_rng(8), size=1, min_len=n, max_len=n), path)
    return path


def _trace_text(tmp_path, checkpoint, corpus, engine, sentence=0):
    """The --out text of a T = 2 trace of ``engine``."""
    out = tmp_path / "trace.json"
    assert cli.main(["trace", "--checkpoint", str(checkpoint), "--input", str(corpus),
                     "--sentence", str(sentence), "--engine", engine, "--iterations", "2",
                     "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize("engine", ["mf", "lbp"])
def test_trace_streams_the_text_of_one_json_document(tmp_path, trained, corpus_path, capsys,
                                                     engine):
    """The steps are written one at a time, to --out or stdout, as the text
    json.dumps gives the reference document of the whole trace."""
    sentence, _ = parse_sdp(corpus_path)[3]
    want = _reference_text(trained / "checkpoint.npz", sentence, engine, 2)
    argv = ["trace", "--checkpoint", str(trained / "checkpoint.npz"), "--input", corpus_path,
            "--sentence", "3", "--engine", engine, "--iterations", "2"]
    capsys.readouterr()
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == want
    assert _trace_text(tmp_path, trained / "checkpoint.npz", corpus_path, engine, 3) == want


@pytest.mark.parametrize("engine", ["mf", "lbp"])
def test_trace_text_is_json_dumps_past_nine_words(tmp_path, trained, engine):
    """Edge names with two-digit positions ("0->10" sorts before "0->2"),
    parts with two-digit indices and steps of more than 2,048 rows, the
    block the rows are written in: the written text is still json.dumps'
    text of the whole trace."""
    corpus = _one_sentence_corpus(tmp_path, 12)
    assert 2 * sum(map(len, part_rows(12).values())) > 2048
    want = _reference_text(trained / "checkpoint.npz", parse_sdp(corpus)[0][0], engine, 2)
    assert _trace_text(tmp_path, trained / "checkpoint.npz", corpus, engine) == want


@pytest.mark.parametrize("engine", ["mf", "lbp"])
def test_trace_of_one_word_has_no_messages(tmp_path, trained, engine):
    """A one-word sentence has one edge and no part: every step's
    "messages" is [], as json.dumps writes an empty list."""
    corpus = _one_sentence_corpus(tmp_path, 1)
    want = _reference_text(trained / "checkpoint.npz", parse_sdp(corpus)[0][0], engine, 2)
    assert want.count('"messages": [],') == 3
    assert _trace_text(tmp_path, trained / "checkpoint.npz", corpus, engine) == want


@pytest.mark.parametrize("engine", ["mf", "lbp"])
def test_trace_text_of_a_model_without_cop_parts(tmp_path, corpus_path, engine):
    """With ``use_cop=false`` there is no cop part: the rows go from sib
    parts straight to gp parts, and the text is still the reference's."""
    run = tmp_path / "run"
    assert cli.main(["train", "--train", corpus_path, "--out", str(run), *TRAIN_SETS,
                     "--set", "use_cop=false", "--set", "max_steps=2"]) == 0
    sentence, _ = parse_sdp(corpus_path)[3]
    want = _reference_text(run / "checkpoint.npz", sentence, engine, 2)
    assert '"type": "sib"' in want and '"type": "gp"' in want and '"type": "cop"' not in want
    assert _trace_text(tmp_path, run / "checkpoint.npz", corpus_path, engine, 3) == want


@pytest.mark.parametrize("engine", ["mf", "lbp"])
def test_a_streamed_trace_peaks_below_400_bytes_per_cell(tmp_path, engine):
    """One n = 30 trace at T = 3 (desk dims, written to a file) holds its
    run's arrays and one block of rows: its traced peak is near 240 bytes
    per (n+1)^3 cell, and the peak plus the text written stay within the
    declared bytes per cell that the trace cap is derived from."""
    n, iterations = 30, 3
    data = toy_corpus(np.random.default_rng(3), size=1, min_len=n, max_len=n)
    write_sdp(data, tmp_path / "long.sdp")
    cfg = RunConfig(min_count=1)
    model = ParserModel(cfg.model_config(), build_vocab(data, min_count=1),
                        np.random.default_rng(0))
    save_checkpoint(tmp_path / "model.npz", model, cfg, model.vocab)
    out = tmp_path / "trace.json"
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rc = cli.main(["trace", "--checkpoint", str(tmp_path / "model.npz"), "--input",
                       str(tmp_path / "long.sdp"), "--engine", engine, "--iterations",
                       str(iterations), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    cells = (n + 1) ** 3
    assert rc == 0
    assert peak < 400 * cells
    declared = pipeline.TRACE_BYTES_FIXED + pipeline.TRACE_BYTES_PER_SWEEP * iterations
    assert peak + out.stat().st_size < declared * cells


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("engine", ["mf", "lbp"])
def test_trace_with_non_finite_output_exits_4(tmp_path, trained, corpus_path, capsys, engine):
    """Part scores that overflow make messages (and marginals) that are not
    finite; trace refuses them before it writes a byte, as parse does."""
    model, cfg, vocab = load_checkpoint(trained / "checkpoint.npz")
    for name, p in model.params.items():
        if name.startswith("tri_"):
            p.data = p.data * 1e110
    broken = tmp_path / "huge.npz"
    save_checkpoint(broken, model, cfg, vocab)
    out = tmp_path / "trace.json"
    rc = cli.main(["trace", "--checkpoint", str(broken), "--input", corpus_path,
                   "--sentence", "3", "--engine", engine, "--out", str(out)])
    assert rc == 4
    assert "non-finite marginals or messages" in capsys.readouterr().err
    assert not out.exists()


def test_trace_over_its_length_cap_exits_3_before_scoring(monkeypatch, tmp_path, trained,
                                                          capsys):
    """The trace cap, from the declared bytes per (n+1)^3 cell of one
    streamed step and of each sweep's kept values and text, patched down
    to 4 tokens at T = 3: a 5-token sentence is refused before any score
    is built, and the cap falls as T grows."""
    def refuse(*args, **kwargs):
        raise AssertionError("a sentence over the trace cap was scored")

    per_cell = pipeline.TRACE_BYTES_FIXED + 3 * pipeline.TRACE_BYTES_PER_SWEEP
    monkeypatch.setattr(pipeline, "PAIR_MEMORY_BUDGET", 5.5 ** 3 * per_cell)
    corpus = _five_token_corpus(tmp_path)
    argv = ["trace", "--checkpoint", str(trained / "checkpoint.npz"), "--input", corpus,
            "--out", str(tmp_path / "trace.json")]
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "sentence_potentials", refuse)
        assert cli.main(argv + ["--iterations", "3"]) == 3
        assert "5-token sentence exceeds the trace length cap of 4 at T=3" in capsys.readouterr().err
        assert not (tmp_path / "trace.json").exists()
    # a 5-token sentence fits the cap at T = 1 and not at T = 10
    assert cli.main(argv + ["--iterations", "1"]) == 0
    assert cli.main(argv + ["--iterations", "10"]) == 3


# ------------------------------------------------------ damaged input files

# XOR masks of the byte flips: the high bit (never UTF-8 on an ASCII byte),
# a mixed mask and the low bit
FLIP_MASKS = (0x80, 0x5A, 0x01)


def _flip_codes(source, target, argv, positions, masks=FLIP_MASKS):
    """Runs ``argv`` once per (position, mask) with ``target`` a copy of
    ``source`` with that one byte flipped; returns the exit codes. Any
    exception out of ``cli.main`` fails the calling test."""
    raw = source.read_bytes()
    codes = []
    for position in positions:
        for mask in masks:
            flipped = bytearray(raw)
            flipped[position] ^= mask
            target.write_bytes(bytes(flipped))
            codes.append(cli.main(argv))
    return codes


def _fuzz_positions(path, count, seed):
    """``count`` distinct byte offsets of ``path``, drawn with ``seed``."""
    size = path.stat().st_size
    return np.random.default_rng(seed).choice(size, size=min(count, size), replace=False)


def _npy_header_offsets(path):
    """Byte offsets in an uncompressed .npz of each member's .npy header
    text (its first and last byte, which numpy's literal parser reads) and
    of the flags in its central directory entry (which can mark it as
    encrypted)."""
    raw = path.read_bytes()
    offsets = []
    with zipfile.ZipFile(path) as zf:
        for info in zf.infolist():
            name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
            start = info.header_offset + 30 + name_len + extra_len
            assert raw[start:start + 7] == b"\x93NUMPY\x01"
            (length,) = struct.unpack_from("<H", raw, start + 8)
            offsets += [start + 10, start + 9 + length]
    central = raw.index(b"PK\x01\x02")
    while central >= 0:
        offsets.append(central + 8)
        central = raw.find(b"PK\x01\x02", central + 1)
    return offsets


def test_damaged_sdp_files_end_in_an_exit_code(tmp_path, trained, corpus_path, capsys):
    source, target = Path(corpus_path), tmp_path / "flipped.sdp"
    checkpoint = str(trained / "checkpoint.npz")
    # every byte through eval, a sample through parse
    codes = _flip_codes(source, target, ["eval", "--gold", corpus_path, "--pred", str(target)],
                        range(source.stat().st_size))
    codes += _flip_codes(source, target, ["parse", "--checkpoint", checkpoint, "--input",
                                          str(target), "--output", str(tmp_path / "pred.sdp")],
                         _fuzz_positions(source, 40, seed=1))
    assert set(codes) <= {0, 3} and 3 in codes
    assert "not UTF-8" in capsys.readouterr().err


def test_damaged_config_files_end_in_an_exit_code(tmp_path, trained, corpus_path, capsys):
    source, target = trained / "resolved.cfg", tmp_path / "flipped.cfg"
    argv = ["parse", "--checkpoint", str(trained / "checkpoint.npz"), "--input", corpus_path,
            "--output", str(tmp_path / "pred.sdp"), "--config", str(target)]
    codes = _flip_codes(source, target, argv, _fuzz_positions(source, 80, seed=2))
    assert set(codes) <= {0, 2} and 2 in codes
    assert "not UTF-8" in capsys.readouterr().err


def test_damaged_pretrained_vectors_end_in_an_exit_code(tmp_path, corpus_path, capsys):
    source, target = tmp_path / "vectors.txt", tmp_path / "flipped.txt"
    source.write_text("w0 0.5 0.25\nw1 0.1 -0.3\nw2 1e-3 2.5\n")
    argv = (["train", "--train", corpus_path, "--out", str(tmp_path / "run")] + TRAIN_SETS
            + ["--set", "max_steps=1", "--set", "use_pretrained=true",
               "--set", f"pretrained_path={target}"])
    codes = _flip_codes(source, target, argv, _fuzz_positions(source, 6, seed=3), (0x80, 0x5A))
    assert set(codes) <= {0, 3} and 3 in codes
    assert "not UTF-8" in capsys.readouterr().err


def test_damaged_checkpoints_end_in_an_exit_code(tmp_path, trained, corpus_path, capsys):
    source, target = trained / "checkpoint.npz", tmp_path / "flipped.npz"
    argv = ["parse", "--checkpoint", str(target), "--input", corpus_path,
            "--output", str(tmp_path / "pred.sdp")]
    codes = _flip_codes(source, target, argv, _npy_header_offsets(source))
    codes += _flip_codes(source, target, argv, _fuzz_positions(source, 400, seed=4), (0x5A,))
    assert set(codes) <= {0, 3} and 3 in codes
    assert "damaged" in capsys.readouterr().err


@pytest.mark.parametrize("reader", ["sdp", "config", "pretrained"])
def test_a_byte_that_is_not_utf8_is_named_by_file_and_line(tmp_path, trained, corpus_path,
                                                          capsys, reader):
    lines = Path(corpus_path).read_bytes().split(b"\n")
    path = tmp_path / "bad.txt"
    if reader == "sdp":
        lines[2] = lines[2].replace(b"\t", b"\xff\t", 1)
        argv, code = ["eval", "--gold", corpus_path, "--pred", str(path)], 3
    elif reader == "config":
        lines = [b"seed = 3", b"", b"\xff = 1"]
        argv, code = ["train", "--train", corpus_path, "--out", str(tmp_path / "run"),
                      "--config", str(path)], 2
    else:
        lines = [b"w0 0.5 0.25", b"w1 0.1 0.2", b"w2 \xc3 0.1"]
        argv, code = (["train", "--train", corpus_path, "--out", str(tmp_path / "run")]
                      + TRAIN_SETS + ["--set", "use_pretrained=true",
                                      "--set", f"pretrained_path={path}"]), 3
    path.write_bytes(b"\n".join(lines))
    assert cli.main(argv) == code
    assert f"{path} line 3: not UTF-8" in capsys.readouterr().err


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


# numpy warns of the overflow and of the NaN it makes, which the suite
# would otherwise raise as errors; the command line prints them and goes on
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("flag", ["--unary-scale", "--coupling-scale"])
def test_oracle_compare_with_non_finite_marginals_exits_4(capsys, flag):
    rc = cli.main(["oracle-compare", "--instances", "2", "--length", "3", flag, "1e308"])
    assert rc == 4
    out, err = capsys.readouterr()
    assert "non-finite marginals from mf (T=1)" in err
    assert "worst_max_abs_err" not in out


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
