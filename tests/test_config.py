"""Tests for run configuration parsing/merging and versioned checkpoints."""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sdparse.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from sdparse.config import (
    MODEL_STRUCTURE_KEYS,
    RunConfig,
    ensure_structure_match,
    parse_config_file,
    parse_overrides,
)
from sdparse.errors import ConfigError, DataError
from sdparse.model import ModelConfig, ParserModel
from sdparse.sdp_io import build_vocab
from sdparse.synthetic import toy_corpus
from sdparse.training import TrainConfig

# ----------------------------------------------------------- file parsing


def test_parse_config_file_reads_pairs_and_comments(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# full line comment\n"
        "\n"
        "learning_rate = 0.005   # trailing comment\n"
        "inference=lbp\n"
        "use_gp = false\n"
    )
    values = parse_config_file(cfg)
    assert values == {
        "learning_rate": "0.005",
        "inference": "lbp",
        "use_gp": "false",
    }


def test_parse_config_file_rejects_bare_words(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("learning_rate = 0.005\njust a line\n")
    with pytest.raises(ConfigError) as err:
        parse_config_file(cfg)
    assert "line 2" in str(err.value)


def test_parse_config_file_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config_file(tmp_path / "absent.cfg")
    assert "absent.cfg" in str(err.value)


def test_parse_overrides_splits_on_first_equals():
    assert parse_overrides(["a=1", "train_path=x=y.sdp"]) == {
        "a": "1", "train_path": "x=y.sdp"}
    with pytest.raises(ConfigError):
        parse_overrides(["no_equals_here"])


# ------------------------------------------------------------- resolution


def test_resolve_layers_defaults_file_then_overrides():
    cfg = RunConfig.resolve(
        file_values={"learning_rate": "0.005", "iterations": "4"},
        overrides={"learning_rate": "0.001"},
    )
    assert cfg.learning_rate == 0.001  # override beats file
    assert cfg.iterations == 4         # file beats default
    assert cfg.beta2 == 0.95           # untouched default


def test_resolve_rejects_unknown_key():
    with pytest.raises(ConfigError) as err:
        RunConfig.resolve(file_values={"learn_rate": "0.1"})
    assert "learn_rate" in str(err.value)


def test_lambda_is_an_alias_for_interpolation():
    cfg = RunConfig.resolve(overrides={"lambda": "0.25"})
    assert cfg.interpolation == 0.25


def test_value_casting_covers_bool_int_float():
    cfg = RunConfig.resolve(file_values={
        "use_sib": "false", "use_cop": "YES", "max_steps": "123",
        "threshold": "0.25",
    })
    assert cfg.use_sib is False
    assert cfg.use_cop is True
    assert cfg.max_steps == 123
    assert cfg.threshold == 0.25


def test_bad_values_are_config_errors():
    with pytest.raises(ConfigError):
        RunConfig.resolve(file_values={"use_sib": "maybe"})
    with pytest.raises(ConfigError):
        RunConfig.resolve(file_values={"max_steps": "ten"})
    with pytest.raises(ConfigError):
        RunConfig.resolve(file_values={"threshold": "wide"})


def test_l2_accepts_auto_none_and_numbers():
    assert RunConfig.resolve(overrides={"l2": "auto"}).l2 is None
    assert RunConfig.resolve(overrides={"l2": "none"}).l2 is None
    assert RunConfig.resolve(overrides={"l2": "3e-9"}).l2 == 3e-9
    assert RunConfig.resolve(overrides={"l2": "0.0"}).l2 == 0.0


def test_resolve_validates_derived_configs():
    with pytest.raises(ConfigError):
        RunConfig.resolve(overrides={"inference": "viterbi"})
    with pytest.raises(ConfigError):
        RunConfig.resolve(overrides={"iterations": "0"})


def test_to_text_round_trips_through_the_parser(tmp_path):
    cfg = RunConfig.resolve(overrides={
        "learning_rate": "0.005", "use_gp": "false", "l2": "auto",
        "train_path": "data/train.sdp",
    })
    echo = tmp_path / "resolved.cfg"
    echo.write_text(cfg.to_text())
    again = RunConfig.resolve(file_values=parse_config_file(echo))
    assert again == cfg


def test_structure_match_lists_every_disagreement():
    stored = RunConfig().to_dict()
    given = dict(stored, word_dim=99, use_gp=False)
    with pytest.raises(ConfigError) as err:
        ensure_structure_match(stored, given)
    msg = str(err.value)
    assert "word_dim" in msg and "99" in msg
    assert "use_gp" in msg
    # non-structural keys never block a load
    ensure_structure_match(stored, dict(stored, learning_rate=42.0))


def test_structure_keys_are_a_subset_of_config_fields():
    fields = set(RunConfig().to_dict())
    assert set(MODEL_STRUCTURE_KEYS) <= fields


# The resolved-config echo of the defaults, as written to resolved.cfg; its
# lines are the key set. RunConfig takes its model and training fields from
# ModelConfig and TrainConfig, so a default changed there shows up here.
DEFAULT_ECHO = (
    "amsgrad_patience_steps=5000\nbatch_token_budget=500\nbeta1=0.0\nbeta2=0.95\n"
    "binary_dim=16\ndecay_every_steps=10000\ndev_path=\ndropout_binary=0.0\n"
    "dropout_embed=0.0\ndropout_label=0.0\ndropout_lstm_ff=0.0\n"
    "dropout_lstm_recur=0.0\ndropout_unary=0.0\nearly_stop_steps=10000\n"
    "encoder_hidden=32\nencoder_layers=1\nepsilon=1e-08\ninference=mf\n"
    "interpolation=0.07\niterations=3\nl2=auto\nleaky_slope=0.1\n"
    "learning_rate=0.01\nlogit_clamp=30.0\nlr_decay=0.5\nmax_sentence_length=60\n"
    "max_steps=5000\nmin_count=7\npos_dim=8\npretrained_path=\n"
    "pretrained_proj_dim=125\nseed=1\nthreshold=0.5\ntrain_path=\nunary_dim=32\n"
    "use_cop=true\nuse_gp=true\nuse_pretrained=false\nuse_sib=true\nword_dim=16\n"
)


def test_default_echo_and_field_defaults_are_pinned():
    cfg = RunConfig()
    assert cfg.to_text() == DEFAULT_ECHO
    assert list(cfg.to_dict())[:4] == ["train_path", "dev_path", "pretrained_path",
                                       "min_count"]
    assert cfg.l2 is None
    assert cfg.model_config() == ModelConfig()
    assert cfg.train_config() == TrainConfig()


def _table_keys(row):
    """The keys a table row lists: its second cell's backquoted names,
    less the values and aliases named in parentheses."""
    return re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", row.split("|")[2]))


def test_readme_config_table_names_every_key_once():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Configuration keys\n", 1)[1].split("\n## ", 1)[0]
    rows = {row.split("|")[1].strip(): _table_keys(row) for row in section.splitlines()
            if row.startswith("| ") and not row.startswith("| group")}
    listed = Counter(key for keys in rows.values() for key in keys)
    assert listed == Counter(RunConfig().to_dict().keys())
    # the structural keys are the model shape keys and the vocabulary cut-off
    assert rows["model shape"] + ["min_count"] == list(MODEL_STRUCTURE_KEYS)
    structural = next(p for p in section.split("\n\n") if "structural" in p)
    assert "`min_count`" in structural and "`parse`" in structural


# ------------------------------------------------------------- checkpoints


def _small_model():
    data = toy_corpus(np.random.default_rng(0), size=4)
    vocab = build_vocab(data, min_count=1)
    run_cfg = RunConfig.resolve(overrides={
        "word_dim": "4", "pos_dim": "3", "encoder_layers": "0",
        "unary_dim": "5", "binary_dim": "3", "min_count": "1",
    })
    model = ParserModel(run_cfg.model_config(), vocab, np.random.default_rng(7))
    return model, run_cfg, vocab


def test_checkpoint_round_trips_params_config_and_vocab(tmp_path):
    model, run_cfg, vocab = _small_model()
    path = tmp_path / "model.npz"
    save_checkpoint(path, model, run_cfg, vocab)
    loaded, cfg2, vocab2 = load_checkpoint(path)
    assert cfg2 == run_cfg
    assert vocab2.to_dict() == vocab.to_dict()
    assert set(loaded.params) == set(model.params)
    for name, p in model.params.items():
        np.testing.assert_array_equal(loaded.params[name].data, p.data)


def test_checkpoint_loads_without_a_random_draw(tmp_path, monkeypatch):
    model, run_cfg, vocab = _small_model()
    path = tmp_path / "model.npz"
    save_checkpoint(path, model, run_cfg, vocab)

    def no_draw(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random numbers")

    monkeypatch.setattr("sdparse.model.np.random.default_rng", no_draw)
    loaded, _, _ = load_checkpoint(path)
    for name, p in model.params.items():
        np.testing.assert_array_equal(loaded.params[name].data, p.data)


def test_checkpoint_round_trips_a_pretrained_table_bit_identically(tmp_path):
    data = toy_corpus(np.random.default_rng(0), size=4)
    vocab = build_vocab(data, min_count=1)
    run_cfg = RunConfig.resolve(overrides={
        "word_dim": "4", "pos_dim": "3", "encoder_layers": "1", "encoder_hidden": "3",
        "unary_dim": "5", "binary_dim": "3", "min_count": "1",
        "use_pretrained": "true", "pretrained_proj_dim": "2",
    })
    vectors = {form: np.random.default_rng(i).normal(size=6)
               for i, form in enumerate(sorted(vocab.form2id)) if i % 2}
    model = ParserModel(run_cfg.model_config(), vocab, np.random.default_rng(7),
                        pretrained=(vectors, 6))
    path = tmp_path / "model.npz"
    save_checkpoint(path, model, run_cfg, vocab)
    loaded, _, _ = load_checkpoint(path)
    assert loaded.pretrained_table.tobytes() == model.pretrained_table.tobytes()
    assert list(loaded.params) == list(model.params)
    for name, p in model.params.items():
        assert loaded.params[name].data.shape == p.data.shape
        assert loaded.params[name].data.tobytes() == p.data.tobytes(), name
    save_checkpoint(tmp_path / "again.npz", loaded, run_cfg, vocab)
    with np.load(path) as first, np.load(tmp_path / "again.npz") as second:
        assert first.files == second.files
        for key in first.files:
            assert first[key].tobytes() == second[key].tobytes(), key


def test_checkpoint_config_echo_is_pinned(tmp_path):
    model, run_cfg, vocab = _small_model()
    path = tmp_path / "model.npz"
    save_checkpoint(path, model, run_cfg, vocab)
    meta = json.loads(str(np.load(path, allow_pickle=False)["__meta__"]))
    assert json.dumps(meta["config"], sort_keys=True) == (
        '{"amsgrad_patience_steps": 5000, "batch_token_budget": 500, "beta1": 0.0, '
        '"beta2": 0.95, "binary_dim": 3, "decay_every_steps": 10000, "dev_path": "", '
        '"dropout_binary": 0.0, "dropout_embed": 0.0, "dropout_label": 0.0, '
        '"dropout_lstm_ff": 0.0, "dropout_lstm_recur": 0.0, "dropout_unary": 0.0, '
        '"early_stop_steps": 10000, "encoder_hidden": 32, "encoder_layers": 0, '
        '"epsilon": 1e-08, "inference": "mf", "interpolation": 0.07, "iterations": 3, '
        '"l2": null, "leaky_slope": 0.1, "learning_rate": 0.01, "logit_clamp": 30.0, '
        '"lr_decay": 0.5, "max_sentence_length": 60, "max_steps": 5000, '
        '"min_count": 1, "pos_dim": 3, "pretrained_path": "", '
        '"pretrained_proj_dim": 125, "seed": 1, "threshold": 0.5, "train_path": "", '
        '"unary_dim": 5, "use_cop": true, "use_gp": true, "use_pretrained": false, '
        '"use_sib": true, "word_dim": 4}')


def test_checkpoint_refuses_structural_mismatch(tmp_path):
    model, run_cfg, vocab = _small_model()
    path = tmp_path / "model.npz"
    save_checkpoint(path, model, run_cfg, vocab)
    # ``parse`` resolves its --config/--set over the checkpoint's echo
    stored = load_checkpoint(path)[1].to_dict()
    clash = RunConfig.resolve(stored, {
        "word_dim": "8", "pos_dim": "3", "encoder_layers": "0",
        "unary_dim": "5", "binary_dim": "3", "min_count": "1",
    })
    with pytest.raises(ConfigError) as err:
        ensure_structure_match(stored, clash.to_dict())
    assert "word_dim" in str(err.value)
    # matching structure with different training knobs passes
    relaxed = RunConfig.resolve(stored, {
        "word_dim": "4", "pos_dim": "3", "encoder_layers": "0",
        "unary_dim": "5", "binary_dim": "3", "min_count": "1",
        "learning_rate": "0.123",
    })
    ensure_structure_match(stored, relaxed.to_dict())


def test_checkpoint_version_gate(tmp_path):
    model, run_cfg, vocab = _small_model()
    path = tmp_path / "model.npz"
    save_checkpoint(path, model, run_cfg, vocab)
    archive = dict(np.load(path, allow_pickle=False))
    meta = json.loads(str(archive["__meta__"]))
    meta["format_version"] = FORMAT_VERSION + 1
    archive["__meta__"] = np.array(json.dumps(meta))
    bad = tmp_path / "future.npz"
    np.savez(bad, **archive)
    with pytest.raises(ConfigError) as err:
        load_checkpoint(bad)
    assert str(FORMAT_VERSION + 1) in str(err.value)


def test_checkpoint_missing_or_garbage_file(tmp_path):
    with pytest.raises(DataError) as err:
        load_checkpoint(tmp_path / "nope.npz")
    assert "nope.npz" in str(err.value)
    junk = tmp_path / "junk.npz"
    np.savez(junk, something=np.zeros(3))
    with pytest.raises(DataError):
        load_checkpoint(junk)
