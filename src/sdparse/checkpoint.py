"""Versioned model checkpoints: one npz holding a JSON meta record (format
version, resolved config echo, vocabulary) plus one array per parameter."""

from __future__ import annotations

import json
import zipfile
import zlib

import numpy as np

from .config import RunConfig, ensure_structure_match
from .errors import ConfigError, DataError
from .model import ParserModel
from .sdp_io import Vocabulary

__all__ = ["save_checkpoint", "load_checkpoint", "FORMAT_VERSION"]

FORMAT_VERSION = 1


def save_checkpoint(path, model, run_config, vocab):
    meta = {
        "format_version": FORMAT_VERSION,
        "config": run_config.to_dict(),
        "vocab": vocab.to_dict(),
    }
    arrays = {f"param:{name}": p.data for name, p in model.params.items()}
    if model.pretrained_table is not None:
        arrays["pretrained_table"] = model.pretrained_table
    np.savez(path, __meta__=np.array(json.dumps(meta, sort_keys=True)), **arrays)


def load_checkpoint(path, expected_config=None):
    """Rebuild (model, run_config, vocab) from a checkpoint file.

    If ``expected_config`` is given, its structural keys must agree with
    the stored echo; any disagreement is listed in the raised error. A
    meta record that is not a JSON object with a config and a vocabulary
    raises DataError, a config echo with unknown keys ConfigError.
    """
    try:
        # np.load leaks a handle it opened itself on a bad zip directory
        with open(path, "rb") as fh:
            loaded = np.load(fh, allow_pickle=False)
            archive = {}  # a bare .npy array has no meta record
            if isinstance(loaded, np.lib.npyio.NpzFile):
                with loaded:
                    archive = {key: loaded[key] for key in loaded.files}
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from None
    except (EOFError, ValueError, NotImplementedError, zipfile.BadZipFile,
            zlib.error) as exc:
        # truncated or corrupted: a bad zip directory, a CRC mismatch, or a
        # member whose header or data does not parse
        raise DataError(f"checkpoint {path} is damaged: {exc}") from None
    if "__meta__" not in archive:
        raise DataError(f"{path} is not a checkpoint (missing meta record)")
    try:
        meta = json.loads(str(archive["__meta__"]))
        version = meta.get("format_version")
    except (ValueError, AttributeError) as exc:
        raise DataError(f"checkpoint {path} meta record is not a JSON object: {exc}") from None
    if version != FORMAT_VERSION:
        raise ConfigError(
            f"checkpoint format version {version} unsupported (expected {FORMAT_VERSION})")
    try:
        stored, vocab = dict(meta["config"]), Vocabulary.from_dict(meta["vocab"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"checkpoint {path} meta record lacks a config or vocabulary: "
                        f"{exc!r}") from None
    unknown = sorted(set(stored) - set(RunConfig.__dataclass_fields__))
    if unknown:
        raise ConfigError(f"checkpoint {path} config has unknown keys {unknown}")
    if expected_config is not None:
        ensure_structure_match(stored, expected_config.to_dict())
    run_config = RunConfig(**stored)

    table = archive["pretrained_table"] if "pretrained_table" in archive else None
    model = ParserModel(run_config.model_config(), vocab,
                        np.random.default_rng(0), pretrained_table=table)
    arrays = {key[len("param:"):]: value
              for key, value in archive.items() if key.startswith("param:")}
    model.load_state_arrays(arrays)
    return model, run_config, vocab
