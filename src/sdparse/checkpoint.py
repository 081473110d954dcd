"""Versioned model checkpoints (format 2).

A checkpoint is an npz with two members: ``__meta__``, a JSON record
(format version, resolved config echo, vocabulary, array index, sha256),
and ``arrays``, one flat float64 buffer holding every parameter and, when
the config uses one, the pretrained table. The index lists each array as
(name, shape, offset into the buffer); the sha256 is that of the buffer's
bytes. Loading checks the buffer against both and rebuilds the model from
views of it, with no random draw. A file of another format version is
refused with ConfigError; a damaged buffer or index raises DataError.
"""

from __future__ import annotations

import hashlib
import json
import math
import tokenize
import zipfile
import zlib

import numpy as np

from .config import RunConfig
from .errors import ConfigError, DataError
from .model import ParserModel
from .sdp_io import Vocabulary

__all__ = ["save_checkpoint", "load_checkpoint", "FORMAT_VERSION"]

FORMAT_VERSION = 2
BUFFER = "arrays"


def save_checkpoint(path, model, run_config, vocab):
    arrays = {name: p.data for name, p in model.params.items()}
    if model.pretrained_table is not None:
        arrays["pretrained_table"] = model.pretrained_table
    index, offset = [], 0
    for name, values in arrays.items():
        index.append([name, list(values.shape), offset])
        offset += values.size
    buffer = np.concatenate([np.ravel(values) for values in arrays.values()])
    meta = {
        "format_version": FORMAT_VERSION,
        "config": run_config.to_dict(),
        "vocab": vocab.to_dict(),
        "index": index,
        "sha256": hashlib.sha256(buffer).hexdigest(),
    }
    np.savez(path, __meta__=np.array(json.dumps(meta, sort_keys=True)), **{BUFFER: buffer})


def load_checkpoint(path):
    """Rebuild (model, run_config, vocab) from a checkpoint file.

    A meta record that is not a JSON object with a config and a
    vocabulary, or whose vocabulary id maps are not bijections, raises
    DataError. The config echo is resolved as a config file is
    (``RunConfig.resolve``), so an unknown key or a bad value raises
    ConfigError. DataError is also raised for an array buffer that is not
    1-D float64, does not match its sha256, or that an index entry
    overruns, and an index whose names or shapes are not the model's.
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
            zlib.error, tokenize.TokenError, SyntaxError, RuntimeError) as exc:
        # truncated or corrupted: a bad zip directory, a CRC mismatch, a
        # member flagged as encrypted (RuntimeError), or a member whose
        # header or data does not parse (numpy reads a .npy header as a
        # Python literal, so a damaged one can raise a tokenizer or
        # syntax error)
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
    run_config = RunConfig.resolve(stored)
    model = ParserModel(run_config.model_config(), vocab,
                        state=_unpack(path, archive.get(BUFFER), meta))
    return model, run_config, vocab


def _unpack(path, buffer, meta):
    """name -> view of the stored buffer, per index entry, once the buffer
    is 1-D float64 and matches the stored sha256."""
    if not isinstance(buffer, np.ndarray) or buffer.dtype != np.float64 or buffer.ndim != 1:
        kind = "missing" if buffer is None else f"{buffer.dtype} of shape {buffer.shape}"
        raise DataError(f"checkpoint {path} array buffer is not 1-D float64 ({kind})")
    if hashlib.sha256(buffer).hexdigest() != meta.get("sha256"):
        raise DataError(f"checkpoint {path} is damaged: its array buffer does not match "
                        f"the stored sha256")
    arrays = {}
    try:
        for name, shape, offset in meta["index"]:
            end = offset + math.prod(shape)
            if not 0 <= offset <= end <= len(buffer):
                raise DataError(f"checkpoint {path} index entry {name!r} "
                                f"({offset}:{end}) overruns the {len(buffer)}-value buffer")
            arrays[str(name)] = buffer[offset:end].reshape(shape)
        if len(arrays) != len(meta["index"]):
            raise DataError(f"checkpoint {path} index names an array twice")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"checkpoint {path} array index is malformed: {exc!r}") from None
    return arrays
