"""Flat key=value run configuration shared by the CLI commands.

Files hold one ``key=value`` per line with ``#`` comments. Unknown keys
are hard errors, command-line overrides win over file values, and every
run can echo its fully resolved configuration. The key ``lambda`` is an
accepted alias for ``interpolation`` (the label-loss weight); ``l2`` may
be the string ``auto`` to pick the engine's default. A checkpoint's
JSON echo is resolved the same way: a value that is not text must
already have its key's type.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError
from .model import ModelConfig
from .sdp_io import text_lines
from .training import TrainConfig

__all__ = ["RunConfig", "parse_config_file", "MODEL_STRUCTURE_KEYS"]

_ALIASES = {"lambda": "interpolation"}

# keys that fix the parameters' shapes and meaning: every model field but
# the dropouts, and the vocabulary cut-off; ``parse`` refuses a
# --config/--set that moves any of them off the checkpoint's value
MODEL_STRUCTURE_KEYS = tuple(f.name for f in dataclasses.fields(ModelConfig)
                             if not f.name.startswith("dropout")) + ("min_count",)


@dataclass
class _RunConfigBase:
    """The data paths and vocabulary cut-off of a run, and the methods of
    ``RunConfig``, which adds every field of ModelConfig and TrainConfig."""

    train_path: str = ""
    dev_path: str = ""
    pretrained_path: str = ""
    min_count: int = 7

    def model_config(self):
        names = {f.name for f in dataclasses.fields(ModelConfig)}
        return ModelConfig(**{n: getattr(self, n) for n in names})

    def train_config(self):
        names = {f.name for f in dataclasses.fields(TrainConfig)}
        return TrainConfig(**{n: getattr(self, n) for n in names})

    def to_dict(self):
        return dataclasses.asdict(self)

    def to_text(self):
        lines = [f"{k}={_render(v)}" for k, v in sorted(self.to_dict().items())]
        return "\n".join(lines) + "\n"

    @classmethod
    def resolve(cls, file_values=None, overrides=None):
        """Defaults, then file values, then override pairs."""
        merged = {}
        for source in (file_values or {}), (overrides or {}):
            for key, text in source.items():
                merged[_canonical(key)] = text
        kwargs = {k: _cast(k, v) for k, v in merged.items()}
        cfg = cls(**kwargs)
        cfg.model_config().validate()
        cfg.train_config().validate()
        return cfg


# the model and training fields, with their defaults, are the config
# classes' own; RunConfig() leaves l2 at None, rendered as "auto"
RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    [(f.name, f.type, dataclasses.field(default=f.default))
     for config in (ModelConfig, TrainConfig) for f in dataclasses.fields(config)],
    bases=(_RunConfigBase,),
    namespace={"__doc__": "Every tunable of a run: paths, model dimensions, "
                          "training knobs.",
               "__module__": __name__},
)

_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _canonical(key):
    key = _ALIASES.get(key, key)
    if key not in _FIELDS:
        raise ConfigError(f"unknown configuration key {key!r}")
    return key


# the JSON types a checkpoint's echo may hold per field type; a bool is no int
_JSON_TYPES = {"bool": (bool,), "int": (int,), "float": (int, float), "str": (str,)}


def _cast(key, text):
    """The value of ``key`` parsed from ``text``, or a JSON value of its
    field's type as it is."""
    field = _FIELDS[key]
    if not isinstance(text, str):
        if text is None and key == "l2" or type(text) in _JSON_TYPES[field.type]:
            return text
        raise ConfigError(f"bad value for {key!r}: expected {field.type}, got {text!r}")
    try:
        if key == "l2":
            return None if text.lower() in ("auto", "none") else float(text)
        if field.type == "bool":
            lowered = text.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if field.type == "int":
            return int(text)
        if field.type == "float":
            return float(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from None


def _render(value):
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def parse_config_file(path):
    """Read raw key=value pairs; unknown keys fail on resolve."""
    values = {}
    for line_no, raw in enumerate(text_lines(path, ConfigError), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path} line {line_no}: expected key=value, got {raw.rstrip()!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def parse_overrides(pairs):
    values = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"override must look like key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def ensure_structure_match(stored, resolved):
    """Hard error when two config echoes disagree on structural keys."""
    mismatches = [
        f"{key}: checkpoint={stored[key]!r} requested={resolved[key]!r}"
        for key in MODEL_STRUCTURE_KEYS
        if resolved[key] != stored[key]
    ]
    if mismatches:
        raise ConfigError("checkpoint/config mismatch: " + "; ".join(mismatches))
