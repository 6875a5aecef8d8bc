"""Experiment configuration: explicit keys, strict parsing, JSON round-trips.

Unknown keys and values of the wrong type are errors, named by their dotted
path, so a typo in a config file cannot silently fall back to a default or
fail later inside training. Hyperparameters live only here;
environment variables are expanded in CLI path arguments but never override
config values.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .serialization import read_text
from .training import LossConfig, OptimConfig, StageConfig


@dataclass
class ModelSettings:
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    encoder_max_len: int = 64
    reranker_max_len: int = 256
    ffn_mult: int = 4

    def build_kwargs(self) -> dict:
        """Every field, as the keyword arguments of ``build_model_pair``."""
        return dataclasses.asdict(self)


@dataclass
class DataSettings:
    n_topics: int = 5
    n_docs: int = 500
    n_queries: int = 60
    n_eval_queries: int = 10
    grade_noise: float = 0.0
    stage1_candidates: int = 20
    stage1_per_query: int = 2
    n_negatives: int = 15


@dataclass
class StageSettings:
    epochs: int = 3
    batch_size: int = 8
    lr: float = 3e-4


@dataclass
class RetrievalSettings:
    k1: float = 1.2
    b: float = 0.75
    top_k: int = 100
    rrf_k: int = 60
    window: int = 20
    stride: int = 10


@dataclass
class ExperimentConfig:
    seed: int = 0
    model: ModelSettings = field(default_factory=ModelSettings)
    data: DataSettings = field(default_factory=DataSettings)
    loss: LossConfig = field(default_factory=LossConfig)
    stages: list[StageSettings] = field(default_factory=lambda: [
        StageSettings(epochs=3, batch_size=8, lr=3e-4),
        StageSettings(epochs=5, batch_size=8, lr=3e-4),
    ])
    optim: OptimConfig = field(default_factory=OptimConfig)
    retrieval: RetrievalSettings = field(default_factory=RetrievalSettings)

    def validate(self) -> None:
        if not 1 <= len(self.stages) <= 2:
            raise ConfigError("stages: the canonical run has one or two stages")
        self.loss.validate()
        try:
            self.optim.validate()
        except ConfigError as exc:
            raise ConfigError(f"optim.{exc}") from None
        for i, stage in enumerate(self.stages):
            for name, low in (("epochs", 0), ("batch_size", 1), ("lr", 0)):
                value = getattr(stage, name)
                if not value >= low:
                    raise ConfigError(f"stages[{i}].{name}: must be >= {low}, got {value!r}")

    def stage_configs(self) -> list[StageConfig]:
        names = ["stage1", "stage2"]
        return [StageConfig(name=names[i], epochs=s.epochs, batch_size=s.batch_size, lr=s.lr)
                for i, s in enumerate(self.stages)]


def _typed(value, kind: type, key: str):
    """``value`` when it is of the field type ``kind`` (int, float or bool);
    a bool is not an int, an int is fine for a float, and a float is finite
    (``json`` reads ``NaN`` and ``Infinity``)."""
    allowed = (int, float) if kind is float else kind
    if not isinstance(value, allowed) or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(f"{key}: expected {kind.__name__}, got {type(value).__name__} "
                          f"{value!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {value!r}")
    return value


# A section's field types, its string annotations resolved once per class.
_field_types = functools.cache(typing.get_type_hints)


def parse_as(kind, value, path: str):
    """``value`` as the config field type ``kind``: a settings section, a list
    of sections or a scalar; ``path`` is its dotted key, empty at the root."""
    if typing.get_origin(kind) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list")
        (item,) = typing.get_args(kind)
        return [parse_as(item, v, f"{path}[{i}]") for i, v in enumerate(value)]
    if not dataclasses.is_dataclass(kind):
        return _typed(value, kind, path)
    if not isinstance(value, dict):
        raise ConfigError(f"{path or 'config root'}: expected an object")
    kinds = _field_types(kind)
    keys = {k: f"{path}.{k}" if path else k for k in value}
    unknown = sorted(keys[k] for k in set(value) - set(kinds))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    return kind(**{k: parse_as(kinds[k], v, keys[k]) for k, v in value.items()})


def config_from_dict(data: dict) -> ExperimentConfig:
    cfg = parse_as(ExperimentConfig, data, "")
    cfg.validate()
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


def load_config(path) -> ExperimentConfig:
    """Parse a JSON config file; every ``ConfigError`` it raises names the file."""
    path = Path(path)
    try:
        data = json.loads(read_text(path, ConfigError))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc.msg} at line {exc.lineno})") from exc
    try:
        return config_from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
