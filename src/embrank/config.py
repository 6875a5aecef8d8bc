"""Experiment configuration: explicit keys, strict parsing, JSON round-trips.

Unknown keys and values of the wrong type are errors, named by their dotted
path, so a typo in a config file cannot silently fall back to a default or
fail later inside training. Hyperparameters live only here;
environment variables are expanded in CLI path arguments but never override
config values.
"""

from __future__ import annotations

import dataclasses
import json
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
    normalize_embeddings: bool = False
    passage_position_embeddings: bool = True

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
        for i, stage in enumerate(self.stages):
            if stage.epochs < 0 or stage.batch_size < 1 or stage.lr < 0:
                raise ConfigError(f"stages[{i}]: invalid epochs/batch_size/lr")

    def stage_configs(self) -> list[StageConfig]:
        names = ["stage1", "stage2"]
        return [StageConfig(name=names[i], epochs=s.epochs, batch_size=s.batch_size, lr=s.lr)
                for i, s in enumerate(self.stages)]


def _typed(value, kind: type, key: str):
    """``value`` when it is of the field type ``kind`` (int, float or bool);
    a bool is not an int, and an int is fine for a float."""
    allowed = (int, float) if kind is float else kind
    if not isinstance(value, allowed) or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(f"{key}: expected {kind.__name__}, got {type(value).__name__} "
                          f"{value!r}")
    return value


def _parse_section(cls, data, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    kinds = typing.get_type_hints(cls)
    unknown = sorted(set(data) - set(kinds))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(f'{path}.{k}' for k in unknown)}")
    return cls(**{k: _typed(v, kinds[k], f"{path}.{k}") for k, v in data.items()})


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    known = {"seed", "model", "data", "loss", "stages", "optim", "retrieval"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    cfg = ExperimentConfig()
    if "seed" in data:
        cfg.seed = _typed(data["seed"], int, "seed")
    if "model" in data:
        cfg.model = _parse_section(ModelSettings, data["model"], "model")
    if "data" in data:
        cfg.data = _parse_section(DataSettings, data["data"], "data")
    if "loss" in data:
        cfg.loss = _parse_section(LossConfig, data["loss"], "loss")
    if "optim" in data:
        cfg.optim = _parse_section(OptimConfig, data["optim"], "optim")
    if "retrieval" in data:
        cfg.retrieval = _parse_section(RetrievalSettings, data["retrieval"], "retrieval")
    if "stages" in data:
        if not isinstance(data["stages"], list):
            raise ConfigError("stages: expected a list")
        cfg.stages = [_parse_section(StageSettings, s, f"stages[{i}]")
                      for i, s in enumerate(data["stages"])]
    cfg.validate()
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "seed": cfg.seed,
        "model": dataclasses.asdict(cfg.model),
        "data": dataclasses.asdict(cfg.data),
        "loss": dataclasses.asdict(cfg.loss),
        "stages": [dataclasses.asdict(s) for s in cfg.stages],
        "optim": dataclasses.asdict(cfg.optim),
        "retrieval": dataclasses.asdict(cfg.retrieval),
    }


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


def save_config(path, cfg: ExperimentConfig) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
