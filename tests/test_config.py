"""Experiment config: defaults, strict keys, JSON round trip."""

import dataclasses

import pytest

from embrank.config import (ExperimentConfig, ModelSettings, config_from_dict,
                            config_to_dict, load_config, save_config)
from embrank.errors import ConfigError
from embrank.reranker import build_model_pair


def test_defaults_validate():
    cfg = ExperimentConfig()
    cfg.validate()
    assert cfg.loss.tau1 == 0.05 and cfg.loss.tau2 == 0.05 and cfg.loss.lam == 0.1
    assert cfg.retrieval.rrf_k == 60 and cfg.retrieval.top_k == 100
    assert len(cfg.stages) == 2


def test_round_trip(tmp_path):
    cfg = ExperimentConfig()
    cfg.seed = 123
    cfg.model.d_model = 32
    path = tmp_path / "config.json"
    save_config(path, cfg)
    loaded = load_config(path)
    assert config_to_dict(loaded) == config_to_dict(cfg)


def test_unknown_top_level_key():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"sead": 1})
    assert "sead" in str(err.value)


def test_unknown_nested_key_names_dotted_path():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"loss": {"tau1": 0.1, "tau3": 0.2}})
    assert "loss.tau3" in str(err.value)


def test_unknown_stage_key_names_index():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"stages": [{"epochs": 1, "batchsize": 4}]})
    assert "stages[0].batchsize" in str(err.value)


def test_three_stages_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"stages": [{}, {}, {}]})


def test_invalid_loss_flags_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"loss": {"residual_enabled": False,
                                   "hidden_state_enabled": False}})


def test_stage_configs_named_in_order():
    cfg = ExperimentConfig()
    names = [s.name for s in cfg.stage_configs()]
    assert names == ["stage1", "stage2"]


def test_non_utf8_config_names_the_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"seed": 1,\n "model": "\xff"}\n')
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"{path}:2: not UTF-8 text (invalid start byte at byte 23)"


def test_every_model_setting_reaches_build_model_pair(tiny_vocab):
    settings = ModelSettings(d_model=8, n_layers=1, n_heads=2, encoder_max_len=16,
                             reranker_max_len=32, ffn_mult=2)
    kwargs = settings.build_kwargs()
    assert list(kwargs) == [f.name for f in dataclasses.fields(ModelSettings)]
    models = build_model_pair(tiny_vocab, 0, **kwargs)
    assert models.encoder.config.max_seq_len == 16 and models.reranker.config.ffn_mult == 2


@pytest.mark.parametrize("seed", ["x", "3", True, 1.5, None])
def test_seed_of_another_type_rejected(seed):
    with pytest.raises(ConfigError) as err:
        config_from_dict({"seed": seed})
    assert str(err.value).startswith("seed: expected int")


@pytest.mark.parametrize("section, key, value", [
    ("model", "d_model", "x"),
    ("model", "d_model", True),
    ("model", "d_model", 64.0),
    ("loss", "tau1", "0.05"),
    ("loss", "tau1", False),
    ("loss", "residual_enabled", 1),
    ("retrieval", "top_k", None),
    ("optim", "eps", [1e-8]),
])
def test_field_of_another_type_names_the_dotted_key(section, key, value):
    with pytest.raises(ConfigError) as err:
        config_from_dict({section: {key: value}})
    assert str(err.value).startswith(f"{section}.{key}: expected ")


def test_stage_field_of_another_type_names_the_index():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"stages": [{}, {"batch_size": "8"}]})
    assert str(err.value) == "stages[1].batch_size: expected int, got str '8'"


def test_int_for_a_float_field_accepted():
    cfg = config_from_dict({"loss": {"lam": 1}, "stages": [{"lr": 0}]})
    assert cfg.loss.lam == 1 and cfg.stages[0].lr == 0
