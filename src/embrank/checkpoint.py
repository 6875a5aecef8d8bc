"""Model checkpointing: flat named-parameter records, self-contained.

A checkpoint stores both models' parameters plus the vocabulary and the
model/flag configuration needed to rebuild the pair without the original
corpus. The parameter checksum identifies a weight state independently of
where it is stored; the encoder checksum identifies the encoder's alone,
which is all a dense index depends on.
"""

from __future__ import annotations

import weakref
from dataclasses import asdict

import numpy as np

from .config import parse_as
from .data import Vocabulary
from .encoder import EncoderModel
from .errors import ConfigError, DataFormatError
from .reranker import ModelPair, RerankerModel
from .serialization import (field_checker, read_record_file, require_keys, sha256_arrays,
                            write_record_file)
from .transformer import ModelConfig

CHECKPOINT_KIND = "embrank-model-pair"

# Header keys of options that are gone, with the one value each can still hold:
# every checkpoint records them, and one holding another value names a model
# this version cannot run.
RETIRED_FLAGS = {"normalize_embeddings": False, "passage_position_embeddings": True}


def parameter_checksum(models: ModelPair) -> str:
    return sha256_arrays({k: t.data for k, t in models.parameters().items()})


# Weak references to the frozen arrays last hashed by ``encoder_checksum``, and
# their digest. A reference never returns an array made after its own died, so
# a recycled id cannot match, and a dropped encoder's weights are not kept.
_last_fingerprint: tuple[dict[str, weakref.ref], str] | None = None


def _frozen(a: np.ndarray) -> bool:
    """True for an array nothing can write to: read-only and owning its memory."""
    return not a.flags.writeable and a.base is None


def encoder_checksum(encoder: EncoderModel) -> str:
    """Fingerprint of the encoder's weights only, so training the reranker
    alone leaves it, and the dense indexes that record it, valid.

    Hashed once per weight state: while every parameter still holds the frozen
    array it held at the last hash, the last digest is returned. A replaced
    array (an Adam step, a loaded checkpoint) is hashed once more; a writable
    array or a view is hashed on every call.
    """
    global _last_fingerprint
    arrays = {k: t.data for k, t in encoder.parameters().items()}
    last = _last_fingerprint
    if (last is not None and last[0].keys() == arrays.keys()
            and all(last[0][k]() is a and _frozen(a) for k, a in arrays.items())):
        return last[1]
    digest = sha256_arrays(arrays)
    _last_fingerprint = (({k: weakref.ref(a) for k, a in arrays.items()}, digest)
                         if all(map(_frozen, arrays.values())) else None)
    return digest


def save_checkpoint(path, models: ModelPair, extra_meta: dict | None = None) -> None:
    meta = {
        "kind": CHECKPOINT_KIND,
        "encoder_config": asdict(models.encoder.config),
        "reranker_config": asdict(models.reranker.config),
        **RETIRED_FLAGS,
        "residual_enabled": models.reranker.residual_enabled,
        "hidden_state_enabled": models.reranker.hidden_state_enabled,
        "eos_id": models.reranker.eos_id,
        "vocab": models.vocab.id_to_token,
        "extra": extra_meta or {},
    }
    write_record_file(path, meta, {k: t.data for k, t in models.parameters().items()})


def _model_config(check, meta: dict, key: str, vocab: Vocabulary) -> ModelConfig:
    """The header's ``key`` as a valid ``ModelConfig`` over ``vocab``."""
    try:
        config = parse_as(ModelConfig, meta[key], key)
        config.validate()
    except (ConfigError, TypeError) as exc:  # TypeError: a required field is missing
        check(False, key, f"is not a model configuration: {exc}")
    check(config.vocab_size == len(vocab), key,
          f"has vocab_size {config.vocab_size} for a vocabulary of {len(vocab)} tokens")
    return config


def load_checkpoint(path) -> ModelPair:
    """The model pair a checkpoint holds. A header entry that does not
    describe a model this version runs raises ``DataFormatError`` naming the
    file and the key, as a damaged parameter does naming the parameter."""
    meta, arrays = read_record_file(path)
    if meta.get("kind") != CHECKPOINT_KIND:
        raise DataFormatError(f"{path}: not a model checkpoint")
    require_keys(path, meta, arrays, ("vocab", "eos_id", *RETIRED_FLAGS, "residual_enabled",
                                      "hidden_state_enabled", "encoder_config",
                                      "reranker_config"))
    check = field_checker(path, "checkpoint")
    for key, value in RETIRED_FLAGS.items():
        check(meta[key] is value, key, f"is {meta[key]!r}; this version runs only {value!r}")
    flags = {key: meta[key] for key in ("residual_enabled", "hidden_state_enabled")}
    for key, value in flags.items():
        check(isinstance(value, bool), key, f"is {value!r}, not true or false")
    check(any(flags.values()), "hidden_state_enabled", "and 'residual_enabled' are both false")
    tokens = meta["vocab"]
    check(isinstance(tokens, list) and all(isinstance(t, str) for t in tokens), "vocab",
          "is not a list of strings")
    try:
        vocab = Vocabulary(tokens)
    except DataFormatError as exc:
        check(False, "vocab", f"is not a vocabulary: {exc}")
    eos_id = meta["eos_id"]
    check(type(eos_id) is int and eos_id == vocab.eos_id, "eos_id",
          f"is {eos_id!r}, not the vocabulary's end token {vocab.eos_id}")
    enc_cfg = _model_config(check, meta, "encoder_config", vocab)
    rer_cfg = _model_config(check, meta, "reranker_config", vocab)
    check(rer_cfg.d_model == enc_cfg.d_model, "reranker_config",
          f"has d_model {rer_cfg.d_model}, the encoder {enc_cfg.d_model}")
    # Every stored array is checked against its config before either model is
    # built from them.
    check_array = field_checker(path, "checkpoint parameter")
    weights = {"encoder": {}, "reranker": {}}
    for prefix, config in (("encoder", enc_cfg), ("reranker", rer_cfg)):
        for name, shape in config.parameter_shapes():
            key = f"{prefix}.{name}"
            check_array(key in arrays, key, "is missing")
            check_array(arrays[key].shape == shape, key,
                        f"has shape {arrays[key].shape}, its config {shape}")
            if not np.isfinite(arrays[key]).all():
                bad = np.argwhere(~np.isfinite(arrays[key]))[0]
                check_array(False, key, f"holds NaN or an infinity at index {tuple(bad.tolist())}")
            weights[prefix][name] = arrays.pop(key)
    for key in sorted(arrays):
        check_array(False, key, "is in neither model's configuration")
    encoder = EncoderModel(enc_cfg, weights["encoder"])
    reranker = RerankerModel(rer_cfg, weights["reranker"], eos_id=eos_id, **flags)
    return ModelPair(encoder=encoder, reranker=reranker, vocab=vocab)
