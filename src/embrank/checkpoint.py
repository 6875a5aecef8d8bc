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

from . import autodiff as ad
from .data import Vocabulary
from .encoder import EncoderModel
from .errors import DataFormatError
from .reranker import ModelPair, RerankerModel
from .serialization import read_record_file, require_keys, sha256_arrays, write_record_file
from .transformer import ModelConfig

CHECKPOINT_KIND = "embrank-model-pair"


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
        "normalize_embeddings": models.encoder.normalize_output,
        "residual_enabled": models.reranker.residual_enabled,
        "hidden_state_enabled": models.reranker.hidden_state_enabled,
        "passage_position_embeddings": models.reranker.passage_position_embeddings,
        "eos_id": models.reranker.eos_id,
        "vocab": models.vocab.id_to_token,
        "extra": extra_meta or {},
    }
    write_record_file(path, meta, {k: t.data for k, t in models.parameters().items()})


def _model_config(path, meta: dict, key: str) -> ModelConfig:
    try:
        return ModelConfig(**meta[key])
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"{path}: checkpoint {key} is missing or has an unknown "
                              f"or missing field: {exc}") from None


def load_checkpoint(path) -> ModelPair:
    meta, arrays = read_record_file(path)
    if meta.get("kind") != CHECKPOINT_KIND:
        raise DataFormatError(f"{path}: not a model checkpoint")
    require_keys(path, meta, arrays, ("vocab", "eos_id", "normalize_embeddings",
                                      "residual_enabled", "hidden_state_enabled",
                                      "passage_position_embeddings"))
    vocab = Vocabulary(meta["vocab"])
    enc_cfg = _model_config(path, meta, "encoder_config")
    rer_cfg = _model_config(path, meta, "reranker_config")
    rng = np.random.default_rng(0)  # placeholder weights, overwritten below
    encoder = EncoderModel(enc_cfg, rng, normalize_output=meta["normalize_embeddings"])
    reranker = RerankerModel(rer_cfg, rng, eos_id=meta["eos_id"],
                             residual_enabled=meta["residual_enabled"],
                             hidden_state_enabled=meta["hidden_state_enabled"],
                             passage_position_embeddings=meta["passage_position_embeddings"])
    models = ModelPair(encoder=encoder, reranker=reranker, vocab=vocab)
    for key, tensor in models.parameters().items():
        if key not in arrays:
            raise DataFormatError(f"{path}: checkpoint missing parameter {key}")
        if arrays[key].shape != tensor.data.shape:
            raise DataFormatError(f"{path}: shape mismatch for {key}: "
                                  f"{arrays[key].shape} vs {tensor.data.shape}")
        ad.set_param_data(tensor, arrays[key].astype(tensor.data.dtype))
    return models
