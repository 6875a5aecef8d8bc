"""Passage/query encoder: a causal transformer pooled at the final token.

Each text is processed independently and compressed to a single d-dimensional
embedding, taken directly from the last position's hidden state after the
final norm. No projection head sits between this output and the reranker's
input slots, so the two models must share the hidden dimension.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import EmbrankError, ShapeError
from .transformer import CausalTransformer, ModelConfig

# Passages per batched forward. A larger chunk holds more activations at once:
# with 64, a 5000-passage dense index build peaked at about 87 MB against 70 MB.
CHUNK_SIZE = 16


class EncoderModel:
    """``normalize_output`` rescales embeddings to unit norm before use; the
    default (off) feeds raw hidden states into the residual fusion downstream."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator,
                 normalize_output: bool = False):
        self.transformer = CausalTransformer(config, rng)
        self.normalize_output = normalize_output

    @property
    def config(self) -> ModelConfig:
        return self.transformer.config

    def parameters(self) -> dict[str, Tensor]:
        return self.transformer.parameters()

    def set_trainable(self, trainable: bool) -> None:
        self.transformer.set_trainable(trainable)

    def encode_passage(self, token_ids) -> Tensor:
        """Compress one token sequence to a single [d] embedding (last-token
        pooling): the one-passage case of ``batch_encode``."""
        return self.batch_encode([token_ids])[0]

    def encode_query(self, token_ids) -> Tensor:
        """Queries run through the identical network and pooling as passages."""
        return self.encode_passage(token_ids)

    def batch_encode(self, passages) -> list[Tensor]:
        """Element i equals encode_passage(passages[i]) bit for bit; order preserved.

        Passages are grouped by exact token length, so no padding enters, and
        each group runs as [B, T] forwards of at most ``CHUNK_SIZE`` passages.
        Every op treats the B sequences independently (see ``autodiff``), which
        is what keeps each row's bits. Gradients flow back to every passage.
        """
        limit = self.config.max_seq_len
        buckets: dict[int, list[int]] = {}
        for i, tokens in enumerate(passages):
            if len(tokens) == 0:
                raise ShapeError(f"passage {i}: empty token sequence")
            if len(tokens) > limit:
                raise ShapeError(f"passage {i}: length {len(tokens)} exceeds "
                                 f"max_seq_len={limit} (no silent truncation)")
            buckets.setdefault(len(tokens), []).append(i)
        out: list[Tensor] = [None] * len(passages)
        for members in buckets.values():
            for lo in range(0, len(members), CHUNK_SIZE):
                chunk = members[lo:lo + CHUNK_SIZE]
                try:
                    hidden = self.transformer.forward_tokens([passages[i] for i in chunk])
                    last = ad.pick(hidden, hidden.shape[1] - 1, axis=1)
                    for b, i in enumerate(chunk):
                        e = ad.pick(last, b)
                        if self.normalize_output:
                            e = ad.div(e, ad.sqrt(ad.dot(e, e)))
                        out[i] = e
                except EmbrankError as exc:
                    raise type(exc)(f"passages {chunk}: {exc}") from exc
        return out
