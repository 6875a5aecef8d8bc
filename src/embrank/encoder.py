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

# Token rows per packed forward, chosen by measurement: 192-512 rows build the
# 5000-passage dense index about as fast, 768 about 25% slower. Pack size also
# sets glibc's dynamic malloc thresholds (from the largest block freed so far):
# after 192-row packs the reranker's attention ran on freshly faulted pages.
# Each op's fresh arrays are faulted in again once glibc has handed them back.
# The first 5000-passage build in a process faults in about 190k pages, and
# about 100k after a BM25 build of the same passages whose index is still
# held (190k again once that index is dropped). Every caller (``build-index``,
# the benchmark's ``retrieve-5k``, demo 05) builds BM25 first and holds it. A
# second build faults about 1k (seed-0 passages; ``ru_minflt`` of the
# process, one BLAS thread).
TOKEN_BUDGET = 384


class EncoderModel:
    """Pools each passage to its raw last hidden state, the embedding the
    residual fusion downstream takes unnormalized."""

    def __init__(self, config: ModelConfig, weights):
        """``weights``: as ``CausalTransformer`` takes them."""
        self.transformer = CausalTransformer(config, weights)

    @property
    def config(self) -> ModelConfig:
        return self.transformer.config

    def parameters(self) -> dict[str, Tensor]:
        return self.transformer.parameters()

    def set_trainable(self, trainable: bool) -> None:
        self.transformer.set_trainable(trainable)

    def encode_passage(self, token_ids) -> Tensor:
        """Compress one token sequence to a single [d] embedding (last-token
        pooling): row 0 of the one-passage ``batch_encode``."""
        return ad.pick(self.batch_encode([token_ids]), 0)

    def encode_query(self, token_ids) -> Tensor:
        """Queries run through the identical network and pooling as passages."""
        return self.encode_passage(token_ids)

    def batch_encode(self, passages) -> Tensor:
        """The [n, d] matrix whose row i equals encode_passage(passages[i]) bit
        for bit wherever a ``matmul`` row keeps its bits whatever the row
        count; ``[]`` gives a [0, d] matrix. That holds at the default size,
        but not for every shape: the ``ad.matmul`` docstring gives the
        measured condition (on OpenBLAS 0.3.31 a row differs in all 40
        seed-0 passages at ``d_model`` 36 with ``ffn_mult=4``).

        The passages, stably sorted by length, run packed end to end as the
        rows of [ΣT, d] forwards of at most ``TOKEN_BUDGET`` rows (a longer
        passage runs alone), with no padding. Every op is row-wise but
        attention, which keeps to each passage's rows (see ``autodiff``): that
        keeps each passage's bits. Each pack's forward is told its passages'
        last rows, so its last block runs past attention on those rows only
        and it returns just the pooled [len(pack), d]; the packs are joined by
        one ``concat_rows`` and put back in input order by one ``take_rows``;
        gradients flow back to every passage.
        """
        limit, d = self.config.max_seq_len, self.config.d_model
        order = sorted(range(len(passages)), key=lambda i: len(passages[i]))
        packs, rows = [], TOKEN_BUDGET
        for i in order:
            n = len(passages[i])
            if n == 0:
                raise ShapeError(f"passage {i}: empty token sequence")
            if n > limit:
                raise ShapeError(f"passage {i}: length {n} exceeds "
                                 f"max_seq_len={limit} (no silent truncation)")
            if rows + n > TOKEN_BUDGET:
                packs.append([])
                rows = 0
            packs[-1].append(i)
            rows += n
        if not packs:
            return ad.tensor(np.zeros((0, d)))
        pooled = []
        for pack in packs:
            lengths = [len(passages[i]) for i in pack]
            try:
                x = self.transformer.embed_tokens([passages[i] for i in pack])
                pooled.append(self.transformer.forward_embedded(x, lengths,
                                                                np.cumsum(lengths) - 1))
            except EmbrankError as exc:
                raise type(exc)(f"passages {sorted(pack)}: {exc}") from exc
        out = ad.concat_rows(pooled)
        if order != list(range(len(order))):
            out = ad.take_rows(out, np.argsort(order))
        return out
