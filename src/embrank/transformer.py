"""Toy causal transformer shared by the passage encoder and the listwise reranker.

Pre-norm blocks with RMS normalization, multi-head causal self-attention and a
SiLU feed-forward, learned absolute positions, no biases. Sequences run packed
end to end as the rows of one [ΣT, d] matrix; attention, the one
``autodiff.causal_attention`` op, is told their lengths, and its docstring
states the additive -1e9 mask and the bitwise-causality contract it gives the
hidden states. A caller that reads only some rows (the encoder's pooled last
tokens, the reranker's passage slots and EOS) names them: the last block's
attention then returns those rows only (its scores and values still come from
every row, and where the rows read are few only they are softmaxed), and
everything after it runs on them alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    max_seq_len: int = 64
    ffn_mult: int = 4
    norm_eps: float = 1e-6
    init_scale: float = 0.02

    def validate(self) -> None:
        if self.vocab_size < 1:
            raise ConfigError("vocab_size must be >= 1")
        if min(self.d_model, self.n_layers, self.n_heads, self.ffn_mult) < 1:
            raise ConfigError("d_model, n_layers, n_heads and ffn_mult must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if self.max_seq_len < 1:
            raise ConfigError("max_seq_len must be >= 1")
        if self.norm_eps < 0:
            raise ConfigError("norm_eps must be >= 0")
        if self.init_scale < 0:
            raise ConfigError("init_scale must be >= 0")

    def parameter_shapes(self) -> Iterator[tuple[str, tuple[int, ...]]]:
        """Each parameter's name and shape, in the order the model makes them.
        A generator, so a reader checking a file against it stops at the first
        parameter the file lacks, however many layers the config names."""
        d, f = self.d_model, self.d_model * self.ffn_mult
        yield "tok_emb", (self.vocab_size, d)
        yield "pos_emb", (self.max_seq_len, d)
        for i in range(self.n_layers):
            yield f"layers.{i}.attn_norm.weight", (d,)
            for w in ("wq", "wk", "wv", "wo"):
                yield f"layers.{i}.attn.{w}", (d, d)
            yield f"layers.{i}.mlp_norm.weight", (d,)
            yield f"layers.{i}.mlp.w1", (d, f)
            yield f"layers.{i}.mlp.w2", (f, d)
        yield "final_norm.weight", (d,)


class CausalTransformer:
    """Parameter container plus the forward pass; training mutates parameters in place."""

    def __init__(self, config: ModelConfig,
                 weights: np.random.Generator | Mapping[str, np.ndarray]):
        """``weights`` is a generator to draw the parameters from (norm
        weights ones, the rest normal with ``init_scale``, in the order of
        ``parameter_shapes``) or the arrays themselves by name, each of the
        config's shape, which become the parameters uncopied."""
        config.validate()
        self.config = config
        if isinstance(weights, np.random.Generator):
            rng = weights
            weights = {name: np.ones(shape) if name.endswith("norm.weight")
                       else rng.normal(0.0, config.init_scale, shape)
                       for name, shape in config.parameter_shapes()}
        self.params: dict[str, Tensor] = {name: ad.param(weights[name])
                                          for name, _ in config.parameter_shapes()}

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def set_trainable(self, trainable: bool) -> None:
        for t in self.params.values():
            t.requires_grad = bool(trainable)

    def embed_tokens(self, sequences) -> Tensor:
        """Token embeddings plus learned absolute positions of ``sequences``,
        packed end to end as the rows of one [ΣT, d] matrix."""
        lengths = [len(s) for s in sequences]
        ids = np.fromiter(itertools.chain.from_iterable(sequences), np.intp, sum(lengths))
        positions = np.arange(len(ids)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        return ad.add(ad.take_rows(self.params["tok_emb"], ids),
                      ad.take_rows(self.params["pos_emb"], positions))

    def _block(self, x: Tensor, layer: int, lengths: list[int], rows=None) -> Tensor:
        """One pre-norm block. Given ``rows``, the keys and values still come
        from every row, attention returns only the rows read, the residual
        stream is gathered at ``rows`` and the rest of the block runs on those
        rows only."""
        cfg, p = self.config, self.params
        a = ad.rms_norm(x, p[f"layers.{layer}.attn_norm.weight"], cfg.norm_eps)
        q = ad.matmul(a, p[f"layers.{layer}.attn.wq"])
        k = ad.matmul(a, p[f"layers.{layer}.attn.wk"])
        v = ad.matmul(a, p[f"layers.{layer}.attn.wv"])
        heads = ad.causal_attention(q, k, v, cfg.n_heads, lengths, rows)
        if rows is not None:
            x = ad.take_rows(x, rows)
        x = ad.add(x, ad.matmul(heads, p[f"layers.{layer}.attn.wo"]))
        m = ad.rms_norm(x, p[f"layers.{layer}.mlp_norm.weight"], cfg.norm_eps)
        return ad.add(x, ad.silu_matmul(ad.matmul(m, p[f"layers.{layer}.mlp.w1"]),
                                        p[f"layers.{layer}.mlp.w2"]))

    def forward_embedded(self, x: Tensor, lengths=None, rows=None) -> Tensor:
        """Run the blocks over already-embedded sequences of ``lengths``, packed
        end to end as the rows of ``x`` [ΣT, d] (by default one sequence of
        all rows); post-norm output of the same shape.

        ``rows``, if given, are the packed row indices the caller reads: the
        output is then [len(rows), d], row j equal bit for bit to row
        ``rows[j]`` of the full output: the last block's attention returns
        those rows only and everything after it runs on them. Attention keeps
        each read row's bits (see ``ad.causal_attention``), every op after it
        is row-wise, and a matmul row keeps its bits whatever the row count
        for the shapes the ``ad.matmul`` docstring names (the default size
        among them; not, for one, ``d_model`` 36 with ``ffn_mult=4``).
        """
        if x.ndim != 2 or x.shape[1] != self.config.d_model:
            raise ShapeError(f"expected [T, {self.config.d_model}] input, got {x.shape}")
        lengths = [x.shape[0]] if lengths is None else list(lengths)
        if max(lengths, default=0) > self.config.max_seq_len:
            raise ShapeError(f"sequence length {max(lengths)} exceeds max_seq_len={self.config.max_seq_len}")
        last = self.config.n_layers - 1
        for i in range(self.config.n_layers):
            x = self._block(x, i, lengths, rows if i == last else None)
        return ad.rms_norm(x, self.params["final_norm.weight"], self.config.norm_eps)
