"""Toy causal transformer shared by the passage encoder and the listwise reranker.

Pre-norm blocks with RMS normalization, multi-head causal self-attention and a
SiLU feed-forward, learned absolute positions, no biases. Attention is the one
``autodiff.causal_attention`` op, whose docstring states the additive -1e9 mask
and the bitwise-causality contract it gives the hidden states.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if self.d_model < 1 or self.n_layers < 1 or self.n_heads < 1:
            raise ConfigError("d_model, n_layers and n_heads must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if self.max_seq_len < 1:
            raise ConfigError("max_seq_len must be >= 1")
        if self.norm_eps < 0:
            raise ConfigError("norm_eps must be >= 0")


class CausalTransformer:
    """Parameter container plus the forward pass; training mutates parameters in place."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        config.validate()
        self.config = config
        s = config.init_scale
        d, f = config.d_model, config.d_model * config.ffn_mult
        p: dict[str, Tensor] = {}
        p["tok_emb"] = ad.param(rng.normal(0.0, s, (config.vocab_size, d)))
        p["pos_emb"] = ad.param(rng.normal(0.0, s, (config.max_seq_len, d)))
        for i in range(config.n_layers):
            p[f"layers.{i}.attn_norm.weight"] = ad.param(np.ones(d))
            for w in ("wq", "wk", "wv", "wo"):
                p[f"layers.{i}.attn.{w}"] = ad.param(rng.normal(0.0, s, (d, d)))
            p[f"layers.{i}.mlp_norm.weight"] = ad.param(np.ones(d))
            p[f"layers.{i}.mlp.w1"] = ad.param(rng.normal(0.0, s, (d, f)))
            p[f"layers.{i}.mlp.w2"] = ad.param(rng.normal(0.0, s, (f, d)))
        p["final_norm.weight"] = ad.param(np.ones(d))
        self.params = p

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def set_trainable(self, trainable: bool) -> None:
        for t in self.params.values():
            t.requires_grad = bool(trainable)

    def embed_tokens(self, token_ids) -> Tensor:
        """Token embeddings plus learned absolute positions: [T] ids give [T, d],
        a [B, T] array of same-length sequences gives [B, T, d]."""
        ids = np.asarray(token_ids, dtype=np.intp)
        t = ids.shape[-1] if ids.ndim else 0
        if t == 0:
            raise ShapeError("empty token sequence")
        if t > self.config.max_seq_len:
            raise ShapeError(f"sequence length {t} exceeds max_seq_len={self.config.max_seq_len}")
        x = ad.take_rows(self.params["tok_emb"], ids)
        pos = ad.take_rows(self.params["pos_emb"], np.arange(t))
        return ad.add(x, pos)

    def _attention(self, x: Tensor, layer: int) -> Tensor:
        q = ad.matmul(x, self.params[f"layers.{layer}.attn.wq"])
        k = ad.matmul(x, self.params[f"layers.{layer}.attn.wk"])
        v = ad.matmul(x, self.params[f"layers.{layer}.attn.wv"])
        heads = ad.causal_attention(q, k, v, self.config.n_heads)
        return ad.matmul(heads, self.params[f"layers.{layer}.attn.wo"])

    def _block(self, x: Tensor, layer: int) -> Tensor:
        cfg = self.config
        a = ad.rms_norm(x, self.params[f"layers.{layer}.attn_norm.weight"], cfg.norm_eps)
        x = ad.add(x, self._attention(a, layer))
        m = ad.rms_norm(x, self.params[f"layers.{layer}.mlp_norm.weight"], cfg.norm_eps)
        h = ad.silu(ad.matmul(m, self.params[f"layers.{layer}.mlp.w1"]))
        return ad.add(x, ad.matmul(h, self.params[f"layers.{layer}.mlp.w2"]))

    def forward_embedded(self, x: Tensor) -> Tensor:
        """Run the blocks over an already-embedded [T, d] sequence, or a [B, T, d]
        batch of same-length sequences; post-norm output of the same shape."""
        if x.ndim not in (2, 3) or x.shape[-1] != self.config.d_model:
            raise ShapeError(f"expected [T, {self.config.d_model}] or "
                             f"[B, T, {self.config.d_model}] input, got {x.shape}")
        if x.shape[-2] > self.config.max_seq_len:
            raise ShapeError(f"sequence length {x.shape[-2]} exceeds max_seq_len={self.config.max_seq_len}")
        for i in range(self.config.n_layers):
            x = self._block(x, i)
        return ad.rms_norm(x, self.params["final_norm.weight"], self.config.norm_eps)

    def forward_tokens(self, token_ids) -> Tensor:
        return self.forward_embedded(self.embed_tokens(token_ids))
