"""Listwise reranker over compressed passage embeddings.

The input sequence interleaves vocabulary tokens and injected encoder
embeddings: instruction tokens, query tokens, one embedding slot per
candidate passage, a repeated query anchor, and the EOS token; the
instruction and EOS ids are the reranker's own, from its vocabulary. Causal
attention contextualizes the sequence; each passage representation is
the (optional) residual sum of its hidden state and its original
encoder embedding; relevance is the cosine similarity between the EOS
hidden state and each fused representation. The whole scoring path is
a single forward pass: no token is ever generated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Vocabulary
from .encoder import EncoderModel
from .errors import ConfigError, DegenerateInputError, ShapeError
from .runs import RunEntry, RunList, TokenCounter
from .transformer import CausalTransformer, ModelConfig


@dataclass
class RerankInput:
    x: Tensor                    # [T, d] embedded sequence, positions added
    passage_positions: list[int]  # contiguous block holding the injected embeddings
    eos_position: int


@dataclass
class RerankOutput:
    fused: Tensor                # [n, d], row i is r_i
    h_eos: Tensor
    score_tensor: Tensor         # [n] scores, graph-connected for training
    permutation: list[int]       # doc indices by descending score, ties -> earlier input


def fuse_residual(h: Tensor, e: Tensor, *, residual: bool = True,
                  hidden_state: bool = True) -> Tensor:
    """Fused passage representation: h + e, or one of the two under ablation flags."""
    if not residual and not hidden_state:
        raise ConfigError("fuse_residual: residual and hidden_state cannot both be disabled")
    if not hidden_state:
        return e
    if not residual:
        return h
    return ad.add(h, e)


class RerankerModel(CausalTransformer):
    """The listwise reranker. Its prompt's fixed ids, ``instruction_ids`` and
    ``eos_id``, come from ``vocab`` once. Its two fusion switches,
    ``residual_enabled`` and ``hidden_state_enabled``, start on;
    ``fuse_residual`` refuses both off."""

    def __init__(self, config: ModelConfig, weights, vocab: Vocabulary):
        super().__init__(config, weights)
        self.instruction_ids = vocab.instruction_ids()
        self.eos_id = vocab.eos_id
        self.residual_enabled = True
        self.hidden_state_enabled = True

    def assemble_input(self, query_ids, embeddings: Tensor) -> RerankInput:
        """Lay out [instruction; query; e_1..e_n; query anchor; EOS] and add positions.

        Vocabulary tokens pass through the reranker's own embedding table; the
        passage slots hold the rows of the [n, d] encoder output ``embeddings``
        verbatim; every slot, passage slots included, gets its position's
        embedding.
        """
        d = self.config.d_model
        if embeddings.ndim != 2 or embeddings.shape[1] != d:
            raise ShapeError(f"assemble_input: embeddings have shape {embeddings.shape}, "
                             f"expected [n, {d}]")
        n = embeddings.shape[0]
        if n < 1:
            raise ShapeError("assemble_input: need at least one passage embedding")
        prefix_ids = self.instruction_ids + list(query_ids)
        suffix_ids = list(query_ids) + [self.eos_id]
        total = len(prefix_ids) + n + len(suffix_ids)
        if total > self.config.max_seq_len:
            raise ShapeError(f"assemble_input: sequence of {total} exceeds "
                             f"max_seq_len={self.config.max_seq_len}")
        tok = self.params["tok_emb"]
        x = ad.concat_rows([ad.take_rows(tok, prefix_ids), embeddings,
                            ad.take_rows(tok, suffix_ids)])
        pos = ad.take_rows(self.params["pos_emb"], np.arange(total))
        return RerankInput(
            x=ad.add(x, pos),
            passage_positions=list(range(len(prefix_ids), len(prefix_ids) + n)),
            eos_position=total - 1,
        )

    def contextualize(self, rerank_input: RerankInput, rows=None) -> Tensor:
        """Causal forward pass; returns the final-layer hidden state per
        position, or [len(rows), d] holding only those at the positions
        ``rows`` (the same bits; past attention, the last block runs on them
        alone)."""
        return self.forward_embedded(rerank_input.x, rows=rows)

    def score(self, h_eos: Tensor, fused: Tensor) -> tuple[Tensor, list[int]]:
        """Cosine of the EOS aggregation state against each fused row of ``fused`` [n, d].

        The permutation is a stable descending argsort: score ties resolve to
        the earlier input position.
        """
        score_tensor = ad.cosine_rows(h_eos, fused)
        permutation = [int(i) for i in np.argsort(-score_tensor.data, kind="stable")]
        return score_tensor, permutation

    def forward(self, query_ids, embeddings: Tensor) -> RerankOutput:
        """Score the candidates whose encoder embeddings are the rows of ``embeddings`` [n, d].

        Only the n passage slots and EOS are read, so only those rows leave the
        last block: ``hidden`` row i is slot i and row n is EOS.
        """
        rin = self.assemble_input(query_ids, embeddings)
        n = len(rin.passage_positions)
        hidden = self.contextualize(rin, rin.passage_positions + [rin.eos_position])
        h_eos = ad.pick(hidden, n)
        fused = fuse_residual(ad.take_rows(hidden, np.arange(n)), embeddings,
                              residual=self.residual_enabled,
                              hidden_state=self.hidden_state_enabled)
        return RerankOutput(fused, h_eos, *self.score(h_eos, fused))


@dataclass
class ModelPair:
    """Encoder/reranker bundle sharing one vocabulary and hidden dimension."""

    encoder: EncoderModel
    reranker: RerankerModel
    vocab: Vocabulary

    def parameters(self) -> dict[str, Tensor]:
        """Both models' parameters under their checkpoint names, ``encoder.*``
        then ``reranker.*``; gradient norms and checksums follow this order."""
        return {f"{prefix}.{name}": t
                for prefix, model in (("encoder", self.encoder), ("reranker", self.reranker))
                for name, t in model.parameters().items()}


def build_model_pair(vocab: Vocabulary, seed: int, *,
                     d_model: int = 64, n_layers: int = 2, n_heads: int = 4,
                     encoder_max_len: int = 64, reranker_max_len: int = 256,
                     ffn_mult: int = 4) -> ModelPair:
    """Deterministic paired initialization: same seed, same weights."""
    rng = np.random.default_rng(seed)
    enc_cfg = ModelConfig(vocab_size=len(vocab), d_model=d_model, n_layers=n_layers,
                          n_heads=n_heads, max_seq_len=encoder_max_len, ffn_mult=ffn_mult)
    rer_cfg = replace(enc_cfg, max_seq_len=reranker_max_len)
    encoder = EncoderModel(enc_cfg, rng)
    reranker = RerankerModel(rer_cfg, rng, vocab)
    return ModelPair(encoder=encoder, reranker=reranker, vocab=vocab)


@dataclass
class RerankResult:
    run: RunList
    output: RerankOutput
    embeddings: Tensor           # [n, d], row i is the encoder output of candidate i


def rerank_embeddings(query_ids, doc_ids: list[str], embeddings: Tensor,
                      models: ModelPair, *, query_id: str = "q0",
                      tag: str = "embrank") -> RerankResult:
    """Single-pass listwise rerank of candidates given as their encoder
    embeddings, the scoring step of every rerank path; ``.run`` is the run.

    Row i of ``embeddings`` [n, d] is ``doc_ids[i]``'s encoder output (from
    ``retrieval.candidate_embeddings``). One reranker forward pass over the
    assembled sequence scores them all, under ``no_grad`` (no tape is
    recorded). The run's own counter records one processed passage token per
    injected embedding and never sees a generated token.
    """
    if not doc_ids:
        raise DegenerateInputError("rerank: documents must be nonempty")
    if embeddings.shape[0] != len(doc_ids):
        raise ShapeError(f"rerank: {embeddings.shape[0]} embeddings for {len(doc_ids)} documents")
    with ad.no_grad():
        output = models.reranker.forward(query_ids, embeddings)
    counter = TokenCounter(processed_passage_tokens=len(doc_ids), candidates=len(doc_ids))
    scores = output.score_tensor.data.tolist()
    entries = [RunEntry(doc_id=doc_ids[i], score=scores[i]) for i in output.permutation]
    run = RunList(query_id=query_id, entries=entries, tag=tag, counters=counter)
    return RerankResult(run=run, output=output, embeddings=embeddings)
