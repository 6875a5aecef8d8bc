"""Listwise reranker over compressed passage embeddings.

The input sequence interleaves vocabulary tokens and injected encoder
embeddings: instruction tokens, query tokens, one embedding slot per
candidate passage, a repeated query anchor, and the EOS token. Causal
attention contextualizes the sequence; each passage representation is
the (optional) residual sum of its hidden state and its original
encoder embedding; relevance is the cosine similarity between the EOS
hidden state and each fused representation. The whole scoring path is
a single forward pass: no token is ever generated.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    score_tensor: Tensor         # [n] graph-connected scores, for training
    scores: list[float]
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


class RerankerModel:
    def __init__(self, config: ModelConfig, rng: np.random.Generator, eos_id: int, *,
                 residual_enabled: bool = True,
                 hidden_state_enabled: bool = True,
                 passage_position_embeddings: bool = True):
        if not residual_enabled and not hidden_state_enabled:
            raise ConfigError("residual_enabled and hidden_state_enabled cannot both be off")
        self.transformer = CausalTransformer(config, rng)
        self.eos_id = eos_id
        self.residual_enabled = residual_enabled
        self.hidden_state_enabled = hidden_state_enabled
        self.passage_position_embeddings = passage_position_embeddings

    @property
    def config(self) -> ModelConfig:
        return self.transformer.config

    def parameters(self) -> dict[str, Tensor]:
        return self.transformer.parameters()

    def set_trainable(self, trainable: bool) -> None:
        self.transformer.set_trainable(trainable)

    def assemble_input(self, instruction_ids, query_ids, embeddings: Tensor) -> RerankInput:
        """Lay out [instruction; query; e_1..e_n; query anchor; EOS] and add positions.

        Vocabulary tokens pass through the reranker's own embedding table; the
        passage slots hold the rows of the [n, d] encoder output ``embeddings``
        verbatim (plus the positional embedding unless
        ``passage_position_embeddings`` is off).
        """
        d = self.config.d_model
        if embeddings.ndim != 2 or embeddings.shape[1] != d:
            raise ShapeError(f"assemble_input: embeddings have shape {embeddings.shape}, "
                             f"expected [n, {d}]")
        n = embeddings.shape[0]
        if n < 1:
            raise ShapeError("assemble_input: need at least one passage embedding")
        prefix_ids = list(instruction_ids) + list(query_ids)
        suffix_ids = list(query_ids) + [self.eos_id]
        total = len(prefix_ids) + n + len(suffix_ids)
        if total > self.config.max_seq_len:
            raise ShapeError(f"assemble_input: sequence of {total} exceeds "
                             f"max_seq_len={self.config.max_seq_len}")
        tok = self.transformer.params["tok_emb"]
        x = ad.concat_rows([ad.take_rows(tok, prefix_ids), embeddings,
                            ad.take_rows(tok, suffix_ids)])
        pos = ad.take_rows(self.transformer.params["pos_emb"], np.arange(total))
        if not self.passage_position_embeddings:
            keep = np.ones((total, d))
            keep[len(prefix_ids):len(prefix_ids) + n] = 0.0
            pos = ad.mul(pos, ad.tensor(keep))
        return RerankInput(
            x=ad.add(x, pos),
            passage_positions=list(range(len(prefix_ids), len(prefix_ids) + n)),
            eos_position=total - 1,
        )

    def contextualize(self, rerank_input: RerankInput) -> Tensor:
        """Causal forward pass; returns the final-layer hidden state per position."""
        return self.transformer.forward_embedded(rerank_input.x)

    def score(self, h_eos: Tensor, fused: Tensor) -> tuple[list[float], Tensor, list[int]]:
        """Cosine of the EOS aggregation state against each fused row of ``fused`` [n, d].

        The permutation is a stable descending argsort: score ties resolve to
        the earlier input position.
        """
        score_tensor = ad.cosine_rows(h_eos, fused)
        permutation = [int(i) for i in np.argsort(-score_tensor.data, kind="stable")]
        return score_tensor.data.tolist(), score_tensor, permutation

    def forward(self, instruction_ids, query_ids, embeddings: Tensor) -> RerankOutput:
        """Score the candidates whose encoder embeddings are the rows of ``embeddings`` [n, d]."""
        rin = self.assemble_input(instruction_ids, query_ids, embeddings)
        hidden = self.contextualize(rin)
        h_eos = ad.pick(hidden, rin.eos_position)
        fused = fuse_residual(ad.take_rows(hidden, rin.passage_positions), embeddings,
                              residual=self.residual_enabled,
                              hidden_state=self.hidden_state_enabled)
        scores, score_tensor, permutation = self.score(h_eos, fused)
        return RerankOutput(fused=fused, h_eos=h_eos, score_tensor=score_tensor,
                            scores=scores, permutation=permutation)


@dataclass
class ModelPair:
    """Encoder/reranker bundle sharing one vocabulary and hidden dimension."""

    encoder: EncoderModel
    reranker: RerankerModel
    vocab: Vocabulary

    def __post_init__(self):
        if self.encoder.config.d_model != self.reranker.config.d_model:
            raise ConfigError("encoder and reranker must share the hidden dimension")

    def instruction_ids(self) -> list[int]:
        return self.vocab.instruction_ids()

    def parameters(self) -> dict[str, Tensor]:
        """Both models' parameters under their checkpoint names, ``encoder.*``
        then ``reranker.*``; gradient norms and checksums follow this order."""
        return {f"{prefix}.{name}": t
                for prefix, model in (("encoder", self.encoder), ("reranker", self.reranker))
                for name, t in model.parameters().items()}


def build_model_pair(vocab: Vocabulary, seed: int, *,
                     d_model: int = 64, n_layers: int = 2, n_heads: int = 4,
                     encoder_max_len: int = 64, reranker_max_len: int = 256,
                     ffn_mult: int = 4,
                     normalize_embeddings: bool = False,
                     residual_enabled: bool = True,
                     hidden_state_enabled: bool = True,
                     passage_position_embeddings: bool = True) -> ModelPair:
    """Deterministic paired initialization: same seed, same weights, flags aside."""
    rng = np.random.default_rng(seed)
    enc_cfg = ModelConfig(vocab_size=len(vocab), d_model=d_model, n_layers=n_layers,
                          n_heads=n_heads, max_seq_len=encoder_max_len, ffn_mult=ffn_mult)
    rer_cfg = ModelConfig(vocab_size=len(vocab), d_model=d_model, n_layers=n_layers,
                          n_heads=n_heads, max_seq_len=reranker_max_len, ffn_mult=ffn_mult)
    encoder = EncoderModel(enc_cfg, rng, normalize_output=normalize_embeddings)
    reranker = RerankerModel(rer_cfg, rng, eos_id=vocab.eos_id,
                             residual_enabled=residual_enabled,
                             hidden_state_enabled=hidden_state_enabled,
                             passage_position_embeddings=passage_position_embeddings)
    return ModelPair(encoder=encoder, reranker=reranker, vocab=vocab)


@dataclass
class RerankResult:
    run: RunList
    output: RerankOutput
    embeddings: Tensor           # [n, d], row i is the encoder output of candidate i


def rerank_detailed(query_ids, documents, models: ModelPair, *,
                    query_id: str = "q0", tag: str = "embrank",
                    counter: TokenCounter | None = None,
                    count_candidates: bool = True) -> RerankResult:
    """Single-pass listwise rerank of one candidate list; ``.run`` is the ordered run.

    ``documents`` is a list of (doc_id, token_ids). The encoder compresses the
    passages into one [n, d] matrix in one ``batch_encode`` under ``no_grad``,
    and ``rerank_embeddings`` scores its rows, so the reranker sees exactly what
    a caller holding the same rows (a dense index's) would give it.
    """
    with ad.no_grad():
        embeddings = models.encoder.batch_encode([tokens for _, tokens in documents])
    return rerank_embeddings(query_ids, [doc_id for doc_id, _ in documents], embeddings,
                             models, query_id=query_id, tag=tag, counter=counter,
                             count_candidates=count_candidates)


def rerank_embeddings(query_ids, doc_ids: list[str], embeddings: Tensor,
                      models: ModelPair, *, query_id: str = "q0", tag: str = "embrank",
                      counter: TokenCounter | None = None,
                      count_candidates: bool = True) -> RerankResult:
    """Single-pass listwise rerank of candidates given as their encoder embeddings.

    Row i of ``embeddings`` [n, d] is the encoder output of ``doc_ids[i]``. One
    reranker forward pass over the assembled sequence scores them all, under
    ``no_grad`` (no tape is recorded). The counter records one processed passage
    token per injected embedding and never sees a generated token.
    """
    if not doc_ids:
        raise DegenerateInputError("rerank: documents must be nonempty")
    if counter is None:
        counter = TokenCounter()
    with ad.no_grad():
        output = models.reranker.forward(models.instruction_ids(), query_ids, embeddings)
    counter.count_processed(len(doc_ids))
    if count_candidates:
        counter.candidates += len(doc_ids)
    entries = [RunEntry(doc_id=doc_ids[i], score=output.scores[i])
               for i in output.permutation]
    run = RunList(query_id=query_id, entries=entries, tag=tag, counters=counter)
    return RerankResult(run=run, output=output, embeddings=embeddings)
