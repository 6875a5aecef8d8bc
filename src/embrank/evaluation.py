"""Ranking metrics, efficiency accounting, and the experiment harnesses.

nDCG uses the exponential gain 2^grade - 1 with a log2(rank + 1) discount.
Queries whose judgments contain no relevant document are excluded from the
mean and counted separately, matching common trec-eval behavior.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import Qrels, Query
from .errors import ConfigError, DataFormatError
from .reranker import ModelPair, build_model_pair, rerank_embeddings
from .retrieval import candidate_embeddings
from .runs import RunList, TokenCounter
from .training import LossConfig, OptimConfig, TrainReport, train_stages


def ndcg_at_k(run: RunList, qrels: Qrels, k: int = 10) -> float | None:
    """nDCG@k for one query's run; None when the query has no relevant document.

    The ideal ranking is computed over every judged document of the query,
    whether or not it appears in the run.
    """
    if k < 1:
        raise ConfigError("ndcg_at_k: k must be >= 1")
    if run.query_id not in qrels:
        raise DataFormatError(f"ndcg_at_k: query {run.query_id!r} not present in qrels")
    grades = qrels[run.query_id]
    ideal = sorted(grades.values(), reverse=True)[:k]
    idcg = sum((2.0 ** g - 1.0) / math.log2(i + 2) for i, g in enumerate(ideal))
    if idcg == 0.0:
        return None
    dcg = 0.0
    for i, entry in enumerate(run.entries[:k]):
        grade = grades.get(entry.doc_id, 0)
        dcg += (2.0 ** grade - 1.0) / math.log2(i + 2)
    return dcg / idcg


@dataclass
class MeanNdcg:
    mean: float
    evaluated: int
    excluded: int


def mean_ndcg(runs: list[RunList], qrels: Qrels, k: int = 10) -> MeanNdcg:
    values = []
    excluded = 0
    for run in runs:
        value = ndcg_at_k(run, qrels, k)
        if value is None:
            excluded += 1
        else:
            values.append(value)
    mean = sum(values) / len(values) if values else 0.0
    return MeanNdcg(mean=mean, evaluated=len(values), excluded=excluded)


# ---------------------------------------------------------------------------
# efficiency accounting
# ---------------------------------------------------------------------------

@dataclass
class EfficiencyReport:
    processed_passage_tokens: int
    avg_tokens_per_passage: float
    generated_tokens: int
    per_query: list[dict] = field(default_factory=list)

    def table_row(self) -> str:
        return (f"#Proc={self.processed_passage_tokens} "
                f"AvgLp={self.avg_tokens_per_passage:.1f} "
                f"#Gen={self.generated_tokens}")


def efficiency_report(runs: list[RunList]) -> EfficiencyReport:
    """Aggregate the instrumented counters attached to reranked runs.

    The numbers come from the counters the inference path incremented, never
    from configuration arithmetic, so a code path that started generating
    tokens again would surface here as a nonzero #Gen. Each run's counters
    are one ``per_query`` record, the line the CLI writes to ``trace.jsonl``.
    """
    total = TokenCounter()
    per_query = []
    for run in runs:
        c = run.counters
        if c is None:
            raise ConfigError(f"run for {run.query_id!r} carries no counters")
        total.merge(c)
        per_query.append({"query_id": run.query_id, **dataclasses.asdict(c)})
    avg = (total.processed_passage_tokens / total.candidates) if total.candidates else 0.0
    return EfficiencyReport(processed_passage_tokens=total.processed_passage_tokens,
                            avg_tokens_per_passage=avg,
                            generated_tokens=total.generated_tokens,
                            per_query=per_query)


# ---------------------------------------------------------------------------
# reranker evaluation over fixed candidate lists
# ---------------------------------------------------------------------------

@dataclass
class EvalItem:
    """One evaluation query with its candidate doc ids in first-stage order."""

    query: Query
    doc_ids: list[str]


def candidate_rows(models: ModelPair, items: list[EvalItem], doc_tokens) -> list[ad.Tensor]:
    """Each item's [n_i, d] candidate rows, cut from one ``candidate_embeddings``
    call over every item's candidates, so each distinct passage is encoded once."""
    embeddings = candidate_embeddings(models, [d for item in items for d in item.doc_ids],
                                      doc_tokens)
    bounds = np.cumsum([0] + [len(item.doc_ids) for item in items]).tolist()
    return [ad.take_rows(embeddings, range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]


def rerank_eval_set(models: ModelPair, items: list[EvalItem], doc_tokens, *,
                    tag: str = "embrank") -> list[RunList]:
    """Single-pass rerank of every item's candidate list by ``rerank_embeddings``,
    from its ``candidate_rows`` (one encode for the whole set)."""
    return [rerank_embeddings(models.vocab.encode(item.query.text), item.doc_ids, rows, models,
                              query_id=item.query.query_id, tag=tag).run
            for item, rows in zip(items, candidate_rows(models, items, doc_tokens))]


# ---------------------------------------------------------------------------
# input-ordering experiment
# ---------------------------------------------------------------------------

ORDERINGS = ("original", "inverse", "random")


@dataclass
class OrderingReport:
    ndcg: dict[str, float]
    seed: int
    k: int

    def rows(self) -> list[str]:
        return [f"{name:<9} nDCG@{self.k} = {self.ndcg[name]:.4f}" for name in ORDERINGS]


def ordering_experiment(models: ModelPair, items: list[EvalItem], doc_tokens, qrels: Qrels,
                        seed: int, k: int = 10) -> OrderingReport:
    """Evaluate the same model and candidate sets under three input orders.

    The random permutation is drawn per query from a generator seeded with
    (seed, query index) so the report is reproducible. The candidates are
    encoded once (``candidate_rows``), and each ordering permutes a list's
    rows with the list.
    """
    ndcg: dict[str, float] = {}
    base_rows = candidate_rows(models, items, doc_tokens)
    for ordering in ORDERINGS:
        runs = []
        for qi, (item, rows) in enumerate(zip(items, base_rows)):
            order = np.arange(len(item.doc_ids))
            if ordering == "inverse":
                order = order[::-1]
            elif ordering == "random":
                order = np.random.default_rng([seed, qi]).permutation(len(order))
            runs.append(rerank_embeddings(
                models.vocab.encode(item.query.text), [item.doc_ids[i] for i in order],
                ad.take_rows(rows, order), models, query_id=item.query.query_id,
                tag=f"embrank-{ordering}").run)
        ndcg[ordering] = mean_ndcg(runs, qrels, k).mean
    return OrderingReport(ndcg=ndcg, seed=seed, k=k)


# ---------------------------------------------------------------------------
# ablation harness
# ---------------------------------------------------------------------------

ABLATION_VARIANTS = ("full", "wo_stage1", "wo_stage2", "wo_hidden_state",
                     "wo_residual", "wo_encoder_sft", "wo_encoder_loss")
# The ``LossConfig`` change of each component-removal variant.
_ABLATION_CHANGES = {
    "wo_hidden_state": {"hidden_state_enabled": False}, "wo_residual": {"residual_enabled": False},
    "wo_encoder_sft": {"encoder_trainable": False}, "wo_encoder_loss": {"lam": 0.0}}


@dataclass
class AblationRow:
    variant: str
    ndcg: float
    is_baseline: bool
    train_report: TrainReport


def ablation_suite(vocab, doc_tokens, plan, items: list[EvalItem], qrels: Qrels, *,
                   model_kwargs: dict, optim: OptimConfig, base_loss: LossConfig, seed: int,
                   k: int = 10, variants=ABLATION_VARIANTS) -> list[AblationRow]:
    """Train one variant per removed component from identical initialization.

    ``plan`` is the (StageConfig, samples) list ``train_stages`` takes. Every
    variant uses the same seed, so the initial weights are identical and
    exactly one switch differs from the full model. ``wo_stage{n}`` gives plan
    entry n 0 epochs, so every other stage keeps its seed.
    """
    rows = []
    for variant in variants:
        if variant not in ABLATION_VARIANTS:
            raise ConfigError(f"unknown ablation variant {variant!r}")
        loss_cfg = dataclasses.replace(base_loss, **_ABLATION_CHANGES.get(variant, {}))
        stages = [(dataclasses.replace(stage, epochs=0) if variant == f"wo_stage{n}" else stage,
                   samples) for n, (stage, samples) in enumerate(plan, start=1)]
        models = build_model_pair(vocab, seed, **model_kwargs)
        report = TrainReport()
        for _ in train_stages(models, stages, doc_tokens, optim, loss_cfg, seed, report):
            pass
        result = mean_ndcg(rerank_eval_set(models, items, doc_tokens), qrels, k)
        rows.append(AblationRow(variant=variant, ndcg=result.mean,
                                is_baseline=(variant == "full"), train_report=report))
    return rows


def format_ablation_table(rows: list[AblationRow], k: int = 10) -> str:
    lines = [f"{'variant':<18} nDCG@{k}"]
    for row in rows:
        marker = "  (baseline)" if row.is_baseline else ""
        lines.append(f"{row.variant:<18} {row.ndcg:.4f}{marker}")
    return "\n".join(lines)
