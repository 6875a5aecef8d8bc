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

from .data import Qrels, Query
from .errors import ConfigError, DataFormatError
from .reranker import ModelPair, build_model_pair, rerank_detailed
from .runs import RunList, TokenCounter
from .training import (LossConfig, OptimConfig, StageConfig, TrainReport,
                       run_dual_stage)


def ndcg_at_k(run: RunList, qrels: Qrels, k: int = 10) -> float | None:
    """nDCG@k for one query's run; None when the query has no relevant document.

    The ideal ranking is computed over every judged document of the query,
    whether or not it appears in the run.
    """
    if k < 1:
        raise ConfigError("ndcg_at_k: k must be >= 1")
    if not qrels.has_query(run.query_id):
        raise DataFormatError(f"ndcg_at_k: query {run.query_id!r} not present in qrels")
    grades = qrels.doc_grades(run.query_id)
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
    tokens again would surface here as a nonzero #Gen.
    """
    total = TokenCounter()
    per_query = []
    for run in runs:
        c = run.counters
        if c is None:
            raise ConfigError(f"run for {run.query_id!r} carries no counters")
        total.merge(c)
        per_query.append({
            "query_id": run.query_id,
            "processed_passage_tokens": c.processed_passage_tokens,
            "candidates": c.candidates,
            "generated_tokens": c.generated_tokens,
            "avg_tokens_per_passage": (c.processed_passage_tokens / c.candidates
                                       if c.candidates else 0.0),
        })
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
    """One evaluation query with its candidate list in first-stage order."""

    query: Query
    candidates: list[tuple[str, list[int]]]


def rerank_eval_set(models: ModelPair, items: list[EvalItem], *,
                    tag: str = "embrank") -> list[RunList]:
    runs = []
    for item in items:
        query_tokens = models.vocab.encode(item.query.text)
        runs.append(rerank_detailed(query_tokens, item.candidates, models,
                                    query_id=item.query.query_id, tag=tag).run)
    return runs


def evaluate_reranker(models: ModelPair, items: list[EvalItem], qrels: Qrels,
                      k: int = 10) -> MeanNdcg:
    return mean_ndcg(rerank_eval_set(models, items), qrels, k)


# ---------------------------------------------------------------------------
# input-ordering experiment
# ---------------------------------------------------------------------------

ORDERINGS = ("original", "inverse", "random")


@dataclass
class OrderingReport:
    ndcg: dict[str, float]
    evaluated: dict[str, int]
    seed: int
    k: int

    def rows(self) -> list[str]:
        return [f"{name:<9} nDCG@{self.k} = {self.ndcg[name]:.4f}" for name in ORDERINGS]


def ordering_experiment(models: ModelPair, items: list[EvalItem], qrels: Qrels,
                        seed: int, k: int = 10) -> OrderingReport:
    """Evaluate the same model and candidate sets under three input orders.

    The random permutation is drawn per query from a generator seeded with
    (seed, query index) so the report is reproducible.
    """
    ndcg: dict[str, float] = {}
    evaluated: dict[str, int] = {}
    for ordering in ORDERINGS:
        reordered_items = []
        for qi, item in enumerate(items):
            cands = list(item.candidates)
            if ordering == "inverse":
                cands = cands[::-1]
            elif ordering == "random":
                rng = np.random.default_rng([seed, qi])
                cands = [cands[i] for i in rng.permutation(len(cands))]
            reordered_items.append(EvalItem(query=item.query, candidates=cands))
        runs = rerank_eval_set(models, reordered_items, tag=f"embrank-{ordering}")
        for item, run in zip(reordered_items, runs):
            if sorted(run.doc_ids()) != sorted(d for d, _ in item.candidates):
                raise ConfigError(f"ordering {ordering}: run is not a permutation "
                                  f"of the candidates for {item.query.query_id}")
        result = mean_ndcg(runs, qrels, k)
        ndcg[ordering] = result.mean
        evaluated[ordering] = result.evaluated
    return OrderingReport(ndcg=ndcg, evaluated=evaluated, seed=seed, k=k)


# ---------------------------------------------------------------------------
# ablation harness
# ---------------------------------------------------------------------------

ABLATION_VARIANTS = ("full", "wo_stage1", "wo_stage2", "wo_hidden_state",
                     "wo_residual", "wo_encoder_sft", "wo_encoder_loss")
# The ``LossConfig`` flag each component-removal variant turns off.
_ABLATION_FLAGS = {"wo_hidden_state": "hidden_state_enabled", "wo_residual": "residual_enabled",
                   "wo_encoder_sft": "encoder_trainable", "wo_encoder_loss": "encoder_loss_enabled"}


@dataclass
class AblationRow:
    variant: str
    ndcg: float
    is_baseline: bool
    train_report: TrainReport


def ablation_suite(vocab, doc_tokens, stage1_samples, stage2_samples,
                   items: list[EvalItem], qrels: Qrels, *,
                   model_kwargs: dict, stage1: StageConfig, stage2: StageConfig,
                   optim: OptimConfig, base_loss: LossConfig, seed: int,
                   k: int = 10, variants=ABLATION_VARIANTS) -> list[AblationRow]:
    """Train one variant per removed component from identical initialization.

    Every variant uses the same seed, so the initial weights are identical and
    exactly one switch differs from the full model.
    """
    rows = []
    for variant in variants:
        if variant not in ABLATION_VARIANTS:
            raise ConfigError(f"unknown ablation variant {variant!r}")
        flag = _ABLATION_FLAGS.get(variant)
        loss_cfg = dataclasses.replace(base_loss, **({flag: False} if flag else {}))
        models = build_model_pair(vocab, seed, **model_kwargs)
        report = run_dual_stage(models, stage1_samples, stage2_samples, doc_tokens,
                                stage1, stage2, optim, loss_cfg, seed=seed,
                                skip_stage1=variant == "wo_stage1",
                                skip_stage2=variant == "wo_stage2")
        result = evaluate_reranker(models, items, qrels, k)
        rows.append(AblationRow(variant=variant, ndcg=result.mean,
                                is_baseline=(variant == "full"), train_report=report))
    return rows


def format_ablation_table(rows: list[AblationRow], k: int = 10) -> str:
    lines = [f"{'variant':<18} nDCG@{k}"]
    for row in rows:
        marker = "  (baseline)" if row.is_baseline else ""
        lines.append(f"{row.variant:<18} {row.ndcg:.4f}{marker}")
    return "\n".join(lines)
