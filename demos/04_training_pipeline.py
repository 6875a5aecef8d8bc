"""Dual-stage joint training on the synthetic corpus, with evaluation.

Stage 1 aligns the encoder's compressed embeddings with the reranker over
coarse candidate lists; stage 2 refines on 1-positive/15-negative samples.
Both stages optimize lambda * contrastive + pairwise ranking. Afterwards the
input-ordering sensitivity experiment runs on the trained model.

Takes about 10 s on one CPU core.
"""

import time

from embrank.evaluation import EvalItem, mean_ndcg, ordering_experiment, rerank_eval_set
from embrank.retrieval import InvertedIndex
from embrank.reranker import build_model_pair
from embrank.synthetic import generate_synthetic
from embrank.training import (LossConfig, OptimConfig, StageConfig, TrainReport,
                              train_stages)

SEED = 0
ds = generate_synthetic(seed=SEED)  # 500 docs, 50 train + 10 eval queries
doc_tokens = {d.doc_id: d.tokens for d in ds.documents}
index = InvertedIndex.build(ds.documents)

items, bm25_runs = [], []
for q in ds.eval_queries:
    run = index.search(ds.vocab.encode(q.text), 100, query_id=q.query_id)
    bm25_runs.append(run)
    items.append(EvalItem(query=q, doc_ids=[e.doc_id for e in run.entries]))
baseline = mean_ndcg(bm25_runs, ds.qrels, 10)
print(f"BM25 ordering nDCG@10: {baseline.mean:.4f}")

models = build_model_pair(ds.vocab, SEED)
before = mean_ndcg(rerank_eval_set(models, items, doc_tokens), ds.qrels, 10)
print(f"untrained reranker nDCG@10: {before.mean:.4f}")

t0 = time.time()
plan = [(StageConfig("stage1", epochs=3, batch_size=8, lr=3e-4), ds.stage1_samples),
        (StageConfig("stage2", epochs=5, batch_size=8, lr=3e-4), ds.stage2_samples)]
report = TrainReport()
for stage in train_stages(models, plan, doc_tokens, OptimConfig(), LossConfig(), SEED, report):
    print(f"  {stage.name}: {report.stages[-1]['steps']} steps")
print(f"\ntrained {len(report.records)} steps in {time.time() - t0:.0f}s")
for i in (0, len(report.records) // 2, -1):
    r = report.records[i]
    print(f"  step {r['step']:>3} [{r['stage']}]  contrastive {r['infonce']:7.3f}  "
          f"pairwise {r['ranknet']:8.3f}  combined {r['combined']:8.3f}")

after = mean_ndcg(rerank_eval_set(models, items, doc_tokens), ds.qrels, 10)
print(f"\ntrained reranker nDCG@10: {after.mean:.4f} "
      f"(gain over BM25 {after.mean - baseline.mean:+.4f})")

print("\n== input-ordering sensitivity (trained model) ==")
ordering = ordering_experiment(models, items, doc_tokens, ds.qrels, seed=SEED)
for row in ordering.rows():
    print(f"  {row}")
print("causal attention makes listwise scores order-dependent; the outputs stay "
      "valid permutations either way")
