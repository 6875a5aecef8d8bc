"""Unified retrieval: BM25, the trained encoder as a dense retriever, and
reciprocal rank fusion of both, each followed by the same reranker.

Also demonstrates the sliding-window protocol and its token accounting next
to the single-pass default.
"""

import time

from embrank.evaluation import efficiency_report, mean_ndcg
from embrank.retrieval import (DenseIndex, InvertedIndex, candidate_embeddings, end_to_end,
                               sliding_window_rerank)
from embrank.reranker import build_model_pair, rerank_embeddings
from embrank.synthetic import generate_synthetic
from embrank.training import (LossConfig, OptimConfig, StageConfig, TrainReport,
                              train_stages)

SEED = 1
ds = generate_synthetic(seed=SEED)  # 500 docs, 50 train + 10 eval queries
doc_tokens = {d.doc_id: d.tokens for d in ds.documents}

models = build_model_pair(ds.vocab, SEED)
print("joint training (the contrastive term keeps the encoder usable as a retriever)...")
t0 = time.time()
plan = [(StageConfig("stage1", epochs=3, batch_size=8, lr=3e-4), ds.stage1_samples),
        (StageConfig("stage2", epochs=5, batch_size=8, lr=3e-4), ds.stage2_samples)]
for _ in train_stages(models, plan, doc_tokens, OptimConfig(), LossConfig(), SEED, TrainReport()):
    pass
print(f"trained in {time.time() - t0:.0f}s")

bm25 = InvertedIndex.build(ds.documents)
dense = DenseIndex.build(ds.documents, models.encoder)
print(f"indexes: BM25 over {len(bm25.doc_ids)} docs, dense matrix {dense.matrix.shape}")

print("\n== retrieval mode comparison (first stage -> reranked, nDCG@10) ==")
for mode in ("bm25", "dense", "rrf"):
    first_runs, reranked_runs = [], []
    for q in ds.eval_queries:
        result = end_to_end(q.text, models, doc_tokens, bm25, dense, mode, k=50,
                            query_id=q.query_id)
        first_runs.append(result.first_stage)
        reranked_runs.append(result.reranked)
    first = mean_ndcg(first_runs, ds.qrels, 10)
    reranked = mean_ndcg(reranked_runs, ds.qrels, 10)
    print(f"  {mode:<5}  first stage {first.mean:.4f}  ->  reranked {reranked.mean:.4f}")
print("the jointly trained encoder doubles as a dense retriever (that is what the\n"
      "contrastive term preserves), and fusing it with BM25 gives the strongest\n"
      "candidate sets")

print("\n== sliding window vs single pass on one query ==")
q = ds.eval_queries[0]
qt = ds.vocab.encode(q.text)
candidates = bm25.search(qt, 100, query_id=q.query_id).doc_ids()
rows = candidate_embeddings(models, candidates, doc_tokens, dense)  # the index's stored rows
single = rerank_embeddings(qt, candidates, rows, models, query_id=q.query_id).run
windowed = sliding_window_rerank(qt, candidates, rows, models, window=20, stride=10,
                                 query_id=q.query_id)
print(f"  single pass : {efficiency_report([single]).table_row()}")
print(f"  window 20/10: {efficiency_report([windowed]).table_row()}")
print("the sliding protocol reprocesses overlap; the single pass is the intended "
      "deployment mode, and neither path ever generates a token")
