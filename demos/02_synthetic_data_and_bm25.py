"""Synthetic corpus anatomy and first-stage lexical retrieval.

Generates the seeded topic corpus, shows why its decoy documents mislead
term-frequency scoring, and measures BM25 against a random ordering.
"""

import numpy as np

from embrank.evaluation import mean_ndcg
from embrank.retrieval import InvertedIndex
from embrank.runs import RunEntry, RunList
from embrank.synthetic import generate_synthetic

SEED = 0
ds = generate_synthetic(seed=SEED, n_topics=4, n_docs=200, n_queries=16, n_eval_queries=4)
print(f"corpus: {len(ds.documents)} docs, vocabulary {len(ds.vocab)} tokens")
print(f"queries: {len(ds.train_queries)} train, {len(ds.eval_queries)} eval")

kinds = {}
for doc_id, kind in ds.doc_kind.items():
    kinds[kind] = kinds.get(kind, 0) + 1
print(f"doc kinds: {kinds}")

q = ds.eval_queries[0]
print(f"\nexample query {q.query_id}: {q.text!r}")
grades = ds.qrels[q.query_id]  # judged docs only; an absent doc has grade 0
source = max(grades, key=grades.get)
doc_text = {d.doc_id: d.text for d in ds.documents}
print(f"its grade-3 source doc ({source}): {doc_text[source][:70]}...")

index = InvertedIndex.build(ds.documents)
run = index.search(ds.vocab.encode(q.text), 10, query_id=q.query_id)
print("\nBM25 top 10 (grade | kind | doc):")
for e in run.entries:
    grade = grades.get(e.doc_id, 0)
    print(f"  {e.score:7.3f}  grade {grade}  {ds.doc_kind[e.doc_id]:<8} {e.doc_id}")
print("note the grade-0 decoys: stuffed with query words, lexically strong, irrelevant")

bm25_runs, random_runs = [], []
for qi, query in enumerate(ds.eval_queries):
    r = index.search(ds.vocab.encode(query.text), 100, query_id=query.query_id)
    bm25_runs.append(r)
    rng = np.random.default_rng([SEED, qi])
    perm = rng.permutation(len(r.entries))
    random_runs.append(RunList(query_id=query.query_id,
                               entries=[RunEntry(r.entries[i].doc_id, float(len(perm) - j))
                                        for j, i in enumerate(perm)]))
bm25_score = mean_ndcg(bm25_runs, ds.qrels, 10)
random_score = mean_ndcg(random_runs, ds.qrels, 10)
print(f"\nnDCG@10 over {bm25_score.evaluated} eval queries:")
print(f"  BM25 order:   {bm25_score.mean:.4f}")
print(f"  random order: {random_score.mean:.4f}")
print("BM25 beats chance but leaves plenty of headroom for the trained reranker")
