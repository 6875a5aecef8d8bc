"""Mechanics of compressed listwise reranking, step by step.

One embedding per passage is injected into the reranker's input sequence;
causal attention contextualizes it; the residual-fused representation is
scored against the end-of-sequence state by cosine. No token is generated.
"""

import numpy as np

import embrank.autodiff as ad
from embrank.reranker import build_model_pair, fuse_residual, rerank_detailed
from embrank.synthetic import generate_synthetic

ds = generate_synthetic(seed=3, n_topics=3, n_docs=60, n_queries=6, n_eval_queries=2)
models = build_model_pair(ds.vocab, seed=3, d_model=32, n_layers=2, n_heads=4,
                          reranker_max_len=128)
enc, rer = models.encoder, models.reranker

query = ds.eval_queries[0]
query_ids = ds.vocab.encode(query.text)
docs = [(d.doc_id, d.tokens) for d in ds.documents[:8]]
print(f"query {query.query_id}: {query.text!r}; {len(docs)} candidates")

print("\n== step 1: each passage compresses to one embedding ==")
embeddings = enc.batch_encode([tokens for _, tokens in docs])  # [n, d], row i is passage i
print(f"{embeddings.shape[0]} embeddings, each shape {embeddings.shape[1:]} "
      f"(one token each, instead of {sum(len(t) for _, t in docs)} text tokens)")

print("\n== step 2: assembly [instruction; query; e_1..e_n; query anchor; EOS] ==")
rin = rer.assemble_input(models.instruction_ids(), query_ids, embeddings)
print(f"sequence length {rin.x.shape[0]}, passage slots {rin.passage_positions[0]}.."
      f"{rin.passage_positions[-1]}, EOS at {rin.eos_position}")

print("\n== step 3: causal contextualization ==")
hidden = rer.contextualize(rin)
h_first = hidden.data[rin.passage_positions[0]].copy()
changed = embeddings.data.copy()
changed[-1] = np.random.default_rng(9).normal(size=32)
hidden2 = rer.contextualize(rer.assemble_input(models.instruction_ids(), query_ids,
                                               ad.tensor(changed)))
same = np.array_equal(h_first, hidden2.data[rin.passage_positions[0]])
print(f"changing the LAST passage leaves the FIRST passage's hidden state "
      f"bit-identical: {same} (causal mask)")

print("\n== step 4: residual fusion r_i = h_i + e_i ==")
h0 = ad.pick(hidden, rin.passage_positions[0])
e0 = ad.pick(embeddings, 0)
r0 = fuse_residual(h0, e0)
print(f"|h_0| = {np.linalg.norm(h0.data):.3f}, |e_0| = {np.linalg.norm(e0.data):.3f}, "
      f"|r_0| = {np.linalg.norm(r0.data):.3f}")

print("\n== step 5: cosine scoring against the EOS aggregation state ==")
result = rerank_detailed(query_ids, docs, models, query_id=query.query_id)
for entry in result.run.entries[:5]:
    print(f"  {entry.score:+.4f}  {entry.doc_id}")
c = result.run.counters
print(f"\ntoken accounting: processed {c.processed_passage_tokens} passage tokens "
      f"({c.processed_passage_tokens / c.candidates:.1f} per candidate), "
      f"generated {c.generated_tokens}")
print("exactly two forward passes, zero generated tokens")
