"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

import embrank.autodiff as ad
from embrank.autodiff import backward
from embrank.checkpoint import parameter_checksum
from embrank.cli import main as cli_main
from embrank.data import Vocabulary
from embrank.evaluation import (EvalItem, efficiency_report, evaluate_reranker,
                                mean_ndcg, ndcg_at_k)
from embrank.gradcheck import finite_diff_check_many
from embrank.reranker import build_model_pair, rerank_detailed
from embrank.retrieval import InvertedIndex, rrf_fuse
from embrank.runs import RunEntry, RunList
from embrank.synthetic import generate_synthetic
from embrank.training import (Adam, LossConfig, OptimConfig, StageConfig,
                              _trainable_params, combined_loss, infonce_loss,
                              ranknet_loss, run_dual_stage, train_stage,
                              train_step)

from helpers import naive_bm25_scores, naive_ndcg, naive_rrf, op_gradcheck_cases


def tiny_pair(seed=7):
    texts = ["alpha beta gamma", "delta epsilon", "zeta eta theta iota",
             "kappa alpha", "beta delta zeta"]
    vocab = Vocabulary.build(texts)
    models = build_model_pair(vocab, seed=seed, d_model=8, n_layers=1, n_heads=2,
                              encoder_max_len=12, reranker_max_len=32, ffn_mult=2)
    return vocab, models, texts


def test_criterion_1_gradient_suite():
    """Every differentiable op (100 trials each) and the full combined-loss
    pipeline on a d=8, 1-layer pair pass central finite differences at 1e-5."""
    start = time.time()
    worst = 0.0
    for name, make in op_gradcheck_cases(ad):
        rng = np.random.default_rng(abs(hash(name)) % (2 ** 32))
        for _ in range(100):
            f, named = make(rng)
            for report in finite_diff_check_many(f, named, step=1e-5, tol=1e-5):
                worst = max(worst, report.max_rel_error)
                assert report.passed, f"{name}: {report}"

    vocab, models, texts = tiny_pair()
    doc_tokens = [vocab.encode(t) for t in texts[:3]]
    query_ids = vocab.encode("alpha zeta")

    def full_loss():
        embs = models.encoder.batch_encode(doc_tokens)
        q = models.encoder.batch_encode([query_ids])
        out = models.reranker.forward(vocab.instruction_ids(), query_ids, embs)
        inf = infonce_loss(q, [embs], 0.05)
        rk = ranknet_loss(out.score_tensor, [0, 1, 2], 0.05)
        return combined_loss(inf, rk, 0.1)

    named = {f"enc.{k}": t for k, t in models.encoder.parameters().items()}
    named.update({f"rer.{k}": t for k, t in models.reranker.parameters().items()})
    pipeline_worst = 0.0
    for report in finite_diff_check_many(full_loss, named, step=1e-5, tol=1e-5):
        pipeline_worst = max(pipeline_worst, report.max_rel_error)
        assert report.passed, str(report)

    elapsed = time.time() - start
    assert elapsed < 120.0, f"gradient suite took {elapsed:.0f}s (budget 120s)"
    print(f"\nACCEPTANCE 1 PASS: op suite worst rel err {worst:.2e}, "
          f"pipeline worst {pipeline_worst:.2e}, {elapsed:.0f}s")


def test_criterion_2_loss_closed_forms():
    """InfoNCE uniform = ln(1+|negatives|); RankNet equal scores = pairs*ln2;
    combined gradient is lambda-linear, all within 1e-10 at tau=0.05, lambda=0.1."""
    v = ad.tensor([[1.0, 0.0]])
    for n_neg in (1, 3, 7):
        loss = infonce_loss(v, [ad.tensor([[1.0, 0.0]] * (1 + n_neg))], tau1=0.05)
        assert abs(loss.item() - math.log(1.0 + n_neg)) < 1e-10

    for labels, pairs in (([0, 1, 2], 3), ([0, 1, 1, 2], 5), ([0, 1], 1)):
        loss = ranknet_loss([0.3] * len(labels), labels, tau2=0.05)
        assert abs(loss.item() - pairs * math.log(2.0)) < 1e-10

    vocab, models, texts = tiny_pair(seed=12)
    docs = [vocab.encode(t) for t in texts[:3]]
    query = vocab.encode("alpha beta")

    def parts():
        embs = models.encoder.batch_encode(docs)
        q = models.encoder.batch_encode([query])
        out = models.reranker.forward(vocab.instruction_ids(), query, embs)
        inf = infonce_loss(q, [embs], 0.05)
        rk = ranknet_loss(out.score_tensor, [0, 1, 2], 0.05)
        return inf, rk

    params = _trainable_params(models)

    def grads_of(build):
        for t in params.values():
            t.grad = None
        backward(build())
        return {k: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                for k, t in params.items()}

    g_inf = grads_of(lambda: parts()[0])
    g_rk = grads_of(lambda: parts()[1])
    g_all = grads_of(lambda: combined_loss(*parts(), 0.1))
    worst = max(float(np.max(np.abs(g_all[k] - (0.1 * g_inf[k] + g_rk[k]))))
                for k in params)
    assert worst < 1e-10
    print(f"\nACCEPTANCE 2 PASS: closed forms exact, grad linearity worst {worst:.2e}")


def test_criterion_3_metric_and_fusion_oracles():
    """nDCG vs brute force on 1000 instances at 1e-12; RRF K=60 exact vs naive
    oracle including 2/61; BM25 vs the hand-computed 3-doc example at 1e-9."""
    rng = np.random.default_rng(300)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        doc_ids = [f"d{i}" for i in range(n)]
        grades = {d: int(rng.integers(0, 4)) for d in doc_ids}
        from embrank.data import Qrels
        qrels = Qrels()
        for d, g in grades.items():
            qrels.set("q", d, g)
        order = [doc_ids[i] for i in rng.permutation(n)]
        run = RunList("q", [RunEntry(d, float(n - i)) for i, d in enumerate(order)])
        got = ndcg_at_k(run, qrels, 10)
        want = naive_ndcg(order, grades, 10)
        if want is None:
            assert got is None
        else:
            assert abs(got - want) < 1e-12
            checked += 1

    def run_of(doc_ids):
        return RunList("q", [RunEntry(d, float(len(doc_ids) - i))
                             for i, d in enumerate(doc_ids)])

    fused = rrf_fuse(run_of(["a", "b"]), run_of(["a", "c"]), 60)
    assert fused.entries[0].doc_id == "a"
    assert fused.entries[0].score == 2.0 / 61.0  # exact double
    docs = [f"d{i}" for i in range(20)]
    for _ in range(50):
        a = [docs[i] for i in rng.permutation(20)]
        b = [docs[i] for i in rng.permutation(20)]
        got = [(e.doc_id, e.score) for e in rrf_fuse(run_of(a), run_of(b), 60).entries]
        want = naive_rrf([a, b], 60)
        assert [d for d, _ in got] == [d for d, _ in want]
        assert all(gs == ws for (_, gs), (_, ws) in zip(got, want))

    texts = {"d1": "cat sat mat", "d2": "cat cat dog", "d3": "dog runs far away"}
    vocab = Vocabulary.build(texts.values())
    from embrank.data import Document
    corpus = [Document(k, v, vocab.encode(v)) for k, v in texts.items()]
    index = InvertedIndex.build(corpus, k1=1.2, b=0.75)
    run = index.search(vocab.encode("cat dog"), k=3)
    scores = {e.doc_id: e.score for e in run.entries}
    ref = naive_bm25_scores([d.tokens for d in corpus], vocab.encode("cat dog"),
                            k1=1.2, b=0.75)
    for doc, want in zip(texts, ref):
        assert abs(scores[doc] - want) < 1e-9
    print(f"\nACCEPTANCE 3 PASS: nDCG oracle x{checked} non-trivial instances, "
          f"RRF exact (2/61 included), BM25 hand example at 1e-9")


def test_criterion_4_token_accounting_structural(tmp_path):
    """Single-pass compressed rerank of 100 candidates reports exactly
    #Proc=100, Avg L_p=1.0, #Gen=0 from instrumented counters."""
    ds = generate_synthetic(seed=4, n_topics=4, n_docs=160, n_queries=8,
                            n_eval_queries=2)
    models = build_model_pair(ds.vocab, seed=4, d_model=32, n_layers=1, n_heads=2,
                              reranker_max_len=160)
    docs = [(d.doc_id, d.tokens) for d in ds.documents[:100]]
    query = ds.vocab.encode(ds.eval_queries[0].text)
    run = rerank_detailed(query, docs, models, query_id="q").run
    report = efficiency_report([run])
    assert report.processed_passage_tokens == 100
    assert report.avg_tokens_per_passage == 1.0
    assert report.generated_tokens == 0
    assert len(run) == 100 and len(set(run.doc_ids())) == 100
    from embrank.runs import write_trec_run
    write_trec_run(tmp_path / "run.trec", [run])
    assert len((tmp_path / "run.trec").read_text().splitlines()) == 100
    print("\nACCEPTANCE 4 PASS: counters (#Proc, Avg L_p, #Gen) = (100, 1.0, 0), "
          "measured; 100-line run emitted")


GAIN_SEED = 0


def test_criterion_5_synthetic_end_to_end_gain():
    """Default dual-stage training on the seeded synthetic set lifts reranked
    nDCG@10 at least 0.05 above the BM25 ordering, within the time budget."""
    start = time.time()
    ds = generate_synthetic(seed=GAIN_SEED)  # 500 docs, 50 train / 10 eval queries
    assert len(ds.documents) >= 500 and len(ds.train_queries) >= 50
    assert len(ds.eval_queries) == 10
    doc_tokens = {d.doc_id: d.tokens for d in ds.documents}
    index = InvertedIndex.build(ds.documents)
    items, bm25_runs = [], []
    for q in ds.eval_queries:
        run = index.search(ds.vocab.encode(q.text), 100, query_id=q.query_id)
        bm25_runs.append(run)
        items.append(EvalItem(query=q, candidates=[
            (e.doc_id, doc_tokens[e.doc_id]) for e in run.entries]))
    base = mean_ndcg(bm25_runs, ds.qrels, 10)

    models = build_model_pair(ds.vocab, GAIN_SEED)
    run_dual_stage(models, ds.stage1_samples, ds.stage2_samples, doc_tokens,
                   StageConfig("stage1", epochs=3, batch_size=8, lr=3e-4),
                   StageConfig("stage2", epochs=5, batch_size=8, lr=3e-4),
                   OptimConfig(), LossConfig(), seed=GAIN_SEED)
    trained = evaluate_reranker(models, items, ds.qrels, 10)
    elapsed = time.time() - start
    gain = trained.mean - base.mean
    assert gain >= 0.05, f"gain {gain:+.4f} below 0.05 (bm25 {base.mean:.4f}, trained {trained.mean:.4f})"
    assert elapsed < 900.0, f"train+eval took {elapsed:.0f}s (budget 900s)"
    print(f"\nACCEPTANCE 5 PASS: bm25 {base.mean:.4f} -> reranked {trained.mean:.4f} "
          f"(gain {gain:+.4f} >= 0.05), {elapsed:.0f}s")


def test_criterion_6_structural_ablations(small_dataset, small_doc_tokens):
    """Component-removal variants behave structurally as specified, bitwise
    where bitwise is claimed."""
    ds = small_dataset
    index = InvertedIndex.build(ds.documents)
    q = ds.eval_queries[0]
    qt = ds.vocab.encode(q.text)
    cands = [(e.doc_id, small_doc_tokens[e.doc_id])
             for e in index.search(qt, 12, query_id=q.query_id).entries]

    # W/O Hidden State: score_i == cosine(h_eos, e_i), recomputed externally
    m1 = build_model_pair(ds.vocab, seed=600, d_model=16, n_layers=1, n_heads=2,
                          reranker_max_len=96, hidden_state_enabled=False)
    r1 = rerank_detailed(qt, cands, m1, query_id=q.query_id)
    h = r1.output.h_eos.data
    for score, e in zip(r1.output.scores, r1.embeddings.data):
        ext = float(np.dot(h, e) /
                    (np.sqrt(np.dot(h, h)) * np.sqrt(np.dot(e, e))))
        assert score == ext

    # W/O Residual: score_i == cosine(h_eos, h_i^p), recomputed externally
    m2 = build_model_pair(ds.vocab, seed=600, d_model=16, n_layers=1, n_heads=2,
                          reranker_max_len=96, residual_enabled=False)
    r2 = rerank_detailed(qt, cands, m2, query_id=q.query_id)
    rin = m2.reranker.assemble_input(m2.instruction_ids(), qt, r2.embeddings)
    hidden = m2.reranker.contextualize(rin).data
    h2 = r2.output.h_eos.data
    for score, p in zip(r2.output.scores, rin.passage_positions):
        hp = hidden[p]
        ext = float(np.dot(h2, hp) /
                    (np.sqrt(np.dot(h2, h2)) * np.sqrt(np.dot(hp, hp))))
        assert score == ext

    # W/O Encoder SFT: a full stage leaves every encoder array bit-identical
    m3 = build_model_pair(ds.vocab, seed=601, d_model=16, n_layers=1, n_heads=2,
                          reranker_max_len=96)
    enc_before = {k: t.data.copy() for k, t in m3.encoder.parameters().items()}
    train_stage(m3, ds.stage2_samples[:6], small_doc_tokens,
                StageConfig("stage2", epochs=1, batch_size=3, lr=1e-3),
                OptimConfig(), LossConfig(encoder_trainable=False), seed=0)
    for k, t in m3.encoder.parameters().items():
        assert np.array_equal(t.data, enc_before[k])

    # W/O Encoder Loss: the trace shows the contrastive term weighted by zero
    m4 = build_model_pair(ds.vocab, seed=602, d_model=16, n_layers=1, n_heads=2,
                          reranker_max_len=96)
    cfg = LossConfig(encoder_loss_enabled=False)
    opt = Adam(_trainable_params(m4), lr=1e-3)
    rec = train_step(m4, ds.stage2_samples[:2], small_doc_tokens, opt, cfg, 0, "s")
    assert rec["lambda_effective"] == 0.0
    assert rec["combined"] == rec["ranknet"]
    print("\nACCEPTANCE 6 PASS: ablation scoring paths bitwise-verified, "
          "frozen encoder unchanged, zeroed contrastive multiplier traced")


def test_criterion_7_causality_and_permutation_invariants():
    """100 randomized trials each: earlier hidden states are bitwise invariant
    to later embeddings; all three input orderings yield valid permutations."""
    vocab, models, texts = tiny_pair(seed=77)
    rer = models.reranker
    inst = models.instruction_ids()
    d = rer.config.d_model
    rng = np.random.default_rng(700)
    query = vocab.encode("alpha beta")

    for _ in range(100):
        n = int(rng.integers(2, 6))
        base = ad.tensor(rng.normal(size=(n, d)))
        rin = rer.assemble_input(inst, query, base)
        h = rer.contextualize(rin)
        j = int(rng.integers(1, n))  # change embeddings from position j onward
        changed = base.data.copy()
        for t in range(j, n):
            changed[t] = rng.normal(size=d)
        h2 = rer.contextualize(rer.assemble_input(inst, query, ad.tensor(changed)))
        for p in rin.passage_positions[:j]:
            assert np.array_equal(h.data[p], h2.data[p])

    docs_pool = [(f"d{i}", vocab.encode(t)) for i, t in enumerate(texts)]
    for trial in range(100):
        n = int(rng.integers(2, len(docs_pool) + 1))
        picked = [docs_pool[i] for i in rng.permutation(len(docs_pool))[:n]]
        orderings = {
            "original": picked,
            "inverse": picked[::-1],
            "random": [picked[i] for i in np.random.default_rng([trial, 1]).permutation(n)],
        }
        for name, ordered in orderings.items():
            run = rerank_detailed(query, ordered, models, query_id="q").run
            assert sorted(run.doc_ids()) == sorted(d_ for d_, _ in picked), name
    print("\nACCEPTANCE 7 PASS: 100 causality trials bitwise, "
          "100 ordering trials valid permutations")


def test_criterion_8_cli_pipeline_reproducibility(tmp_path):
    """Two identical seeded CLI pipelines produce identical checkpoints, run
    files, and metric reports, byte for byte."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 5,
        "model": {"d_model": 16, "n_layers": 1, "n_heads": 2,
                  "encoder_max_len": 48, "reranker_max_len": 96},
        "data": {"n_topics": 3, "n_docs": 60, "n_queries": 9, "n_eval_queries": 3,
                 "stage1_candidates": 18, "stage1_per_query": 1},
        "stages": [{"epochs": 1, "batch_size": 3, "lr": 0.001},
                   {"epochs": 1, "batch_size": 3, "lr": 0.001}],
        "retrieval": {"top_k": 30},
    }))

    def pipeline(root):
        data, train, index, e2e, ev = (root / n for n in
                                       ("data", "train", "index", "e2e", "eval"))
        assert cli_main(["gen-data", "--config", str(config), "--out", str(data)]) == 0
        assert cli_main(["train", "--config", str(config), "--data", str(data),
                         "--out", str(train)]) == 0
        assert cli_main(["build-index", "--config", str(config),
                         "--corpus", str(data / "corpus.jsonl"),
                         "--out", str(index)]) == 0
        assert cli_main(["end-to-end", "--config", str(config),
                         "--checkpoint", str(train / "checkpoints/final.ckpt"),
                         "--corpus", str(data / "corpus.jsonl"),
                         "--queries", str(data / "queries_eval.tsv"),
                         "--bm25-index", str(index / "bm25.idx"),
                         "--qrels", str(data / "qrels.txt"),
                         "--mode", "bm25", "--out", str(e2e)]) == 0
        assert cli_main(["evaluate", "--run", str(e2e / "run.trec"),
                         "--qrels", str(data / "qrels.txt"), "--out", str(ev)]) == 0
        tracked = ["train/checkpoints/final.ckpt", "train/checkpoints/stage1.ckpt",
                   "train/metrics.jsonl", "e2e/run.trec", "e2e/first_stage.trec",
                   "e2e/report.txt", "eval/report.txt", "eval/metrics.jsonl",
                   "data/corpus.jsonl", "data/qrels.txt"]
        return {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
                for name in tracked}

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    assert first == second
    print("\nACCEPTANCE 8 PASS: two seeded pipelines byte-identical "
          f"across {len(first)} artifacts")
