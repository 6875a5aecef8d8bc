"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.
"""

import hashlib
import json
import math
import time
import zlib

import numpy as np

import embrank.autodiff as ad
from embrank.autodiff import backward
from embrank.cli import main as cli_main
from embrank.data import Vocabulary
from embrank.evaluation import (EvalItem, efficiency_report, mean_ndcg, ndcg_at_k,
                                rerank_eval_set)
from embrank.gradcheck import finite_diff_check_many
from embrank.reranker import build_model_pair
from embrank.retrieval import InvertedIndex, rrf_fuse
from embrank.runs import RunEntry, RunList
from embrank.synthetic import generate_synthetic
from embrank.training import (Adam, LossConfig, OptimConfig, StageConfig, TrainReport,
                              _trainable_params, combined_loss, infonce_loss,
                              ranknet_loss, train_stages, train_step)

from helpers import (naive_bm25_scores, naive_ndcg, naive_rrf, op_gradcheck_cases,
                     rerank_pairs)


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
        rng = np.random.default_rng(zlib.crc32(name.encode()))
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
        out = models.reranker.forward(query_ids, embs)
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
        out = models.reranker.forward(query, embs)
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
        qrels = {"q": grades}
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
    run = rerank_pairs(query, docs, models, query_id="q").run
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
        items.append(EvalItem(query=q, doc_ids=[e.doc_id for e in run.entries]))
    base = mean_ndcg(bm25_runs, ds.qrels, 10)

    models = build_model_pair(ds.vocab, GAIN_SEED)
    plan = [(StageConfig("stage1", epochs=3, batch_size=8, lr=3e-4), ds.stage1_samples),
            (StageConfig("stage2", epochs=5, batch_size=8, lr=3e-4), ds.stage2_samples)]
    for _ in train_stages(models, plan, doc_tokens, OptimConfig(), LossConfig(), GAIN_SEED,
                          TrainReport()):
        pass
    trained = mean_ndcg(rerank_eval_set(models, items, doc_tokens), ds.qrels, 10)
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
                          reranker_max_len=96)
    m1.reranker.hidden_state_enabled = False
    r1 = rerank_pairs(qt, cands, m1, query_id=q.query_id)
    h = r1.output.h_eos.data
    for score, e in zip(r1.output.score_tensor.data, r1.embeddings.data):
        ext = float(np.dot(h, e) /
                    (np.sqrt(np.dot(h, h)) * np.sqrt(np.dot(e, e))))
        assert score == ext

    # W/O Residual: score_i == cosine(h_eos, h_i^p), recomputed externally
    m2 = build_model_pair(ds.vocab, seed=600, d_model=16, n_layers=1, n_heads=2,
                          reranker_max_len=96)
    m2.reranker.residual_enabled = False
    r2 = rerank_pairs(qt, cands, m2, query_id=q.query_id)
    rin = m2.reranker.assemble_input(qt, r2.embeddings)
    hidden = m2.reranker.contextualize(rin).data
    h2 = r2.output.h_eos.data
    for score, p in zip(r2.output.score_tensor.data, rin.passage_positions):
        hp = hidden[p]
        ext = float(np.dot(h2, hp) /
                    (np.sqrt(np.dot(h2, h2)) * np.sqrt(np.dot(hp, hp))))
        assert score == ext

    # W/O Encoder SFT: a full stage leaves every encoder array bit-identical
    m3 = build_model_pair(ds.vocab, seed=601, d_model=16, n_layers=1, n_heads=2,
                          reranker_max_len=96)
    enc_before = {k: t.data.copy() for k, t in m3.encoder.parameters().items()}
    for _ in train_stages(m3, [(StageConfig("stage2", epochs=1, batch_size=3, lr=1e-3),
                                ds.stage2_samples[:6])], small_doc_tokens,
                          OptimConfig(), LossConfig(encoder_trainable=False), 0, TrainReport()):
        pass
    for k, t in m3.encoder.parameters().items():
        assert np.array_equal(t.data, enc_before[k])

    # W/O Encoder Loss: the trace shows the contrastive term weighted by zero
    m4 = build_model_pair(ds.vocab, seed=602, d_model=16, n_layers=1, n_heads=2,
                          reranker_max_len=96)
    cfg = LossConfig(lam=0.0)
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
    d = rer.config.d_model
    rng = np.random.default_rng(700)
    query = vocab.encode("alpha beta")

    for _ in range(100):
        n = int(rng.integers(2, 6))
        base = ad.tensor(rng.normal(size=(n, d)))
        rin = rer.assemble_input(query, base)
        h = rer.contextualize(rin)
        j = int(rng.integers(1, n))  # change embeddings from position j onward
        changed = base.data.copy()
        for t in range(j, n):
            changed[t] = rng.normal(size=d)
        h2 = rer.contextualize(rer.assemble_input(query, ad.tensor(changed)))
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
            run = rerank_pairs(query, ordered, models, query_id="q").run
            assert sorted(run.doc_ids()) == sorted(d_ for d_, _ in picked), name
    print("\nACCEPTANCE 7 PASS: 100 causality trials bitwise, "
          "100 ordering trials valid permutations")


# sha256 of every artifact of the seeded pipeline below, except the config
# echoes (they record the output paths). Pinned when the pipeline was made
# to build the dense index and rerank from it; a change that moves one
# re-pins it and says which artifact moved and why.
PIPELINE_SHA256 = {
    "data/corpus.jsonl": "7d27c294c185225304607c74850734882675fc7a55133882ac203c4965c548c0",
    "data/qrels.txt": "fe66909c11fb5f69cbbc3419b88b5dbfd35c8f8440ec16a62e80a1f4d457a0a9",
    "data/queries_eval.tsv": "71846169e2c8d648be744f1db6a828c841e3cb67a83fa502144118b91512bf8d",
    "data/queries_train.tsv": "ef4692f9d2b5069795008df99bf0df3a00449a4f0ed642fcbb7265313747771f",
    "data/stage1.jsonl": "ecd2bf1f267509e9492e735bbf3128c43aa77fdf96905797f6661512f7a328fa",
    "data/stage2.jsonl": "8d066223c38f8d67d792ceaf86abca76faf1a4469b46f8b53dc9c4c2af12c0db",
    "train/checkpoints/stage1.ckpt": "575a8e2192eefd793783a1f6b11f676be0dfcfb3453be43d64ccfcbfc53b197e",
    "train/checkpoints/stage2.ckpt": "9d89affca91bdde328bded05e9fa11cfd4a2949cb7d03e3e8cde04b0eb859d76",
    "train/checkpoints/final.ckpt": "d242ec9f2c94a8e080416a1d7d0a5ccb90dd8192b9762bc4caa4d23cadd6d247",
    "train/metrics.jsonl": "5d7395d924ed4ab59139a5518ab17f81809b3453c209587501c5f4324527b13b",
    "index/bm25.idx": "3ae05e4d3343b488e43cd3378424c7516de71de08898c967222230a142cecbac",
    "index/dense.idx": "936bce6e072eaadb24105b5168c1dbce327f051e003a1d6788033389de96ba12",
    "e2e/first_stage.trec": "abae6752e91d8cf627bf11760c6d1b65e0dfdfd002aca3a9545db451072f7f85",
    "e2e/run.trec": "d328281d68d84906a6d6a2d73c77ee2db70c2e89bd5987663427496eb83b7ef2",
    "e2e/report.txt": "8e3274359ddc3b18d15ed66b61447345e64a3d1bcf163d6c67c89fcdbe453ddf",
    "e2e/trace.jsonl": "75b5cbe6998be86f53db82be40c4565bb1ff2abc7e5173b917ca0cb98a84dd5f",
    "eval/report.txt": "5a949616c714c3c12990e28bb7dd54fc871ec05228b329578d9fa7a2bc57773c",
    "eval/metrics.jsonl": "a2e6ace870a3eb7d67852fd9993bf46f328ad57bf42aa5c241ba09a09051ce5e",
}


def test_criterion_8_cli_pipeline_reproducibility(tmp_path):
    """A seeded CLI pipeline (gen-data, train, build-index with the dense
    index, end-to-end in rrf mode from the stored rows, evaluate) writes
    checkpoints, indexes, run files and metric reports whose bytes equal the
    pinned digests, and no other file but the config echoes."""
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
    root = tmp_path / "run"
    data, train, index, e2e, ev = (root / n for n in ("data", "train", "index", "e2e", "eval"))
    final = str(train / "checkpoints/final.ckpt")
    assert cli_main(["gen-data", "--config", str(config), "--out", str(data)]) == 0
    assert cli_main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(train)]) == 0
    assert cli_main(["build-index", "--config", str(config),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--checkpoint", final, "--out", str(index)]) == 0
    assert cli_main(["end-to-end", "--config", str(config), "--checkpoint", final,
                     "--corpus", str(data / "corpus.jsonl"),
                     "--queries", str(data / "queries_eval.tsv"),
                     "--bm25-index", str(index / "bm25.idx"),
                     "--dense-index", str(index / "dense.idx"),
                     "--qrels", str(data / "qrels.txt"),
                     "--mode", "rrf", "--out", str(e2e)]) == 0
    assert cli_main(["evaluate", "--run", str(e2e / "run.trec"),
                     "--qrels", str(data / "qrels.txt"), "--out", str(ev)]) == 0
    written = {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in root.rglob("*") if p.is_file() and p.name != "config.json"}
    assert written == PIPELINE_SHA256
    print("\nACCEPTANCE 8 PASS: a seeded pipeline's "
          f"{len(written)} artifacts equal their pinned digests")
