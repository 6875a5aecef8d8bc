"""Encoder, rerank and first training-step outputs pinned to the bit at two seeds.

On a small synthetic set with the default model size, these are the sha256
digests of a ``batch_encode`` matrix and of the ``query doc_id score.hex()
tag`` lines of every rerank path: ``end_to_end`` in each retrieval mode, from
a dense index's stored rows and by encoding (an index recording no encoder
fingerprint); a sliding-window run (window 8, stride 4); ``rerank_eval_set``;
and the three runs of ``ordering_experiment``. The first ``train_step``'s
losses and gradient norm are pinned in hex, and the gradients it leaves
(clipped, every parameter's in ``ModelPair.parameters()`` order) by one
sha256. Hex, because TREC text rounds a score to 6 decimals. A change that
must keep every bit, such as one embedding source for every path or a
faster backward, moves none of them.
"""

import hashlib
from types import SimpleNamespace

import pytest

import embrank.autodiff as ad
import embrank.evaluation as evaluation
from embrank.evaluation import EvalItem, ordering_experiment, rerank_eval_set
from embrank.reranker import build_model_pair
from embrank.retrieval import (RETRIEVAL_MODES, DenseIndex, InvertedIndex, candidate_embeddings,
                               end_to_end, sliding_window_rerank)
from embrank.synthetic import generate_synthetic
from embrank.training import Adam, LossConfig, OptimConfig, train_step

K = 30
STEP_KEYS = ("infonce", "ranknet", "combined", "grad_norm")

DIGESTS = {
    0: {
        "batch_encode": "bfc4b57586ca77dc40571a17db49c0873539bc557aad3d26a50987c30e7bce45",
        "e2e_bm25": "5e2ee4f8525303a1f8d81110f08f06a149fef8fb32881b1cae94351d996b3541",
        "e2e_dense": "2d347e646876ab8a1694bfc8c24c8880d9f8f000bdac067f6622be416202bf30",
        "e2e_rrf": "696adfeb508acd3857eb61c290e194b93d0a60058b6c2a5d88bf327352d5ff1a",
        "sliding": "fba0d286d4b2bc1fc431e4a022653d5df142365be15b3a414f4670c937c4c6e8",
        "eval_set": "4af9b2f9c2caec63b617723259c4e1fa088ddaf8f146b4a1e8d379a2df4fbd14",
        "order_original": "b30db81f59cb968f3d07070af5be64f22dadd02c272fb3426ab16afa15e8ba44",
        "order_inverse": "4c5caec26c1493e5410ebbcc84df26662ee8708ff52469c23a56c01c422f9301",
        "order_random": "857d04bcbce9f634bac63909dd737d5f534ca4942158568a940887e4bb61a87c",
        "order_ndcg": ["0x1.06b522f02199cp-1", "0x1.074fd9671f16fp-1", "0x1.09c2e4eb1be0dp-1"],
        "train_step": ["0x1.863a776dc334dp+1", "0x1.8c3e9f2cb037ep+7",
                       "0x1.8cdab68fa8ec6p+7", "0x1.2b6c2b997ecb2p+12"],
        "train_step_grads": "2dabbc257e54976c78c0af1c53ec23ee31df6ef8c66b23b49a049c6daf9c7241",
    },
    104729: {
        "batch_encode": "d06913ad09cdfd1594ae7b08597eb84c8295c9e6ba34b7bfc4096fe4eba64cfd",
        "e2e_bm25": "37a2854c16ea09b183508239786fb7b7d60455421c991d6d88772a525d33b017",
        "e2e_dense": "c18b8773d149e26dd43ca57e696966f571638c9b2bfd080689e6235877e5cef6",
        "e2e_rrf": "94a40000025af60863f95b99b63561be015ac07516963cb59a45dd39de64c3f9",
        "sliding": "2630fd3f2fa84f0927c167253db7516a584208a44b9156230679f75fc86249ef",
        "eval_set": "a4346eab27fd0576fd94d65f19c88d0c385d9e346ff01d3cb606c71c6e1619ea",
        "order_original": "ecd9dbc98c87dc45979d11a5fc094306b2d0562f9fcbb2b8ec53e96f632cad8e",
        "order_inverse": "4669958c1926576921e6fde1d6848e718e83d9663493e668a196fa91c7c85b06",
        "order_random": "dd6a10b090a40139a9cd434be56571418a4cd938c9c94b132d68f2337b4a30b7",
        "order_ndcg": ["0x1.e9d8b6c2c7006p-2", "0x1.e970e77dbede2p-2", "0x1.eb4a851ca47e7p-2"],
        "train_step": ["0x1.cb0f49e2c8448p+2", "0x1.11af9450e7c8bp+7",
                       "0x1.131ed3bf36cf5p+7", "0x1.dadef29686c03p+11"],
        "train_step_grads": "a8474f42f4b08c75c9589a387f1f72cbb8fabd7ef0d2bdf55f87e658b6c7bbc4",
    },
}


def lines_digest(runs) -> str:
    text = "".join(f"{run.query_id} {e.doc_id} {e.score.hex()} {run.tag}\n"
                   for run in runs for e in run.entries)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module", params=sorted(DIGESTS))
def setting(request):
    seed = request.param
    ds = generate_synthetic(seed, n_topics=3, n_docs=120, n_queries=10, n_eval_queries=4,
                            stage1_candidates=18, stage1_per_query=1)
    doc_tokens = {d.doc_id: d.tokens for d in ds.documents}
    models = build_model_pair(ds.vocab, seed)
    bm25 = InvertedIndex.build(ds.documents)
    dense = DenseIndex.build(ds.documents, models.encoder)
    items = [EvalItem(query=q, candidates=[(e.doc_id, doc_tokens[e.doc_id]) for e in
                                           bm25.search(ds.vocab.encode(q.text), K).entries])
             for q in ds.eval_queries]
    return SimpleNamespace(seed=seed, ds=ds, doc_tokens=doc_tokens, models=models, bm25=bm25,
                           dense=dense, items=items, digests=DIGESTS[seed])


def test_batch_encode_matrix(setting):
    s = setting
    with ad.no_grad():
        matrix = s.models.encoder.batch_encode([d.tokens for d in s.ds.documents]).data
    assert hashlib.sha256(matrix.tobytes()).hexdigest() == s.digests["batch_encode"]


@pytest.mark.parametrize("mode", RETRIEVAL_MODES)
@pytest.mark.parametrize("path", ["stored rows", "encode"])
def test_end_to_end(setting, mode, path):
    s = setting
    dense = s.dense
    if path == "encode":
        dense = DenseIndex(matrix=dense.matrix, doc_ids=dense.doc_ids,
                           metadata={"corpus_checksum": ""})
    runs = [end_to_end(q.text, s.models, s.doc_tokens, s.bm25, dense, mode, k=K,
                       query_id=q.query_id).reranked for q in s.ds.eval_queries]
    assert lines_digest(runs) == s.digests[f"e2e_{mode}"]


def test_sliding_window(setting):
    s = setting
    runs = []
    for item in s.items:
        ids = [doc_id for doc_id, _ in item.candidates]
        rows = candidate_embeddings(s.models, ids, s.doc_tokens)
        runs.append(sliding_window_rerank(s.models.vocab.encode(item.query.text), ids, rows,
                                          s.models, window=8, stride=4,
                                          query_id=item.query.query_id))
    assert lines_digest(runs) == s.digests["sliding"]


def test_rerank_eval_set(setting):
    s = setting
    assert lines_digest(rerank_eval_set(s.models, s.items)) == s.digests["eval_set"]


def test_ordering_experiment(setting, monkeypatch):
    """The runs of each ordering, read where the experiment hands them to
    ``mean_ndcg``, and the three nDCG values."""
    s = setting
    runs = []
    real = evaluation.mean_ndcg

    def spy(ordering_runs, qrels, k=10):
        runs.append(ordering_runs)
        return real(ordering_runs, qrels, k)
    monkeypatch.setattr(evaluation, "mean_ndcg", spy)
    report = ordering_experiment(s.models, s.items, s.ds.qrels, seed=s.seed)
    assert [lines_digest(r) for r in runs] == [s.digests[f"order_{name}"]
                                              for name in evaluation.ORDERINGS]
    assert [report.ndcg[name].hex() for name in evaluation.ORDERINGS] == \
        s.digests["order_ndcg"]


def test_first_train_step(setting):
    s = setting
    models = build_model_pair(s.ds.vocab, s.seed)
    opt = Adam({k: t for k, t in models.parameters().items() if t.requires_grad}, lr=1e-3,
               config=OptimConfig())
    record = train_step(models, s.ds.stage1_samples[:4], s.doc_tokens, opt, LossConfig(), 0, "s")
    assert [record[k].hex() for k in STEP_KEYS] == s.digests["train_step"]
    grads = hashlib.sha256()
    for t in models.parameters().values():
        grads.update(t.grad.tobytes())
    assert grads.hexdigest() == s.digests["train_step_grads"]
