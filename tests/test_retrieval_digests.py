"""Retrieval outputs pinned to the byte at two seeds.

On a small synthetic corpus with the default model size, these are the
sha256 digests of the saved BM25 and dense index files and of the TREC text
of the BM25, dense and RRF top-100 runs of the first ten queries. A change
to scoring, tie-breaking, the index layout or the TREC format moves a
digest; a change that must keep every bit, such as a faster search, moves
none.
"""

import pytest

import embrank.autodiff as ad
from embrank.reranker import build_model_pair
from embrank.retrieval import DenseIndex, InvertedIndex, rrf_fuse
from embrank.runs import RunList, write_trec_run
from embrank.serialization import sha256_file
from embrank.synthetic import generate_synthetic

K = 100
N_QUERIES = 10

DIGESTS = {
    0: {
        "bm25_index": "88d7b7e41d8713f0d8c7df4f03d4b806b3444d00d2240e212df55fa4bc1d0661",
        "dense_index": "d5dc82ae0ba667dc34482711854214c5d82e28be2b24763592a8743c58aaf678",
        "bm25_trec": "e7ef46cc771c27eb0d2c5fc0dcd39a37c7d0e27d42dbc06ab98c2144adcacaff",
        "dense_trec": "1fbfa7f4e05088b8dc177833f16b0cc14db653e84f77d4ffd4cc620135a29a4a",
        "rrf_trec": "fd1091b2cf11fc781e353387328312411f538bb8bb0dbc65f5a953e7127d0fae",
    },
    104729: {
        "bm25_index": "a2458408da857350012701955a3d64a4b2c4427c9b7b32132d76ffb8c8f34232",
        "dense_index": "fd65492203158ee03f2d70d71a2f7d63ea1af0b7a15b143fff1c7982451570a7",
        "bm25_trec": "201774c60b481cbbe7fcbff1215d66a0fb480e88f6dc4e94c3821a0649e5eeca",
        "dense_trec": "6298527ff3b17ccd1af4fa894dc44b8b9f78eadeec1f8c9124667db687850ae0",
        "rrf_trec": "f0eeb0fa12e1026361272aa5e7580ee61f11653309d6b3a540a73ee628045e77",
    },
}


def retrieval_digests(seed: int, workdir) -> dict[str, str]:
    ds = generate_synthetic(seed, n_docs=400, n_queries=12)
    models = build_model_pair(ds.vocab, seed)
    bm25 = InvertedIndex.build(ds.documents)
    dense = DenseIndex.build(ds.documents, models.encoder)
    bm25.save(workdir / "bm25.idx")
    dense.save(workdir / "dense.idx")
    runs = {"bm25": [], "dense": [], "rrf": []}
    for query in ds.queries[:N_QUERIES]:
        tokens = ds.vocab.encode(query.text)
        with ad.no_grad():
            q_emb = models.encoder.encode_query(tokens).data
        bm25_run = bm25.search(tokens, K, query_id=query.query_id)
        dense_run = dense.search(q_emb, K, query_id=query.query_id)
        fused = rrf_fuse(bm25_run, dense_run)
        runs["bm25"].append(bm25_run)
        runs["dense"].append(dense_run)
        runs["rrf"].append(RunList(query_id=query.query_id, entries=fused.entries[:K], tag="rrf"))
    digests = {"bm25_index": sha256_file(workdir / "bm25.idx"),
               "dense_index": sha256_file(workdir / "dense.idx")}
    for tag, tag_runs in runs.items():
        write_trec_run(workdir / f"{tag}.trec", tag_runs)
        digests[f"{tag}_trec"] = sha256_file(workdir / f"{tag}.trec")
    return digests


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_retrieval_digests(seed, tmp_path):
    assert retrieval_digests(seed, tmp_path) == DIGESTS[seed]
