"""BM25, dense retrieval, reciprocal rank fusion, sliding windows, end-to-end."""

import gc
import math
import weakref

import numpy as np
import pytest

import embrank.autodiff as ad
import embrank.checkpoint as checkpoint_module
from embrank.checkpoint import encoder_checksum
from embrank.data import Document, Vocabulary
from embrank.encoder import EncoderModel
from embrank.errors import (ConfigError, DataFormatError, DegenerateInputError, NumericError,
                            ShapeError)
from embrank.retrieval import (RETRIEVAL_MODES, DenseIndex, InvertedIndex, Postings,
                               candidate_embeddings, end_to_end, rrf_fuse,
                               sliding_window_rerank)
from embrank.reranker import build_model_pair
from embrank.runs import (RunEntry, RunList, TokenCounter, rank_by_id, sorted_entries,
                          top_entries)
from embrank.serialization import read_record_file, write_record_file
from embrank.synthetic import generate_synthetic
from embrank.training import (Adam, LossConfig, OptimConfig, StageConfig, TrainReport,
                              train_stages)

from helpers import naive_bm25_scores, naive_rrf, rerank_pairs

TEXTS = {"d1": "cat sat mat", "d2": "cat cat dog", "d3": "dog runs far away"}


@pytest.fixture(scope="module")
def corpus():
    vocab = Vocabulary.build(TEXTS.values())
    docs = [Document(doc_id, text, vocab.encode(text)) for doc_id, text in TEXTS.items()]
    return docs, vocab


class TestBM25:
    def test_absent_term_contributes_nothing(self, corpus):
        docs, vocab = corpus
        index = InvertedIndex.build(docs)
        with_unknown = index.search(vocab.encode("cat zebra"), k=3)
        plain = index.search(vocab.encode("cat"), k=3)
        assert [(e.doc_id, e.score) for e in with_unknown.entries] == \
               [(e.doc_id, e.score) for e in plain.entries]

    def test_single_doc_corpus(self):
        vocab = Vocabulary.build(["only term"])
        docs = [Document("d1", "only term", vocab.encode("only term"))]
        run = InvertedIndex.build(docs).search(vocab.encode("term"), k=5)
        assert run.doc_ids() == ["d1"]

    def test_hand_computed_three_doc_example(self, corpus):
        """Scores written out by hand for query 'cat dog', k1=1.2, b=0.75."""
        docs, vocab = corpus
        index = InvertedIndex.build(docs, k1=1.2, b=0.75)
        run = index.search(vocab.encode("cat dog"), k=3)
        scores = {e.doc_id: e.score for e in run.entries}

        avgdl = 10.0 / 3.0
        idf = math.log(1.0 + (3.0 - 2.0 + 0.5) / (2.0 + 0.5))  # df=2 for both terms
        norm3 = 1.2 * (0.25 + 0.75 * 3.0 / avgdl)
        norm4 = 1.2 * (0.25 + 0.75 * 4.0 / avgdl)
        expected = {
            "d1": idf * 1.0 * 2.2 / (1.0 + norm3),
            "d2": idf * 2.0 * 2.2 / (2.0 + norm3) + idf * 1.0 * 2.2 / (1.0 + norm3),
            "d3": idf * 1.0 * 2.2 / (1.0 + norm4),
        }
        for doc_id in TEXTS:
            assert scores[doc_id] == pytest.approx(expected[doc_id], abs=1e-9)
        assert run.doc_ids() == ["d2", "d1", "d3"]

    def test_randomized_against_definitional_reference(self):
        rng = np.random.default_rng(30)
        words = [f"w{i}" for i in range(12)]
        for trial in range(10):
            texts = [" ".join(rng.choice(words, size=rng.integers(2, 9)))
                     for _ in range(6)]
            vocab = Vocabulary.build(texts)
            docs = [Document(f"d{i}", t, vocab.encode(t)) for i, t in enumerate(texts)]
            index = InvertedIndex.build(docs, k1=1.5, b=0.6)
            query_text = " ".join(rng.choice(words, size=3))
            run = index.search(vocab.encode(query_text), k=6)
            ref = naive_bm25_scores([d.tokens for d in docs],
                                    vocab.encode(query_text), k1=1.5, b=0.6)
            got = {e.doc_id: e.score for e in run.entries}
            for i, d in enumerate(docs):
                if ref[i] > 0:
                    assert got[d.doc_id] == pytest.approx(ref[i], abs=1e-9)

    def test_scores_non_negative(self, corpus):
        docs, vocab = corpus
        run = InvertedIndex.build(docs).search(vocab.encode("cat dog runs"), k=3)
        assert all(e.score >= 0.0 for e in run.entries)

    def test_adding_document_preserves_other_term_frequencies(self, corpus):
        docs, vocab = corpus
        small = InvertedIndex.build(docs)
        extra = Document("d9", "zzz unrelated", vocab.encode("zzz unrelated"))
        big = InvertedIndex.build(docs + [extra])

        def term_frequencies(index):
            p = index.postings
            posting_tokens = np.repeat(p.tokens, np.diff(p.offsets))
            return {(token, index.doc_ids[d]): tf for token, d, tf
                    in zip(posting_tokens.tolist(), p.doc_idx.tolist(), p.tf.tolist())}

        old, new = term_frequencies(small), term_frequencies(big)
        assert all(new[key] == tf for key, tf in old.items())

    def test_empty_query_empty_run(self, corpus):
        """So does a query of unknown tokens only, whatever k."""
        docs, vocab = corpus
        index = InvertedIndex.build(docs)
        for tokens in ([], vocab.encode("zebra"), vocab.encode("zebra yak")):
            for k in (1, 3, 100):
                assert len(index.search(tokens, k=k)) == 0

    @pytest.mark.parametrize("k", [2, 3, 100])
    def test_k_at_or_above_the_hits_returns_every_hit(self, corpus, k):
        docs, vocab = corpus
        run = InvertedIndex.build(docs).search(vocab.encode("cat"), k=k)
        assert run.doc_ids() == ["d2", "d1"]

    def test_scores_bitwise_equal_to_definitional_reference(self, tmp_path):
        """Built, saved and loaded, the index scores the first 10 seed-0
        queries exactly as the definitional formula does, compared with ==."""
        ds = generate_synthetic(seed=0)
        InvertedIndex.build(ds.documents).save(tmp_path / "bm25.idx")
        index = InvertedIndex.load(tmp_path / "bm25.idx")
        doc_tokens = [d.tokens for d in ds.documents]
        for query in ds.queries[:10]:
            tokens = ds.vocab.encode(query.text)
            got = {e.doc_id: e.score for e in index.search(tokens, k=len(doc_tokens)).entries}
            ref = naive_bm25_scores(doc_tokens, tokens, k1=index.k1, b=index.b)
            assert got == {d.doc_id: s for d, s in zip(ds.documents, ref) if s > 0.0}

    def test_save_load_round_trip(self, corpus, tmp_path):
        docs, vocab = corpus
        index = InvertedIndex.build(docs, corpus_checksum="abc")
        index.save(tmp_path / "bm25.idx")
        loaded = InvertedIndex.load(tmp_path / "bm25.idx")
        q = vocab.encode("cat dog")
        original = [(e.doc_id, e.score) for e in index.search(q, 3).entries]
        reloaded = [(e.doc_id, e.score) for e in loaded.search(q, 3).entries]
        assert original == reloaded
        loaded.save(tmp_path / "copy.idx")  # a re-saved index keeps its corpus checksum
        assert read_record_file(tmp_path / "copy.idx")[0]["corpus_checksum"] == "abc"


class TestDenseSearch:
    @staticmethod
    def make_matrix():
        return np.random.default_rng(31).normal(size=(6, 8))

    def make_index(self, matrix=None):
        matrix = self.make_matrix() if matrix is None else matrix
        return DenseIndex(matrix=matrix, doc_ids=[f"d{i}" for i in range(6)])

    def test_stored_row_scores_one_and_ranks_first(self):
        index = self.make_index()
        run = index.search(index.matrix[3], k=3)
        assert run.entries[0].doc_id == "d3"
        assert run.entries[0].score == pytest.approx(1.0, abs=1e-12)

    def test_k_larger_than_corpus_clamps(self):
        index = self.make_index()
        assert len(index.search(index.matrix[0], k=99)) == 6

    def test_equals_brute_force_full_scan(self):
        index = self.make_index()
        q = np.random.default_rng(32).normal(size=8)
        run = index.search(q, k=6)
        brute = {}
        for doc_id, row in zip(index.doc_ids, index.matrix):
            brute[doc_id] = float(q @ row / (np.linalg.norm(q) * np.linalg.norm(row)))
        expected = sorted(brute.items(), key=lambda kv: (-kv[1], kv[0]))
        assert [(e.doc_id, e.score) for e in run.entries] == expected

    @pytest.mark.parametrize("doc_ids", [["a", "b", "c", "d"], ["a", "a", "b"], ["a", "b"]],
                             ids=["more-ids-than-rows", "repeated-id", "fewer-ids-than-rows"])
    def test_hand_built_needs_one_distinct_id_per_row(self, doc_ids):
        """Each once constructed: search then never ranked ``d``, named ``a``
        twice, or raised a raw ``IndexError``."""
        with pytest.raises(DataFormatError, match="dense index 'doc_ids'|dense index 'matrix'"):
            DenseIndex(matrix=self.make_matrix()[:3], doc_ids=doc_ids)

    def test_zero_norm_query_rejected(self):
        with pytest.raises(DegenerateInputError):
            self.make_index().search(np.zeros(8), k=2)

    def test_save_load_round_trip(self, tmp_path):
        index = self.make_index()
        index.metadata = {"corpus_checksum": "c", "encoder_checkpoint_id": "e"}
        index.save(tmp_path / "dense.idx")
        loaded = DenseIndex.load(tmp_path / "dense.idx")
        np.testing.assert_array_equal(loaded.matrix, index.matrix)
        assert loaded.doc_ids == index.doc_ids
        assert loaded.metadata == index.metadata

    def test_loaded_zero_row_rejected_not_ranked_nan(self, tmp_path):
        """No construction accepts a zero row, but a file can still hold one:
        load refuses it, naming the file and the row, before any search."""
        path = tmp_path / "dense.idx"
        self.make_index().save(path)
        meta, arrays = read_record_file(path)
        arrays["matrix"][2] = 0.0
        write_record_file(path, meta, arrays)
        with pytest.raises(DataFormatError, match="row 2") as err:
            DenseIndex.load(path)
        assert str(path) in str(err.value)

    def test_loaded_index_rejects_wrong_length_query(self, tmp_path):
        self.make_index().save(tmp_path / "dense.idx")
        loaded = DenseIndex.load(tmp_path / "dense.idx")
        with pytest.raises(ShapeError):
            loaded.search(np.ones(7), k=2)

    def test_hand_made_zero_row_rejected_naming_it(self):
        matrix = self.make_matrix()
        matrix[4] = 0.0
        with pytest.raises(DegenerateInputError, match="row 4 .'d4'."):
            self.make_index(matrix).search(np.ones(8), k=6)

    def test_non_finite_query_rejected(self):
        """A query whose squared norm is not finite (NaN, an infinity, or
        values whose squares overflow) raises ``NumericError`` before any
        division, and no numpy warning escapes (Tier-1 turns a warning into
        an error)."""
        for value in (np.nan, np.inf, -np.inf, 1e200):
            query = np.ones(8)
            query[3] = query[5] = value
            with pytest.raises(NumericError):
                self.make_index().search(query, k=2)

    @pytest.mark.parametrize("made_by", ["hand", "build", "load"])
    def test_matrix_is_read_only(self, made_by, tiny_models, tmp_path):
        """The row norms are computed once, when the index is made, so the
        rows must not change under them."""
        if made_by == "hand":
            matrix = self.make_matrix()
            index = self.make_index(matrix)
            assert index.matrix is matrix  # used as it is, as ad.param uses a weight
        else:
            vocab = tiny_models.vocab
            docs = [Document(f"d{i}", text, vocab.encode(text))
                    for i, text in enumerate(["alpha beta", "gamma delta", "epsilon zeta"])]
            index = DenseIndex.build(docs, tiny_models.encoder)
            if made_by == "load":
                index = reloaded(index, tmp_path / "dense.idx")
        before = hex_entries(index.search(np.ones(index.matrix.shape[1]), k=3).entries)
        with pytest.raises(ValueError):
            index.matrix[0, 0] = 1.0
        assert hex_entries(index.search(np.ones(index.matrix.shape[1]), k=3).entries) == before


@pytest.mark.parametrize("which", ["bm25", "dense"])
def test_build_rejects_a_repeated_doc_id(which, tiny_models):
    """Each build once kept both documents: BM25 ranked one of them, the dense
    index held a row no search could name."""
    vocab = tiny_models.vocab
    docs = [Document(doc_id, text, vocab.encode(text)) for doc_id, text
            in [("d1", "alpha beta"), ("d1", "gamma delta"), ("d3", "epsilon zeta")]]
    with pytest.raises(DataFormatError, match="'d1'"):
        if which == "bm25":
            InvertedIndex.build(docs)
        else:
            DenseIndex.build(docs, tiny_models.encoder)


@pytest.mark.parametrize("which", ["bm25", "dense"])
def test_build_rejects_an_empty_corpus(which, tiny_models):
    """BM25 once raised a raw ZeroDivisionError; the dense build wrote a file
    that its own load rejected."""
    with pytest.raises(DataFormatError, match="empty corpus"):
        if which == "bm25":
            InvertedIndex.build([])
        else:
            DenseIndex.build([], tiny_models.encoder)


@pytest.mark.parametrize("param,value", [("k1", math.nan), ("k1", math.inf), ("k1", True),
                                         ("b", 1.5)],
                         ids=["k1-nan", "k1-inf", "k1-bool", "b-above-one"])
def test_bm25_build_rejects_what_load_rejects(param, value, corpus):
    """Each once built: nan and inf ranked every document with a NaN score,
    and all wrote a file that their own load refused."""
    with pytest.raises(DataFormatError, match=f"BM25 index '{param}'"):
        InvertedIndex.build(corpus[0], **{param: value})


@pytest.mark.parametrize("doc_ids,doc_lengths,postings,field", [
    ([], [], Postings(np.array([7]), np.array([0, 1]), np.array([0]), np.array([1])), "doc_ids"),
    (["d1", "d2"], [1, 1], Postings(np.array([7]), np.array([0, 1]), np.array([2]), np.array([1])),
     "doc_idx"),
    (["d1", "d2"], [1.5, 2], Postings(np.array([7]), np.array([0, 1]), np.array([0]), np.array([1])),
     "doc_lengths"),
    (["d1", "d2"], [1, 2], Postings([7], [0, 1], [0], [1.5]), "tf"),
], ids=["no-documents", "doc_idx-past-last-doc", "doc_lengths-float", "postings-lists-float-tf"])
def test_hand_built_bm25_index_is_checked(doc_ids, doc_lengths, postings, field):
    """A hand-built index was once not checked: with no documents it raised a
    raw ZeroDivisionError, and a doc_idx past the last document made search
    raise a raw IndexError. Float lengths once built an index whose avgdl
    averaged them while its norms used them cut to integers, and postings
    of lists raised a raw TypeError."""
    with pytest.raises(DataFormatError, match=f"BM25 index '{field}'"):
        InvertedIndex(doc_ids, doc_lengths, postings)


def test_hand_built_bm25_index_takes_lists():
    """Lengths and postings given as lists of integers are the int64 arrays
    they hold: the same index, ranking to the bit."""
    fields = ([7, 9], [0, 2, 3], [0, 1, 1], [1, 2, 1])
    listed = InvertedIndex(["d1", "d2"], [1, 3], Postings(*fields))
    arrays = InvertedIndex(["d1", "d2"], np.array([1, 3]), Postings(*map(np.array, fields)))
    assert listed.postings == arrays.postings and listed.doc_lengths == arrays.doc_lengths == [1, 3]
    assert listed.avgdl == arrays.avgdl == 2.0
    assert hex_entries(listed.search([7, 9], k=2).entries) == \
        hex_entries(arrays.search([7, 9], k=2).entries)


def hex_entries(entries):
    return [(e.doc_id, e.score.hex()) for e in entries]


def reloaded(index, path):
    index.save(path)
    return type(index).load(path)


class TestTopKSelection:
    """``search`` selects its top k partially; the run must be a full sort's
    first k, scores to the bit and ties by doc id included."""

    @pytest.fixture(scope="class")
    def seed0(self):
        ds = generate_synthetic(seed=0)
        models = build_model_pair(ds.vocab, seed=0, d_model=8, n_layers=1, n_heads=2)
        return ds, models, DenseIndex.build(ds.documents, models.encoder)

    @staticmethod
    def ks(n):
        return [1, 7, 100, n - 1, n, n + 5]

    @staticmethod
    def full_sort_dense(index, q):
        sims = ad.cosine_rows(ad.tensor(q), ad.tensor(index.matrix)).data
        return sorted_entries(dict(zip(index.doc_ids, sims.tolist())))

    def check_dense(self, index, queries):
        for q in queries:
            full = self.full_sort_dense(index, q)
            for k in self.ks(len(index.doc_ids)):
                assert hex_entries(index.search(q, k).entries) == hex_entries(full[:k])

    def check_bm25(self, index, documents, queries):
        doc_tokens = [d.tokens for d in documents]
        for tokens in queries:
            ref = naive_bm25_scores(doc_tokens, tokens, k1=index.k1, b=index.b)
            full = sorted_entries({d.doc_id: s for d, s in zip(documents, ref) if s > 0.0})
            for k in self.ks(len(documents)):
                assert hex_entries(index.search(tokens, k).entries) == hex_entries(full[:k])

    def test_dense_seed0_queries(self, seed0, tmp_path):
        ds, models, index = seed0
        with ad.no_grad():
            queries = [models.encoder.encode_query(ds.vocab.encode(q.text)).data
                       for q in ds.queries[:10]]
        for searched in (index, reloaded(index, tmp_path / "dense.idx")):
            self.check_dense(searched, queries)

    def test_bm25_seed0_queries(self, seed0, tmp_path):
        ds = seed0[0]
        index = InvertedIndex.build(ds.documents)
        queries = [ds.vocab.encode(q.text) for q in ds.queries[:10]]
        for searched in (index, reloaded(index, tmp_path / "bm25.idx")):
            self.check_bm25(searched, ds.documents, queries)

    def test_dense_ties_straddle_the_boundary(self, tmp_path):
        """A few distinct rows, each repeated, under shuffled doc ids: the
        k-th place falls inside a run of equal scores."""
        rng = np.random.default_rng(33)
        matrix = rng.normal(size=(4, 6))[rng.integers(0, 4, size=60)]
        doc_ids = [f"d{i:02d}" for i in rng.permutation(60)]
        index = DenseIndex(matrix=matrix, doc_ids=doc_ids)
        queries = list(rng.normal(size=(5, 6))) + [matrix[0]]
        for searched in (index, reloaded(index, tmp_path / "dense.idx")):
            self.check_dense(searched, queries)

    @staticmethod
    def tie_corpus():
        """Documents with identical texts score alike; their ids are shuffled
        against the texts so ties break by id across the k-th place."""
        rng = np.random.default_rng(34)
        texts = ["cat sat mat", "cat cat dog", "dog runs far away", "mat dog"]
        vocab = Vocabulary.build(texts)
        docs = [Document(f"d{i:02d}", texts[t], vocab.encode(texts[t]))
                for i, t in zip(rng.permutation(48), rng.integers(0, 4, size=48))]
        queries = [vocab.encode(q) for q in ("cat", "dog", "cat dog mat", "far away cat")]
        return docs, queries

    def test_bm25_ties_straddle_the_boundary(self, tmp_path):
        docs, queries = self.tie_corpus()
        index = InvertedIndex.build(docs)
        for searched in (index, reloaded(index, tmp_path / "bm25.idx")):
            self.check_bm25(searched, docs, queries)

    def test_bm25_file_with_unsorted_doc_ids_breaks_ties_by_id(self, tmp_path):
        """``build`` sorts the ids, but a BM25 file need not: the loaded index
        must still break ties by doc id, not by row."""
        docs, queries = self.tie_corpus()
        built = InvertedIndex.build(docs)
        order = np.random.default_rng(36).permutation(len(docs))  # new row -> built row
        p = built.postings
        doc_idx = np.argsort(order)[p.doc_idx]
        token_of = np.repeat(np.arange(len(p.tokens)), np.diff(p.offsets))
        keep_ascending = np.lexsort((doc_idx, token_of))
        shuffled = InvertedIndex([built.doc_ids[i] for i in order],
                                 [built.doc_lengths[i] for i in order],
                                 Postings(p.tokens, p.offsets, doc_idx[keep_ascending],
                                          p.tf[keep_ascending]))
        loaded = reloaded(shuffled, tmp_path / "bm25.idx")
        assert loaded.doc_ids == shuffled.doc_ids != sorted(shuffled.doc_ids)
        self.check_bm25(loaded, docs, queries)

    @pytest.mark.parametrize("subset", [False, True])
    def test_top_entries_equals_the_full_sort(self, subset):
        """Scores with many exact ties, 0.0 beside -0.0, ids in no sorted
        order and of different lengths, over every row or an unsorted subset."""
        rng = np.random.default_rng(35)
        n = 60
        scores = rng.integers(-2, 3, size=n) * 0.25
        scores[rng.random(n) < 0.3] = -0.0
        doc_ids = [f"d{i}" for i in rng.permutation(n)]
        rows = rng.choice(n, size=37, replace=False) if subset else None
        full = sorted_entries({doc_ids[i]: float(scores[i])
                               for i in (range(n) if rows is None else rows)})
        m = len(full)
        assert {math.copysign(1.0, e.score) for e in full if e.score == 0.0} == {1.0, -1.0}
        for k in (1, 7, m - 1, m, m + 5):
            got = top_entries(doc_ids, rank_by_id(doc_ids), scores, k, rows=rows)
            assert hex_entries(got) == hex_entries(full[:k])


def run_of(qid, doc_ids, start=100.0):
    return RunList(query_id=qid,
                   entries=[RunEntry(d, start - i) for i, d in enumerate(doc_ids)])


class TestRRF:
    def test_double_rank_one_with_default_k(self):
        fused = rrf_fuse(run_of("q", ["a", "b"]), run_of("q", ["a", "c"]), 60)
        scores = {e.doc_id: e.score for e in fused.entries}
        assert scores["a"] == pytest.approx(2.0 / 61.0, abs=1e-15)
        assert fused.entries[0].doc_id == "a"

    def test_single_run_rank_three(self):
        fused = rrf_fuse(run_of("q", ["a", "b", "c"]), run_of("q", []), 60)
        scores = {e.doc_id: e.score for e in fused.entries}
        assert scores["c"] == pytest.approx(1.0 / 63.0, abs=1e-15)

    def test_matches_naive_oracle_on_random_runs(self):
        rng = np.random.default_rng(33)
        docs = [f"d{i}" for i in range(30)]
        for _ in range(20):
            a = list(rng.permutation(docs)[:20])
            b = list(rng.permutation(docs)[:20])
            fused = rrf_fuse(run_of("q", a), run_of("q", b), 60)
            expected = naive_rrf([a, b], 60)
            assert [(e.doc_id, e.score) for e in fused.entries] == \
                   [(d, pytest.approx(s, abs=1e-15)) for d, s in expected]

    def test_monotone_in_rank_improvement(self):
        """Moving a document up in one input run never lowers its fused score."""
        base = rrf_fuse(run_of("q", ["a", "b", "c", "d"]), run_of("q", ["c", "d", "a"]), 60)
        better = rrf_fuse(run_of("q", ["a", "c", "b", "d"]), run_of("q", ["c", "d", "a"]), 60)
        s_base = {e.doc_id: e.score for e in base.entries}
        s_better = {e.doc_id: e.score for e in better.entries}
        assert s_better["c"] > s_base["c"]

    def test_symmetric_up_to_ties(self):
        a, b = run_of("q", ["a", "b", "c"]), run_of("q", ["b", "d"])
        ab = rrf_fuse(a, b, 60)
        ba = rrf_fuse(b, a, 60)
        assert {e.doc_id: e.score for e in ab.entries} == \
               {e.doc_id: e.score for e in ba.entries}

    def test_mismatched_query_ids_rejected(self):
        with pytest.raises(ConfigError):
            rrf_fuse(run_of("q1", ["a"]), run_of("q2", ["a"]), 60)


def slide(query, docs, models, **kwargs):
    """``sliding_window_rerank`` of ``(doc_id, tokens)`` pairs, their rows from
    one ``candidate_embeddings`` encode."""
    ids = [doc_id for doc_id, _ in docs]
    return sliding_window_rerank(query, ids, candidate_embeddings(models, ids, dict(docs)),
                                 models, **kwargs)


class TestSlidingWindow:
    @pytest.fixture
    def setup(self, small_dataset):
        models = build_model_pair(small_dataset.vocab, seed=41, d_model=16,
                                  n_layers=1, n_heads=2, reranker_max_len=96)
        docs = [(d.doc_id, d.tokens) for d in small_dataset.documents[:40]]
        query = small_dataset.vocab.encode(small_dataset.eval_queries[0].text)
        return models, docs, query

    def test_single_window_bit_identical_to_single_pass(self, setup):
        models, docs, query = setup
        single = rerank_pairs(query, docs[:12], models, query_id="q").run
        windowed = slide(query, docs[:12], models, window=20, stride=10, query_id="q")
        assert [(e.doc_id, e.score) for e in windowed.entries] == \
               [(e.doc_id, e.score) for e in single.entries]

    def test_window_and_counter_arithmetic(self, setup):
        """40 candidates, window 10, stride 5: 7 windows, 70 processed tokens."""
        models, docs, query = setup
        run = slide(query, docs, models, window=10, stride=5, query_id="q")
        assert run.counters.processed_passage_tokens == 70
        assert run.counters.candidates == 40
        assert run.counters.generated_tokens == 0
        assert sorted(run.doc_ids()) == sorted(d for d, _ in docs)

    def test_non_overlapping_windows_process_each_doc_once(self, setup):
        models, docs, query = setup
        run = slide(query, docs, models, window=10, stride=10, query_id="q")
        assert run.counters.processed_passage_tokens == 40

    def test_hundred_candidates_window_twenty_stride_ten(self, small_dataset):
        """9 windows over 100 candidates: counters measure (180, 1.8, 0)."""
        ds = small_dataset
        models = build_model_pair(ds.vocab, seed=43, d_model=16, n_layers=1,
                                  n_heads=2, reranker_max_len=96)
        docs = [(d.doc_id, d.tokens) for d in ds.documents[:90]] + \
               [(f"x{i}", ds.documents[i].tokens) for i in range(10)]
        query = ds.vocab.encode(ds.eval_queries[0].text)
        run = slide(query, docs, models, window=20, stride=10, query_id="q")
        assert run.counters.processed_passage_tokens == 180
        assert run.counters.candidates == 100
        assert run.counters.generated_tokens == 0
        assert run.counters.processed_passage_tokens / run.counters.candidates == 1.8

    def test_each_candidate_encoded_once(self, setup, encoded_sizes):
        """40 candidates in 7 windows: one ``batch_encode`` of all 40."""
        models, docs, query = setup
        slide(query, docs, models, window=10, stride=5, query_id="q")
        assert encoded_sizes == [40]

    def test_windows_rank_like_encoding_each_window(self, setup):
        """Each window reranks the rows of its own candidates: the order equals
        that of encoding every window's candidates afresh, bit for bit."""
        models, docs, query = setup
        work, start = list(docs), len(docs) - 10
        while True:
            piece = work[start:start + 10]
            result = rerank_pairs(query, piece, models, query_id="q")
            work[start:start + 10] = [piece[i] for i in result.output.permutation]
            if start == 0:
                break
            start = max(0, start - 5)
        run = slide(query, docs, models, window=10, stride=5, query_id="q")
        assert run.doc_ids() == [doc_id for doc_id, _ in work]

    def test_emitted_scores_strictly_descending(self, setup):
        models, docs, query = setup
        run = slide(query, docs, models, window=10, stride=5, query_id="q")
        scores = [e.score for e in run.entries]
        assert scores == sorted(scores, reverse=True)
        assert len(set(scores)) == len(scores)

    def test_invalid_stride_rejected(self, setup):
        models, docs, query = setup
        with pytest.raises(ConfigError):
            slide(query, docs, models, window=10, stride=11)

    def test_window_beyond_budget_rejected(self, setup):
        models, docs, query = setup
        with pytest.raises(ShapeError):
            slide(query, docs * 4, models, window=120, stride=10)

    def test_window_beyond_budget_over_a_list_that_fits_is_the_single_pass(self, setup):
        """Only the candidates a window holds must fit the reranker's sequence:
        a list that fits runs as one window, whatever the window size."""
        models, docs, query = setup
        single = rerank_pairs(query, docs[:12], models, query_id="q").run
        windowed = slide(query, docs[:12], models, window=120, stride=10, query_id="q")
        assert [(e.doc_id, e.score) for e in windowed.entries] == \
               [(e.doc_id, e.score) for e in single.entries]
        assert windowed.counters == single.counters


def fresh_pipeline(dataset):
    """A model pair, doc tokens and both indexes; tests that change weights
    call it for a private copy."""
    models = build_model_pair(dataset.vocab, seed=42, d_model=16, n_layers=1, n_heads=2,
                              reranker_max_len=96)
    docs = dataset.documents
    return (models, {d.doc_id: d.tokens for d in docs}, InvertedIndex.build(docs),
            DenseIndex.build(docs, models.encoder))


@pytest.fixture(scope="module")
def pipeline(small_dataset):
    return (small_dataset, *fresh_pipeline(small_dataset))


def unfingerprinted(index):
    """The same rows and ids recording no encoder fingerprint: ``end_to_end``
    then encodes the candidates."""
    return DenseIndex(matrix=index.matrix, doc_ids=index.doc_ids,
                      metadata={k: v for k, v in index.metadata.items()
                                if k != "encoder_sha256"})


def nudge_first_weight(t):
    """Add 1e-3 to ``t.data[0, 0]``; a parameter's array is read-only, so the
    weight changes by replacing the array."""
    data = t.data.copy()
    data[0, 0] += 1e-3
    ad.set_param_data(t, data)


def hex_run(result):
    return [(e.doc_id, e.score.hex()) for e in result.reranked.entries]


@pytest.fixture
def encoded_sizes(monkeypatch):
    """The number of passages of every ``batch_encode`` call made in the test."""
    sizes = []
    original = EncoderModel.batch_encode

    def spy(self, passages):
        sizes.append(len(passages))
        return original(self, passages)
    monkeypatch.setattr(EncoderModel, "batch_encode", spy)
    return sizes


@pytest.fixture
def hashes(monkeypatch):
    """The parameter count of every weight state ``encoder_checksum`` hashes
    in the test."""
    counts = []
    original = checkpoint_module.sha256_arrays

    def spy(arrays):
        counts.append(len(arrays))
        return original(arrays)
    monkeypatch.setattr(checkpoint_module, "sha256_arrays", spy)
    return counts


class TestEndToEnd:

    def test_bm25_mode_equals_manual_composition(self, pipeline):
        ds, models, doc_tokens, bm25, dense = pipeline
        q = ds.eval_queries[0]
        result = end_to_end(q.text, models, doc_tokens, bm25, None, "bm25", k=30,
                            query_id=q.query_id)
        manual_first = bm25.search(ds.vocab.encode(q.text), 30, query_id=q.query_id)
        assert result.first_stage.doc_ids() == manual_first.doc_ids()
        manual_rerank = rerank_pairs(
            ds.vocab.encode(q.text),
            [(e.doc_id, doc_tokens[e.doc_id]) for e in manual_first.entries],
            models, query_id=q.query_id).run
        assert result.reranked.doc_ids() == manual_rerank.doc_ids()

    def test_rerank_preserves_candidate_set(self, pipeline):
        ds, models, doc_tokens, bm25, dense = pipeline
        q = ds.eval_queries[1]
        result = end_to_end(q.text, models, doc_tokens, bm25, dense, "rrf", k=25,
                            query_id=q.query_id)
        assert sorted(result.reranked.doc_ids()) == sorted(result.first_stage.doc_ids())

    def test_rrf_candidates_subset_of_union(self, pipeline):
        ds, models, doc_tokens, bm25, dense = pipeline
        q = ds.eval_queries[2]
        qt = ds.vocab.encode(q.text)
        bm25_ids = set(bm25.search(qt, 25).doc_ids())
        dense_ids = set(dense.search(models.encoder.encode_query(qt).data, 25).doc_ids())
        result = end_to_end(q.text, models, doc_tokens, bm25, dense, "rrf", k=25,
                            query_id=q.query_id)
        assert set(result.first_stage.doc_ids()) <= (bm25_ids | dense_ids)

    def test_mode_recorded_in_tag(self, pipeline):
        ds, models, doc_tokens, bm25, dense = pipeline
        q = ds.eval_queries[0]
        for mode in ("bm25", "dense", "rrf"):
            result = end_to_end(q.text, models, doc_tokens, bm25, dense, mode, k=10,
                                query_id=q.query_id)
            assert result.reranked.tag == f"embrank-{mode}"

    def test_unknown_mode_rejected(self, pipeline):
        ds, models, doc_tokens, bm25, dense = pipeline
        with pytest.raises(ConfigError):
            end_to_end("anything", models, doc_tokens, bm25, dense, "hybrid", k=5)

    def test_dense_mode_requires_dense_index(self, pipeline):
        ds, models, doc_tokens, bm25, dense = pipeline
        with pytest.raises(ConfigError):
            end_to_end("anything", models, doc_tokens, bm25, None, "dense", k=5)

    @pytest.mark.parametrize("reload", [False, True], ids=["built", "loaded"])
    @pytest.mark.parametrize("mode", RETRIEVAL_MODES)
    def test_stored_rows_rerank_bit_for_bit_like_encoding(self, small_dataset, tmp_path,
                                                          mode, reload):
        models, doc_tokens, bm25, dense = fresh_pipeline(small_dataset)
        if reload:
            dense.save(tmp_path / "dense.idx")
            dense = DenseIndex.load(tmp_path / "dense.idx")
        encoding = unfingerprinted(dense)
        for q in small_dataset.eval_queries:
            rows = end_to_end(q.text, models, doc_tokens, bm25, dense, mode, k=30,
                              query_id=q.query_id)
            encoded = end_to_end(q.text, models, doc_tokens, bm25, encoding, mode, k=30,
                                 query_id=q.query_id)
            assert rows.first_stage.doc_ids() == encoded.first_stage.doc_ids()
            assert hex_run(rows) == hex_run(encoded)

    @pytest.mark.parametrize("mode", RETRIEVAL_MODES)
    def test_only_the_query_is_encoded(self, pipeline, encoded_sizes, mode):
        ds, models, doc_tokens, bm25, dense = pipeline
        q = ds.eval_queries[0]
        result = end_to_end(q.text, models, doc_tokens, bm25, dense, mode, k=30,
                            query_id=q.query_id)
        n = len(result.first_stage)
        assert n > 0
        assert encoded_sizes == ([] if mode == "bm25" else [1])
        counters = result.reranked.counters
        assert counters.processed_passage_tokens == counters.candidates == n
        assert counters.generated_tokens == 0

    @pytest.mark.parametrize("mode", RETRIEVAL_MODES)
    def test_index_from_another_encoder_state_rejected(self, small_dataset, mode):
        models, doc_tokens, bm25, dense = fresh_pipeline(small_dataset)
        recorded = dense.metadata["encoder_sha256"]
        nudge_first_weight(models.encoder.parameters()["tok_emb"])
        live = encoder_checksum(models.encoder)
        with pytest.raises(ConfigError) as err:
            end_to_end(small_dataset.eval_queries[0].text, models, doc_tokens, bm25, dense,
                       mode, k=30)
        assert recorded != live and recorded in str(err.value) and live in str(err.value)

    @pytest.mark.parametrize("mode", RETRIEVAL_MODES)
    def test_index_of_another_width_rejected_before_the_search(self, pipeline, mode):
        """An index built by an encoder of another width is stale too: the
        fingerprint check runs before the dense search could fail on the width."""
        ds, _, doc_tokens, bm25, dense = pipeline
        wider = build_model_pair(ds.vocab, seed=42, d_model=32, n_layers=1, n_heads=2,
                                 reranker_max_len=96)
        with pytest.raises(ConfigError, match="rebuild the index"):
            end_to_end(ds.eval_queries[0].text, wider, doc_tokens, bm25, dense, mode, k=30)

    def test_query_with_no_candidates_has_zero_counters(self, pipeline):
        ds, models, doc_tokens, bm25, dense = pipeline
        result = end_to_end("zzz", models, doc_tokens, bm25, None, "bm25", k=30,
                            query_id="q900")
        assert result.reranked.entries == [] and result.reranked.query_id == "q900"
        assert result.reranked.counters == TokenCounter()

    def test_stale_index_rejected_for_a_query_with_no_candidates(self, small_dataset):
        models, doc_tokens, bm25, dense = fresh_pipeline(small_dataset)
        live = end_to_end("zzz", models, doc_tokens, bm25, dense, "bm25", k=30)
        assert live.first_stage.entries == live.reranked.entries == []
        nudge_first_weight(models.encoder.parameters()["tok_emb"])
        with pytest.raises(ConfigError, match="rebuild the index"):
            end_to_end("zzz", models, doc_tokens, bm25, dense, "bm25", k=30)

    def test_reranker_update_keeps_stored_rows(self, small_dataset, encoded_sizes):
        models, doc_tokens, bm25, dense = fresh_pipeline(small_dataset)
        nudge_first_weight(models.reranker.parameters()["tok_emb"])
        encoded_sizes.clear()
        q = small_dataset.eval_queries[0]
        rows = end_to_end(q.text, models, doc_tokens, bm25, dense, "rrf", k=30)
        assert encoded_sizes == [1]
        encoded = end_to_end(q.text, models, doc_tokens, bm25, unfingerprinted(dense),
                             "rrf", k=30)
        assert hex_run(rows) == hex_run(encoded)

    def test_candidate_missing_from_index_encodes_all(self, small_dataset, encoded_sizes):
        models, doc_tokens, bm25, dense = fresh_pipeline(small_dataset)
        q = small_dataset.eval_queries[0]
        full = end_to_end(q.text, models, doc_tokens, bm25, dense, "bm25", k=30)
        missing = full.first_stage.doc_ids()[3]
        keep = [i for i, d in enumerate(dense.doc_ids) if d != missing]
        partial = DenseIndex(matrix=dense.matrix[keep], doc_ids=[dense.doc_ids[i] for i in keep],
                             metadata=dense.metadata)
        encoded_sizes.clear()
        result = end_to_end(q.text, models, doc_tokens, bm25, partial, "bm25", k=30)
        assert encoded_sizes == [len(full.first_stage)]
        assert hex_run(result) == hex_run(full)


class TestCandidateEmbeddings:
    """The one source of candidate rows: stored rows while the index is live,
    else one encode of the distinct ids; the same bits either way."""

    def test_stored_rows_gathered_in_order(self, pipeline, encoded_sizes):
        ds, models, doc_tokens, bm25, dense = pipeline
        ids = [dense.doc_ids[i] for i in (5, 2, 5, 9)]
        rows = candidate_embeddings(models, ids, doc_tokens, dense)
        assert encoded_sizes == []
        np.testing.assert_array_equal(rows.data, dense.matrix[[5, 2, 5, 9]])

    @pytest.mark.parametrize("index", ["none", "unfingerprinted", "missing an id"])
    def test_encode_of_the_distinct_ids(self, pipeline, encoded_sizes, index):
        ds, models, doc_tokens, bm25, dense = pipeline
        ids = [dense.doc_ids[i] for i in (5, 2, 5, 9, 2)]
        source = {"none": None, "unfingerprinted": unfingerprinted(dense),
                  "missing an id": DenseIndex(matrix=dense.matrix[:3], doc_ids=dense.doc_ids[:3],
                                              metadata=dense.metadata)}[index]
        rows = candidate_embeddings(models, ids, doc_tokens, source)
        assert encoded_sizes == [3]
        np.testing.assert_array_equal(rows.data, dense.matrix[[5, 2, 5, 9, 2]])

    def test_index_from_another_encoder_state_rejected(self, small_dataset):
        models, doc_tokens, bm25, dense = fresh_pipeline(small_dataset)
        nudge_first_weight(models.encoder.parameters()["tok_emb"])
        for ids in ([], dense.doc_ids[:3]):
            with pytest.raises(ConfigError, match="rebuild the index"):
                candidate_embeddings(models, ids, doc_tokens, dense)


class TestEncoderFingerprint:
    """``end_to_end`` checks the index against the live encoder on every query,
    but hashes the weights once per weight state."""

    def run(self, dataset, models, doc_tokens, bm25, dense, times=1):
        q = dataset.eval_queries[0]
        return [end_to_end(q.text, models, doc_tokens, bm25, dense, "rrf", k=30)
                for _ in range(times)]

    def test_no_hash_after_the_build(self, small_dataset, hashes):
        models, doc_tokens, bm25, dense = fresh_pipeline(small_dataset)
        assert len(hashes) == 1  # the build's own
        hashes.clear()
        results = self.run(small_dataset, models, doc_tokens, bm25, dense, times=20)
        assert hashes == []
        assert len({tuple(hex_run(r)) for r in results}) == 1

    def test_adam_step_on_the_encoder_makes_the_index_stale(self, small_dataset, hashes):
        models, doc_tokens, bm25, dense = fresh_pipeline(small_dataset)
        params = models.encoder.parameters()
        opt = Adam(params, lr=1e-3)
        for t in params.values():
            t.grad = np.ones_like(t.data)
        opt.step()
        hashes.clear()
        for _ in range(2):
            with pytest.raises(ConfigError) as err:
                self.run(small_dataset, models, doc_tokens, bm25, dense)
            assert dense.metadata["encoder_sha256"] in str(err.value)
        assert len(hashes) == 1  # the new state is hashed once

    def test_frozen_encoder_stage_keeps_the_digest_and_stored_rows(
            self, small_dataset, hashes, encoded_sizes):
        models, doc_tokens, bm25, dense = fresh_pipeline(small_dataset)
        before = self.run(small_dataset, models, doc_tokens, bm25, dense)[0]
        reranker_before = {k: t.data for k, t in models.reranker.parameters().items()}
        for _ in train_stages(models, [(StageConfig("stage2", epochs=1, batch_size=2, lr=1e-3),
                                        small_dataset.stage2_samples[:4])], doc_tokens,
                              OptimConfig(), LossConfig(encoder_trainable=False), 0,
                              TrainReport()):
            pass
        assert any(t.data is not reranker_before[k]
                   for k, t in models.reranker.parameters().items())
        hashes.clear()
        encoded_sizes.clear()
        after = self.run(small_dataset, models, doc_tokens, bm25, dense)[0]
        assert hashes == [] and encoded_sizes == [1]
        assert after.first_stage.doc_ids() == before.first_stage.doc_ids()

    @pytest.mark.parametrize("swap", ["writable copy", "read-only view"])
    def test_unfrozen_array_hashed_on_every_call(self, small_dataset, hashes, swap):
        models, doc_tokens, bm25, dense = fresh_pipeline(small_dataset)
        tok_emb = models.encoder.parameters()["tok_emb"]
        tok_emb.data = tok_emb.data.copy() if swap == "writable copy" else tok_emb.data[:]
        hashes.clear()
        self.run(small_dataset, models, doc_tokens, bm25, dense, times=3)
        assert len(hashes) == 3

    def test_dropped_encoder_weights_are_freed(self, small_dataset):
        """The fingerprint cache does not keep the last hashed arrays alive."""
        models = fresh_pipeline(small_dataset)[0]
        tok_emb = weakref.ref(models.encoder.parameters()["tok_emb"].data)
        del models
        gc.collect()
        assert tok_emb() is None

    def test_write_into_a_writable_array_is_seen(self, small_dataset):
        models, doc_tokens, bm25, dense = fresh_pipeline(small_dataset)
        tok_emb = models.encoder.parameters()["tok_emb"]
        tok_emb.data = tok_emb.data.copy()
        self.run(small_dataset, models, doc_tokens, bm25, dense)
        tok_emb.data[0, 0] += 1e-3
        with pytest.raises(ConfigError):
            self.run(small_dataset, models, doc_tokens, bm25, dense)
