"""Synthetic generator: reproducibility, structure, and retrievability."""

import hashlib

import numpy as np
import pytest

from embrank import synthetic
from embrank.data import split_words, validate_sample
from embrank.errors import ConfigError
from embrank.synthetic import generate_synthetic


def dataset_fingerprint(ds):
    docs = tuple((d.doc_id, d.text) for d in ds.documents)
    queries = tuple((q.query_id, q.text) for q in ds.queries)
    samples = tuple(
        (s.query_id, s.positive_index,
         tuple((c.doc_id, c.grade, c.rank_label) for c in s.candidates))
        for s in ds.stage1_samples + ds.stage2_samples)
    qrels = tuple(sorted((qid, doc, grade)
                         for qid in ds.qrels for doc, grade in ds.qrels[qid].items()))
    return (docs, queries, samples, qrels)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = generate_synthetic(seed=42, n_topics=3, n_docs=60, n_queries=9, n_eval_queries=3)
        b = generate_synthetic(seed=42, n_topics=3, n_docs=60, n_queries=9, n_eval_queries=3)
        assert dataset_fingerprint(a) == dataset_fingerprint(b)

    def test_different_seed_differs(self):
        a = generate_synthetic(seed=1, n_topics=3, n_docs=60, n_queries=9, n_eval_queries=3)
        b = generate_synthetic(seed=2, n_topics=3, n_docs=60, n_queries=9, n_eval_queries=3)
        assert dataset_fingerprint(a) != dataset_fingerprint(b)


@pytest.fixture(scope="module")
def ds():
    return generate_synthetic(seed=5, n_topics=4, n_docs=120, n_queries=12,
                              n_eval_queries=4)


class TestStructure:
    def test_counts(self, ds):
        assert len(ds.documents) == 120
        assert len(ds.train_queries) == 8
        assert len(ds.eval_queries) == 4
        assert len(ds.stage2_samples) == 8

    def test_query_shares_topic_word_with_source(self, ds):
        """Every query's words come from a source document of its own topic."""
        doc_text = {d.doc_id: d.text for d in ds.documents}
        for sample in ds.stage2_samples:
            source = sample.candidates[sample.positive_index].doc_id
            source_words = set(split_words(doc_text[source]))
            query_words = set(split_words(sample.query_text))
            assert query_words & source_words

    def test_stage2_is_one_positive_fifteen_negatives(self, ds):
        for s in ds.stage2_samples:
            assert len(s.candidates) == 16
            assert len(s.negative_indices) == 15
            validate_sample(s)
            assert s.candidates[s.positive_index].grade == 3

    def test_stage1_larger_lists(self, ds):
        for s in ds.stage1_samples:
            assert len(s.candidates) == 20
            validate_sample(s)

    def test_every_query_has_relevant_docs(self, ds):
        for q in ds.queries:
            assert max(ds.qrels[q.query_id].values()) == 3

    def test_grades_stay_in_range(self, ds):
        for grades in ds.qrels.values():
            for grade in grades.values():
                assert 0 <= grade <= 3

    def test_stage1_noise_only_perturbs_labels(self):
        clean = generate_synthetic(seed=9, n_topics=3, n_docs=60, n_queries=6,
                                   n_eval_queries=2, grade_noise=0.0)
        noisy = generate_synthetic(seed=9, n_topics=3, n_docs=60, n_queries=6,
                                   n_eval_queries=2, grade_noise=0.5)
        # stored grades are always true construction grades
        for s in noisy.stage1_samples + noisy.stage2_samples:
            for c in s.candidates:
                assert c.grade == noisy.qrels[s.query_id].get(c.doc_id, 0)
        # stage-2 labels are clean: same label derivation as the noise-free run
        assert ([c.rank_label for s in clean.stage2_samples for c in s.candidates] ==
                [c.rank_label for s in noisy.stage2_samples for c in s.candidates])


class TestErrors:
    def test_too_few_docs_for_negatives(self):
        with pytest.raises(ConfigError):
            generate_synthetic(seed=0, n_topics=2, n_docs=10, n_queries=2,
                               n_eval_queries=1, n_negatives=15)

    def test_eval_queries_must_leave_training(self):
        with pytest.raises(ConfigError):
            generate_synthetic(seed=0, n_topics=2, n_docs=60, n_queries=5,
                               n_eval_queries=5)

    def test_bad_noise_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic(seed=0, n_topics=2, n_docs=60, n_queries=5,
                               n_eval_queries=1, grade_noise=1.5)

    @pytest.mark.parametrize("bad", [{"stage1_candidates": 0}, {"stage1_candidates": -3},
                                     {"n_negatives": -2}, {"stage1_per_query": -1}])
    def test_bad_counts_rejected_naming_the_argument(self, bad):
        [(name, value)] = bad.items()
        with pytest.raises(ConfigError, match=f"{name} must be >= .*got {value}"):
            generate_synthetic(seed=0, n_topics=2, n_docs=60, n_queries=5,
                               n_eval_queries=1, **bad)

    def test_smallest_counts_accepted(self):
        ds = generate_synthetic(seed=0, n_topics=2, n_docs=60, n_queries=5, n_eval_queries=1,
                                stage1_candidates=1, n_negatives=0, stage1_per_query=0)
        assert ds.stage1_samples == []
        assert all(len(s.candidates) == 1 for s in ds.stage2_samples)


def canonical_dump(ds) -> str:
    """Every field of a dataset as text: documents with topic and kind, both
    query splits, qrels and both sample stages."""
    lines = [f"doc\t{d.doc_id}\t{ds.doc_topic[d.doc_id]}\t{ds.doc_kind[d.doc_id]}\t{d.text}"
             for d in ds.documents]
    lines += [f"{split}\t{q.query_id}\t{q.text}"
              for split, qs in (("train", ds.train_queries), ("eval", ds.eval_queries))
              for q in qs]
    lines += [f"qrel\t{qid}\t{doc}\t{grade}" for qid in sorted(ds.qrels)
              for doc, grade in sorted(ds.qrels[qid].items())]
    for stage, samples in (("stage1", ds.stage1_samples), ("stage2", ds.stage2_samples)):
        lines += [f"{stage}\t{s.query_id}\t{s.positive_index}\t"
                  + " ".join(f"{c.doc_id}:{c.grade}:{c.rank_label}" for c in s.candidates)
                  for s in samples]
    return "\n".join(lines) + "\n"


# The datasets the benchmark workloads and the demos generate, pinned at two
# seeds: (arguments, {seed: sha256 of canonical_dump}). A faster generator
# must draw the same stream in the same order and move none of them.
PINNED_DATASETS = {
    "5000 docs, 300 queries": (dict(n_docs=5000, n_queries=300), {
        0: "c439b0eb9e15eaee88574075178ccefe71dabc594191508ac3f0b806376b9663",
        104729: "1e94b56a61fe6b8356422764ddef28902e0887b1698f79fdbd19affa8725bd76"}),
    "500 docs, 60 queries": (dict(n_docs=500), {
        0: "faf388764c4d7b51e8c7736af7ae7d883a3e36afd574b1ad9a231e5a91b56c9d",
        104729: "e7afdcefb9ffb5b76a987f699ae5a56978b3c501d566f8c9e0e91ac09b7e6074"}),
    "500 docs, 20 queries, 4 eval": (dict(n_docs=500, n_queries=20, n_eval_queries=4), {
        0: "598d71af52ea45f7112429e7b613d69fb3542ea978ec7369ed0a5e13ad9ad9e6",
        104729: "b90ae0857a0f39f4e4d2f8928575803b89b8b6a987153224924e6f08b286f018"}),
    "500 docs, grade noise 0.2": (dict(n_docs=500, grade_noise=0.2), {
        0: "d67d7645ca5b767021dcdc6b014b3986ba80e36ebe046f4a98367ec54ba04493",
        104729: "acc4256898fd8633fdb3c32e450177a2046bc754eef78e2627618a251b774aa0"}),
}


@pytest.mark.parametrize("case, seed", [(case, seed) for case, (_, pins) in PINNED_DATASETS.items()
                                        for seed in pins])
def test_pinned_dataset(case, seed):
    kwargs, pins = PINNED_DATASETS[case]
    dump = canonical_dump(generate_synthetic(seed, **kwargs))
    assert hashlib.sha256(dump.encode()).hexdigest() == pins[seed]


def choice_words(rng, pools_and_probs, length):
    """The reference draw: each word's pool from ``Generator.choice`` over
    the normalised weights, then its position by one bounded draw."""
    pools = [pool for pool, _ in pools_and_probs]
    probs = np.array([w for _, w in pools_and_probs], dtype=np.float64)
    choices = rng.choice(len(pools), size=length, p=probs / probs.sum())
    picks = rng.integers(0, np.array([len(p) for p in pools])[choices])
    return choices.tolist(), [pools[c][i] for c, i in zip(choices.tolist(), picks.tolist())]


def test_pool_draw_is_generator_choice(monkeypatch):
    """Every mix ``generate_synthetic`` builds (filler, and core, related and
    decoy per topic) draws, at each seed and length, the pools and words that
    ``Generator.choice`` draws, element by element, and leaves the generator
    in the same state."""
    mixes, word_mix = [], synthetic._word_mix

    def recorded(*pools_and_probs):
        mixes.append((pools_and_probs, word_mix(*pools_and_probs)))
        return mixes[-1][1]
    monkeypatch.setattr(synthetic, "_word_mix", recorded)
    generate_synthetic(seed=0, n_topics=2, n_docs=60, n_queries=5, n_eval_queries=1)
    assert len(mixes) == 1 + 3 * 2
    for pools_and_probs, mix in mixes:
        pool_of = {w: k for k, (pool, _) in enumerate(pools_and_probs) for w in pool}
        assert len(pool_of) == sum(len(pool) for pool, _ in pools_and_probs)  # disjoint pools
        for seed in range(50):
            for length in (1, 18, 37):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                words = synthetic._sample_words(rng, mix, length)
                want_pools, want_words = choice_words(ref, pools_and_probs, length)
                assert [pool_of[w] for w in words] == want_pools
                assert words == want_words
                assert rng.bit_generator.state == ref.bit_generator.state
