"""Tokenizer, vocabulary, file loaders, and sample validation."""

import json

import pytest

from embrank.data import (Candidate, Qrels, Query, RankingSample, Vocabulary,
                          has_orderable_pair, load_corpus, load_qrels,
                          load_queries, load_samples, rank_labels_from_grades,
                          split_words, validate_sample, write_corpus,
                          write_qrels, write_queries, write_samples,
                          INSTRUCTION_TEXT)
from embrank.errors import DataFormatError
from embrank.runs import read_trec_run


@pytest.fixture
def vocab():
    return Vocabulary.build(["the dog barks", "a cat, naps!", "dog and cat"])


class TestTokenizer:
    def test_empty_text_gives_empty_list(self, vocab):
        assert vocab.encode("") == []

    def test_repeated_word_same_id(self, vocab):
        ids = vocab.encode("dog dog")
        assert len(ids) == 2 and ids[0] == ids[1]

    def test_punctuation_split_by_fixed_rules(self, vocab):
        # lowercase, whitespace split, punctuation marks as single tokens
        ids = vocab.encode("Dog, cat!")
        expected = [vocab.token_to_id["dog"], vocab.token_to_id[","],
                    vocab.token_to_id["cat"], vocab.token_to_id["!"]]
        assert ids == expected

    def test_unknown_word_maps_to_unk(self, vocab):
        assert vocab.encode("zebra") == [vocab.unk_id]

    def test_pure_function_across_rebuilds(self):
        texts = ["some words here", "and other words"]
        a = Vocabulary.build(texts)
        b = Vocabulary.build(texts)
        assert a.id_to_token == b.id_to_token
        assert a.encode("other words appear") == b.encode("other words appear")

    def test_split_words_cases(self):
        assert split_words("A-b c.d") == ["a", "-", "b", "c", ".", "d"]


class TestVocabulary:
    def test_bijective(self, vocab):
        for token, idx in vocab.token_to_id.items():
            assert vocab.id_to_token[idx] == token

    def test_reserved_ids_stable_across_corpora(self):
        a = Vocabulary.build(["xyzzy words"])
        b = Vocabulary.build(["completely different text"])
        assert (a.pad_id, a.unk_id, a.eos_id) == (b.pad_id, b.unk_id, b.eos_id)
        assert a.instruction_ids() == b.instruction_ids()

    def test_instruction_never_contains_unk(self, vocab):
        assert vocab.unk_id not in vocab.instruction_ids()
        assert len(vocab.instruction_ids()) == len(split_words(INSTRUCTION_TEXT))


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "d1", "text": "hello world"}\n'
                        '{"id": "d2", "text": "more text"}\n')
        docs, vocab = load_corpus(path)
        assert [d.doc_id for d in docs] == ["d1", "d2"]
        out = tmp_path / "copy.jsonl"
        write_corpus(out, docs)
        docs2, _ = load_corpus(out)
        assert [(d.doc_id, d.text) for d in docs] == [(d.doc_id, d.text) for d in docs2]

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "d1", "text": "ok"}\nnot json\n')
        with pytest.raises(DataFormatError) as err:
            load_corpus(path)
        assert ":2:" in str(err.value)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "d1"}\n')
        with pytest.raises(DataFormatError):
            load_corpus(path)

    def test_duplicate_doc_id_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "d1", "text": "a"}\n{"id": "d1", "text": "b"}\n')
        with pytest.raises(DataFormatError) as err:
            load_corpus(path)
        assert "duplicate" in str(err.value)


class TestQueriesIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "queries.tsv"
        write_queries(path, [Query("q1", "first query"), Query("q2", "second")])
        loaded = load_queries(path)
        assert [(q.query_id, q.text) for q in loaded] == [("q1", "first query"), ("q2", "second")]

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("q1 no tab here\n")
        with pytest.raises(DataFormatError) as err:
            load_queries(path)
        assert ":1:" in str(err.value)

    def test_duplicate_query_id_rejected(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("q1\tfirst\nq2\tsecond\nq1\tagain\n")
        with pytest.raises(DataFormatError) as err:
            load_queries(path)
        assert f"{path}:3: duplicate query id 'q1'" in str(err.value)


class TestQrels:
    def test_parse_line(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d7 3\n")
        qrels = load_qrels(path)
        assert qrels.grade("q1", "d7") == 3

    def test_absent_pair_is_zero(self):
        qrels = Qrels()
        qrels.set("q1", "d1", 2)
        assert qrels.grade("q1", "nope") == 0
        assert qrels.grade("q9", "d1") == 0

    def test_round_trip_identical(self, tmp_path):
        qrels = Qrels()
        qrels.set("q2", "d1", 1)
        qrels.set("q1", "d3", 3)
        qrels.set("q1", "d2", 0)
        path = tmp_path / "qrels.txt"
        write_qrels(path, qrels)
        assert load_qrels(path) == qrels

    def test_negative_grade_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 -2\n")
        with pytest.raises(DataFormatError):
            load_qrels(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq1 0 d1 2\n")
        with pytest.raises(DataFormatError):
            load_qrels(path)


def make_sample(n=4, positive=0):
    cands = [Candidate(f"d{i}", grade=3 if i == positive else 0,
                       rank_label=0 if i == positive else 1) for i in range(n)]
    return RankingSample(query_id="q0", query_text="hello", candidates=cands,
                         positive_index=positive,
                         negative_indices=[i for i in range(n) if i != positive])


class TestSamples:
    def test_valid_sample_passes(self):
        validate_sample(make_sample())

    def test_positive_out_of_range(self):
        s = make_sample()
        s.positive_index = 9
        with pytest.raises(DataFormatError):
            validate_sample(s)

    def test_negatives_must_cover_rest(self):
        s = make_sample()
        s.negative_indices = [1, 2]  # missing 3
        with pytest.raises(DataFormatError):
            validate_sample(s)

    def test_orderable_pair_detection(self):
        s = make_sample()
        assert has_orderable_pair(s)
        for c in s.candidates:
            c.rank_label = 0
        assert not has_orderable_pair(s)

    def test_rank_labels_dense_with_ties(self):
        assert rank_labels_from_grades([3, 0, 2, 0, 2]) == [0, 2, 1, 2, 1]

    def test_jsonl_round_trip(self, tmp_path):
        samples = [make_sample(5, positive=2), make_sample(3, positive=0)]
        path = tmp_path / "samples.jsonl"
        write_samples(path, samples)
        loaded = load_samples(path)
        assert len(loaded) == 2
        assert loaded[0].positive_index == 2
        assert [c.doc_id for c in loaded[0].candidates] == [c.doc_id for c in samples[0].candidates]

    def test_infinite_index_rejected(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        write_samples(path, [make_sample(3)])
        path.write_text(path.read_text().replace('"positive_index": 0', '"positive_index": Infinity'))
        with pytest.raises(DataFormatError) as err:
            load_samples(path)
        assert f"{path}:1: malformed sample record" in str(err.value)

    @pytest.mark.parametrize("field,value", [("query", 5), ("query_id", None),
                                             ("doc_id", ["d0"])])
    def test_non_string_text_fields_rejected(self, tmp_path, field, value):
        record = {"query_id": "q0", "query": "x", "positive_index": 0, "negative_indices": [1],
                  "candidates": [{"doc_id": "d0", "grade": 1, "rank_label": 0},
                                 {"doc_id": "d1", "grade": 0, "rank_label": 1}]}
        (record["candidates"][0] if field == "doc_id" else record)[field] = value
        path = tmp_path / "samples.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(DataFormatError) as err:
            load_samples(path)
        assert f"{path}:1: malformed sample record" in str(err.value)

    def test_invalid_sample_file_rejected(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        record = {"query_id": "q0", "query": "x", "positive_index": 0,
                  "negative_indices": [],
                  "candidates": [{"doc_id": "d0", "grade": 9, "rank_label": 0}]}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(DataFormatError):
            load_samples(path)


VALID_FILES = {
    "corpus": (load_corpus, '{"id": "d1", "text": "the dog barks"}\n'),
    "queries": (load_queries, "q1\tthe dog\n"),
    "qrels": (load_qrels, "q1 0 d1 1\n"),
    "samples": (load_samples, json.dumps({
        "query_id": "q1", "query": "dog", "positive_index": 0, "negative_indices": [],
        "candidates": [{"doc_id": "d1", "grade": 1, "rank_label": 0}]}) + "\n"),
    "run": (read_trec_run, "q1 Q0 d1 1 0.500000 t\n"),
}


@pytest.mark.parametrize("kind", sorted(VALID_FILES))
def test_non_utf8_byte_names_the_file_line_and_offset(kind, tmp_path):
    """A byte that is not UTF-8, on line 2 at byte offset len(line 1) + 3,
    raises ``DataFormatError`` instead of ``UnicodeDecodeError``."""
    load, text = VALID_FILES[kind]
    path = tmp_path / f"{kind}.txt"
    path.write_bytes(text.encode() + b"q2\xff\n")
    with pytest.raises(DataFormatError) as err:
        load(path)
    assert f"{path}:2: not UTF-8 text (invalid start byte at byte {len(text) + 2})" \
        == str(err.value)
