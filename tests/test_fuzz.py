"""Seeded fuzzing of the line-oriented readers.

Valid TREC-run, qrels, queries, corpus and samples files are damaged with a
fixed seed: one flipped bit, a truncation, a duplicated line, an inserted
byte that is not UTF-8, or a number replaced by a non-finite one. Each damaged
file must either raise an ``EmbrankError`` naming the file, or load into
objects that write back and reload equal.
"""

import re

import numpy as np
import pytest

from embrank.data import (Candidate, Document, Qrels, Query, RankingSample,
                          load_corpus, load_qrels, load_queries, load_samples,
                          write_corpus, write_qrels, write_queries, write_samples)
from embrank.errors import EmbrankError
from embrank.runs import RunEntry, RunList, read_trec_run, write_trec_run

SEED = 2024
CASES_PER_MUTATION = 60


def _qrels():
    qrels = Qrels()
    for qid, doc_id, grade in (("q1", "d1", 2), ("q1", "d2", 0), ("q2", "d3", 1),
                               ("q2", "d1", 3), ("q3", "d2", 1)):
        qrels.set(qid, doc_id, grade)
    return qrels


def _samples():
    grades = [[3, 0, 1, 0], [2, 2, 0], [1, 0]]
    return [RankingSample(
        query_id=f"q{i}", query_text=f"dog cat {i}",
        candidates=[Candidate(f"d{j}", g, 0 if g == max(gs) else 1) for j, g in enumerate(gs)],
        positive_index=0, negative_indices=list(range(1, len(gs))))
        for i, gs in enumerate(grades)]


# kind -> (objects written to the valid file, writer, reader returning comparable objects)
FORMATS = {
    "run": ([RunList("q1", [RunEntry("d1", 0.912345), RunEntry("d2", 0.5), RunEntry("d7", -0.25)],
                     tag="bm25"),
             RunList("q2", [RunEntry("d3", 12.0), RunEntry("d1", 3.141593)], tag="bm25")],
            write_trec_run, read_trec_run),
    "qrels": (_qrels(), write_qrels, load_qrels),
    "queries": ([Query("q1", "the dog barks"), Query("q2", "a cat, naps!"), Query("q3", "7 dogs")],
                write_queries, load_queries),
    "corpus": ([Document("d1", "the dog barks", []), Document("d2", "a cat naps 42", []),
                Document("d3", "dog and cat", [])],
               write_corpus, lambda path: load_corpus(path)[0]),
    "samples": (_samples(), write_samples, load_samples),
}

NUMBER = re.compile(rb"\d+(\.\d+)?")


def _mutate(data: bytes, how: str, rng) -> bytes:
    if how == "bit_flip":
        i = int(rng.integers(len(data)))
        return data[:i] + bytes([data[i] ^ (1 << int(rng.integers(8)))]) + data[i + 1:]
    if how == "truncate":
        return data[:int(rng.integers(len(data)))]
    if how == "duplicate_line":
        lines = data.splitlines(keepends=True)
        i = int(rng.integers(len(lines)))
        return b"".join(lines[:i + 1] + [lines[i]] + lines[i + 1:])
    if how == "non_utf8":
        i = int(rng.integers(len(data) + 1))
        return data[:i] + bytes([int(rng.choice([0x80, 0xC3, 0xFE, 0xFF]))]) + data[i:]
    if how == "non_finite":
        numbers = list(NUMBER.finditer(data))
        m = numbers[int(rng.integers(len(numbers)))]
        token = rng.choice([b"nan", b"NaN", b"inf", b"-Infinity"])
        return data[:m.start()] + token + data[m.end():]
    raise ValueError(how)


MUTATIONS = ("bit_flip", "truncate", "duplicate_line", "non_utf8", "non_finite")


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_damaged_files_raise_naming_the_file_or_round_trip(kind, tmp_path):
    objects, write, read = FORMATS[kind]
    valid = tmp_path / f"valid.{kind}"
    write(valid, objects)
    data = valid.read_bytes()
    assert read(valid) is not None
    rng = np.random.default_rng([SEED, sorted(FORMATS).index(kind)])
    outcomes = {"rejected": 0, "loaded": 0}
    for how in MUTATIONS:
        for case in range(CASES_PER_MUTATION):
            path = tmp_path / f"{how}-{case}.{kind}"
            path.write_bytes(_mutate(data, how, rng))
            try:
                loaded = read(path)
            except EmbrankError as exc:
                assert str(path) in str(exc), f"{how} case {case}: {exc}"
                outcomes["rejected"] += 1
                continue
            again = tmp_path / f"{how}-{case}-again.{kind}"
            write(again, loaded)
            assert read(again) == loaded, f"{how} case {case}: {path.read_bytes()!r}"
            outcomes["loaded"] += 1
    assert outcomes["rejected"] > 0 and outcomes["loaded"] > 0, outcomes
