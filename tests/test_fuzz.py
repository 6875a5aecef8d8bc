"""Seeded fuzzing of the line-oriented readers and of the checkpoint header.

Valid TREC-run, qrels, queries, corpus and samples files are damaged with a
fixed seed: one flipped bit, a truncation, a duplicated line, an inserted
byte that is not UTF-8, or a number replaced by a non-finite one. Each damaged
file must either raise an ``EmbrankError`` naming the file, or load into
objects that write back and reload equal.

Each header value of a valid checkpoint, every model config field included,
is replaced by 0, -1, 10**12, a string, a seeded integer, or removed. Each
damaged checkpoint must either raise ``DataFormatError`` naming the file, or
load the same weights, and no load may allocate much more than the file holds.

Valid BM25 and dense index files take one flipped bit or a truncation. Each
damaged index must either raise an ``EmbrankError`` naming the file, or load
into an index that saves and reloads to the same bytes.
"""

import copy
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from embrank.checkpoint import load_checkpoint, parameter_checksum, save_checkpoint
from embrank.errors import DataFormatError
from embrank.reranker import build_model_pair
from embrank.retrieval import DenseIndex, InvertedIndex
from embrank.serialization import FORMAT_VERSION, MAGIC, read_record_file
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


MISSING, SEEDED = object(), object()


def _header_values(meta):
    """Key paths of each header value: every top-level entry, and every field
    of the two model configs."""
    for key, value in meta.items():
        if key.endswith("_config"):
            yield from ((key, field) for field in value)
        yield (key,)


def test_damaged_checkpoint_header_raises_naming_the_file_or_loads_equal(tmp_path, tiny_vocab):
    """A header whose config asked for more than the file held once built its
    placeholder weights first: a ``max_seq_len`` of 10**12 was a raw
    ``MemoryError``. Each array is now checked against its config before
    either model is built.

    Allocations are traced during each load only: tracing makes every
    allocation several times dearer. Each damaged header is written over the
    valid file's array bytes, which follow the header unchanged."""
    valid = tmp_path / "valid.ckpt"
    models = build_model_pair(tiny_vocab, seed=0, d_model=8, n_layers=2, n_heads=2,
                              encoder_max_len=8, reranker_max_len=16)
    save_checkpoint(valid, models)
    want, limit = parameter_checksum(models), 4 * valid.stat().st_size
    meta = read_record_file(valid)[0]
    data = valid.read_bytes()  # magic, version, header length, header, arrays
    tail = data[16 + struct.unpack_from("<Q", data, 8)[0]:]

    def with_header(header: dict) -> bytes:
        """The file ``write_record_file`` writes for ``header`` and the arrays."""
        raw = json.dumps(header, sort_keys=True).encode()
        return b"".join((MAGIC, struct.pack("<IQ", FORMAT_VERSION, len(raw)), raw, tail))
    assert with_header(meta) == data
    rng = np.random.default_rng([SEED, len(FORMATS)])
    path = tmp_path / "damaged.ckpt"
    outcomes = {"rejected": 0, "loaded": 0}
    # Each value runs over every key before the next one does: a loader that
    # builds its models before checking shapes then fails at -1 (a negative
    # init_scale) before a 10**12 layer count can allocate layer by layer.
    cases = [(where, value) for value in (0, -1, 10**12, "x", SEEDED, MISSING)
             for where in _header_values(meta)]
    for where, value in cases:
        damaged = copy.deepcopy(meta)
        holder = damaged[where[0]] if len(where) == 2 else damaged
        if value is MISSING:
            del holder[where[-1]]
        else:
            holder[where[-1]] = int(rng.integers(-2**40, 2**40)) if value is SEEDED else value
        path.write_bytes(with_header(damaged))
        case = f"{'.'.join(where)} = {holder.get(where[-1], 'missing')!r}"
        loaded = None
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
        except DataFormatError as exc:
            assert str(path) in str(exc), f"{case}: {exc}"
            outcomes["rejected"] += 1
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < limit, case
        if loaded is not None:
            assert parameter_checksum(loaded) == want, case
            outcomes["loaded"] += 1
            del loaded
    assert outcomes["rejected"] > 0 and outcomes["loaded"] > 0, outcomes


@pytest.mark.parametrize("kind", ["bm25", "dense"])
def test_damaged_index_raises_naming_the_file_or_round_trips(kind, tmp_path, small_dataset):
    docs = small_dataset.documents[:5]
    if kind == "bm25":
        index, load = InvertedIndex.build(docs), InvertedIndex.load
    else:
        models = build_model_pair(small_dataset.vocab, seed=0, d_model=8, n_layers=1, n_heads=2)
        index, load = DenseIndex.build(docs, models.encoder), DenseIndex.load
    valid = tmp_path / f"valid.{kind}"
    index.save(valid)
    data = valid.read_bytes()
    rng = np.random.default_rng([SEED, len(FORMATS) + 1 + (kind == "dense")])
    outcomes = {"rejected": 0, "loaded": 0}
    for how in ("bit_flip", "truncate"):
        for case in range(CASES_PER_MUTATION):
            path = tmp_path / f"{how}-{case}.{kind}"
            path.write_bytes(_mutate(data, how, rng))
            try:
                loaded = load(path)
            except EmbrankError as exc:
                assert str(path) in str(exc), f"{how} case {case}: {exc}"
                outcomes["rejected"] += 1
                continue
            once, twice = tmp_path / "once", tmp_path / "twice"
            loaded.save(once)
            load(once).save(twice)
            assert once.read_bytes() == twice.read_bytes(), f"{how} case {case}"
            outcomes["loaded"] += 1
    assert outcomes["rejected"] > 0 and outcomes["loaded"] > 0, outcomes
