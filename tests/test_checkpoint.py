"""Binary record container and model checkpoint round-trips."""

import numpy as np
import pytest

from embrank.checkpoint import load_checkpoint, parameter_checksum, save_checkpoint
from embrank.errors import DataFormatError
from embrank.reranker import build_model_pair, rerank_detailed
from embrank.retrieval import DenseIndex, InvertedIndex
from embrank.serialization import (read_record_file, sha256_arrays, sha256_file,
                                   write_record_file)


class TestRecordContainer:
    def test_round_trip(self, tmp_path):
        meta = {"kind": "test", "note": "hello"}
        arrays = {"a": np.arange(6.0).reshape(2, 3),
                  "b": np.array([1, 2, 3], dtype=np.int64)}
        path = tmp_path / "file.bin"
        write_record_file(path, meta, arrays)
        meta2, arrays2 = read_record_file(path)
        assert meta2 == meta
        np.testing.assert_array_equal(arrays2["a"], arrays["a"])
        np.testing.assert_array_equal(arrays2["b"], arrays["b"])

    def test_bytes_depend_only_on_content(self, tmp_path):
        meta = {"x": 1}
        arrays = {"w": np.ones((3, 3))}
        p1, p2 = tmp_path / "one.bin", tmp_path / "two.bin"
        write_record_file(p1, meta, arrays)
        write_record_file(p2, meta, arrays)
        assert p1.read_bytes() == p2.read_bytes()
        assert sha256_file(p1) == sha256_file(p2)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataFormatError):
            read_record_file(path)

    def test_every_truncation_raises_data_format_error(self, tmp_path):
        path = tmp_path / "file.bin"
        write_record_file(path, {"kind": "test", "tokens": [1, 2]},
                          {"a": np.arange(6.0).reshape(2, 3), "b": np.array([7], dtype=np.int64)})
        data = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises(DataFormatError) as err:
                read_record_file(cut)
            assert str(cut) in str(err.value)

    def test_array_checksum_order_independent(self):
        a = {"x": np.ones(3), "y": np.zeros(2)}
        b = {"y": np.zeros(2), "x": np.ones(3)}
        assert sha256_arrays(a) == sha256_arrays(b)
        b["x"] = np.full(3, 2.0)
        assert sha256_arrays(a) != sha256_arrays(b)


class TestCheckpoint:
    def test_round_trip_preserves_behavior(self, tiny_models, tiny_vocab, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tiny_models, {"note": "unit"})
        loaded = load_checkpoint(path)
        assert parameter_checksum(loaded) == parameter_checksum(tiny_models)
        assert loaded.vocab.id_to_token == tiny_vocab.id_to_token
        docs = [("d0", tiny_vocab.encode("alpha beta")),
                ("d1", tiny_vocab.encode("epsilon zeta"))]
        q = tiny_vocab.encode("alpha")
        original = rerank_detailed(q, docs, tiny_models).run
        reloaded = rerank_detailed(q, docs, loaded).run
        assert [(e.doc_id, e.score) for e in original.entries] == \
               [(e.doc_id, e.score) for e in reloaded.entries]

    def test_loaded_parameters_are_read_only(self, tiny_models, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tiny_models)
        for key, t in load_checkpoint(path).parameters().items():
            with pytest.raises(ValueError):
                t.data[...] = 0.0
            assert t.data.base is None, key

    def test_flags_survive_round_trip(self, tiny_vocab, tmp_path):
        models = build_model_pair(tiny_vocab, seed=1, d_model=16, n_layers=1,
                                  n_heads=2, residual_enabled=False,
                                  normalize_embeddings=True,
                                  passage_position_embeddings=False)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, models)
        loaded = load_checkpoint(path)
        assert loaded.reranker.residual_enabled is False
        assert loaded.encoder.normalize_output is True
        assert loaded.reranker.passage_position_embeddings is False

    def test_checkpoint_bytes_deterministic(self, tiny_models, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, tiny_models)
        save_checkpoint(p2, tiny_models)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_config_key_rejected(self, tiny_models, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tiny_models)
        meta, arrays = read_record_file(path)
        meta["encoder_config"]["attention_window"] = 8
        write_record_file(path, meta, arrays)
        with pytest.raises(DataFormatError) as err:
            load_checkpoint(path)
        assert "encoder_config" in str(err.value) and "attention_window" in str(err.value)

    def test_non_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "other.bin"
        write_record_file(path, {"kind": "something-else"}, {"x": np.ones(1)})
        with pytest.raises(DataFormatError):
            load_checkpoint(path)


def _save_dense(path, models, docs):
    DenseIndex.build(docs, models.encoder).save(path)


def _save_bm25(path, models, docs):
    InvertedIndex.build(docs).save(path)


@pytest.mark.parametrize("save,load,key", [
    (_save_dense, DenseIndex.load, "matrix"),
    (_save_dense, DenseIndex.load, "doc_ids"),
    (_save_bm25, InvertedIndex.load, "offsets"),
    (_save_bm25, InvertedIndex.load, "tokens"),
    (lambda path, models, docs: save_checkpoint(path, models), load_checkpoint, "vocab"),
    (lambda path, models, docs: save_checkpoint(path, models), load_checkpoint, "eos_id"),
], ids=["dense-matrix", "dense-doc_ids", "bm25-offsets", "bm25-tokens",
        "checkpoint-vocab", "checkpoint-eos_id"])
def test_record_file_without_an_expected_key_names_file_and_key(
        tmp_path, small_dataset, save, load, key):
    models = build_model_pair(small_dataset.vocab, seed=0, d_model=8, n_layers=1, n_heads=2)
    path = tmp_path / "file.bin"
    save(path, models, small_dataset.documents[:5])
    meta, arrays = read_record_file(path)
    (arrays if key in arrays else meta).pop(key)
    write_record_file(path, meta, arrays)
    with pytest.raises(DataFormatError) as err:
        load(path)
    assert str(path) in str(err.value) and repr(key) in str(err.value)



def _set(name, value):
    """A damage that replaces one header entry or array with ``value(meta, arrays)``."""
    def damage(meta, arrays):
        (arrays if name in arrays else meta)[name] = value(meta, arrays)
    return damage


def _with(arr, i, value):
    out = np.array(arr)
    out[i] = value
    return out


@pytest.mark.parametrize("damage,key", [
    (_set("offsets", lambda m, a: a["offsets"][:-2]), "offsets"),
    (_set("offsets", lambda m, a: a["offsets"] + 1), "offsets"),
    (_set("offsets", lambda m, a: _with(a["offsets"], 1, a["offsets"][2] + 1)), "offsets"),
    (_set("offsets", lambda m, a: _with(a["offsets"], -1, a["offsets"][-1] - 1)), "offsets"),
    (_set("doc_idx", lambda m, a: _with(a["doc_idx"], 0, len(m["doc_ids"]))), "doc_idx"),
    (_set("doc_idx", lambda m, a: _with(a["doc_idx"], 0, -1)), "doc_idx"),
    (_set("doc_idx", lambda m, a: a["doc_idx"].astype(np.float64)), "doc_idx"),
    (_set("tf", lambda m, a: np.zeros_like(a["tf"])), "tf"),
    (_set("tf", lambda m, a: a["tf"][:-1]), "tf"),
    (_set("tokens", lambda m, a: m["tokens"][::-1]), "tokens"),
    (_set("tokens", lambda m, a: ["a"] + m["tokens"][1:]), "tokens"),
    (_set("doc_lengths", lambda m, a: a["doc_lengths"][:-1]), "doc_lengths"),
    (_set("doc_lengths", lambda m, a: _with(a["doc_lengths"], 0, 0)), "doc_lengths"),
    (_set("doc_ids", lambda m, a: []), "doc_ids"),
    (_set("doc_ids", lambda m, a: ["d1", "d1"] + m["doc_ids"][2:]), ("doc_ids", "'d1'")),
    (_set("k1", lambda m, a: "x"), "k1"),
    (_set("b", lambda m, a: None), "b"),
    (_set("k1", lambda m, a: -1), "k1"),
    (_set("b", lambda m, a: 2), "b"),
], ids=["offsets-short", "offsets-not-from-zero", "offsets-falling", "offsets-end-short",
        "doc_idx-past-last-doc", "doc_idx-negative", "doc_idx-float", "tf-zero", "tf-short",
        "tokens-reordered", "tokens-not-integers", "doc_lengths-short", "doc_lengths-zero",
        "no-documents", "doc_ids-repeated", "k1-not-a-number", "b-null", "k1-negative",
        "b-above-one"])
def test_damaged_bm25_index_names_file_and_array(tmp_path, small_dataset, damage, key):
    """Each damage once ended in a raw IndexError, TypeError or
    ZeroDivisionError, in a ConfigError that named no file, or in an index
    that loaded and then ranked silently wrong (a repeated id ranked one
    entry for two documents). A key may carry more text the message must hold."""
    path = tmp_path / "bm25.idx"
    InvertedIndex.build(small_dataset.documents[:5]).save(path)
    meta, arrays = read_record_file(path)
    damage(meta, arrays)
    write_record_file(path, meta, arrays)
    with pytest.raises(DataFormatError) as err:
        InvertedIndex.load(path)
    field, *details = key if isinstance(key, tuple) else (key,)
    message = str(err.value)
    assert str(path) in message and repr(field) in message
    assert all(detail in message for detail in details)


@pytest.mark.parametrize("damage,key", [
    (_set("matrix", lambda m, a: a["matrix"][:3]), "matrix"),
    (_set("matrix", lambda m, a: np.vstack([a["matrix"], a["matrix"][:1]])), "matrix"),
    (_set("matrix", lambda m, a: a["matrix"].ravel()), "matrix"),
    (_set("matrix", lambda m, a: a["matrix"][:, :0]), "matrix"),
    (_set("matrix", lambda m, a: np.ones(a["matrix"].shape, dtype=np.int64)), "matrix"),
    (_set("doc_ids", lambda m, a: m["doc_ids"][:1] * len(m["doc_ids"])), "doc_ids"),
    (_set("doc_ids", lambda m, a: list(range(len(m["doc_ids"])))), "doc_ids"),
    (_set("doc_ids", lambda m, a: "d0001"), "doc_ids"),
    (_set("doc_ids", lambda m, a: []), "doc_ids"),
    (_set("metadata", lambda m, a: ["encoder_sha256"]), "metadata"),
    (_set("matrix", lambda m, a: _with(a["matrix"], (2, 3), np.nan)), ("matrix", "row 2")),
    (_set("matrix", lambda m, a: _with(a["matrix"], (2, 0), np.inf)), ("matrix", "row 2")),
    (_set("matrix", lambda m, a: _with(a["matrix"], (2, 7), -np.inf)), ("matrix", "row 2")),
], ids=["matrix-fewer-rows", "matrix-more-rows", "matrix-1d", "matrix-no-columns",
        "matrix-integers", "doc_ids-repeated", "doc_ids-not-strings", "doc_ids-not-a-list",
        "no-documents", "metadata-not-an-object", "matrix-nan", "matrix-inf",
        "matrix-minus-inf"])
def test_damaged_dense_index_names_file_and_field(tmp_path, small_dataset, damage, key):
    """Each damage once loaded: search then ranked fewer documents, or one
    document for many, or failed later naming no file (a NaN or infinite row
    failed at the first search with a ``NumericError`` naming neither the file
    nor the row). A key may carry more text the message must hold."""
    path = tmp_path / "dense.idx"
    models = build_model_pair(small_dataset.vocab, seed=0, d_model=8, n_layers=1, n_heads=2)
    _save_dense(path, models, small_dataset.documents[:5])
    meta, arrays = read_record_file(path)
    damage(meta, arrays)
    write_record_file(path, meta, arrays)
    with pytest.raises(DataFormatError) as err:
        DenseIndex.load(path)
    field, *details = key if isinstance(key, tuple) else (key,)
    message = str(err.value)
    assert str(path) in message and repr(field) in message
    assert all(detail in message for detail in details)
