"""Encoder contract: pooling, determinism, batch independence, freezing."""

import numpy as np
import pytest

import embrank.autodiff as ad
from embrank.autodiff import backward
import embrank.encoder as encoder_module
from embrank.errors import NumericError, ShapeError
from embrank.reranker import build_model_pair

from helpers import reference_transformer_forward


@pytest.fixture
def encoder(tiny_models):
    return tiny_models.encoder


@pytest.fixture
def vocab(tiny_vocab):
    return tiny_vocab


def test_output_shape_is_hidden_dim(encoder, vocab):
    for text in ("alpha", "alpha beta gamma", "theta iota kappa alpha beta"):
        e = encoder.encode_passage(vocab.encode(text))
        assert e.shape == (encoder.config.d_model,)


def test_deterministic(encoder, vocab):
    ids = vocab.encode("alpha beta gamma")
    a = encoder.encode_passage(ids)
    b = encoder.encode_passage(ids)
    np.testing.assert_array_equal(a.data, b.data)


def test_single_token_passages_differ_under_random_init(encoder, vocab):
    a = encoder.encode_passage(vocab.encode("alpha"))
    b = encoder.encode_passage(vocab.encode("beta"))
    assert not np.array_equal(a.data, b.data)


def test_pooling_is_final_position_hidden_state(encoder, vocab):
    """The embedding equals the last row of the reference forward pass exactly:
    no projection head sits between the encoder and what gets injected."""
    ids = vocab.encode("alpha beta gamma delta")
    e = encoder.encode_passage(ids)
    ref = reference_transformer_forward(encoder, token_ids=ids)
    np.testing.assert_allclose(e.data, ref[-1], atol=1e-12)


def test_query_and_passage_share_network(encoder, vocab):
    ids = vocab.encode("alpha beta")
    q = encoder.encode_query(ids)
    p = encoder.encode_passage(ids)
    assert ad.cosine_rows(q, encoder.batch_encode([ids])).data[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(q.data, p.data)


def test_score_ordering_matches_reference_forward(encoder, vocab):
    """Encoder similarity ordering over a 4-doc set agrees with an independent
    full-precision recomputation of every embedding."""
    texts = ["alpha beta", "epsilon zeta eta", "theta iota", "beta delta zeta lambda"]
    query = vocab.encode("alpha beta gamma")
    q = encoder.encode_query(query).data
    lib_scores = []
    ref_scores = []
    for text in texts:
        ids = vocab.encode(text)
        e = encoder.encode_passage(ids).data
        lib_scores.append(float(q @ e / (np.linalg.norm(q) * np.linalg.norm(e))))
        r = reference_transformer_forward(encoder, token_ids=ids)[-1]
        qr = reference_transformer_forward(encoder, token_ids=query)[-1]
        ref_scores.append(float(qr @ r / (np.linalg.norm(qr) * np.linalg.norm(r))))
    assert np.argsort(lib_scores).tolist() == np.argsort(ref_scores).tolist()
    np.testing.assert_allclose(lib_scores, ref_scores, atol=1e-10)


class TestBatchEncode:
    def test_empty_list(self, encoder):
        assert encoder.batch_encode([]).shape == (0, encoder.config.d_model)

    def test_batch_of_one_equals_single(self, encoder, vocab):
        ids = vocab.encode("alpha beta")
        single = encoder.encode_passage(ids)
        batched = encoder.batch_encode([ids])
        np.testing.assert_array_equal(single.data, batched.data[0])

    def test_batch_of_ten_bit_identical_to_singles(self, encoder, vocab):
        rng = np.random.default_rng(8)
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
        passages = [vocab.encode(" ".join(rng.choice(words, size=rng.integers(1, 6))))
                    for _ in range(10)]
        batched = encoder.batch_encode(passages)
        for ids, e in zip(passages, batched.data):
            np.testing.assert_array_equal(e, encoder.encode_passage(ids).data)

    def test_length_buckets_bit_identical_in_input_order(self, encoder, vocab):
        """Mixed lengths, one length's passages filling more than two packs,
        shuffled: row i is encode_passage(passages[i]) bit for bit."""
        rng = np.random.default_rng(11)
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
        same = [vocab.encode(" ".join(rng.choice(words, size=4)))
                for _ in range(2 * encoder_module.TOKEN_BUDGET // 4 + 8)]
        assert all(len(ids) == 4 for ids in same)
        mixed = [vocab.encode(" ".join(rng.choice(words, size=rng.integers(1, 9))))
                 for _ in range(20)]
        passages = same + mixed
        passages = [passages[i] for i in rng.permutation(len(passages))]
        batched = encoder.batch_encode(passages)
        assert batched.shape == (len(passages), encoder.config.d_model)
        for ids, e in zip(passages, batched.data):
            np.testing.assert_array_equal(e, encoder.encode_passage(ids).data)

    def test_passages_longer_than_the_token_budget_run_alone(self, encoder, vocab, monkeypatch):
        """With a budget of 4 rows, packs hold one to four passages, and the
        passages of 5 and more tokens each run in a pack of their own."""
        monkeypatch.setattr(encoder_module, "TOKEN_BUDGET", 4)
        words = "alpha beta gamma delta epsilon zeta eta theta".split()
        passages = [vocab.encode(" ".join(words[:n])) for n in (6, 1, 3, 1, 8, 2, 5, 1)]
        for ids, e in zip(passages, encoder.batch_encode(passages).data):
            np.testing.assert_array_equal(e, encoder.encode_passage(ids).data)

    def test_gradients_flow_to_every_passage(self, tiny_models, vocab):
        """One backward through a packed batch gives the sum of the gradients
        of the passages encoded one at a time."""
        enc = tiny_models.encoder
        passages = [vocab.encode(t) for t in ("alpha beta", "gamma delta", "zeta eta theta")]
        backward(ad.sum_all(enc.batch_encode(passages)))
        batched = {k: t.grad.copy() for k, t in enc.parameters().items()}
        for t in enc.parameters().values():
            t.grad = None
        for ids in passages:
            backward(ad.sum_all(enc.encode_passage(ids)))
        for k, t in enc.parameters().items():
            np.testing.assert_allclose(batched[k], t.grad, rtol=1e-12, atol=1e-15, err_msg=k)

    def test_numeric_error_names_the_passages_of_its_chunk(self, tiny_models, vocab):
        enc = tiny_models.encoder
        tok_emb = enc.parameters()["tok_emb"]
        poisoned = tok_emb.data.copy()
        poisoned[vocab.encode("zeta")[0]] = np.nan
        ad.set_param_data(tok_emb, poisoned)
        passages = [vocab.encode("alpha beta"), vocab.encode("gamma delta epsilon"),
                    vocab.encode("eta zeta")]
        with pytest.raises(NumericError) as err:
            enc.batch_encode(passages)
        assert "passages [0, 1, 2]:" in str(err.value)

    def test_passage_independence(self, encoder, vocab):
        """Changing one batch element never changes another's embedding bits."""
        a = vocab.encode("alpha beta gamma")
        b1 = vocab.encode("epsilon zeta")
        b2 = vocab.encode("kappa lambda mu theta")
        first = encoder.batch_encode([a, b1])
        second = encoder.batch_encode([a, b2])
        np.testing.assert_array_equal(first.data[0], second.data[0])

    def test_error_carries_index(self, encoder, vocab):
        with pytest.raises(ShapeError) as err:
            encoder.batch_encode([vocab.encode("alpha"), []])
        assert "passage 1" in str(err.value)


class TestLengthLimits:
    def test_empty_input_rejected(self, encoder):
        with pytest.raises(ShapeError):
            encoder.encode_passage([])

    def test_overlength_rejected_not_truncated(self, encoder, vocab):
        ids = vocab.encode("alpha") * (encoder.config.max_seq_len + 1)
        with pytest.raises(ShapeError) as err:
            encoder.encode_passage(ids)
        assert "truncation" in str(err.value)


class TestGradientFlow:
    def test_frozen_encoder_gets_no_gradients(self, tiny_models, vocab):
        tiny_models.encoder.set_trainable(False)
        e = tiny_models.encoder.encode_passage(vocab.encode("alpha beta"))
        assert not e.requires_grad
        backward(ad.sum_all(ad.mul(e, e)))
        for t in tiny_models.encoder.parameters().values():
            assert t.grad is None

    def test_trainable_encoder_gets_gradients(self, tiny_models, vocab):
        tiny_models.encoder.set_trainable(True)
        e = tiny_models.encoder.encode_passage(vocab.encode("alpha beta"))
        backward(ad.sum_all(ad.mul(e, e)))
        grads = [t.grad for t in tiny_models.encoder.parameters().values()]
        assert any(g is not None and np.any(g != 0) for g in grads)


class TestReadRows:
    """``forward_embedded(x, lengths, rows)`` runs the last block past attention
    on ``rows`` only, and row j of its output is row ``rows[j]`` of the full
    forward, bit for bit."""

    @staticmethod
    def transformer(vocab, n_layers):
        return build_model_pair(vocab, seed=29, d_model=16, n_layers=n_layers, n_heads=2,
                                encoder_max_len=12, ffn_mult=2).encoder

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("texts, rows", [
        # mixed lengths with a 1-token passage: each one's last row, then any rows
        (("alpha beta gamma", "delta", "epsilon zeta eta theta iota", "kappa lambda"),
         "last"),
        (("alpha beta gamma", "delta", "epsilon zeta eta theta iota", "kappa lambda"),
         [9, 0, 3, 3, 10]),
        (("alpha",), "last"),  # a 1-row query
        (("theta iota kappa alpha",), "last"),
    ], ids=["mixed_last", "mixed_any", "one_row", "one_sequence"])
    def test_read_rows_equal_the_full_forward(self, vocab, n_layers, texts, rows):
        model = self.transformer(vocab, n_layers)
        sequences = [vocab.encode(t) for t in texts]
        lengths = [len(s) for s in sequences]
        if rows == "last":
            rows = np.cumsum(lengths) - 1
        x = model.embed_tokens(sequences)
        full = model.forward_embedded(x, lengths)
        read = model.forward_embedded(x, lengths, rows)
        assert read.shape == (len(rows), model.config.d_model)
        np.testing.assert_array_equal(read.data, full.data[rows])
        with ad.no_grad():
            np.testing.assert_array_equal(model.forward_embedded(x, lengths, rows).data,
                                          full.data[rows])

    def test_batch_encode_is_the_full_forward_pooled(self, vocab):
        """``batch_encode`` rows equal the last rows of the unpruned forward."""
        enc = build_model_pair(vocab, seed=29, d_model=16, n_layers=2, n_heads=2,
                               encoder_max_len=12, ffn_mult=2).encoder
        model = enc
        passages = [vocab.encode(t) for t in ("alpha beta", "gamma", "delta epsilon zeta")]
        order = sorted(range(3), key=lambda i: len(passages[i]))
        lengths = [len(passages[i]) for i in order]
        full = model.forward_embedded(model.embed_tokens([passages[i] for i in order]), lengths)
        pooled = full.data[np.cumsum(lengths) - 1][np.argsort(order)]
        np.testing.assert_array_equal(enc.batch_encode(passages).data, pooled)

    def test_out_of_range_row_rejected(self, vocab):
        model = self.transformer(vocab, 1)
        x = model.embed_tokens([vocab.encode("alpha beta")])
        with pytest.raises(ShapeError):
            model.forward_embedded(x, [2], [2])


@pytest.mark.parametrize("d_model,n_heads", [(36, 4), (136, 8)], ids=["hd9", "hd17"])
def test_batch_encode_equals_encode_passage_at_odd_head_widths(vocab, d_model, n_heads):
    """Head widths 9 and 17 are 1 past a multiple of 8, where OpenBLAS rounds
    a product's last column by its row count. Packs hold three passages of
    each length from 1 to 16 tokens, and in their last block the groups of
    7 or more tokens softmax one row per passage; every row still equals its
    passage's own ``encode_passage``, bit for bit. This holds at
    ``ffn_mult=2`` only: with the default ``ffn_mult=4`` the FFN's products
    round by row count at these widths (the ``ad.matmul`` docstring), and
    ``batch_encode`` differs from ``encode_passage`` in 40 of 40 seed-0
    passages at ``d_model`` 36 and 30 of 40 at 136."""
    enc = build_model_pair(vocab, seed=31, d_model=d_model, n_layers=2, n_heads=n_heads,
                           encoder_max_len=16, ffn_mult=2).encoder
    rng = np.random.default_rng(d_model)
    passages = [list(rng.integers(0, len(vocab), size=t)) for t in range(1, 17) for _ in range(3)]
    batched = enc.batch_encode(passages).data
    for ids, row in zip(passages, batched):
        np.testing.assert_array_equal(row.view(np.uint64),
                                      enc.encode_passage(ids).data.view(np.uint64))
