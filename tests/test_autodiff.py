"""Forward/backward correctness of the tensor engine."""

import itertools
import math
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import embrank.autodiff as ad
import embrank.training
from embrank.autodiff import backward
from embrank.data import has_orderable_pair
from embrank.errors import DegenerateInputError, NumericError, ShapeError
from embrank.reranker import build_model_pair
from embrank.synthetic import generate_synthetic
from embrank.training import Adam, LossConfig, train_step
from embrank.transformer import CausalTransformer, ModelConfig

from helpers import (highprec_softmax_row, naive_matmul, reference_causal_attention,
                     tape_bytes)


class TestMatmul:
    @pytest.mark.parametrize("t", [1, 2, 13, 39])
    def test_batched_equals_2d_products_bitwise(self, t):
        """Sequences packed end to end as the rows of one operand get the bits
        of each sequence's own product, one-row sequences included."""
        rng = np.random.default_rng(t)
        lengths = [t, 1, 3, t, 1, 7, 2]
        w = ad.tensor(rng.normal(size=(64, 256)))
        a = rng.normal(size=(sum(lengths), 64))
        out = ad.matmul(ad.tensor(a), w).data
        lo = 0
        for n in lengths:
            np.testing.assert_array_equal(out[lo:lo + n], ad.matmul(ad.tensor(a[lo:lo + n]), w).data)
            lo += n

    def test_batched_rejects_a_batched_right_operand(self):
        """No operand takes a batch axis: several sequences run as packed rows."""
        x, w = ad.tensor(np.zeros((2, 3, 4))), ad.tensor(np.zeros((4, 4)))
        for left, right in ((x, x), (w, x), (x, w)):
            with pytest.raises(ShapeError):
                ad.matmul(left, right)

    def test_identity(self):
        rng = np.random.default_rng(0)
        a = ad.tensor(rng.normal(size=(3, 3)))
        out = ad.matmul(a, ad.tensor(np.eye(3)))
        np.testing.assert_array_equal(out.data, a.data)

    def test_zero(self):
        z = ad.tensor(np.zeros((2, 3)))
        b = ad.tensor(np.random.default_rng(1).normal(size=(3, 4)))
        np.testing.assert_array_equal(ad.matmul(z, b).data, np.zeros((2, 4)))

    def test_two_by_two(self):
        a = [[1.0, 2.0], [3.0, 4.0]]
        b = [[5.0, 6.0], [7.0, 8.0]]
        out = ad.matmul(ad.tensor(a), ad.tensor(b))
        np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])
        np.testing.assert_allclose(out.data, naive_matmul(a, b), rtol=0, atol=0)

    def test_random_against_triple_loop(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.normal(size=(3, 5))
            b = rng.normal(size=(5, 2))
            out = ad.matmul(ad.tensor(a), ad.tensor(b))
            np.testing.assert_allclose(out.data, naive_matmul(a, b), atol=1e-12)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            ad.matmul(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((4, 2))))
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


class TestSiluMatmul:
    @pytest.mark.parametrize("t", [1, 2, 13])
    def test_equals_silu_then_matmul_bitwise(self, t):
        """Forward and both gradients have the bits of x * sigmoid(x) and a
        ``matmul`` of it run apart, with one row run as two as ``matmul``
        runs it, and the silu gradient g * sig * (1 + x * (1 - sig))."""
        rng = np.random.default_rng(40 + t)
        x, w = rng.normal(size=(t, 96)) * 3.0, rng.normal(size=(96, 24))
        g = rng.normal(size=(t, 24))
        a, b = ad.param(x), ad.param(w)
        out = ad.silu_matmul(a, b)
        backward(ad.sum_all(ad.mul(out, ad.tensor(g))))
        sig = 1.0 / (1.0 + np.exp(-x))
        h = x * sig
        np.testing.assert_array_equal(out.data, (h[[0, 0]] @ w)[:1] if t == 1 else h @ w)
        np.testing.assert_array_equal(b.grad, h.T @ g)
        np.testing.assert_array_equal(a.grad, (g @ w.T) * sig * (1.0 + x * (1.0 - sig)))

    def test_non_finite_gate_raises_naming_silu(self):
        x = ad.tensor([[np.nan, 1.0]])
        with pytest.raises(NumericError, match="silu"):
            ad.silu_matmul(x, ad.tensor(np.ones((2, 2))))

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            ad.silu_matmul(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((4, 2))))
        assert "silu_matmul" in str(err.value) and "(2, 3)" in str(err.value)


def softmax_via_attention(rows):
    """Row softmax of each length-T row (T <= 16) through ``causal_attention``.

    With one head of width 16 the scale is exactly 0.25, so ``q = 4 L`` and
    ``k = v = I[:T]`` make the logits of the last position exactly ``L[T-1]``,
    none of them masked, and the first T output columns of that position are
    exactly its softmax weights.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    t = rows.shape[1]
    eye = ad.tensor(np.eye(16)[:t])
    out = []
    for row in rows:
        lifted = np.zeros((t, 16))
        lifted[t - 1, :t] = row
        attn = ad.causal_attention(ad.tensor(4.0 * lifted), eye, eye, n_heads=1)
        out.append(attn.data[t - 1, :t])
    return np.array(out)


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = softmax_via_attention([[2.5, 2.5, 2.5]])
        np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_closed_form_log_two(self):
        out = softmax_via_attention([[0.0, math.log(2.0)]])
        np.testing.assert_allclose(out, [[1 / 3, 2 / 3]], atol=1e-15)

    def test_spike_is_one_hot(self):
        row = np.array([1.0, 41.0, 0.5, -2.0])
        out = softmax_via_attention(row[None, :])
        np.testing.assert_allclose(out[0], [0.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_matches_high_precision_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            row = rng.normal(size=6) * 5.0
            out = softmax_via_attention(row[None, :])
            np.testing.assert_allclose(out[0], highprec_softmax_row(row), atol=1e-14)

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 7)) * 10.0
        out = softmax_via_attention(x)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(50), atol=1e-9)
        assert np.all(out > 0.0)

    def test_nan_input_rejected_in_strict_mode(self):
        x = np.zeros((2, 2))
        x[0, 1] = np.nan
        with pytest.raises(NumericError):
            softmax_via_attention(x)


class TestCausalAttention:
    @pytest.mark.parametrize("t", [1, 2, 35])
    def test_batch_equals_each_sequence_alone(self, t):
        """Sequences packed end to end as [ΣT, d] rows, with equal lengths apart
        and side by side and one-token sequences, give each sequence's [T, d]
        output and gradients bit for bit."""
        rng = np.random.default_rng(t)
        lengths, d, n_heads = [1, 3, 3, 5, 3, 1, t], 64, 4
        q, k, v = (ad.param(rng.normal(size=(sum(lengths), d))) for _ in range(3))
        g = rng.normal(size=(sum(lengths), d))
        out = ad.causal_attention(q, k, v, n_heads, lengths)
        backward(ad.sum_all(ad.mul(out, ad.tensor(g))))
        lo = 0
        for n in lengths:
            rows = slice(lo, lo + n)
            ref = reference_causal_attention(q.data[rows], k.data[rows], v.data[rows], n_heads, g[rows])
            for got, want in zip((out.data[rows], q.grad[rows], k.grad[rows], v.grad[rows]), ref):
                np.testing.assert_array_equal(got, want)
            lo += n

    @pytest.mark.parametrize("lengths", [[], [0, 4], [2, 1], [2, 3]])
    def test_lengths_must_split_the_rows(self, lengths):
        q = ad.tensor(np.zeros((4, 8)))
        with pytest.raises(ShapeError):
            ad.causal_attention(q, q, q, 2, lengths)

    @pytest.mark.parametrize("n_heads,d", [(1, 8), (2, 16), (4, 64)])
    @pytest.mark.parametrize("t", [1, 2, 35, 64, 130])
    def test_bitwise_equal_to_per_head_reference(self, n_heads, d, t):
        rng = np.random.default_rng(1000 * d + t)
        q, k, v = (ad.param(rng.normal(size=(t, d))) for _ in range(3))
        g = rng.normal(size=(t, d))
        out = ad.causal_attention(q, k, v, n_heads)
        backward(ad.sum_all(ad.mul(out, ad.tensor(g))))
        ref_out, ref_dq, ref_dk, ref_dv = reference_causal_attention(q.data, k.data, v.data,
                                                                     n_heads, g)
        np.testing.assert_array_equal(out.data, ref_out)
        np.testing.assert_array_equal(q.grad, ref_dq)
        np.testing.assert_array_equal(k.grad, ref_dk)
        np.testing.assert_array_equal(v.grad, ref_dv)

    def test_width_not_divisible_by_heads_rejected(self):
        x = ad.tensor(np.zeros((3, 6)))
        with pytest.raises(ShapeError):
            ad.causal_attention(x, x, x, n_heads=4)

    def test_mismatched_shapes_rejected(self):
        a, b = ad.tensor(np.zeros((3, 8))), ad.tensor(np.zeros((4, 8)))
        with pytest.raises(ShapeError) as err:
            ad.causal_attention(a, b, a, n_heads=2)
        assert "(3, 8)" in str(err.value) and "(4, 8)" in str(err.value)

    def test_nan_input_rejected_in_strict_mode(self):
        x = np.zeros((3, 4))
        x[1, 2] = np.nan
        with pytest.raises(NumericError):
            ad.causal_attention(ad.tensor(x), ad.tensor(np.zeros((3, 4))),
                                ad.tensor(np.zeros((3, 4))), n_heads=2)


def bits(a):
    """The IEEE bit patterns of a float64 array, so that -0.0 != 0.0."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestReadRowsAttention:
    """``causal_attention(q, k, v, H, lengths, rows)`` equals ``take_rows`` of
    the full result at ``rows``, bit for bit, in the forward and in the q, k
    and v gradients. Lengths 9, 17 and 35 leave 1 to 3 score columns past a
    multiple of 8, and head widths 9 and 17 one output column, where OpenBLAS
    rounds a product of fewer rows otherwise. The cases read every row of a
    group, at most half of them (softmaxed alone) or none."""

    LENGTHS = [1, 3, 3, 5, 1, 1, 9, 9, 17, 2] + [35] * 8

    @staticmethod
    def last_rows(lengths):
        return np.cumsum(lengths) - 1

    CASES = {
        # mixed lengths, 1-token sequences, and the 5-row group read by no row
        "mixed": [0, 2, 3, 9, 12, 13, 20, 22, 35, 46, 47, 48, 81, 100, 150, 299, 330],
        "unsorted_repeated": [48, 3, 3, 81, 0, 27, 27, 27, 12, 64, 290, 120, 290],
        "one_per_sequence": "last",
        "first_of_each_sequence": "first",
        "one_row": [70],
        "every_row": "all",
        "every_row_shuffled": "shuffled",
    }

    @staticmethod
    def check(data, n_heads, lengths, rows, g):
        """Assert that reading ``rows`` gives the full result's bits at them,
        forward and q, k, v gradients under the output gradient ``g``;
        returns the full result's (out, dq, dk, dv)."""
        def run(read):
            q, k, v = (ad.param(x) for x in data)
            out = read(q, k, v)
            backward(ad.sum_all(ad.mul(out, ad.tensor(g))))
            return out.data, q.grad, k.grad, v.grad
        got = run(lambda q, k, v: ad.causal_attention(q, k, v, n_heads, lengths, rows))
        want = run(lambda q, k, v: ad.take_rows(ad.causal_attention(q, k, v, n_heads, lengths), rows))
        for name, a, b in zip(("out", "dq", "dk", "dv"), got, want):
            np.testing.assert_array_equal(bits(a), bits(b), err_msg=name)
        return want

    def rows(self, case, rng):
        lengths = self.LENGTHS
        spec = self.CASES[case]
        if spec == "last":
            return self.last_rows(lengths)
        if spec == "first":
            return np.cumsum(lengths) - lengths
        if spec == "all":
            return np.arange(sum(lengths))
        if spec == "shuffled":
            return rng.permutation(sum(lengths))
        return np.array(spec)

    @pytest.mark.parametrize("n_heads,d", [(2, 16), (4, 64), (4, 36), (2, 34)],
                             ids=["hd8", "hd16", "hd9", "hd17"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_equals_the_full_result_taken_at_rows(self, case, n_heads, d):
        rng = np.random.default_rng(len(case) * d)
        lengths = self.LENGTHS
        rows = self.rows(case, rng)
        data = [rng.normal(size=(sum(lengths), d)) for _ in range(3)]
        g = rng.normal(size=(len(rows), d))
        want = self.check(data, n_heads, lengths, rows, g)
        with ad.no_grad():
            free = ad.causal_attention(*(ad.tensor(x) for x in data), n_heads, lengths, rows)
        np.testing.assert_array_equal(bits(free.data), bits(want[0]))

    @pytest.mark.parametrize("side", ["half", "past_half"])
    @pytest.mark.parametrize("t", [2, 3, 4, 5, 8, 9, 17, 35])
    def test_either_side_of_the_half_rule(self, t, side):
        """A group softmaxes only the local rows its sequences read when
        they are at most half of its T rows, and all T rows past that. The
        three sequences of length T read T // 2 (or one more) distinct local
        rows between them, no one sequence more than a third, so only their
        union decides; the bits match the full result on either side."""
        rng = np.random.default_rng(10 * t + len(side))
        lengths, n_heads, d = [1, t, t, t], 2, 18
        k = t // 2 + (side == "past_half")
        local = rng.permutation(t)[:k]
        rows = np.concatenate([[0]] + [1 + i * t + local[i::3] for i in range(3)])
        rows = rng.permutation(rows)
        data = [rng.normal(size=(sum(lengths), d)) for _ in range(3)]
        self.check(data, n_heads, lengths, rows, rng.normal(size=(len(rows), d)))

    def test_no_row_gives_an_empty_result(self):
        x = ad.param(np.ones((4, 8)))
        out = ad.causal_attention(x, x, x, 2, [1, 3], [])
        assert out.shape == (0, 8)
        backward(ad.sum_all(out))
        np.testing.assert_array_equal(x.grad, np.zeros((4, 8)))

    @pytest.mark.parametrize("rows", [[4], [-1], [[0, 1]]])
    def test_rows_out_of_range_rejected(self, rows):
        x = ad.tensor(np.zeros((4, 8)))
        with pytest.raises(ShapeError, match="rows"):
            ad.causal_attention(x, x, x, 2, [1, 3], rows)


class TestScatterRows:
    """``take_rows``' backward adds a gradient into rows by one 1-D
    ``np.add.at`` over flat element indices. It gives the bits of the 2-D
    ``np.add.at``, -0.0 included, for every index pattern and into a gradient
    that already holds values; a ``bincount`` or sorted ``reduceat`` form does
    not."""

    @staticmethod
    def run(shape, idx, g, grad=None):
        """The gradient ``take_rows(table, idx)`` leaves for an output gradient
        ``g``, into the table's gradient so far ``grad`` (None: none yet),
        checked against the 2-D ``np.add.at``."""
        table = ad.param(np.zeros(shape))
        table.grad = None if grad is None else grad.copy()
        out = ad.take_rows(table, idx)
        backward(ad.sum_all(ad.mul(out, ad.tensor(g))))
        want = np.zeros(shape) if grad is None else grad.copy()
        np.add.at(want, idx, g)
        np.testing.assert_array_equal(bits(table.grad), bits(want))
        return table.grad

    @staticmethod
    def spread(rng, shape):
        """Values over 16 decades, so the order of additions shows in the bits."""
        return rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)

    def test_unsorted_indices_with_one_repeated_200_times(self):
        rng = np.random.default_rng(0)
        idx = rng.permutation(np.concatenate([np.full(200, 3), rng.integers(0, 10, 60)]))
        self.run((10, 7), idx, self.spread(rng, (len(idx), 7)))

    def test_into_a_gradient_holding_values_and_negative_zeros(self):
        rng = np.random.default_rng(1)
        grad = self.spread(rng, (9, 5))
        grad[[0, 4]] = -0.0
        grad[2, 1] = 0.0
        idx = np.array([4, 0, 8, 4, 2, 2, 7, 0])
        self.run((9, 5), idx, self.spread(rng, (len(idx), 5)), grad)

    def test_two_gathers_of_one_table_add_in_the_sweep_order(self):
        """Two gathers of one table, as ``embed_tokens`` over several packs:
        the second scatter adds into a gradient that already holds values
        (the sweep reaches the first gather first)."""
        rng = np.random.default_rng(5)
        table = ad.param(np.zeros((6, 3)))
        i1, i2 = np.array([4, 1, 1, 5, 0]), np.array([1, 4, 4, 2])
        g1, g2 = rng.normal(size=(5, 3)) * 1e8, rng.normal(size=(4, 3))
        g2[1] = -0.0
        loss = ad.add(ad.sum_all(ad.mul(ad.take_rows(table, i1), ad.tensor(g1))),
                      ad.sum_all(ad.mul(ad.take_rows(table, i2), ad.tensor(g2))))
        backward(loss)
        want = np.zeros((6, 3))
        np.add.at(want, i1, g1)
        np.add.at(want, i2, g2)
        np.testing.assert_array_equal(bits(table.grad), bits(want))

    def test_negative_zero_contributions(self):
        idx = np.array([0, 1, 1, 2, 2])
        g = np.array([[-0.0, 1.0], [-0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [-0.0, -0.0]])
        grad = np.array([[-0.0, -0.0], [-0.0, 0.0], [1.0, -0.0]])
        self.run((3, 2), idx, g)
        got = self.run((3, 2), idx, g, grad)
        assert np.signbit(got).tolist() == [[True, False], [True, False], [False, True]]

    def test_empty_index(self):
        grad = np.array([[-0.0, 2.0], [3.0, -0.0]])
        self.run((2, 2), np.array([], dtype=int), np.zeros((0, 2)), grad)

    def test_vector_table(self):
        rng = np.random.default_rng(2)
        idx = rng.permutation(np.concatenate([np.full(50, 6), rng.integers(0, 8, 30)]))
        self.run((8,), idx, self.spread(rng, len(idx)))
        grad = self.spread(rng, 8)
        grad[1] = -0.0
        self.run((8,), idx, self.spread(rng, len(idx)), grad)


class TestMaskedSoftmax:
    """With one head of width T and v = I, attention returns its softmax
    weights exactly. They equal the plain masked softmax (exp over the
    -1e9-masked scores) bit for bit at every T, for full row reads and for
    partial ones (softmaxed alone where they are at most half the rows): the
    op's keep-mask exp gives a masked weight +0.0, as the plain exp does."""

    @staticmethod
    def weights(q, k, rows=None):
        t = q.shape[0]
        out = ad.causal_attention(ad.tensor(q), ad.tensor(k), ad.tensor(np.eye(t)), 1, None, rows)
        return out.data

    @staticmethod
    def plain(q, k):
        t = q.shape[0]
        logits = (q @ k.T.copy()) * (1.0 / math.sqrt(t)) + np.triu(np.full((t, t), -1e9), 1)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    @pytest.mark.parametrize("t", [1, 2, 8, 64, 118])
    def test_equals_the_plain_masked_softmax(self, t):
        rng = np.random.default_rng(t)
        q, k = 3.0 * rng.normal(size=(t, t)), rng.normal(size=(t, t))
        want = self.plain(q, k)
        assert np.all(bits(np.triu(want, 1)) == 0)
        np.testing.assert_array_equal(bits(self.weights(q, k)), bits(want))
        for rows in ([0], [t - 1], [t // 2, 0], list(range(t // 3, t))):
            np.testing.assert_array_equal(bits(self.weights(q, k, rows)), bits(want[rows]))


class TestRmsNorm:
    def test_constant_vector_normalizes_to_ones(self):
        out = ad.rms_norm(ad.tensor([4.2, 4.2, 4.2]), ad.tensor([1.0, 1.0, 1.0]), 1e-12)
        np.testing.assert_allclose(out.data, np.ones(3), atol=1e-9)

    def test_zero_vector_stays_zero(self):
        out = ad.rms_norm(ad.tensor(np.zeros(4)), ad.tensor(np.ones(4)), 1e-6)
        np.testing.assert_array_equal(out.data, np.zeros(4))

    def test_closed_form_three_four(self):
        out = ad.rms_norm(ad.tensor([3.0, 4.0]), ad.tensor([1.0, 1.0]), 0.0)
        expected = np.array([3.0, 4.0]) / math.sqrt(12.5)
        np.testing.assert_allclose(out.data, expected, atol=1e-15)
        np.testing.assert_allclose(out.data, [0.848528137, 1.131370850], atol=1e-9)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            ad.rms_norm(ad.tensor([1.0]), ad.tensor([1.0]), -1e-9)


def cos(v, m):
    """Cosine of a vector against each row of a matrix, as a one-row tensor op."""
    return ad.cosine_rows(ad.tensor(v), ad.tensor(np.atleast_2d(m))).data


class TestCosineSim:
    """Cosine similarity, computed by ``cosine_rows``."""

    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            v = rng.normal(size=6)
            assert cos(v, v)[0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        assert cos([1.0, 0.0], [0.0, 1.0])[0] == 0.0

    def test_closed_form_diagonal(self):
        assert cos([1.0, 0.0], [1.0, 1.0])[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        base = cos(a, b)[0]
        for alpha, beta in [(2.0, 3.0), (0.125, 8.0), (1e3, 1e-3)]:
            scaled = cos(alpha * a, beta * b)[0]
            assert scaled == pytest.approx(base, abs=1e-12)

    def test_zero_norm_raises(self):
        with pytest.raises(DegenerateInputError):
            cos([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(DegenerateInputError):
            cos([1.0, 0.0], [0.0, 0.0])

    def test_zero_norm_error_names_the_row(self):
        with pytest.raises(DegenerateInputError, match="row 1"):
            cos([1.0, 0.0], [[1.0, 1.0], [0.0, 0.0], [2.0, 0.0]])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, 1e200])
    def test_non_finite_squared_norm_raises_before_dividing(self, bad):
        """An infinity, or values whose squares overflow, raise ``NumericError``
        naming the vector or the row, with no numpy warning (Tier-1 turns
        warnings into errors)."""
        with pytest.raises(NumericError, match="vector"):
            cos([bad, bad, 0.0], [[1.0, 0.0, 0.0]])
        with pytest.raises(NumericError, match="row 1"):
            cos([1.0, 0.0, 0.0], [[1.0, 1.0, 0.0], [bad, bad, 0.0], [0.0, 0.0, 0.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            cos([1.0, 0.0, 0.0], [[1.0, 0.0]])
        with pytest.raises(ShapeError):
            ad.cosine_rows(ad.tensor([1.0, 0.0]), ad.tensor([1.0, 0.0]))

    @pytest.mark.parametrize("n", [1, 7, 100])
    def test_bitwise_equal_to_per_row_formula(self, n):
        rng = np.random.default_rng(n)
        for d in (8, 16, 64):
            v = rng.normal(size=d)
            m = rng.normal(size=(n, d))
            expected = [float(np.dot(v, r) / (np.sqrt(np.dot(v, v)) * np.sqrt(np.dot(r, r))))
                        for r in m]
            assert cos(v, m).tolist() == expected

    def test_backward_matches_composed_reference_graph(self):
        rng = np.random.default_rng(7)
        v_data, m_data, g = rng.normal(size=5), rng.normal(size=(4, 5)), rng.normal(size=4)
        v, m = ad.param(v_data), ad.param(m_data)
        backward(ad.sum_all(ad.mul(ad.cosine_rows(v, m), ad.tensor(g))))

        # The chain rule, node by node, through each row's
        # dot(v, r) / (sqrt(dot(v, v)) * sqrt(dot(r, r))), times g_i.
        gv, gm = np.zeros_like(v_data), np.zeros_like(m_data)
        for i, (gi, r) in enumerate(zip(g, m_data)):
            d, sv, sr = np.dot(v_data, r), np.sqrt(np.dot(v_data, v_data)), np.sqrt(np.dot(r, r))
            gd = gi / (sv * sr)
            gden = -gi * d / (sv * sr) ** 2
            gvv, grr = gden * sr * 0.5 / sv, gden * sv * 0.5 / sr
            gv += gd * r + 2.0 * gvv * v_data
            gm[i] = gd * v_data + 2.0 * grr * r
        np.testing.assert_allclose(v.grad, gv, rtol=0, atol=1e-12)
        np.testing.assert_allclose(m.grad, gm, rtol=0, atol=1e-12)


class TestBackward:
    def test_sum_of_squares_gradient(self):
        x = ad.param([1.0, -2.0, 3.0])
        backward(ad.sum_all(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, -4.0, 6.0], atol=1e-15)

    def test_cosine_self_gradient_is_zero(self):
        x = ad.param([[0.3, -1.2, 2.0]])
        backward(ad.sum_all(ad.cosine_rows(ad.pick(x, 0), x)))
        np.testing.assert_allclose(x.grad, np.zeros((1, 3)), atol=1e-12)

    def test_fanout_gradients_add(self):
        x = ad.param([1.5, -0.5])
        a = ad.tensor([2.0, 3.0])
        b = ad.tensor([-1.0, 4.0])
        loss = ad.add(ad.sum_all(ad.mul(x, a)), ad.sum_all(ad.mul(x, b)))
        backward(loss)
        np.testing.assert_allclose(x.grad, a.data + b.data, atol=1e-15)

    def test_plain_fanout_doubles(self):
        x = ad.param([1.0, 2.0, 3.0])
        backward(ad.sum_all(ad.add(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 2.0, 2.0], atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        x = ad.param([[1.0, 2.0]])
        with pytest.raises(ShapeError):
            backward(ad.mul(x, 2.0))

    def test_grad_accumulates_across_backward_calls(self):
        x = ad.param([1.0, 1.0])
        backward(ad.sum_all(ad.mul(x, 3.0)))
        backward(ad.sum_all(ad.mul(x, 4.0)))
        np.testing.assert_allclose(x.grad, [7.0, 7.0], atol=1e-15)

    def test_tape_freed_after_backward(self):
        x = ad.param([2.0])
        y = ad.mul(x, x)
        loss = ad.sum_all(y)
        backward(loss)
        assert y._backward is None and y.node.parents == ()

    def test_tensors_never_share_a_gradient_array(self):
        """z's backward hands one array to y and to a. Had a kept it, a's
        second contribution would add into y's gradient too, and so into b's."""
        a, b = ad.param([1.0, 2.0]), ad.param([3.0, 4.0])
        y = ad.add(a, b)
        z = ad.add(y, a)
        backward(ad.sum_all(z))
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])
        np.testing.assert_array_equal(a.grad, [2.0, 2.0])
        assert not np.shares_memory(a.grad, b.grad)

    def test_sweep_lets_go_of_results_it_is_done_with(self):
        """By the time y1 passes its gradient on, y2 (held by no caller) and its
        values are freed; the whole tape used to live until the sweep ended."""
        x, eye = ad.param([[1.0, 2.0]]), ad.tensor(np.eye(2))
        y1 = ad.silu_matmul(x, eye)
        y2 = ad.silu_matmul(y1, eye)
        loss = ad.sum_all(y2)
        y2_values = weakref.ref(y2.data)
        del y2
        inner, freed = y1.node.backward, []

        def spy(g, *parents):
            freed.append(y2_values() is None)
            inner(g, *parents)
        y1.node.backward = spy
        backward(loss)
        assert freed == [True]

        def silu_slope(z):
            sig = 1.0 / (1.0 + np.exp(-z))
            return sig * (1.0 + z * (1.0 - sig))
        z = np.array([[1.0, 2.0]])
        np.testing.assert_allclose(x.grad, silu_slope(z / (1.0 + np.exp(-z))) * silu_slope(z))

    def test_leaf_gradients_are_owned_c_ordered_arrays(self):
        """concat_rows hands each block a slice of its own gradient, and
        causal_attention's gradients are written head by head."""
        rng = np.random.default_rng(5)
        q, k, v = (ad.param(rng.normal(size=(6, 8))) for _ in range(3))
        extra = ad.param(rng.normal(size=(3, 8)))
        out = ad.concat_rows([ad.causal_attention(q, k, v, n_heads=2), extra])
        backward(ad.sum_all(ad.mul(out, ad.tensor(rng.normal(size=(9, 8))))))
        for t in (q, k, v, extra):
            assert t.grad.flags.c_contiguous and t.grad.flags.owndata


class TestGradientOwnership:
    """An op stores a gradient it has just made without a copy; what it shares
    between inputs (``add``, ``sub``'s ``g``) or slices (``concat_rows``) is
    copied. Had a fan-out stored the shared array, the second contribution
    would have been added into the upstream gradient too."""

    @staticmethod
    def _backward_through(op):
        rng = np.random.default_rng(31)
        a = ad.param(rng.normal(size=(5, 8)))
        y = op(a)
        upstream = rng.normal(size=y.shape)
        backward(ad.sum_all(ad.mul(y, ad.tensor(upstream))))
        np.testing.assert_array_equal(y.grad, upstream)
        return a, upstream

    def test_add_to_itself(self):
        a, g = self._backward_through(lambda a: ad.add(a, a))
        np.testing.assert_array_equal(a.grad, g + g)

    def test_sub_from_itself(self):
        a, g = self._backward_through(lambda a: ad.sub(a, a))
        np.testing.assert_array_equal(a.grad, np.zeros_like(g))

    def test_concat_rows_of_one_tensor_twice(self):
        a, g = self._backward_through(lambda a: ad.concat_rows([a, a]))
        np.testing.assert_array_equal(a.grad, g[:5] + g[5:])

    def test_attention_of_one_tensor_as_q_k_and_v(self):
        a, g = self._backward_through(lambda a: ad.causal_attention(a, a, a, 2, [1, 4]))
        want = [reference_causal_attention(a.data[rows], a.data[rows], a.data[rows], 2, g[rows])
                for rows in (slice(0, 1), slice(1, 5))]
        np.testing.assert_array_equal(a.grad, np.vstack([dq + dk + dv for _, dq, dk, dv in want]))

    def test_parameter_gradients_after_a_train_step_are_owned_and_apart(
            self, small_dataset, small_doc_tokens):
        models = build_model_pair(small_dataset.vocab, seed=2, d_model=16,
                                  n_layers=1, n_heads=2, reranker_max_len=64)
        params = {k: t for k, t in models.parameters().items() if t.requires_grad}
        train_step(models, small_dataset.stage2_samples[:2], small_doc_tokens,
                   Adam(params, lr=1e-3), LossConfig(), 0, "s")
        grads = {k: t.grad for k, t in params.items() if t.grad is not None}
        assert len(grads) == len(params)
        for key, g in grads.items():
            assert g.flags.c_contiguous and g.base is None, key
        for (k1, g1), (k2, g2) in itertools.combinations(grads.items(), 2):
            assert not np.shares_memory(g1, g2), (k1, k2)


class TestTapeKeepsOnlyWhatBackwardReads:
    """A node holds no values: a result that no backward reads is freed as
    soon as the forward code drops its tensor, not when the sweep reaches it."""

    @staticmethod
    def _record_values(monkeypatch, name, of=lambda args, out: out):
        """Patch ``ad.<name>`` to keep a weak reference to the array ``of``
        picks from each call's arguments and result."""
        op, refs = getattr(ad, name), []

        def spy(*args, **kwargs):
            out = op(*args, **kwargs)
            refs.append(weakref.ref(of(args, out).data))
            return out
        monkeypatch.setattr(ad, name, spy)
        return refs

    @staticmethod
    def _model():
        config = ModelConfig(vocab_size=11, d_model=8, n_layers=2, n_heads=2, max_seq_len=8)
        return CausalTransformer(config, np.random.default_rng(4))

    def test_a_product_under_an_add_is_freed_before_backward(self):
        rng = np.random.default_rng(8)
        x, w, r = (ad.param(rng.normal(size=shape)) for shape in ((3, 4), (4, 2), (3, 2)))
        product = ad.matmul(x, w)
        values = weakref.ref(product.data)
        y = ad.add(r, product)
        del product
        assert values() is None
        backward(ad.sum_all(y))
        np.testing.assert_array_equal(x.grad, np.ones((3, 2)) @ w.data.T)
        np.testing.assert_array_equal(r.grad, np.ones((3, 2)))

    def test_embedding_gathers_are_freed_once_added(self, monkeypatch):
        model = self._model()
        gathers = self._record_values(monkeypatch, "take_rows")
        x = model.embed_tokens([[1, 2, 3], [4, 5]])
        assert len(gathers) == 2 and all(ref() is None for ref in gathers)
        backward(ad.sum_all(x))
        np.testing.assert_array_equal(model.params["pos_emb"].grad[:3].sum(axis=1),
                                      [16.0, 16.0, 8.0])

    def test_attention_keys_and_residual_products_are_freed_after_the_forward(self, monkeypatch):
        """Each block's six products come as q, k, v, wo, w1 (``matmul``) and
        w2 (``silu_matmul``): attention keeps its own kᵀ copy, and a residual
        ``add`` reads neither operand."""
        model = self._model()
        products = self._record_values(monkeypatch, "matmul")
        down = self._record_values(monkeypatch, "silu_matmul")
        keys = self._record_values(monkeypatch, "causal_attention", lambda args, out: args[1])
        x = model.embed_tokens([[1, 2, 3, 4], [5, 6]])
        out = model.forward_embedded(x, lengths=[4, 2])
        assert len(products) + len(down) == 12 and len(keys) == 2
        assert all(ref() is None for ref in keys)
        for block in (products[:5] + down[:1], products[5:] + down[1:]):
            assert [block[i]() is None for i in (1, 3, 5)] == [True] * 3
        backward(ad.sum_all(out))
        assert all(t.grad is not None for t in model.params.values())

    def test_silu_matmul_keeps_only_its_gate_input_until_its_own_backward_has_run(
            self, monkeypatch):
        """The sigmoid and the gated product h (made in the sigmoid's array)
        are freed once the forward has its product; the gate input lives
        until the op's own backward has made them again from it, then goes."""
        sigmoids = []

        def spy(x, sigmoid=ad._sigmoid):
            sig = sigmoid(x)
            sigmoids.append(weakref.ref(sig))
            return sig
        monkeypatch.setattr(ad, "_sigmoid", spy)
        rng = np.random.default_rng(9)
        x, w1, w2 = (ad.param(rng.normal(size=shape)) for shape in ((2, 3), (3, 4), (4, 3)))
        gate = ad.matmul(x, w1)
        gate_values = weakref.ref(gate.data)
        y = ad.silu_matmul(gate, w2)
        del gate
        assert len(sigmoids) == 1 and sigmoids[0]() is None
        loss = ad.sum_all(y)
        inner, alive = y.node.backward, []

        def bw_spy(g, *parents):
            alive.append(gate_values() is not None)
            inner(g, *parents)
        y.node.backward = bw_spy
        assert gate_values() is not None
        backward(loss)
        del inner  # the sweep has let go of the closure; only this test held it
        assert alive == [True] and gate_values() is None
        assert len(sigmoids) == 2 and sigmoids[1]() is None
        z = x.data @ w1.data
        sig = 1.0 / (1.0 + np.exp(-z))
        np.testing.assert_allclose(w2.grad, (z * sig).T @ np.ones((2, 3)), rtol=1e-14)
        np.testing.assert_allclose(
            x.grad, (np.ones((2, 3)) @ w2.data.T * sig * (1.0 + z * (1.0 - sig))) @ w1.data.T,
            rtol=1e-14)

    def test_both_norm_outputs_of_every_block_are_freed_after_the_forward(self, monkeypatch):
        """The products that read a block's two norm outputs keep neither: each
        is remade from the norm's own x and r in the backward. Only the final
        norm's output, the forward's result, is left."""
        model = self._model()
        norms = self._record_values(monkeypatch, "rms_norm")
        x = model.embed_tokens([[1, 2, 3, 4], [5, 6]])
        out = model.forward_embedded(x, lengths=[4, 2])
        assert len(norms) == 5 and norms[-1]() is out.data
        assert [ref() is None for ref in norms[:4]] == [True] * 4
        backward(ad.sum_all(out))
        assert all(t.grad is not None for t in model.params.values())

    @staticmethod
    def _shared_norm_graph(remake: bool):
        """A norm output read by two products and a ``silu_matmul``; returns
        the loss, the norm's tensor and the parameters."""
        rng = np.random.default_rng(31)
        x, w1, w2, w3 = (ad.param(rng.normal(size=shape))
                         for shape in ((5, 4), (4, 3), (4, 3), (4, 3)))
        weight = ad.param(rng.normal(size=4))
        n = ad.rms_norm(x, weight)
        if not remake:
            n.node.remake = None
        loss = ad.sum_all(ad.add(ad.add(ad.matmul(n, w1), ad.matmul(n, w2)),
                                 ad.silu_matmul(n, w3)))
        return loss, n, (x, weight, w1, w2, w3)

    def test_a_norm_output_is_remade_once_with_its_forward_bits_and_freed_after_its_backward(
            self, monkeypatch):
        made = []

        def spy(*args, scaled=ad._rms_scaled):
            y = scaled(*args)
            made.append((weakref.ref(y), y.copy()))
            return y
        monkeypatch.setattr(ad, "_rms_scaled", spy)
        loss, n, params = self._shared_norm_graph(remake=True)
        node, forward = n.node, made[0][0]
        del n
        assert len(made) == 1 and forward() is None
        inner, alive = node.backward, []

        def bw_spy(g, *parents):
            alive.append([ref() is not None for ref, _ in made[1:]])
            inner(g, *parents)
        node.backward = bw_spy
        backward(loss)
        del inner
        assert alive == [[True]] and made[1][0]() is None
        np.testing.assert_array_equal(made[1][1], made[0][1])
        monkeypatch.undo()
        want, _, kept = self._shared_norm_graph(remake=False)
        backward(want)
        for got, expected in zip(params, kept):
            np.testing.assert_array_equal(got.grad, expected.grad)

    def test_tape_bytes_counts_arrays_inside_functions_a_closure_holds(self):
        """Through a nested function's own closure, and through a node's
        ``remake``: a remade norm output counts against ``rms_norm``."""
        held = np.zeros((4, 5))

        def op():
            def read():
                return held

            def bw(g):
                read()
            return bw
        loss = ad.Tensor(0.0)
        loss.node = ad._Node(True, (), op())
        assert list(tape_bytes(loss).values()) == [held.nbytes]
        x = ad.tensor(np.ones((4, 8)), requires_grad=True)
        n = ad.rms_norm(x, ad.param(np.ones(8)))
        loss = ad.sum_all(n)
        assert tape_bytes(loss) == {"rms_norm": x.data.nbytes + 4 * 8}
        n.node.remake()
        assert tape_bytes(loss) == {"rms_norm": 2 * x.data.nbytes + 4 * 8}

    # The bytes each op's closures hold when ``backward`` starts at the first
    # stage-1 step of perfbench's ``train-dual`` (seed 0): 57.8 MB in all
    # before ``silu_matmul`` replaced ``silu`` + ``matmul`` (16.6 + 16.3 MB),
    # and ``matmul`` held 8.0 MB before the norms' outputs were remade.
    FIRST_STEP_TAPE_BYTES = {
        "causal_attention": 18382384, "cosine_rows": 178432, "logsumexp": 1280,
        "matmul": 2080256, "mul": 8880, "rms_norm": 6181240, "silu_matmul": 8321024,
        "softplus": 7424, "take_rows": 80064,
    }

    def test_first_training_step_tape_bytes_are_pinned(self, monkeypatch):
        """Array sizes do not depend on the values, so the pin is exact: a
        change that keeps more on the tape fails it."""
        ds = generate_synthetic(0, n_docs=500, n_queries=20, n_eval_queries=4)
        models = build_model_pair(ds.vocab, 0)
        usable = [s for s in ds.stage1_samples if has_orderable_pair(s)]
        batch = [usable[j] for j in np.random.default_rng(0).permutation(len(usable))[:8]]
        params = {k: t for k, t in models.parameters().items() if t.requires_grad}
        held = []

        def spy(loss, backward=embrank.training.backward):
            held.append(tape_bytes(loss))
            backward(loss)
        monkeypatch.setattr(embrank.training, "backward", spy)
        train_step(models, batch, {d.doc_id: d.tokens for d in ds.documents},
                   Adam(params, lr=1e-4), LossConfig(), 0, "stage1")
        assert held == [self.FIRST_STEP_TAPE_BYTES]


class TestTapeFreeForward:
    """With no tape, ``silu_matmul`` gates into its own sigmoid array,
    ``rms_norm`` scales in place and ``causal_attention`` keeps no group's
    copies: the values must not move by a bit."""

    def test_equals_the_taped_forward_bitwise(self):
        rng = np.random.default_rng(23)
        longest = ad._triangles[0].shape[0] + 3  # the shared mask grows on this call
        lengths = [1, 4, 4, 4, 1, 1, longest, 7, 2, 2]
        d, n_heads = 16, 4
        x, q, k, v = (ad.param(rng.normal(size=(sum(lengths), d))) for _ in range(4))
        weight, w = ad.param(rng.normal(size=d)), ad.param(rng.normal(size=(d, d)))

        def forward():
            return (ad.silu_matmul(x, w), ad.rms_norm(x, weight),
                    ad.causal_attention(q, k, v, n_heads, lengths))
        with ad.no_grad():
            free = forward()
        assert ad._triangles[0].shape[0] == longest
        taped = forward()
        assert all(t.requires_grad for t in taped)
        for got, want in zip(free, taped):
            np.testing.assert_array_equal(got.data, want.data)

    def test_silu_matmul_leaves_its_input_alone(self):
        data = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        x = ad.tensor(data.copy())
        with ad.no_grad():
            ad.silu_matmul(x, ad.tensor(np.ones((4, 2))))
        np.testing.assert_array_equal(x.data, data)

    def test_silu_matmul_allocates_only_its_gate_and_output(self):
        """The gate is made in its sigmoid's array; separate temporaries
        used to double that part of the peak."""
        rng = np.random.default_rng(3)
        x, w = ad.tensor(rng.normal(size=(384, 512))), ad.tensor(rng.normal(size=(512, 64)))
        with ad.no_grad():
            tracemalloc.start()
            try:
                out = ad.silu_matmul(x, w)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 1.05 * (x.data.nbytes + out.data.nbytes)

    def test_shared_mask_is_read_only_and_equals_the_triangle(self):
        for t in (1, 5, ad._triangles[0].shape[0] + 2, 3):
            mask, keep = ad._causal_masks(t)
            assert not any(m.flags.writeable for m in (mask, keep, *ad._triangles))
            np.testing.assert_array_equal(mask, np.triu(np.full((t, t), -1e9), 1))
            np.testing.assert_array_equal(keep, np.tril(np.ones((t, t))))
        with pytest.raises(ValueError):
            mask[0, 1] = 0.0


class TestSharedMaskThreads:
    """Threads share one cached mask pair; growing it must never hand a
    caller a mask or a keep mask of another size, nor shrink the cache."""

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(ad, "_triangles", (np.zeros((0, 0)), np.zeros((0, 0))))

    def test_a_larger_pair_published_mid_build_is_kept(self, monkeypatch):
        """The interleaving a second thread can cause, forced: while the call
        for 34 builds its triangle, a call for 35 grows the shared pair."""
        real_triu, inner = np.triu, {}

        def triu_growing_the_cache(m, k=0):
            monkeypatch.setattr(np, "triu", real_triu)
            inner["pair"] = ad._causal_masks(35)
            return real_triu(m, k)

        monkeypatch.setattr(np, "triu", triu_growing_the_cache)
        mask, keep = ad._causal_masks(34)
        assert mask.shape == keep.shape == (34, 34)
        assert [m.shape for m in inner["pair"]] == [(35, 35), (35, 35)]
        assert ad._triangles[0].shape == ad._triangles[1].shape == (35, 35)
        np.testing.assert_array_equal(mask, np.triu(np.full((34, 34), -1e9), 1))
        np.testing.assert_array_equal(keep, np.tril(np.ones((34, 34))))

    def test_two_threads_growing_the_cache_agree_with_one(self):
        rng = np.random.default_rng(4)
        qkv = rng.normal(size=(3, 80, 16))
        lengths = [[33, 47], [34, 46]]
        with ad.no_grad():
            want = [ad.causal_attention(*qkv, 4, ls).data for ls in lengths]
        errors, got = [], [[], []]

        def run(i):
            try:
                with ad.no_grad():  # the grad flag is context-local: each thread sets its own
                    for _ in range(20):
                        got[i].append(ad.causal_attention(*qkv, 4, lengths[i]).data)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        for _ in range(5):
            ad._triangles = (np.zeros((0, 0)), np.zeros((0, 0)))
            threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
        assert not errors
        for i in range(2):
            for out in got[i]:
                np.testing.assert_array_equal(out, want[i])


class TestShapePolicy:
    """Only ``mul`` takes a scalar operand; every other shape mix is a loud error."""

    MISMATCHES = [((2, 3), (3, 2)), ((2, 3), (2,)), ((4,), (2,)), ((2, 3), ())]

    @pytest.mark.parametrize("shape_a,shape_b", MISMATCHES)
    def test_add_mismatches_rejected(self, shape_a, shape_b):
        with pytest.raises(ShapeError):
            ad.add(ad.tensor(np.zeros(shape_a)), ad.tensor(np.zeros(shape_b)))

    @pytest.mark.parametrize("shape_a,shape_b", MISMATCHES)
    def test_sub_mismatches_rejected(self, shape_a, shape_b):
        with pytest.raises(ShapeError) as err:
            ad.sub(ad.tensor(np.zeros(shape_b)), ad.tensor(np.zeros(shape_a)))
        assert str(shape_a) in str(err.value) and str(shape_b) in str(err.value)

    def test_mul_column_broadcast_rejected(self):
        with pytest.raises(ShapeError):
            ad.mul(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros(3)))


class TestDeterminismAndGuards:
    def test_ops_bit_identical_across_calls(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 4))
        w = rng.normal(size=(4, 4))
        first = ad.matmul(ad.causal_attention(x, x, x, 2), ad.tensor(w)).data
        second = ad.matmul(ad.causal_attention(x, x, x, 2), ad.tensor(w)).data
        np.testing.assert_array_equal(first, second)

    def test_overflow_guarded(self):
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            ad.mul(ad.tensor([1e308]), 10.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_value_raises_naming_the_op(self, bad):
        x = np.zeros((16, 28, 256))
        x[3, 5, 7] = bad
        with pytest.raises(NumericError) as err:
            ad.mul(ad.tensor(x), -1.0)
        assert "mul" in str(err.value)

    @pytest.mark.parametrize("values", [[1e308] * 10, [1e308, 1e308, -1e308], [-1e308] * 3])
    def test_finite_guard_clears_an_overflowing_sum_without_a_warning(self, values):
        """The sum overflows; under Tier-1's warnings-as-errors the guard still
        clears the array by the full scan."""
        data = np.array(values)
        assert ad.check_finite(data, "probe") is data
        out = ad.mul(ad.tensor(values), 1.0)
        np.testing.assert_array_equal(out.data, values)

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_finite_guard_never_warns(self, action):
        """Neither a finite array whose squares overflow nor a NaN or an
        infinity among such values makes numpy warn."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            data = np.full(10, 1e308)
            assert ad.check_finite(data, "probe") is data
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(NumericError, match="probe"):
                    ad.check_finite(np.array([1e308, bad, 1e308]), "probe")
        assert caught == []

    def test_finite_guard_still_names_a_non_finite_value_after_an_overflow(self):
        with pytest.raises(NumericError, match="probe"):
            ad.check_finite(np.array([1e308, 1e308, np.nan]), "probe")

    def test_finite_values_whose_sum_overflows_pass(self):
        with np.errstate(over="ignore"):
            out = ad.mul(ad.tensor([1e308, 1e308]), -1.0)
        np.testing.assert_array_equal(out.data, [-1e308, -1e308])


class TestNoGrad:
    def test_results_record_no_closure(self):
        w = ad.param(np.ones((3, 3)))
        with ad.no_grad():
            out = ad.matmul(ad.tensor(np.eye(3)), w)
        assert not out.requires_grad
        assert out.node is None
        np.testing.assert_array_equal(out.data, np.ones((3, 3)))

    def test_flag_restored_after_exception(self):
        w = ad.param(np.ones(2))
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("inside")
        assert ad.mul(w, w).requires_grad

    def test_nesting_restores_the_outer_state(self):
        w = ad.param(np.ones(2))
        with ad.no_grad():
            with ad.no_grad():
                assert not ad.mul(w, w).requires_grad
            assert not ad.mul(w, w).requires_grad
        assert ad.mul(w, w).requires_grad

    def test_finite_guard_still_runs(self):
        with ad.no_grad(), np.errstate(over="ignore"), pytest.raises(NumericError):
            ad.mul(ad.param([1e308]), 10.0)

    def test_interleaved_threads_leave_gradients_on(self):
        """Thread A enters no_grad, B enters, A exits, B exits: each thread
        restores its own state, so gradients stay off inside B until B exits
        and stay on here."""
        w = ad.param(np.ones(2))
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        waited, b_records = [], []

        def a():
            with ad.no_grad():
                a_in.set()
                waited.append(b_in.wait(10))
            a_out.set()

        def b():
            waited.append(a_in.wait(10))
            with ad.no_grad():
                b_in.set()
                waited.append(a_out.wait(10))
                b_records.append(ad.mul(w, w).requires_grad)

        threads = [threading.Thread(target=f) for f in (a, b)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(20)
        assert waited == [True, True, True] and b_records == [False]
        assert ad.mul(w, w).requires_grad


class TestReadOnlyParameters:
    def test_in_place_write_raises(self):
        p = ad.param([1.0, 2.0])
        with pytest.raises(ValueError):
            p.data[0] = 3.0
        with pytest.raises(ValueError):
            p.data += 1.0
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_set_param_data_swaps_in_a_read_only_array(self):
        p = ad.param([1.0, 2.0])
        new = np.array([3.0, 4.0])
        ad.set_param_data(p, new)
        assert p.data is new and not new.flags.writeable

    def test_constants_stay_writable(self):
        assert ad.tensor([1.0, 2.0]).data.flags.writeable


class TestGatherConcatStack:
    def test_take_rows_gathers(self):
        table = ad.tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = ad.take_rows(table, [2, 0, 2])
        np.testing.assert_array_equal(out.data, [[5, 6], [1, 2], [5, 6]])

    def test_take_rows_scatter_add_backward(self):
        table = ad.param(np.zeros((3, 2)))
        out = ad.take_rows(table, [1, 1, 0])
        backward(ad.sum_all(out))
        np.testing.assert_array_equal(table.grad, [[1, 1], [2, 2], [0, 0]])

    def test_take_rows_gathers_vector_elements(self):
        vec = ad.param([1.0, 2.0, 3.0])
        out = ad.take_rows(vec, [2, 0, 2])
        np.testing.assert_array_equal(out.data, [3.0, 1.0, 3.0])
        backward(ad.sum_all(out))
        np.testing.assert_array_equal(vec.grad, [1.0, 0.0, 2.0])

    def test_take_rows_out_of_range(self):
        with pytest.raises(ShapeError):
            ad.take_rows(ad.tensor(np.zeros((2, 2))), [0, 2])

    def test_concat_then_pick_round_trip(self):
        a = ad.tensor([[1.0, 2.0]])
        b = ad.tensor([[3.0, 4.0], [5.0, 6.0]])
        out = ad.concat_rows([a, b])
        np.testing.assert_array_equal(ad.pick(out, 2).data, [5.0, 6.0])


class TestScalarHelpers:
    def test_logsumexp_stable(self):
        x = ad.tensor([1000.0, 1000.0])
        out = ad.logsumexp(x)
        assert out.item() == pytest.approx(1000.0 + math.log(2.0), abs=1e-12)

    def test_softplus_extremes(self):
        out = ad.softplus(ad.tensor([-800.0, 0.0, 800.0]))
        np.testing.assert_allclose(out.data, [0.0, math.log(2.0), 800.0], atol=1e-12)

    def test_softplus_backward_at_extremes_raises_no_overflow_warning(self):
        """The gradient sigmoid(x) is 0 where exp(-x) overflows (x < -709):
        no ``RuntimeWarning`` (an error under Tier-1's filter), and the bits
        of 1/(1+inf)."""
        x = ad.param([-1000.0, 0.0, 1000.0])
        backward(ad.sum_all(ad.softplus(x)))
        np.testing.assert_array_equal(bits(x.grad), bits(np.array([0.0, 0.5, 1.0])))
