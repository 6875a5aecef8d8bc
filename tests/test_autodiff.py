"""Forward/backward correctness of the tensor engine."""

import math
import weakref

import numpy as np
import pytest

import embrank.autodiff as ad
from embrank.autodiff import Tensor, backward
from embrank.errors import DegenerateInputError, NumericError, ShapeError

from helpers import highprec_softmax_row, naive_matmul, reference_causal_attention


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

        rv, rows = ad.param(v_data), [ad.param(r) for r in m_data]
        total = None
        for gi, r in zip(g, rows):
            c = ad.div(ad.dot(rv, r), ad.mul(ad.sqrt(ad.dot(rv, rv)), ad.sqrt(ad.dot(r, r))))
            term = ad.mul(c, float(gi))
            total = term if total is None else ad.add(total, term)
        backward(total)
        np.testing.assert_allclose(v.grad, rv.grad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(m.grad, np.stack([r.grad for r in rows]), rtol=0, atol=1e-12)


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
        assert y._backward is None and y._parents == ()

    def test_no_grad_through_detach(self):
        x = ad.param([1.0, 2.0])
        d = x.detach()
        y = ad.param([3.0, 4.0])
        backward(ad.sum_all(ad.mul(d, y)))
        assert x.grad is None
        np.testing.assert_allclose(y.grad, x.data, atol=1e-15)

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
        x = ad.param([1.0, 2.0])
        y1 = ad.exp(x)
        y2 = ad.exp(y1)
        loss = ad.sum_all(y2)
        y2_values = weakref.ref(y2.data)
        del y2
        inner, freed = y1._backward, []

        def spy(g):
            freed.append(y2_values() is None)
            inner(g)
        y1._backward = spy
        backward(loss)
        assert freed == [True]
        np.testing.assert_allclose(x.grad, np.exp(np.exp([1.0, 2.0])) * np.exp([1.0, 2.0]))

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


class TestShapePolicy:
    """Only scalar-with-tensor and matrix+row-bias mix shapes; the rest are loud errors."""

    def test_add_row_bias_allowed(self):
        out = ad.add(ad.tensor(np.ones((2, 3))), ad.tensor([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(out.data, [[2, 3, 4], [2, 3, 4]])

    @pytest.mark.parametrize("shape_a,shape_b", [((2, 3), (3, 2)), ((2, 3), (2,)), ((4,), (2,))])
    def test_add_mismatches_rejected(self, shape_a, shape_b):
        with pytest.raises(ShapeError):
            ad.add(ad.tensor(np.zeros(shape_a)), ad.tensor(np.zeros(shape_b)))

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
            ad.exp(ad.tensor([1000.0]))

    def test_guard_can_be_disabled(self):
        ad.set_strict_finite(False)
        with np.errstate(over="ignore"):
            out = ad.exp(ad.tensor([1000.0]))
        assert np.isinf(out.data[0])
        ad.set_strict_finite(True)

    def test_division_by_zero_guarded(self):
        with np.errstate(divide="ignore"), pytest.raises(NumericError):
            ad.div(ad.tensor([1.0]), ad.tensor(0.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_value_raises_naming_the_op(self, bad):
        x = np.zeros((16, 28, 256))
        x[3, 5, 7] = bad
        with pytest.raises(NumericError) as err:
            ad.neg(ad.tensor(x))
        assert "neg" in str(err.value)

    def test_finite_values_whose_sum_overflows_pass(self):
        with np.errstate(over="ignore"):
            out = ad.neg(ad.tensor([1e308, 1e308]))
        np.testing.assert_array_equal(out.data, [-1e308, -1e308])


class TestNoGrad:
    def test_results_record_no_closure(self):
        w = ad.param(np.ones((3, 3)))
        with ad.no_grad():
            out = ad.matmul(ad.tensor(np.eye(3)), w)
        assert not out.requires_grad
        assert out._backward is None and out._parents == ()
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

    def test_strict_finite_guard_still_runs(self):
        with ad.no_grad(), np.errstate(divide="ignore"), pytest.raises(NumericError):
            ad.div(ad.param([1.0]), ad.tensor(0.0))


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

    def test_operator_sugar(self):
        x = ad.tensor([2.0, 4.0])
        out = (-x + 1.0) * 3.0 / 2.0 - 0.5
        np.testing.assert_allclose(out.data, [-2.0, -5.0], atol=1e-15)
