"""Analytic gradients vs central finite differences, op by op."""

import zlib

import numpy as np
import pytest

import embrank.autodiff as ad
from embrank.errors import ShapeError
from embrank.gradcheck import (finite_diff_check, finite_diff_check_many,
                               relative_errors)
from embrank.reranker import build_model_pair

from helpers import op_gradcheck_cases

CASES = op_gradcheck_cases(ad)
UNIT_TRIALS = 20  # the acceptance suite runs the full 100 per op


@pytest.mark.parametrize("name,make", CASES, ids=[name for name, _ in CASES])
def test_op_gradient_matches_finite_differences(name, make):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(UNIT_TRIALS):
        f, named = make(rng)
        reports = finite_diff_check_many(f, named, step=1e-5, tol=1e-5)
        for report in reports:
            assert report.passed, f"{name}: {report}"


def test_every_tape_op_has_a_case():
    """Each function that records a tape node (its body calls ``_result``) has
    a case named after it, and each case names an op that exists."""
    ops = {name for name, fn in vars(ad).items()
           if callable(fn) and "_result" in getattr(getattr(fn, "__code__", None), "co_names", ())}
    names = [name for name, _ in CASES]
    assert sorted(op for op in ops if not any(n.startswith(op) for n in names)) == []
    assert [n for n in names if not any(n.startswith(op) for op in ops)] == []


def test_pruned_last_block_matches_finite_differences(tiny_vocab):
    """Gradients through ``forward_embedded`` reading only some rows (the last
    block past attention runs on those rows) match finite differences, for
    the packed input and every block parameter of two layers."""
    model = build_model_pair(tiny_vocab, seed=23, d_model=4, n_layers=2, n_heads=2,
                             encoder_max_len=8, ffn_mult=2).encoder.transformer
    rng = np.random.default_rng(zlib.crc32(b"forward_embedded_rows"))
    x = ad.param(rng.normal(size=(5, 4)))
    w = ad.tensor(rng.normal(size=(3, 4)))
    named = {k: t for k, t in model.parameters().items() if k not in ("tok_emb", "pos_emb")}
    named["x"] = x

    def f():
        return ad.sum_all(ad.mul(model.forward_embedded(x, [2, 3], [4, 1, 2]), w))
    for report in finite_diff_check_many(f, named, step=1e-5, tol=1e-5):
        assert report.passed, str(report)


class TestFiniteDiffCheck:
    def test_sum_has_exact_gradient(self):
        x = ad.param(np.random.default_rng(0).normal(size=(3, 2)))
        report = finite_diff_check(lambda t: ad.sum_all(t), x, name="sum")
        assert report.passed
        assert report.max_rel_error < 1e-9

    def test_matmul_then_sum_passes_tight_tolerance(self):
        rng = np.random.default_rng(1)
        x = ad.param(rng.normal(size=(2, 2)))
        w = ad.tensor(rng.normal(size=(2, 2)))
        report = finite_diff_check(lambda t: ad.sum_all(ad.matmul(t, w)), x,
                                   step=1e-5, tol=1e-6, name="matmul_sum")
        assert report.passed

    def test_detects_wrong_gradient(self):
        """A deliberately broken backward rule must fail the check."""
        x = ad.param([1.0, 2.0, 3.0])

        def broken(t):
            x = t.data

            def bw(g, node):
                ad._accumulate(node, g * 3.0 * x)  # wrong factor
            return ad.sum_all(ad._result(x * x, "square", (t,), bw))

        report = finite_diff_check(broken, x, name="broken")
        assert not report.passed

    def test_weight_restored_when_f_raises(self):
        x = ad.param([1.0, 2.0])
        original = x.data
        calls = []

        def f(t):
            calls.append(None)
            if len(calls) == 2:  # the first perturbed call
                raise RuntimeError("f failed")
            return ad.sum_all(t)

        with pytest.raises(RuntimeError):
            finite_diff_check(f, x)
        assert x.data is original and not x.data.flags.writeable
        np.testing.assert_array_equal(x.data, [1.0, 2.0])

    def test_requires_scalar_function(self):
        x = ad.param([1.0, 2.0])
        with pytest.raises(ShapeError):
            finite_diff_check(lambda t: ad.mul(t, 2.0), x)

    def test_report_renders_as_text(self):
        x = ad.param([1.0])
        report = finite_diff_check(lambda t: ad.sum_all(t), x, name="render")
        text = str(report)
        assert "render" in text and "PASS" in text

    def test_relative_error_guard_floor(self):
        """Tiny gradients compare absolutely, avoiding 0/0 blowups."""
        errs = relative_errors(np.array([0.0, 1.0]), np.array([1e-10, 1.0 + 1e-7]))
        assert errs[0] == pytest.approx(1e-10, rel=1e-6)
        assert errs[1] == pytest.approx(1e-7, rel=1e-3)
