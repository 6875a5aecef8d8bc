"""Tour of the reverse-mode tensor engine.

Builds a few small graphs, runs backward, and audits the analytic gradients
against central finite differences.
"""

import numpy as np

import embrank.autodiff as ad
from embrank.autodiff import backward
from embrank.gradcheck import finite_diff_check, format_reports

rng = np.random.default_rng(0)

print("== basic ops record a tape ==")
x = ad.param(rng.normal(size=(3, 4)))
w1 = ad.param(rng.normal(size=(4, 6)))
w2 = ad.param(rng.normal(size=(6, 2)))
# the whole FFN as one op: its tape keeps x, the weights and the gate input
y = ad.silu_matmul(x, w1, w2)
loss = y.sum()
print(f"silu(x{x.shape} @ w1{w1.shape}) @ w2{w2.shape} -> sum = {loss.item():.4f}")

backward(loss)
print(f"grad shapes: x {x.grad.shape}, w1 {w1.grad.shape}, w2 {w2.grad.shape}")
print(f"|dL/dx| max = {np.abs(x.grad).max():.4f}")

print("\n== gradients accumulate over fan-out ==")
v = ad.param([1.0, 2.0, 3.0])
backward(ad.add(v.sum(), ad.mul(v, v).sum()))  # v used on two paths
print(f"d(sum(v) + sum(v*v))/dv = {v.grad}  (expected 1 + 2v)")

print("\n== cosine similarity is scale-invariant and differentiable ==")
a = ad.param(rng.normal(size=5))
rows = ad.param(rng.normal(size=(3, 5)))
s = ad.cosine_rows(a, rows)  # one op scores a against every row
print(f"cos(a, rows) = {np.array2string(s.data, precision=5)}")
print(f"cos(3a, rows) = {np.array2string(ad.cosine_rows(ad.mul(a, 3.0), rows).data, precision=5)}"
      " (same)")

print("\n== finite-difference audit ==")
mix = ad.tensor(rng.normal(size=(3, 4)))  # fixed weights, so the attention sum is not constant
reports = [
    finite_diff_check(lambda t: ad.sum_all(ad.mul(ad.causal_attention(t, t, t, n_heads=2), mix)),
                      ad.param(rng.normal(size=(3, 4))), name="causal_attention"),
    finite_diff_check(lambda t: ad.sum_all(ad.cosine_rows(t, rows)), a, name="cosine_rows"),
    # the sigmoid is made again in the backward
    finite_diff_check(lambda t: ad.sum_all(ad.silu_matmul(t, w1, w2)),
                      ad.param(rng.normal(size=(3, 4))), name="silu_matmul"),
    finite_diff_check(lambda t: ad.sum_all(ad.rms_norm(t, ad.tensor(np.ones(4)), 1e-6)),
                      ad.param(rng.normal(size=(3, 4))), name="rms_norm"),
]
print(format_reports(reports))
