"""The packed-row contract: a product row keeps its bits whatever the row count.

``batch_encode`` equals ``encode_passage`` bit for bit, and the rows a forward
reads equal the full forward's, only while row i of an R-row product has the
bits of that row's own one-row ``_product`` for every R a pack can hold (up to
``TOKEN_BUDGET``). That rests on the BLAS (see the ``ad.matmul`` docstring),
so this file checks it for each product shape, ahead of the digests, and a
failure names the shape and the row counts that break it.
"""

import numpy as np
import pytest

import embrank.autodiff as ad
from embrank.encoder import TOKEN_BUDGET
from embrank.transformer import ModelConfig

# The default size, and the odd head widths the encoder tests run at ffn_mult=2.
CONFIGS = [ModelConfig(vocab_size=1),
           ModelConfig(vocab_size=1, d_model=36, n_heads=4, ffn_mult=2),
           ModelConfig(vocab_size=1, d_model=136, n_heads=8, ffn_mult=2)]

# Each (k, n) weight that a packed [R, k] operand multiplies in a block's forward.
SHAPES = sorted({shape for cfg in CONFIGS for name, shape in cfg.parameter_shapes()
                 if name.startswith("layers.0.") and len(shape) == 2})


@pytest.mark.parametrize("k, n", SHAPES, ids=[f"{k}x{n}" for k, n in SHAPES])
def test_a_product_row_keeps_its_bits_whatever_the_row_count(k, n):
    rng = np.random.default_rng(k * 1000 + n)
    x = rng.normal(size=(TOKEN_BUDGET, k))
    w = rng.normal(size=(k, n))
    alone = np.concatenate([ad._product(x[i:i + 1], w) for i in range(TOKEN_BUDGET)])
    failing = [r for r in range(2, TOKEN_BUDGET + 1)
               if not np.array_equal(ad._product(x[:r], w), alone[:r])]
    assert not failing, (f"[R, {k}] @ [{k}, {n}]: a row's bits depend on the row count "
                         f"R, first at R = {failing[0]} ({len(failing)} of "
                         f"{TOKEN_BUDGET - 1} row counts)")
