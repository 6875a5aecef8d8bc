"""Dense-tensor reverse-mode automatic differentiation.

A tape is recorded implicitly while ops execute: every op result keeps
references to its inputs and a closure that routes the output gradient
back to them. ``backward`` replays the tape in reverse topological order
and then frees it, so graphs never outlive one forward/backward cycle.

Conventions:
  - double precision by default (``set_default_dtype`` switches builds
    to float32 for speed at the cost of the tight test tolerances);
  - the transformer ops are 2-D: several sequences run as one packed
    [ΣT, d] matrix, their rows end to end (the varlen layout of
    FlashAttention-2), and only ``causal_attention`` is told the sequence
    lengths. Each sequence's values equal its own [T, d] run bit for bit,
    because every reduction runs along the last axis, attention keeps to
    each sequence's rows, and row i of a ``matmul`` product has the same bits
    whatever the row count;
  - no broadcasting beyond scalar-with-tensor and a [d] row bias on [T, d];
    anything else raises ``ShapeError`` naming both shapes;
  - each tensor owns its gradient array: the first contribution is stored
    as a C-ordered copy and later ones are added into it in place, so no two
    tensors share one (``add`` hands one array to both inputs) and every
    gradient has a fresh array's layout, whatever view an op passed back;
  - a parameter's array is read-only: an in-place write raises
    ``ValueError``, and an update gives the tensor a new array through
    ``set_param_data``, so a weight state never changes under a fingerprint
    taken of it;
  - inside ``with no_grad():`` no op records a tape node, so inference
    holds no closures and no references to intermediate results;
  - under strict mode (default) any op producing NaN/Inf raises
    ``NumericError`` immediately instead of letting the values spread,
    with or without ``no_grad``.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DegenerateInputError, NumericError, ShapeError

_default_dtype = np.float64
_strict_finite = True
_grad_enabled = True


def set_default_dtype(dtype) -> None:
    """Set the dtype used for newly created tensors (float64 or float32)."""
    global _default_dtype
    if dtype not in (np.float64, np.float32):
        raise ValueError(f"unsupported dtype {dtype!r}; use np.float64 or np.float32")
    _default_dtype = dtype


def default_dtype():
    return _default_dtype


def set_strict_finite(enabled: bool) -> None:
    """Toggle the NaN/Inf guard that runs after every forward op."""
    global _strict_finite
    _strict_finite = bool(enabled)


def strict_finite() -> bool:
    return _strict_finite


@contextlib.contextmanager
def no_grad():
    """Run ops without recording the tape: results never require grad.

    Nests, and restores the previous state on exit, also after an exception.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """A dense array plus its slot in the gradient tape.

    ``grad`` is populated by ``backward`` for every tensor with
    ``requires_grad`` reachable from the loss; contributions from
    multiple uses of the same tensor accumulate additively, into a
    C-contiguous array that this tensor alone owns.

    ``data`` of a tensor made by ``param`` is read-only; replace it with
    ``set_param_data`` instead of writing into it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_default_dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A view of the same values cut off from the gradient tape."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def sum(self) -> "Tensor":
        return sum_all(self)

    def mean(self) -> "Tensor":
        return mean_all(self)

    # Operators lift plain numbers to constant tensors.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def param(data) -> Tensor:
    """A trainable leaf tensor over a read-only array.

    An array of the default dtype is used as it is, not copied, and the
    caller's handle on it turns read-only too.
    """
    t = Tensor(data, requires_grad=True)
    t.data.flags.writeable = False
    return t


def set_param_data(t: Tensor, data: np.ndarray) -> None:
    """Give parameter ``t`` the array ``data``, not copied, marked read-only."""
    data.flags.writeable = False
    t.data = data


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, (int, float, np.floating, np.integer, np.ndarray, list, tuple)):
        return Tensor(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as Tensor")


def _guard(data: np.ndarray, op: str) -> np.ndarray:
    """Raise on any NaN/Inf. Any of them makes the sum non-finite, so a finite
    sum clears the array; a non-finite one is confirmed by the full scan,
    which rules out a sum that merely overflowed."""
    if _strict_finite and not math.isfinite(data.sum()) and not np.all(np.isfinite(data)):
        raise NumericError(f"{op} produced non-finite values")
    return data


def _result(data: np.ndarray, op: str, inputs: tuple[Tensor, ...],
            backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(_guard(data, op))
    if _grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._parents = inputs
        out._backward = backward
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``; the first contribution is copied in C order,
    since a strided ``g`` (``transpose``'s) would round the next GEMM
    differently. Unlike zeros + g, an exact -0.0 stays -0.0."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype, order="C")
    else:
        t.grad += g


# ---------------------------------------------------------------------------
# elementwise and scalar ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also scalar+tensor and a [d] row bias ``b`` on [T, d]."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape == b.shape:
        def bw(g):
            _accumulate(a, g)
            _accumulate(b, g)
    elif a.shape == ():
        def bw(g):
            _accumulate(a, g.sum())
            _accumulate(b, g)
    elif b.shape == ():
        def bw(g):
            _accumulate(a, g)
            _accumulate(b, g.sum())
    elif a.ndim == 2 and b.shape == a.shape[1:]:
        def bw(g):
            _accumulate(a, g)
            _accumulate(b, g.sum(axis=0))
    else:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return _result(a.data + b.data, "add", (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape == b.shape:
        def bw(g):
            _accumulate(a, g)
            _accumulate(b, -g)
    elif a.shape == ():
        def bw(g):
            _accumulate(a, g.sum())
            _accumulate(b, -g)
    elif b.shape == ():
        def bw(g):
            _accumulate(a, g)
            _accumulate(b, -g.sum())
    else:
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}")
    return _result(a.data - b.data, "sub", (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; also scalar*tensor."""
    a, b = _as_tensor(a), _as_tensor(b)
    if not (a.shape == b.shape or a.shape == () or b.shape == ()):
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")

    def bw(g):
        ga = g * b.data
        gb = g * a.data
        _accumulate(a, ga.sum() if a.shape == () and ga.shape != () else ga)
        _accumulate(b, gb.sum() if b.shape == () and gb.shape != () else gb)
    return _result(a.data * b.data, "mul", (a, b), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if not (a.shape == b.shape or a.shape == () or b.shape == ()):
        raise ShapeError(f"div: incompatible shapes {a.shape} and {b.shape}")

    def bw(g):
        ga = g / b.data
        gb = -g * a.data / (b.data * b.data)
        _accumulate(a, ga.sum() if a.shape == () and ga.shape != () else ga)
        _accumulate(b, gb.sum() if b.shape == () and gb.shape != () else gb)
    return _result(a.data / b.data, "div", (a, b), bw)


def neg(a: Tensor) -> Tensor:
    a = _as_tensor(a)

    def bw(g):
        _accumulate(a, -g)
    return _result(-a.data, "neg", (a,), bw)


def sqrt(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out_data = np.sqrt(a.data)

    def bw(g):
        _accumulate(a, g * 0.5 / out_data)
    return _result(out_data, "sqrt", (a,), bw)


def exp(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out_data = np.exp(a.data)

    def bw(g):
        _accumulate(a, g * out_data)
    return _result(out_data, "exp", (a,), bw)


def log(a: Tensor) -> Tensor:
    a = _as_tensor(a)

    def bw(g):
        _accumulate(a, g / a.data)
    return _result(np.log(a.data), "log", (a,), bw)


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x), the smooth gate used in the feed-forward blocks."""
    a = _as_tensor(a)
    sig = 1.0 / (1.0 + np.exp(-a.data))

    def bw(g):  # g * sig * (1 + x * (1 - sig)), in that rounding order, in place
        slope = 1.0 - sig
        slope *= a.data
        slope += 1.0
        ga = g * sig
        ga *= slope
        _accumulate(a, ga)
    return _result(a.data * sig, "silu", (a,), bw)


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), computed in the overflow-safe form."""
    a = _as_tensor(a)
    x = a.data
    out_data = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def bw(g):
        _accumulate(a, g / (1.0 + np.exp(-x)))
    return _result(out_data, "softplus", (a,), bw)


def sum_all(a: Tensor) -> Tensor:
    a = _as_tensor(a)

    def bw(g):
        _accumulate(a, np.full_like(a.data, float(g)))
    return _result(np.asarray(a.data.sum()), "sum", (a,), bw)


def mean_all(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size

    def bw(g):
        _accumulate(a, np.full_like(a.data, float(g) / n))
    return _result(np.asarray(a.data.mean()), "mean", (a,), bw)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """[T, k] @ [k, n] with the standard transpose backward rules. Row i of the
    product has the same bits whatever T is, so a packed operand gives each
    sequence's rows the bits of that sequence's own product (with OpenBLAS and
    a C-ordered ``b``; small row counts round differently with a transposed one)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: expected [T, k] times [k, n], got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree: {a.shape} vs {b.shape}")

    def bw(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)
    # numpy hands a one-row product to gemv, which rounds unlike the GEMM of
    # every other row count, so one row runs as two.
    out = (a.data[[0, 0]] @ b.data)[:1] if a.shape[0] == 1 else a.data @ b.data
    return _result(out, "matmul", (a, b), bw)


def transpose(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose: expected 2-D operand, got {a.shape}")

    def bw(g):
        _accumulate(a, g.T)
    return _result(a.data.T.copy(), "transpose", (a,), bw)


def dot(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"dot: expected equal-length vectors, got {a.shape} and {b.shape}")

    def bw(g):
        _accumulate(a, float(g) * b.data)
        _accumulate(b, float(g) * a.data)
    return _result(np.asarray(a.data @ b.data), "dot", (a, b), bw)


def cosine_rows(v: Tensor, m: Tensor) -> Tensor:
    """Cosine similarity of a nonzero vector ``v`` [d] against each row of ``m`` [n, d].

    Entry i equals dot(v, m_i) / (sqrt(dot(v, v)) * sqrt(dot(m_i, m_i))) bit
    for bit, with ``np.dot`` and ``np.sqrt`` (``np.linalg.norm`` gives the
    same norms), so external recomputations of that expression match exactly.
    A zero-norm ``v`` or row raises ``DegenerateInputError`` naming it.
    The dots are batched [1, d] @ [d, 1] products: unlike ``m @ v`` (gemv),
    those round each entry exactly as one ``np.dot`` does.
    """
    v, m = _as_tensor(v), _as_tensor(m)
    if v.ndim != 1 or m.ndim != 2 or m.shape[1] != v.shape[0]:
        raise ShapeError(f"cosine_rows: expected a [d] vector and [n, d] rows, "
                         f"got {v.shape} and {m.shape}")
    vv = float(np.dot(v.data, v.data))
    if vv == 0.0:
        raise DegenerateInputError("cosine_rows: vector has zero norm")
    rows = m.data[:, None, :]
    mm = np.matmul(rows, m.data[:, :, None])[:, 0, 0]
    zero = np.flatnonzero(mm == 0.0)
    if zero.size:
        raise DegenerateInputError(f"cosine_rows: row {zero[0]} has zero norm")
    denom = np.sqrt(vv) * np.sqrt(mm)
    out_data = np.matmul(rows, v.data[:, None])[:, 0, 0] / denom

    def bw(g):
        gd = g / denom
        _accumulate(v, gd @ m.data - (g @ out_data / vv) * v.data)
        _accumulate(m, np.outer(gd, v.data) - (g * out_data / mm)[:, None] * m.data)
    return _result(out_data, "cosine_rows", (v, m), bw)


# ---------------------------------------------------------------------------
# shape manipulation: gather / pick / concat
# ---------------------------------------------------------------------------

def take_rows(a: Tensor, indices) -> Tensor:
    """Row gather (embedding-table lookup), or element gather from a vector;
    backward scatter-adds."""
    a = _as_tensor(a)
    if a.ndim not in (1, 2):
        raise ShapeError(f"take_rows: expected a 1-D or 2-D table, got {a.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"take_rows: expected a 1-D index array, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"take_rows: index out of range for table with {a.shape[0]} rows")

    def bw(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, idx, g)
    return _result(a.data[idx], "take_rows", (a,), bw)


def pick(a: Tensor, i: int) -> Tensor:
    """Row ``i`` of a matrix or element ``i`` of a vector. The result is a copy,
    so it does not keep ``a``'s whole buffer alive."""
    a = _as_tensor(a)
    if a.ndim == 0 or not 0 <= i < a.shape[0]:
        raise ShapeError(f"pick: index {i} out of range for shape {a.shape}")

    def bw(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[i] += g
    return _result(np.array(a.data[i]), "pick", (a,), bw)


def concat_rows(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate 2-D blocks along the sequence (row) axis."""
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat_rows: need at least one tensor")
    width = ts[0].shape[1] if ts[0].ndim == 2 else None
    for t in ts:
        if t.ndim != 2 or t.shape[1] != width:
            raise ShapeError(f"concat_rows: blocks must be 2-D with equal width, got {[t.shape for t in ts]}")
    sizes = [t.shape[0] for t in ts]

    def bw(g):
        offset = 0
        for t, n in zip(ts, sizes):
            _accumulate(t, g[offset:offset + n])
            offset += n
    return _result(np.concatenate([t.data for t in ts], axis=0), "concat_rows", tuple(ts), bw)


# ---------------------------------------------------------------------------
# attention, normalization and softmax-family ops
# ---------------------------------------------------------------------------

MASK_VALUE = -1e9


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
                     lengths: Sequence[int] | None = None) -> Tensor:
    """Multi-head causal self-attention over packed [N, d] query/key/value
    projections: the rows hold sequences of ``lengths`` end to end (by
    default one sequence of all N rows), and no row attends outside its own
    sequence.

    Head h owns columns [h*hd, (h+1)*hd) with hd = d / n_heads and computes
    softmax(q_h k_hᵀ / sqrt(hd) + M) v_h; the heads come back side by side as
    [T, d] per sequence. The causal mask M is additive: ``MASK_VALUE`` (-1e9)
    on the strictly-upper triangle, 0 elsewhere, and the row softmax subtracts
    the row max first. In double precision the masked weights underflow to
    exactly zero, so output row i is bitwise independent of every position
    after i.

    Forward and backward equal the per-head 2-D composition (column slices,
    matmul, scale, mask, row softmax, matmul, concatenation) of each sequence
    alone, bit for bit. Consecutive sequences of one length T run as one
    [c, T, d] view of their rows, whose heads are contiguous [c, H, T, hd]
    copies of q and v and a contiguous [c, H, hd, T] copy of kᵀ, the same
    arrays the 2-D slices make; ``np.matmul`` runs one BLAS product per
    (sequence, head), and the backward multiplies by transposed views of those
    copies, as ``matmul``'s backward does. Strided views in place of the copies
    round differently in BLAS.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(f"causal_attention: expected equal [N, d] q, k and v, "
                         f"got {q.shape}, {k.shape} and {v.shape}")
    n, d = q.shape
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"causal_attention: width {d} not divisible by n_heads={n_heads}")
    lengths = [n] if lengths is None else list(lengths)
    if not lengths or min(lengths) < 1 or sum(lengths) != n:
        raise ShapeError(f"causal_attention: sequence lengths {lengths} do not split {n} rows")
    hd = d // n_heads
    scale = 1.0 / math.sqrt(hd)

    def heads(x, t):  # rows of sequences of length T [c*T, d] -> [c, H, T, hd] view
        return np.swapaxes(x.reshape(-1, t, n_heads, hd), 1, 2)

    def tr(x):  # transposed view of the last two axes
        return np.swapaxes(x, -1, -2)

    out, runs, hi = np.empty(q.shape, q.data.dtype), [], 0
    for t, group in itertools.groupby(lengths):
        rows = slice(hi, hi + t * len(list(group)))
        hi = rows.stop
        qh, kt = heads(q.data[rows], t).copy(), tr(heads(k.data[rows], t)).copy()
        vh = heads(v.data[rows], t).copy()
        w = np.matmul(qh, kt)  # the masked row softmax, in place, in the usual rounding order
        w *= scale
        w += np.triu(np.full((t, t), MASK_VALUE, q.data.dtype), k=1)
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        heads(out[rows], t)[...] = np.matmul(w, vh)
        runs.append((rows, t, qh, kt, vh, w))

    def bw(g):
        gq, gk, gv = (np.empty(g.shape, g.dtype) for _ in range(3))
        for rows, t, qh, kt, vh, w in runs:
            gh = heads(g[rows], t)
            gw = np.matmul(gh, tr(vh))
            gl = w * (gw - (gw * w).sum(axis=-1, keepdims=True)) * scale
            heads(gq[rows], t)[...] = np.matmul(gl, tr(kt))
            heads(gk[rows], t)[...] = tr(np.matmul(tr(qh), gl))
            heads(gv[rows], t)[...] = np.matmul(tr(w), gh)
        _accumulate(q, gq)
        _accumulate(k, gk)
        _accumulate(v, gv)
    return _result(out, "causal_attention", (q, k, v), bw)


def logsumexp(x: Tensor) -> Tensor:
    """log(sum(exp(x))) of a vector, stabilized; backward is softmax(x)."""
    x = _as_tensor(x)
    if x.ndim != 1:
        raise ShapeError(f"logsumexp: expected 1-D operand, got {x.shape}")
    m = x.data.max()
    e = np.exp(x.data - m)
    s = e.sum()

    def bw(g):
        _accumulate(x, float(g) * e / s)
    return _result(np.asarray(m + np.log(s)), "logsumexp", (x,), bw)


def rms_norm(x: Tensor, weight: Tensor, eps: float = 1e-6) -> Tensor:
    """Scale a [d] input, or each row of a [T, d] one, by
    1/sqrt(mean(x^2) + eps), then by ``weight``.

    ``eps`` may be zero (exact root-mean-square) but not negative.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    if eps < 0.0:
        raise ValueError(f"rms_norm: eps must be >= 0, got {eps}")
    if weight.ndim != 1:
        raise ShapeError(f"rms_norm: weight must be 1-D, got {weight.shape}")
    if x.ndim not in (1, 2) or x.shape[-1] != weight.shape[0]:
        raise ShapeError(f"rms_norm: input {x.shape} does not end in weight length {weight.shape}")
    d = x.shape[-1]
    ms = (x.data * x.data).mean(axis=-1, keepdims=True)
    r = 1.0 / np.sqrt(ms + eps)
    y = x.data * r * weight.data

    def bw(g):
        # gw * r - x * (r^3 / d) * sum(gw * x), in that rounding order, in place
        gw = g * weight.data
        gx = gw * x.data
        dot = gx.sum(axis=-1, keepdims=True)
        np.multiply(x.data, r ** 3 / d, out=gx)
        gx *= dot
        gw *= r
        np.subtract(gw, gx, out=gx)
        _accumulate(x, gx)
        gweight = g * x.data
        gweight *= r
        if gweight.ndim == 2:
            gweight = gweight.sum(axis=0)
        _accumulate(weight, gweight)
    return _result(y, "rms_norm", (x, weight), bw)


# ---------------------------------------------------------------------------
# backward driver
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Propagate d(loss)/d(leaf) to every requires_grad tensor in the graph.

    The loss must be scalar. The recorded tape is traversed exactly once in
    reverse execution order and then freed; a second backward through the
    same graph is not possible. Each node is let go once it has passed its
    gradient on, so intermediate results nothing else holds free early.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.shape != ():
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._backward is not None:
            node._backward(node.grad)
            node._backward = None
            node._parents = ()


def global_grad_norm(tensors: Iterable[Tensor]) -> float:
    total = 0.0
    for t in tensors:
        if t.grad is not None:
            total += float((t.grad * t.grad).sum())
    return float(np.sqrt(total))
