"""Dense-tensor reverse-mode automatic differentiation.

A tape is recorded implicitly while ops execute: every op result that
records gets a node holding its inputs' nodes and a closure that routes the
output gradient back to them. ``backward`` replays the tape in reverse
topological order and then frees it, so graphs never outlive one
forward/backward cycle.

Conventions:
  - every tensor holds float64 values;
  - the transformer ops are 2-D: several sequences run as one packed
    [ΣT, d] matrix, their rows end to end (the varlen layout of
    FlashAttention-2), and only ``causal_attention`` is told the sequence
    lengths. Each sequence's values equal its own [T, d] run bit for bit,
    because every reduction runs along the last axis, attention keeps to
    each sequence's rows, and row i of a ``matmul`` product has the same bits
    whatever the row count;
  - no broadcasting: ``add`` and ``sub`` take operands of one shape, and
    ``mul`` also takes a scalar operand; anything else raises ``ShapeError``
    naming both shapes;
  - the tape links nodes (``_Node``), never values: a backward closure gets
    the parent nodes as arguments and captures only the arrays its rule
    reads, as each op's docstring states, so a result that no backward reads
    is freed as soon as the forward code drops its tensor;
  - each node's gradient is its own C-ordered copy of the first
    contribution, and later ones are added into it in place;
  - a parameter's array is read-only: an in-place write raises
    ``ValueError``, and an update gives the tensor a new array through
    ``set_param_data``, so a weight state never changes under a fingerprint
    taken of it;
  - inside ``with no_grad():``, or when no input requires grad, no op
    makes a node, so inference holds no closures and no references to
    intermediate results, and an op may work in the arrays it has just made
    (``silu_matmul`` gates its gate input in place) with the same bits;
  - any op producing NaN/Inf raises ``NumericError`` immediately instead
    of letting the values spread, with or without ``no_grad``.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DegenerateInputError, NumericError, ShapeError

# Context-local, so one thread's (or task's) setting never leaks into another's;
# a new thread starts from the default.
_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Run ops without recording the tape: results never require grad.

    Nests, and restores the previous state on exit, also after an exception.
    """
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class _Node:
    """A tensor's slot in the tape, which it has exactly while it takes a
    gradient: that gradient, the nodes of its op's inputs (None for an input
    with no node), the op's ``backward(g, *parents)``, which adds ``g`` into
    the parents' gradients, and, where the value is cheap to make again
    (``rms_norm``), ``remake()``: the value with its forward bits, so the
    backwards reading it need not keep it."""

    __slots__ = ("grad", "parents", "backward", "remake")

    def __init__(self, parents: tuple = (), backward: Callable[..., None] | None = None):
        self.grad: np.ndarray | None = None
        self.parents: tuple[_Node | None, ...] = parents
        self.backward = backward
        self.remake: Callable[[], np.ndarray] | None = None


class Tensor:
    """A dense array plus, if it takes part in the tape, its node.

    ``grad`` is populated by ``backward`` for every tensor with
    ``requires_grad`` reachable from the loss; contributions from
    multiple uses of the same tensor accumulate additively, into a
    C-contiguous array that this tensor alone owns. Both live on the node.

    ``data`` of a tensor made by ``param`` is read-only; replace it with
    ``set_param_data`` instead of writing into it.
    """

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.node: _Node | None = _Node() if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @requires_grad.setter
    def requires_grad(self, value: bool) -> None:
        self.node = (self.node or _Node()) if value else None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        if self.node is not None:
            self.node.grad = value
        elif value is not None:
            raise ValueError("grad: this tensor takes no gradient")

    @property
    def _backward(self) -> Callable[..., None] | None:
        """The recorded backward closure, None for a leaf or a tape-free result."""
        return None if self.node is None else self.node.backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def sum(self) -> "Tensor":
        return sum_all(self)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def param(data) -> Tensor:
    """A trainable leaf tensor over a read-only array.

    A float64 array is used as it is, not copied, and the caller's handle
    on it turns read-only too.
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


def check_finite(data: np.ndarray, op: str) -> np.ndarray:
    """Raise ``NumericError`` naming ``op`` on any NaN/Inf; every op runs
    this on its output. The sum of squares (``np.vdot`` of the array with
    itself, one BLAS pass) is finite when every element is; a
    non-finite one is confirmed by the full scan, which clears an array whose
    squares merely overflowed (an element above about 1.3e154). ``np.vdot``
    raises no floating-point warning, so neither case warns under any warning
    filter, and no call pays for an ``np.errstate``."""
    if not math.isfinite(np.vdot(data, data)) and not np.isfinite(data).all():
        raise NumericError(f"{op} produced non-finite values")
    return data


def _records(inputs: tuple[Tensor, ...]) -> bool:
    """True when an op on ``inputs`` makes a node: grad is on and an input
    takes a gradient. A plain loop, as this runs on every op."""
    if _grad_enabled.get():
        for t in inputs:
            if t.node is not None:
                return True
    return False


def _result(data: np.ndarray, op: str, inputs: tuple[Tensor, ...],
            backward: Callable[..., None]) -> Tensor:
    """The op's result; when it records, a node whose parents are the
    ``inputs``' nodes, in order, and which ``backward`` gets as arguments."""
    out = Tensor(check_finite(data, op))
    if _records(inputs):
        out.node = _Node(tuple([t.node for t in inputs]), backward)
    return out


def _kept(t: Tensor) -> np.ndarray | None:
    """The array of input ``t`` for a backward to keep: None where ``t``'s node
    can remake it, so the tape does not hold it (``_read`` then remakes it)."""
    return None if t.node is not None and t.node.remake is not None else t.data


def _read(kept: np.ndarray | None, node: _Node) -> np.ndarray:
    """In a backward, the values of an input that ``_kept`` gave ``kept``."""
    return node.remake() if kept is None else kept


def _accumulate(node: _Node | None, g: np.ndarray) -> None:
    """Add ``g`` into ``node.grad``; a parent with no node is skipped. Unlike
    zeros + g, an exact -0.0 stays -0.0. A first contribution is copied in C
    order: a shared ``g`` would take the next contribution to one node into the
    other's gradient too, and a strided one would round the next GEMM differently."""
    if node is None:
        return
    if node.grad is None:
        node.grad = np.array(g, dtype=np.float64, order="C")
    else:
        node.grad += g


# ---------------------------------------------------------------------------
# elementwise and scalar ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape; the node keeps nothing."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")

    def bw(g, na, nb):
        _accumulate(na, g)
        _accumulate(nb, g)
    return _result(a.data + b.data, "add", (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise difference of two tensors of one shape; the node keeps nothing."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}")

    def bw(g, na, nb):
        _accumulate(na, g)
        _accumulate(nb, -g)
    return _result(a.data - b.data, "sub", (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; also scalar*tensor. The node keeps both inputs."""
    a, b = _as_tensor(a), _as_tensor(b)
    if not (a.shape == b.shape or a.shape == () or b.shape == ()):
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")

    x, y = a.data, b.data

    def bw(g, na, nb):
        ga = g * y
        gb = g * x
        _accumulate(na, ga.sum() if x.shape == () and ga.shape != () else ga)
        _accumulate(nb, gb.sum() if y.shape == () and gb.shape != () else gb)
    return _result(x * y, "mul", (a, b), bw)


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), computed in the overflow-safe form; the node keeps x."""
    a = _as_tensor(a)
    x = a.data
    out_data = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def bw(g, na):  # g * sigmoid(x); exp(-x) overflows to inf below x = -709, where 1/(1+inf) = 0
        with np.errstate(over="ignore"):
            e = np.exp(-x)
        _accumulate(na, g / (1.0 + e))
    return _result(out_data, "softplus", (a,), bw)


def sum_all(a: Tensor) -> Tensor:
    """The sum of every element; the node keeps only the shape."""
    a = _as_tensor(a)
    shape = a.shape

    def bw(g, na):
        _accumulate(na, np.full(shape, float(g)))
    return _result(np.asarray(a.data.sum()), "sum", (a,), bw)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) as a new array, made in place in that rounding
    order; ``silu_matmul``'s forward and its backward's recompute both call
    this, so the two give the same bits."""
    sig = np.negative(x)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    return sig


def _product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w. numpy hands a one-row product to gemv, which rounds unlike the
    GEMM of every other row count, so one row runs as two."""
    return (x[[0, 0]] @ w)[:1] if x.shape[0] == 1 else x @ w


def _check_matmul_shapes(op: str, a: tuple[int, ...], b: tuple[int, ...]) -> None:
    if len(a) != 2 or len(b) != 2:
        raise ShapeError(f"{op}: expected [T, k] times [k, n], got {a} and {b}")
    if a[1] != b[0]:
        raise ShapeError(f"{op}: inner dimensions disagree: {a} vs {b}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """[T, k] @ [k, n] with the standard transpose backward rules.

    Where row i of the product has the same bits whatever T is, a packed
    operand gives each sequence's rows the bits of that sequence's own
    product (with a C-ordered ``b``; small row counts round differently with
    a transposed one). That holds for some shapes only. Measured on OpenBLAS
    0.3.31 (Haswell kernels): a width n 1 to 3 past a multiple of 8 rounds
    its last columns by row count, and so does a width 4 past one from 44 up
    at depth 2n and from 60 up at depth n, and the FFN's down projection at
    ``d_model`` 36 and 136 with ``ffn_mult=4`` (depth 4n). So ``batch_encode``
    differs from ``encode_passage`` in 40 of 40 seed-0 passages at
    ``d_model`` 36 (4 heads) and 30 of 40 at 136 (8 heads) with the default
    ``ffn_mult=4``, and in none at either with ``ffn_mult=2`` or at the
    default 64 with either.

    The node keeps both inputs, ``a`` only where its node cannot remake it
    (an ``rms_norm`` result, remade in the backward)."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_matmul_shapes("matmul", a.shape, b.shape)
    x, w = _kept(a), b.data

    def bw(g, na, nb):
        _accumulate(na, g @ w.T)
        _accumulate(nb, _read(x, na).T @ g)
    return _result(_product(a.data, w), "matmul", (a, b), bw)


# Rows a tape-free ``silu_matmul`` gates at a time, so the sigmoid temporary is
# a fraction of the gate's size. A 500-passage seed-0 dense build took 99 ms
# and faulted no pages at 64 (16 to 128: 98-102 ms, at most 20 faults), and
# 119 ms and 10.9k faults gating a whole 384-row pack at once (one BLAS thread).
_GATE_ROWS = 64


def silu_matmul(m: Tensor, w1: Tensor, w2: Tensor) -> Tensor:
    """silu(m @ w1) @ w2, with silu(z) = z * sigmoid(z): the feed-forward
    block as one op, with the bits of ``matmul``, silu and ``matmul`` run
    apart (each product runs on every row at once).

    With no tape the gate input z = m @ w1, the op's own array, is gated in
    place ``_GATE_ROWS`` rows at a time (silu is elementwise, so the blocks
    keep its bits). With a tape h is a new array, and the node keeps z, the
    weights and ``m`` as ``matmul`` keeps it. The backward makes the sigmoid
    and h again from z through ``_sigmoid``, with the forward's bits, then
    runs ``matmul``'s rule on h, silu's, g * sig * (1 + z * (1 - sig)), and
    ``matmul``'s rule on m. The finite guard runs on z, naming ``matmul
    (silu gate)``, before the gate can warn, on h, naming ``silu``, and on
    the product."""
    m, w1, w2 = _as_tensor(m), _as_tensor(w1), _as_tensor(w2)
    _check_matmul_shapes("silu_matmul", m.shape, w1.shape)
    _check_matmul_shapes("silu_matmul", (m.shape[0], w1.shape[1]), w2.shape)
    kept, v1, v2 = _kept(m), w1.data, w2.data
    gate = check_finite(_product(m.data, v1), "matmul (silu gate)")
    if _records((m, w1, w2)):
        h = _sigmoid(gate)
        h *= gate
    else:
        h = gate
        for i in range(0, len(h), _GATE_ROWS):
            block = h[i:i + _GATE_ROWS]
            block *= _sigmoid(block)
    check_finite(h, "silu")

    def bw(g, nm, n1, n2):
        sig = _sigmoid(gate)
        _accumulate(n2, (gate * sig).T @ g)
        ga = g @ v2.T
        ga *= sig
        np.subtract(1.0, sig, out=sig)  # the slope 1 + z * (1 - sig), in place
        sig *= gate
        sig += 1.0
        ga *= sig
        _accumulate(nm, ga @ v1.T)
        _accumulate(n1, _read(kept, nm).T @ ga)
    return _result(_product(h, v2), "silu_matmul", (m, w1, w2), bw)


def row_squares(m: np.ndarray) -> np.ndarray:
    """dot(m_i, m_i) of each row of [n, d] ``m``; inf, unwarned, where it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.matmul(m[:, None, :], m[:, :, None])[:, 0, 0]


def cosines(v: np.ndarray, m: np.ndarray, norms: np.ndarray, op: str) -> tuple[np.ndarray, float]:
    """dot(v, m_i) / (sqrt(dot(v, v)) * norms[i]) for each row of ``m``, and
    dot(v, v), whose not being finite raises ``NumericError`` and being 0
    ``DegenerateInputError``, naming ``op``. Here and in ``row_squares`` the
    dots are batched [1, d] @ [d, 1] products: unlike ``m @ v`` (gemv), those
    round each entry exactly as one ``np.dot`` does."""
    with np.errstate(over="ignore"):
        vv = float(np.dot(v, v))
    if not math.isfinite(vv):
        raise NumericError(f"{op}: the vector's squared norm is not finite")
    if vv == 0.0:
        raise DegenerateInputError(f"{op}: the vector has zero norm")
    return np.matmul(m[:, None, :], v[:, None])[:, 0, 0] / (np.sqrt(vv) * norms), vv


def cosine_rows(v: Tensor, m: Tensor) -> Tensor:
    """Cosine similarity of a nonzero vector ``v`` [d] against each row of ``m`` [n, d].

    Entry i equals dot(v, m_i) / (sqrt(dot(v, v)) * sqrt(dot(m_i, m_i))) bit
    for bit, with ``np.dot`` and ``np.sqrt`` (``np.linalg.norm`` gives the
    same norms): ``row_squares`` and ``cosines`` compute it, and
    ``retrieval.DenseIndex`` calls them too, with each row's norm computed
    once per index. A ``v`` or row whose squared norm is not finite (an
    infinity, a NaN, or values whose squares overflow) raises
    ``NumericError`` before any division, and a zero-norm one raises
    ``DegenerateInputError``; both name the row. Then no dot can overflow.
    The node keeps both inputs, the result and the norms and their squares.
    """
    v, m = _as_tensor(v), _as_tensor(m)
    if v.ndim != 1 or m.ndim != 2 or m.shape[1] != v.shape[0]:
        raise ShapeError(f"cosine_rows: expected a [d] vector and [n, d] rows, "
                         f"got {v.shape} and {m.shape}")
    vd, md = v.data, m.data
    mm = row_squares(md)
    bad = np.flatnonzero(~np.isfinite(mm))
    if bad.size:
        raise NumericError(f"cosine_rows: row {bad[0]}'s squared norm is not finite")
    zero = np.flatnonzero(mm == 0.0)
    if zero.size:
        raise DegenerateInputError(f"cosine_rows: row {zero[0]} has zero norm")
    norms = np.sqrt(mm)
    out_data, vv = cosines(vd, md, norms, "cosine_rows")

    def bw(g, nv, nm):
        gd = g / (np.sqrt(vv) * norms)
        _accumulate(nv, gd @ md - (g @ out_data / vv) * vd)
        _accumulate(nm, np.outer(gd, vd) - (g * out_data / mm)[:, None] * md)
    return _result(out_data, "cosine_rows", (v, m), bw)


# ---------------------------------------------------------------------------
# shape manipulation: gather / pick / concat
# ---------------------------------------------------------------------------

def take_rows(a: Tensor, indices) -> Tensor:
    """Row gather (embedding-table lookup), or element gather from a vector;
    backward scatter-adds, in ``np.add.at``'s order and with its bits, as one
    flat pass (``_scatter_rows``). The node keeps the shape and indices."""
    a = _as_tensor(a)
    if a.ndim not in (1, 2):
        raise ShapeError(f"take_rows: expected a 1-D or 2-D table, got {a.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"take_rows: expected a 1-D index array, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"take_rows: index out of range for table with {a.shape[0]} rows")

    shape = a.shape

    def bw(g, na):
        if na is not None:
            if na.grad is None:
                na.grad = np.zeros(shape)
            _scatter_rows(na.grad, idx, g)
    return _result(a.data[idx], "take_rows", (a,), bw)


def _scatter_rows(target: np.ndarray, idx: np.ndarray, g: np.ndarray) -> None:
    """``np.add.at(target, idx, g)`` into a C-ordered 1-D or 2-D ``target``, as
    one 1-D ``np.add.at`` over the flat element indices of the rows
    (``idx[:, None] * d + arange(d)``). Each element takes the same additions
    in the same order, so the bits are those of the 2-D call, also into a
    target that holds values or -0.0; a sorted ``np.add.reduceat`` or a
    ``bincount`` added to the target is not exact. The 1-D ``ufunc.at`` is the
    fast one from numpy 1.25 (about 4x the 2-D call for a [384, 64] gradient);
    with older numpy it is as exact but not faster."""
    if target.ndim == 2:
        d = target.shape[1]
        idx = (idx[:, None] * d + np.arange(d)).reshape(-1)
        target, g = target.reshape(-1), g.reshape(-1)
    np.add.at(target, idx, g)


def pick(a: Tensor, i: int) -> Tensor:
    """Row ``i`` of a matrix or element ``i`` of a vector. The result is a copy,
    so it does not keep ``a``'s whole buffer alive; the node keeps the shape."""
    a = _as_tensor(a)
    if a.ndim == 0 or not 0 <= i < a.shape[0]:
        raise ShapeError(f"pick: index {i} out of range for shape {a.shape}")

    shape = a.shape

    def bw(g, na):
        if na is not None:
            if na.grad is None:
                na.grad = np.zeros(shape)
            na.grad[i] += g
    return _result(np.array(a.data[i]), "pick", (a,), bw)


def concat_rows(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate 2-D blocks along the sequence (row) axis; the node keeps
    their row counts."""
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat_rows: need at least one tensor")
    width = ts[0].shape[1] if ts[0].ndim == 2 else None
    for t in ts:
        if t.ndim != 2 or t.shape[1] != width:
            raise ShapeError(f"concat_rows: blocks must be 2-D with equal width, got {[t.shape for t in ts]}")
    sizes = [t.shape[0] for t in ts]

    def bw(g, *nodes):
        offset = 0
        for node, n in zip(nodes, sizes):
            _accumulate(node, g[offset:offset + n])
            offset += n
    return _result(np.concatenate([t.data for t in ts], axis=0), "concat_rows", tuple(ts), bw)


# ---------------------------------------------------------------------------
# attention, normalization and softmax-family ops
# ---------------------------------------------------------------------------

MASK_VALUE = -1e9

# The additive causal mask of the longest sequence seen so far and the 0/1
# mask keeping its zero entries, both read-only, published together as one
# pair; a sequence of length T reads their [:T, :T] corners.
_triangles = (np.zeros((0, 0)), np.zeros((0, 0)))
_triangles_lock = threading.Lock()


def _causal_masks(t: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only [t, t] views of np.triu(np.full((t, t), MASK_VALUE), 1) and of
    its keep mask (1.0 where it is 0), both from one snapshot of the shared
    pair. A longer pair is built into locals and published only if it is still
    longer than the shared one, so a thread never sees the pair shrink or the
    two masks come from different sizes."""
    global _triangles
    mask, keep = _triangles
    if mask.shape[0] < t:
        mask = np.triu(np.full((t, t), MASK_VALUE), k=1)
        keep = (mask == 0.0).astype(np.float64)
        mask.flags.writeable = keep.flags.writeable = False
        with _triangles_lock:
            if _triangles[0].shape[0] < t:
                _triangles = (mask, keep)
    return mask[:t, :t], keep[:t, :t]


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
                     lengths: Sequence[int] | None = None, rows=None) -> Tensor:
    """Multi-head causal self-attention over packed [N, d] query/key/value
    projections: the rows hold sequences of ``lengths`` end to end (by
    default one sequence of all N rows), and no row attends outside its own
    sequence. ``rows``, if given, are the packed rows the caller reads: the
    result is then [len(rows), d], row j equal bit for bit to row ``rows[j]``
    of the full [N, d] result (rows may repeat and come in any order).

    Head h owns columns [h*hd, (h+1)*hd) with hd = d / n_heads and computes
    softmax(q_h k_hᵀ / sqrt(hd) + M) v_h; the heads come back side by side as
    [T, d] per sequence. The causal mask M is additive: ``MASK_VALUE`` (-1e9)
    on the strictly-upper triangle, 0 elsewhere, and the row softmax subtracts
    the row max first. In double precision the masked weights underflow to
    exactly zero, so output row i is bitwise independent of every position
    after i. The softmax multiplies the scores by the 0/1 keep mask before
    the exp and after it, so a masked score exps -0.0 instead of taking
    ``np.exp``'s slow underflow path and still ends as the +0.0 weight.

    Forward and backward equal the per-head 2-D composition (column slices,
    matmul, scale, mask, row softmax, matmul, concatenation) of each sequence
    alone, bit for bit. Consecutive sequences of one length T run as one
    [c, T, d] view of their rows. Their heads are [c, H, T, hd] views of q and
    v and a contiguous [c, H, hd, T] copy of kᵀ: BLAS rounds a product of
    those as it rounds the 2-D slices, while a strided kᵀ view rounds
    differently. ``np.matmul`` runs one BLAS product per (sequence, head),
    and the backward multiplies by transposed views of the same arrays, as
    ``matmul``'s backward does. The masks are corners of one shared read-only
    pair (``_causal_masks``). The node keeps each group's q and v views, kᵀ
    copy and softmax weights; with no tape no group's arrays outlive the
    loop's next turn, and its kᵀ copy goes once the scores are made.

    Given ``rows``, a group whose sequences read at most half their local
    rows (one row per passage or query in the encoder's last block)
    softmaxes only their union U: its U rows of q kᵀ are taken out, masked
    with the U rows of both masks, softmaxed and put back, and the other
    rows keep their raw scores. The scores and the product with v still run
    on every row, so each read row keeps its bits at every width (OpenBLAS
    rounds the last columns of a product whose width is 1 to 3 past a
    multiple of 8 by its row count). The backward is the full-row one on the
    output gradient scattered to [N, d] as ``take_rows`` scatters it: a row
    not read has a zero gradient, so its raw scores add only zeros.
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
    if rows is not None:
        read = np.asarray(rows, dtype=np.intp)
        if read.ndim != 1 or (read.size and (read.min() < 0 or read.max() >= n)):
            raise ShapeError(f"causal_attention: rows must be a 1-D array of indices "
                             f"below {n}, got {rows!r}")
        is_read = np.zeros(n, dtype=bool)
        is_read[read] = True
    hd = d // n_heads
    scale = 1.0 / math.sqrt(hd)

    def heads(x, t):  # rows of sequences of length T [c*T, d] -> [c, H, T, hd] view
        return np.swapaxes(x.reshape(-1, t, n_heads, hd), 1, 2)

    def tr(x):  # transposed view of the last two axes
        return np.swapaxes(x, -1, -2)

    out, runs, hi = np.empty(q.shape, q.data.dtype), [], 0
    record = _records((q, k, v))
    for t, group in itertools.groupby(lengths):
        span = slice(hi, hi + t * len(list(group)))
        hi = span.stop
        qh, kt, vh = heads(q.data[span], t), tr(heads(k.data[span], t)).copy(), heads(v.data[span], t)
        w = np.matmul(qh, kt)  # the masked row softmax, in place, in the usual rounding order
        if record:
            runs.append((span, t, qh, kt, vh, w))
        del kt
        u = None  # the local rows softmaxed, if not every row
        if rows is not None:
            u = np.flatnonzero(is_read[span].reshape(-1, t).any(axis=0))
            if 2 * len(u) > t:
                u = None
        mask, keep = _causal_masks(t)
        s, mask, keep = (w, mask, keep) if u is None else (w[:, :, u], mask[u], keep[u])
        s *= scale
        s += mask
        s -= s.max(axis=-1, keepdims=True)
        s *= keep
        np.exp(s, out=s)
        s *= keep
        s /= s.sum(axis=-1, keepdims=True)
        if u is not None:
            w[:, :, u] = s
        np.matmul(w, vh, out=heads(out[span], t))
    if rows is not None:
        out = out[read]

    def bw(g, nq, nk, nv):
        if rows is not None:  # the gradient of the full [N, d] result
            g, part = np.zeros((n, d)), g
            _scatter_rows(g, read, part)
        gq, gk, gv = (np.empty(g.shape, g.dtype) for _ in range(3))
        for span, t, qh, kt, vh, w in runs:
            gh = heads(g[span], t)
            gw = np.matmul(gh, tr(vh))  # w * (gw - sum(gw * w)) * scale, in place
            gw -= (gw * w).sum(axis=-1, keepdims=True)
            gw *= w
            gw *= scale
            np.matmul(gw, tr(kt), out=heads(gq[span], t))
            # a transposed out is not BLAS-able, so gk's product is copied in
            heads(gk[span], t)[...] = tr(np.matmul(tr(qh), gw))
            np.matmul(tr(w), gh, out=heads(gv[span], t))
        _accumulate(nq, gq)
        _accumulate(nk, gk)
        _accumulate(nv, gv)
    return _result(out, "causal_attention", (q, k, v), bw)


def logsumexp(x: Tensor) -> Tensor:
    """log(sum(exp(x))) of a vector, stabilized; backward is softmax(x), from
    the exps and their sum, which the node keeps."""
    x = _as_tensor(x)
    if x.ndim != 1:
        raise ShapeError(f"logsumexp: expected 1-D operand, got {x.shape}")
    m = x.data.max()
    e = np.exp(x.data - m)
    s = e.sum()

    def bw(g, nx):
        _accumulate(nx, float(g) * e / s)
    return _result(np.asarray(m + np.log(s)), "logsumexp", (x,), bw)


def _rms_scaled(xd: np.ndarray, r: np.ndarray, wd: np.ndarray) -> np.ndarray:
    """x * r * weight as a new array, in that rounding order; ``rms_norm``'s
    forward and its node's ``remake`` both call this, so the two give the
    same bits."""
    y = xd * r
    y *= wd
    return y


def rms_norm(x: Tensor, weight: Tensor, eps: float = 1e-6) -> Tensor:
    """Scale a [d] input, or each row of a [T, d] one, by
    1/sqrt(mean(x^2) + eps), then by ``weight``.

    ``eps`` may be zero (exact root-mean-square) but not negative. The node
    keeps ``x``, ``weight`` and the row scales r; its ``remake`` makes the
    output again (``_rms_scaled``) once however many backwards read it, and
    ``backward`` drops it once the norm's own backward has run.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    if eps < 0.0:
        raise ValueError(f"rms_norm: eps must be >= 0, got {eps}")
    if weight.ndim != 1:
        raise ShapeError(f"rms_norm: weight must be 1-D, got {weight.shape}")
    if x.ndim not in (1, 2) or x.shape[-1] != weight.shape[0]:
        raise ShapeError(f"rms_norm: input {x.shape} does not end in weight length {weight.shape}")
    xd, wd = x.data, weight.data
    d = xd.shape[-1]
    r = np.add.reduce(xd * xd, -1, keepdims=True)  # mean(x^2)'s sum, then its divide
    r /= d
    r += eps
    np.sqrt(r, out=r)
    np.divide(1.0, r, out=r)
    made = []

    def remake():
        if not made:
            made.append(_rms_scaled(xd, r, wd))
        return made[0]

    def bw(g, nx, nw):
        # gw * r - x * (r^3 / d) * sum(gw * x), in that rounding order, in place
        gw = g * wd
        gx = gw * xd
        dot = gx.sum(axis=-1, keepdims=True)
        np.multiply(xd, r ** 3 / d, out=gx)
        gx *= dot
        gw *= r
        np.subtract(gw, gx, out=gx)
        _accumulate(nx, gx)
        np.multiply(g, xd, out=gw)  # the weight's gradient g * x * r, in gw's array
        gw *= r
        _accumulate(nw, gw.sum(axis=0) if gw.ndim == 2 else gw)
    out = _result(_rms_scaled(xd, r, wd), "rms_norm", (x, weight), bw)
    if out.node is not None:
        out.node.remake = remake
    return out


# ---------------------------------------------------------------------------
# backward driver
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Propagate d(loss)/d(leaf) to every requires_grad tensor in the graph.

    The loss must be scalar. The recorded tape is traversed exactly once in
    reverse execution order and then freed; a second backward through the
    same graph is not possible. Each node lets go of its closure and its
    ``remake``, and so of the arrays they read, once it has passed its
    gradient on.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.shape != ():
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")

    if loss.node is None:
        return
    loss.node.grad = np.ones_like(loss.data)
    topo: list[_Node] = []
    visited: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(loss.node, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent is not None and id(parent) not in visited:
                stack.append((parent, False))

    while topo:
        node = topo.pop()
        if node.backward is not None:
            node.backward(node.grad, *node.parents)
            node.backward = node.remake = None
            node.parents = ()


def global_grad_norm(tensors: Iterable[Tensor]) -> float:
    total = 0.0
    for t in tensors:
        if t.grad is not None:
            total += float((t.grad * t.grad).sum())
    return float(np.sqrt(total))
