"""Independent reference implementations used as test oracles.

Nothing here calls into the library's forward/backward machinery: matmul is a
triple loop, softmax goes through mpmath at 50 digits, the transformer forward
is a standalone numpy transcription, and the metric/fusion oracles are direct
definitional computations. Two helpers are no oracles: ``rerank_pairs``
spells the library's own rerank call for ``(doc_id, tokens)`` pairs, and
``tape_bytes`` measures what a recorded tape holds.
"""

from __future__ import annotations

import collections
import math
import types

import mpmath
import numpy as np

from embrank.reranker import rerank_embeddings
from embrank.retrieval import candidate_embeddings


def rerank_pairs(query_ids, docs, models, **kwargs):
    """``rerank_embeddings`` of ``(doc_id, tokens)`` pairs, their rows from one
    ``candidate_embeddings`` encode; returns the ``RerankResult``."""
    ids = [doc_id for doc_id, _ in docs]
    return rerank_embeddings(query_ids, ids, candidate_embeddings(models, ids, dict(docs)),
                             models, **kwargs)


def tape_bytes(loss) -> dict[str, int]:
    """Bytes of the arrays that the tape reachable from ``loss`` holds, by op:
    each distinct writable buffer that a node's backward closure or its
    ``remake`` captures (itself, inside a list or tuple, or inside a function
    it holds, through that function's own closure), counted once at its full
    size (the array owning the memory of a view) under the op of the first
    node found holding it. Read-only arrays, the parameters and the shared
    causal masks, are not counted. Called when ``backward`` starts, it
    measures what the forward leaves on the tape."""
    held, nodes, buffers, stack = collections.Counter(), set(), set(), [loss.node]
    while stack:
        node = stack.pop()
        if node is None or id(node) in nodes:
            continue
        nodes.add(id(node))
        stack.extend(node.parents)
        if node.backward is None:
            continue
        op = node.backward.__qualname__.split(".")[0]
        values, functions = [node.backward, node.remake], set()
        while values:
            value = values.pop()
            if isinstance(value, (list, tuple)):
                values.extend(value)
            elif isinstance(value, types.FunctionType) and id(value) not in functions:
                functions.add(id(value))
                values.extend(_cell_value(cell) for cell in value.__closure__ or ())
            elif isinstance(value, np.ndarray):
                owner = value if value.base is None else value.base
                if owner.flags.writeable and id(owner) not in buffers:
                    buffers.add(id(owner))
                    held[op] += owner.nbytes
    return dict(sorted(held.items()))


def _cell_value(cell):
    """A closure cell's value; None for a variable deleted after capture."""
    try:
        return cell.cell_contents
    except ValueError:
        return None


def naive_matmul(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def highprec_softmax_row(row, dps: int = 50):
    """Row softmax evaluated at 50 decimal digits, rounded back to float64."""
    with mpmath.workdps(dps):
        exps = [mpmath.exp(mpmath.mpf(float(v))) for v in row]
        total = mpmath.fsum(exps)
        return np.array([float(e / total) for e in exps])


def reference_rms_norm(x, weight, eps):
    x = np.asarray(x, dtype=np.float64)
    ms = np.mean(x * x, axis=-1, keepdims=True)
    return x / np.sqrt(ms + eps) * np.asarray(weight)


def reference_transformer_forward(model, token_ids=None, embedded=None):
    """Plain-numpy transcription of the causal transformer forward pass."""
    cfg = model.config
    p = {k: t.data for k, t in model.params.items()}
    if embedded is None:
        ids = list(token_ids)
        x = p["tok_emb"][ids] + p["pos_emb"][: len(ids)]
    else:
        x = np.array(embedded, dtype=np.float64)
    t = x.shape[0]
    mask = np.triu(np.full((t, t), -1e9), k=1)
    head_dim = cfg.d_model // cfg.n_heads
    for i in range(cfg.n_layers):
        a = reference_rms_norm(x, p[f"layers.{i}.attn_norm.weight"], cfg.norm_eps)
        q = a @ p[f"layers.{i}.attn.wq"]
        k = a @ p[f"layers.{i}.attn.wk"]
        v = a @ p[f"layers.{i}.attn.wv"]
        heads = []
        for h in range(cfg.n_heads):
            lo, hi = h * head_dim, (h + 1) * head_dim
            logits = (q[:, lo:hi] @ k[:, lo:hi].T) * (1.0 / math.sqrt(head_dim)) + mask
            shifted = logits - logits.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            w = e / e.sum(axis=1, keepdims=True)
            heads.append(w @ v[:, lo:hi])
        x = x + np.concatenate(heads, axis=1) @ p[f"layers.{i}.attn.wo"]
        m = reference_rms_norm(x, p[f"layers.{i}.mlp_norm.weight"], cfg.norm_eps)
        pre = m @ p[f"layers.{i}.mlp.w1"]
        act = pre * (1.0 / (1.0 + np.exp(-pre)))  # silu
        x = x + act @ p[f"layers.{i}.mlp.w2"]
    return reference_rms_norm(x, p["final_norm.weight"], cfg.norm_eps)


def reference_causal_attention(q, k, v, n_heads, g):
    """Multi-head causal attention computed one head at a time on 2-D arrays.

    Each head takes contiguous column-slice copies, forms ``q_h @ k_hᵀ``,
    scales, adds the -1e9 mask, applies the row-max shifted softmax and
    multiplies by ``v_h``; the heads are concatenated by column. The backward
    applies the 2-D matmul and softmax rules to the upstream gradient ``g``
    [T, d]. Returns (out, dq, dk, dv).
    """
    t, d = q.shape
    hd = d // n_heads
    scale = 1.0 / math.sqrt(hd)
    mask = np.triu(np.full((t, t), -1e9), k=1)
    heads, dq, dk, dv = [], np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    for h in range(n_heads):
        lo, hi = h * hd, (h + 1) * hd
        qh, vh = q[:, lo:hi].copy(), v[:, lo:hi].copy()
        kt = k[:, lo:hi].copy().T.copy()
        logits = (qh @ kt) * scale + mask
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        w = e / e.sum(axis=1, keepdims=True)
        heads.append(w @ vh)
        gh = g[:, lo:hi]
        gw = gh @ vh.T
        gl = w * (gw - (gw * w).sum(axis=1, keepdims=True)) * scale
        dq[:, lo:hi] += gl @ kt.T
        dk[:, lo:hi] += (qh.T @ gl).T
        dv[:, lo:hi] += w.T @ gh
    return np.concatenate(heads, axis=1), dq, dk, dv


def distinct_tokens(candidate_lists) -> list[tuple]:
    """The token tuples of the distinct doc ids of ``(doc_id, tokens)`` lists, sorted."""
    return sorted(tuple(tokens) for tokens in
                  dict(pair for pairs in candidate_lists for pair in pairs).values())


def naive_ndcg(ranked_doc_ids, grades: dict, k: int):
    """Definitional nDCG@k; returns None when no judged document has grade > 0."""
    dcg = 0.0
    for i, doc_id in enumerate(ranked_doc_ids[:k]):
        gain = 2.0 ** grades.get(doc_id, 0) - 1.0
        dcg += gain / math.log2(i + 2)
    ideal = sorted(grades.values(), reverse=True)[:k]
    idcg = 0.0
    for i, g in enumerate(ideal):
        idcg += (2.0 ** g - 1.0) / math.log2(i + 2)
    if idcg == 0.0:
        return None
    return dcg / idcg


def naive_rrf(runs, k_const: int):
    """Definitional reciprocal rank fusion over any number of runs."""
    docs = set()
    for run in runs:
        docs.update(run)
    scored = {}
    for doc in docs:
        s = 0.0
        for run in runs:
            if doc in run:
                s += 1.0 / (k_const + run.index(doc) + 1)
        scored[doc] = s
    return sorted(scored.items(), key=lambda kv: (-kv[1], kv[0]))


def naive_bm25_scores(doc_token_lists, query_tokens, k1: float, b: float):
    """Definitional BM25 over tokenized documents; returns one score per doc."""
    n = len(doc_token_lists)
    lengths = [len(d) for d in doc_token_lists]
    avgdl = sum(lengths) / n
    scores = []
    for d, length in zip(doc_token_lists, lengths):
        s = 0.0
        for t in query_tokens:
            tf = d.count(t)
            if tf == 0:
                continue
            df = sum(1 for other in doc_token_lists if t in other)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            s += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * length / avgdl))
        scores.append(s)
    return scores


# ---------------------------------------------------------------------------
# per-op gradient-check cases: name -> make(rng) returning (f, named tensors)
# ---------------------------------------------------------------------------

def _reducer(ad, shape, rng):
    """Scalar reduction through weights frozen at construction time, so the
    function under finite differences is deterministic and has non-trivial
    gradients everywhere."""
    w = ad.tensor(rng.normal(size=shape))

    def reduce(t):
        return ad.sum_all(ad.mul(t, w))
    return reduce


def op_gradcheck_cases(ad):
    """One case or more per differentiable op, each named after its op; inputs
    are drawn away from singularities (zero-norm cosine rows) so the
    finite-difference probe stays smooth."""

    def make_add_same(rng):
        a, b = ad.param(rng.normal(size=(3, 4))), ad.param(rng.normal(size=(3, 4)))
        red = _reducer(ad, (3, 4), rng)
        return lambda: red(ad.add(a, b)), {"a": a, "b": b}

    def make_sub(rng):
        a, b = ad.param(rng.normal(size=(2, 3))), ad.param(rng.normal(size=(2, 3)))
        red = _reducer(ad, (2, 3), rng)
        return lambda: red(ad.sub(a, b)), {"a": a, "b": b}

    def make_mul(rng):
        a, b = ad.param(rng.normal(size=(3, 3))), ad.param(rng.normal(size=(3, 3)))
        red = _reducer(ad, (3, 3), rng)
        return lambda: red(ad.mul(a, b)), {"a": a, "b": b}

    def make_mul_scalar(rng):
        a, s = ad.param(rng.normal(size=(3, 3))), ad.param(rng.normal())
        red = _reducer(ad, (3, 3), rng)
        return lambda: red(ad.mul(a, s)), {"a": a, "s": s}

    def make_silu_matmul(rng):
        a, b, c = (ad.param(rng.normal(size=shape)) for shape in ((3, 3), (3, 4), (4, 2)))
        red = _reducer(ad, (3, 2), rng)
        return lambda: red(ad.silu_matmul(a, b, c)), {"a": a, "b": b, "c": c}

    def make_silu_matmul_one_row(rng):
        a, b, c = (ad.param(rng.normal(size=shape)) for shape in ((1, 3), (3, 4), (4, 2)))
        red = _reducer(ad, (1, 2), rng)
        return lambda: red(ad.silu_matmul(a, b, c)), {"a": a, "b": b, "c": c}

    def make_softplus(rng):
        a = ad.param(rng.normal(size=6) * 3.0)
        red = _reducer(ad, (6,), rng)
        return lambda: red(ad.softplus(a)), {"a": a}

    def make_sum_all(rng):
        a = ad.param(rng.normal(size=(2, 3)))
        return lambda: ad.sum_all(a), {"a": a}

    def make_matmul(rng):
        a, b = ad.param(rng.normal(size=(3, 4))), ad.param(rng.normal(size=(4, 2)))
        red = _reducer(ad, (3, 2), rng)
        return lambda: red(ad.matmul(a, b)), {"a": a, "b": b}

    def make_cosine_rows(rng):
        n = int(rng.integers(3, 6))
        v = ad.param(rng.normal(size=5) + np.sign(rng.normal()) * 0.5)
        m = ad.param(rng.normal(size=(n, 5)) + np.sign(rng.normal(size=(n, 1))) * 0.5)
        red = _reducer(ad, (n,), rng)
        return lambda: red(ad.cosine_rows(v, m)), {"v": v, "m": m}

    def make_take_rows(rng):
        table = ad.param(rng.normal(size=(6, 3)))
        idx = rng.integers(0, 6, size=5)  # repeats exercise scatter-add
        red = _reducer(ad, (5, 3), rng)
        return lambda: red(ad.take_rows(table, idx)), {"table": table}

    def make_take_rows_vector(rng):
        vec = ad.param(rng.normal(size=6))
        idx = rng.integers(0, 6, size=5)
        red = _reducer(ad, (5,), rng)
        return lambda: red(ad.take_rows(vec, idx)), {"vec": vec}

    def make_take_rows_twice(rng):
        """One table gathered twice: the second scatter adds into a gradient
        the first has filled."""
        table = ad.param(rng.normal(size=(5, 3)))
        i1, i2 = rng.integers(0, 5, size=4), rng.integers(0, 5, size=6)
        red1, red2 = _reducer(ad, (4, 3), rng), _reducer(ad, (6, 3), rng)
        return (lambda: ad.add(red1(ad.take_rows(table, i1)), red2(ad.take_rows(table, i2))),
                {"table": table})

    def make_pick(rng):
        a = ad.param(rng.normal(size=(4, 3)))
        i = int(rng.integers(0, 4))
        red = _reducer(ad, (3,), rng)
        return lambda: red(ad.pick(a, i)), {"a": a}

    def make_concat_rows(rng):
        a, b = ad.param(rng.normal(size=(2, 3))), ad.param(rng.normal(size=(3, 3)))
        red = _reducer(ad, (5, 3), rng)
        return lambda: red(ad.concat_rows([a, b])), {"a": a, "b": b}

    def make_logsumexp(rng):
        x = ad.param(rng.normal(size=6) * 3.0)
        return lambda: ad.logsumexp(x), {"x": x}

    def make_rms_norm(rng):
        x = ad.param(rng.normal(size=(3, 4)) + 0.1)
        w = ad.param(rng.normal(size=4))
        red = _reducer(ad, (3, 4), rng)
        return lambda: red(ad.rms_norm(x, w, 1e-6)), {"x": x, "w": w}

    def make_rms_norm_shared(rng):
        """One norm output read by two products and a ``silu_matmul``: each
        backward reads the output its node remakes once."""
        x = ad.param(rng.normal(size=(3, 4)) + 0.1)
        w = ad.param(rng.normal(size=4))
        w1, w2, w3 = (ad.param(rng.normal(size=(4, 2))) for _ in range(3))
        w4 = ad.param(rng.normal(size=(2, 2)))
        reds = [_reducer(ad, (3, 2), rng) for _ in range(3)]

        def f():
            n = ad.rms_norm(x, w, 1e-6)
            return ad.add(ad.add(reds[0](ad.matmul(n, w1)), reds[1](ad.matmul(n, w2))),
                          reds[2](ad.silu_matmul(n, w3, w4)))
        return f, {"x": x, "w": w, "w1": w1, "w2": w2, "w3": w3, "w4": w4}

    def make_causal_attention(rng):
        t, n_heads = int(rng.integers(3, 6)), 2
        q, k, v = (ad.param(rng.normal(size=(t, 4))) for _ in range(3))
        red = _reducer(ad, (t, 4), rng)
        return lambda: red(ad.causal_attention(q, k, v, n_heads)), {"q": q, "k": k, "v": v}

    # Packed rows: several sequences end to end, as the encoder runs them.

    def make_matmul_one_row(rng):
        a, b = ad.param(rng.normal(size=(1, 4))), ad.param(rng.normal(size=(4, 2)))
        red = _reducer(ad, (1, 2), rng)
        return lambda: red(ad.matmul(a, b)), {"a": a, "b": b}

    def make_causal_attention_packed(rng):
        lengths, n_heads = [1, 3, 3, 2, 3], 2
        q, k, v = (ad.param(rng.normal(size=(sum(lengths), 4))) for _ in range(3))
        red = _reducer(ad, (sum(lengths), 4), rng)
        return (lambda: red(ad.causal_attention(q, k, v, n_heads, lengths)),
                {"q": q, "k": k, "v": v})

    def make_causal_attention_rows(rng):
        """Read rows, unsorted and one repeated, that skip the 2-row sequence.
        Three of the four length groups softmax only the rows read; the
        backward scatters into every row."""
        lengths, rows, n_heads = [1, 3, 3, 2, 4], [12, 0, 5, 5, 9, 2], 2
        q, k, v = (ad.param(rng.normal(size=(sum(lengths), 4))) for _ in range(3))
        red = _reducer(ad, (len(rows), 4), rng)
        return (lambda: red(ad.causal_attention(q, k, v, n_heads, lengths, rows)),
                {"q": q, "k": k, "v": v})

    makers = (make_add_same, make_sub, make_mul, make_mul_scalar, make_silu_matmul,
              make_softplus, make_sum_all, make_matmul, make_cosine_rows,
              make_take_rows, make_take_rows_vector, make_take_rows_twice, make_pick,
              make_concat_rows,
              make_logsumexp, make_rms_norm, make_rms_norm_shared, make_causal_attention,
              make_matmul_one_row, make_silu_matmul_one_row, make_causal_attention_packed,
              make_causal_attention_rows)
    return [(fn.__name__.removeprefix("make_"), fn) for fn in makers]
