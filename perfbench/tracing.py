"""Span tracer for the traced benchmark run.

The tracer wraps embrank's public entry points from outside the package.
Each wrapped call records a span (id, parent id, name, start, end, value),
kept in memory and written out when the run ends. The public autodiff op
functions get counting wrappers instead of spans: calls by kind, and how
many results recorded a backward closure; they count inside ops only.
Nothing is wrapped until ``install`` runs, and ``uninstall`` puts every
original back, so untraced ops run the program exactly as shipped.
"""

from __future__ import annotations

import collections
import contextlib
import os
import sys
import time

import embrank.autodiff
import embrank.encoder
import embrank.reranker
import embrank.retrieval
import embrank.serialization
import embrank.synthetic
import embrank.training


def _hits(args, out):
    return len(out.entries)


def _file_bytes(args, out):
    return os.path.getsize(args[0])


# (owner, attribute, span name, value recorded on the span from (args, result)).
# Module functions are patched in every embrank module that binds them, which
# covers `training.py` importing `backward` by name and `retrieval.py` importing
# the record-file functions by name. `DenseIndex.build` encodes through
# `encode_passage`, and `end_to_end` reaches the searches through the
# `bm25_search`/`dense_search` helpers; wrapping the methods catches both.
LAYER_SPANS = [
    (embrank.encoder.EncoderModel, "batch_encode", "encoder.batch_encode", None),
    (embrank.encoder.EncoderModel, "encode_passage", "encoder.encode_passage", None),
    (embrank.encoder.EncoderModel, "encode_query", "encoder.encode_query", None),
    (embrank.reranker.RerankerModel, "forward", "reranker.forward", None),
    (embrank.retrieval.InvertedIndex, "search", "retrieval.bm25.search", _hits),
    (embrank.retrieval.InvertedIndex, "build", "retrieval.bm25.build", None),
    (embrank.retrieval.DenseIndex, "search", "retrieval.dense.search", None),
    (embrank.retrieval.DenseIndex, "build", "retrieval.dense.build", None),
    (embrank.retrieval, "rrf_fuse", "retrieval.rrf", None),
    (embrank.autodiff, "backward", "autodiff.backward", None),
    (embrank.training, "infonce_loss", "training.loss", None),
    (embrank.training, "ranknet_loss", "training.loss", None),
    (embrank.training, "combined_loss", "training.loss", None),
    (embrank.training.Adam, "clip_gradients", "training.clip", None),
    (embrank.training.Adam, "step", "training.adam", None),
    (embrank.serialization, "write_record_file", "serialization.write", _file_bytes),
    (embrank.serialization, "read_record_file", "serialization.read", _file_bytes),
    (embrank.synthetic, "generate_synthetic", "synthetic.generate", None),
]

# Wrappers that open no span and set a value on the enclosing span instead:
# the reranker's assembled sequence length lands on its `reranker.forward` span.
SPAN_PROBES = [
    (embrank.reranker.RerankerModel, "contextualize", lambda args, out: args[1].x.shape[0]),
]


def autodiff_ops() -> dict:
    """The public autodiff functions that make one tape node each (they build
    their result through ``_result``); composites such as ``cosine_sim`` are
    counted through the ops they call."""
    module = embrank.autodiff
    return {name: fn for name, fn in vars(module).items()
            if callable(fn) and not name.startswith("_")
            and getattr(fn, "__module__", None) == module.__name__
            and "_result" in getattr(getattr(fn, "__code__", None), "co_names", ())}


def _embrank_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "embrank" or name.startswith("embrank."))]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []           # [id, parent, name, start, end, value]
        self.counts = collections.Counter()   # per-op counts reported by the workload
        self.op_calls = collections.Counter()
        self.op_taped = collections.Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._span_patches = [
            *(p for owner, attr, name, value in LAYER_SPANS
              for p in self._patch(owner, attr,
                                   lambda fn, n=name, v=value: self._spanned(n, fn, v))),
            *(p for owner, attr, value in SPAN_PROBES
              for p in self._patch(owner, attr, lambda fn, v=value: self._probe(fn, v)))]
        self._count_patches = [p for kind in autodiff_ops()
                               for p in self._patch(embrank.autodiff, kind,
                                                    lambda fn, k=kind: self._counted(k, fn))]
        self._installed: list[tuple] = []

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, make) -> list[tuple]:
        """(owner, attribute, original, wrapped) for each place to patch."""
        raw = vars(owner).get(attr)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return []
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                return [(owner, attr, raw, classmethod(make(raw.__func__)))]
            return [(owner, attr, raw, make(raw))]
        wrapped = make(raw)
        return [(module, name, raw, wrapped) for module in _embrank_modules()
                for name, value in vars(module).items() if value is raw]

    def install(self, count_ops: bool) -> None:
        self._installed = self._span_patches + (self._count_patches if count_ops else [])
        for owner, attr, _, wrapped in self._installed:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._installed:
            setattr(owner, attr, original)
        self._installed = []

    @contextlib.contextmanager
    def active(self, root: str):
        """Install the wrappers and record everything inside one root span;
        autodiff ops are counted under the root ``op`` only."""
        self.install(count_ops=root == "op")
        sid = self.open(root)
        try:
            yield
        finally:
            self.close(sid)
            self.uninstall()

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, time.perf_counter(), 0.0, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name, fn, value):
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if value is not None:
                self.spans[sid][5] = value(args, out)
            return out
        return traced

    def _probe(self, fn, value):
        def probed(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self._stack:
                self.spans[self._stack[-1]][5] = value(args, out)
            return out
        return probed

    def _counted(self, kind, fn):
        calls, taped = self.op_calls, self.op_taped

        def op(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[kind] += 1
            if out._backward is not None:
                taped[kind] += 1
            return out
        return op


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-layer metrics from the recorded spans.

    Timings marked per op are summed over the traced closed-loop ops (root
    span ``op``) and divided by their number. Build and I/O timings are means
    per call or per bulk phase (root span ``bulk``), wherever they ran. A
    layer's self time is its spans' durations minus their child spans'.
    """
    spans = tracer.spans
    root = [0] * len(spans)
    child_time = [0.0] * len(spans)
    for sid, parent, _, start, end, _ in spans:
        root[sid] = sid if parent < 0 else root[parent]
        if parent >= 0:
            child_time[parent] += end - start
    in_op = [spans[root[s[0]]][2] == "op" for s in spans]
    n_bulk = max(1, sum(1 for s in spans if s[1] < 0 and s[2] == "bulk"))
    ops = max(1, n_ops)

    def select(prefix, only_ops=False):
        return [s for s in spans if s[2].startswith(prefix) and (in_op[s[0]] or not only_ops)]

    def per_op_self_ms(prefix):
        return 1e3 * sum(s[4] - s[3] - child_time[s[0]] for s in select(prefix, True)) / ops

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    passages = [s for s in select("encoder.encode_passage")
                if s[1] < 0 or spans[s[1]][2] != "encoder.encode_query"]
    forwards = select("reranker.forward", True)
    op_time = sum(s[4] - s[3] for s in spans if s[1] < 0 and s[2] == "op")
    covered = sum(s[4] - s[3] for s in spans
                  if s[1] >= 0 and spans[s[1]][1] < 0 and spans[s[1]][2] == "op")
    calls = sum(tracer.op_calls.values())
    return {
        "encoder.passages": sum(1 for s in passages if in_op[s[0]]) / ops,
        "encoder.self_ms": per_op_self_ms("encoder."),
        "encoder.ms_per_passage": 1e3 * mean([s[4] - s[3] for s in passages]),
        "reranker.forward.calls": len(forwards) / ops,
        "reranker.forward.self_ms": per_op_self_ms("reranker.forward"),
        "reranker.seq_len": mean([s[5] for s in forwards if s[5] is not None]),
        "reranker.proc_tokens": tracer.counts["reranker.proc_tokens"] / ops,
        "reranker.gen_tokens": tracer.counts["reranker.gen_tokens"] / ops,
        "autodiff.ops": calls / ops,
        "autodiff.tape_frac": sum(tracer.op_taped.values()) / calls if calls else 0.0,
        "autodiff.backward.self_ms": per_op_self_ms("autodiff.backward"),
        "training.loss.self_ms": per_op_self_ms("training.loss"),
        "training.clip.self_ms": per_op_self_ms("training.clip"),
        "training.adam.self_ms": per_op_self_ms("training.adam"),
        "retrieval.bm25.search_ms": per_op_self_ms("retrieval.bm25.search"),
        "retrieval.bm25.hits": mean([s[5] for s in select("retrieval.bm25.search", True)]),
        "retrieval.dense.search_ms": per_op_self_ms("retrieval.dense.search"),
        "retrieval.rrf.self_ms": per_op_self_ms("retrieval.rrf"),
        "retrieval.candidates": tracer.counts["retrieval.candidates"] / ops,
        "retrieval.bm25.build_ms": 1e3 * mean([s[4] - s[3] for s in select("retrieval.bm25.build")]),
        "retrieval.dense.build_s": mean([s[4] - s[3] for s in select("retrieval.dense.build")]),
        "serialization.write_ms": 1e3 * sum(s[4] - s[3] for s in select("serialization.write")) / n_bulk,
        "serialization.read_ms": 1e3 * sum(s[4] - s[3] for s in select("serialization.read")) / n_bulk,
        "serialization.bytes": sum(s[5] for s in select("serialization.write")) / n_bulk,
        "synthetic.generate_s": mean([s[4] - s[3] for s in select("synthetic.generate")]),
        "trace.covered_frac": covered / op_time if op_time else 0.0,
    }
