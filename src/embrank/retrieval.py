"""First-stage retrieval, rank fusion, and the sliding-window protocol.

BM25 runs over CSR postings of token ids, one layout in memory and on
disk, with the ln(1 + .) idf form, so scores are non-negative; a query sums
its terms with one bit-exact ``np.bincount``. Dense retrieval scores every
one of the encoder's passage embeddings (no approximate structures at this
scale). Scoring in both is an exact full scan; selecting the top k is
partial and exact: ``top_entries`` sorts only the rows that score at least
the k-th largest score, so the run equals a full sort's first k. The dense
index records the fingerprint of the encoder that built it, and
``end_to_end`` feeds the reranker those same stored embeddings while the
live encoder still matches it, so a query encodes only itself. Reciprocal
rank fusion combines two runs with 1/(K + rank), K defaulting to 60. The
sliding-window protocol reranks fixed-size overlapping slices from the tail
of the candidate list toward the head so strong candidates bubble upward
across windows.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .checkpoint import encoder_checksum
from .data import Document
from .errors import ConfigError, DataFormatError, DegenerateInputError, ShapeError
from .reranker import ModelPair, rerank_detailed, rerank_embeddings
from .runs import RunEntry, RunList, TokenCounter, sorted_entries, top_entries
from .serialization import read_record_file, require_keys, write_record_file

RRF_K_DEFAULT = 60


@dataclass(eq=False)
class Postings:
    """BM25 postings as CSR int64 arrays, the layout of the index file: the
    postings of ``tokens[i]`` (strictly increasing) are rows
    ``offsets[i]:offsets[i + 1]`` of ``doc_idx`` (ascending) and ``tf``."""

    tokens: np.ndarray
    offsets: np.ndarray
    doc_idx: np.ndarray
    tf: np.ndarray

    def __eq__(self, other) -> bool:
        return isinstance(other, Postings) and all(np.array_equal(a, b) for a, b in (
            (self.tokens, other.tokens), (self.offsets, other.offsets),
            (self.doc_idx, other.doc_idx), (self.tf, other.tf)))


class InvertedIndex:
    """BM25 over ``Postings``, held in memory as the index file stores them.

    Scores are bit-identical to the definitional per-document sum, from 0.0
    in query order, of ``idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * |d| / avgdl))``
    with ``idf = math.log(1 + (N - df + 0.5) / (df + 0.5))``.
    """

    def __init__(self, doc_ids: list[str], doc_lengths: list[int], postings: Postings,
                 k1: float = 1.2, b: float = 0.75, corpus_checksum: str = ""):
        if k1 < 0 or not 0.0 <= b <= 1.0:
            raise ConfigError(f"invalid BM25 parameters k1={k1}, b={b}")
        self.k1, self.b = k1, b
        self.corpus_checksum = corpus_checksum  # as recorded in a loaded index file; "" when unknown
        self.doc_ids = doc_ids
        self.doc_lengths = doc_lengths
        self.postings = postings
        self.avgdl = sum(doc_lengths) / len(doc_lengths)
        self._norm = k1 * (1.0 - b + b * np.asarray(doc_lengths, dtype=np.int64) / self.avgdl)

    @classmethod
    def build(cls, documents: list[Document], k1: float = 1.2, b: float = 0.75) -> "InvertedIndex":
        ordered = sorted(documents, key=lambda d: d.doc_id)
        doc_ids = _distinct_ids(ordered)
        lengths = [len(d.tokens) for d in ordered]
        if any(n == 0 for n in lengths):
            raise DataFormatError("cannot index a document with no tokens")
        n = len(ordered)
        token = np.fromiter(itertools.chain.from_iterable(d.tokens for d in ordered),
                            dtype=np.int64, count=sum(lengths))
        # Sorting the (token, doc) pairs once gives the postings in CSR order.
        keys, tf = np.unique(token * n + np.repeat(np.arange(n), lengths), return_counts=True)
        posting_token, doc_idx = np.divmod(keys, n)
        tokens, starts = np.unique(posting_token, return_index=True)
        postings = Postings(tokens, np.append(starts, len(keys)).astype(np.int64),
                            doc_idx, tf.astype(np.int64))
        return cls(doc_ids, lengths, postings, k1=k1, b=b)

    def search(self, query_tokens, k: int, query_id: str = "q0") -> RunList:
        """Top-k by BM25; each query-token occurrence contributes its own term.

        Every document a query token hits is scored; the top k of them are
        selected partially, with the same result as sorting them all. Ties
        break by doc id ascending. An empty query yields an empty run.
        """
        if k < 1:
            raise ConfigError("bm25 search: k must be >= 1")
        p, n = self.postings, len(self.doc_ids)
        docs, terms = [np.zeros(0, np.int64)], [np.zeros(0)]
        for token in query_tokens:
            row = int(np.searchsorted(p.tokens, token))
            if row == len(p.tokens) or p.tokens[row] != token:
                continue
            lo, hi = int(p.offsets[row]), int(p.offsets[row + 1])
            idf = math.log(1.0 + (n - (hi - lo) + 0.5) / (hi - lo + 0.5))
            tf = p.tf[lo:hi]
            docs.append(p.doc_idx[lo:hi])
            terms.append(idf * tf * (self.k1 + 1.0) / (tf + self._norm[docs[-1]]))
        # bincount adds each document's terms in input order from 0.0.
        hit_docs = np.concatenate(docs)
        scores = np.bincount(hit_docs, np.concatenate(terms), minlength=n)
        return RunList(query_id=query_id, tag="bm25",
                       entries=top_entries(self.doc_ids, scores, k, rows=np.unique(hit_docs)))

    def save(self, path, corpus_checksum: str = "") -> None:
        p = self.postings
        meta = {"kind": "embrank-bm25-index", "k1": self.k1, "b": self.b,
                "doc_ids": self.doc_ids, "tokens": p.tokens.tolist(),
                "corpus_checksum": corpus_checksum}
        arrays = {"offsets": p.offsets, "doc_idx": p.doc_idx, "tf": p.tf,
                  "doc_lengths": np.asarray(self.doc_lengths, dtype=np.int64)}
        write_record_file(path, meta, arrays)

    @classmethod
    def load(cls, path) -> "InvertedIndex":
        meta, arrays = read_record_file(path)
        if meta.get("kind") != "embrank-bm25-index":
            raise DataFormatError(f"{path}: not a BM25 index file")
        require_keys(path, meta, arrays, ("k1", "b", "doc_ids", "tokens"),
                     ("offsets", "doc_idx", "tf", "doc_lengths"))
        doc_ids = meta["doc_ids"]
        doc_lengths = _int_array(path, "doc_lengths", arrays["doc_lengths"])
        postings = Postings(_int_array(path, "tokens", meta["tokens"]),
                            *(_int_array(path, name, arrays[name])
                              for name in ("offsets", "doc_idx", "tf")))
        _check_index(path, meta["k1"], meta["b"], doc_ids, doc_lengths, postings)
        return cls(doc_ids, doc_lengths.tolist(), postings, k1=meta["k1"], b=meta["b"],
                   corpus_checksum=meta.get("corpus_checksum", ""))


def _int_array(path, name: str, values) -> np.ndarray:
    """``values`` as a 1-D int64 array, or ``DataFormatError`` naming the file and ``name``."""
    try:
        arr = np.asarray(values)
    except (ValueError, TypeError):
        arr = None
    if arr is None or arr.ndim != 1 or (arr.size and arr.dtype.kind != "i"):
        raise DataFormatError(f"{path}: BM25 index {name!r} is not a 1-D integer array")
    return arr.astype(np.int64, copy=False)


def _checker(path, kind: str):
    """``check(ok, name, what)``, which raises ``DataFormatError`` naming the
    file and the field ``name`` unless ``ok``."""
    def check(ok, name: str, what: str) -> None:
        if not ok:
            raise DataFormatError(f"{path}: {kind} index {name!r} {what}")
    return check


def _is_number(value) -> bool:
    """A finite JSON number: not a bool, NaN, an infinity or an int past float range."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _repeated_id(doc_ids: list[str]) -> str | None:
    """The first id that occurs twice in ``doc_ids``, or None."""
    seen: set[str] = set()
    for doc_id in doc_ids:
        if doc_id in seen:
            return doc_id
        seen.add(doc_id)
    return None


def _distinct_ids(documents: list[Document]) -> list[str]:
    """The documents' ids, or ``DataFormatError`` for no documents or naming
    one that repeats: each index holds one row per document, and search ranks
    one entry each."""
    if not documents:
        raise DataFormatError("cannot index an empty corpus")
    doc_ids = [d.doc_id for d in documents]
    repeated = _repeated_id(doc_ids)
    if repeated is not None:
        raise DataFormatError(f"cannot index two documents with the id {repeated!r}")
    return doc_ids


def _check_doc_ids(check, doc_ids) -> None:
    """Both loaders' check that ``doc_ids`` is a nonempty list of distinct strings."""
    check(isinstance(doc_ids, list) and doc_ids and all(isinstance(d, str) for d in doc_ids),
          "doc_ids", "is not a nonempty list of document ids")
    repeated = _repeated_id(doc_ids)
    check(repeated is None, "doc_ids", f"repeats the document id {repeated!r}")


def _check_index(path, k1, b, doc_ids, doc_lengths: np.ndarray, p: Postings) -> None:
    """Raise ``DataFormatError`` naming the file and the field unless the loaded
    index is consistent; ``search`` relies on every one of these."""
    check = _checker(path, "BM25")
    check(_is_number(k1) and k1 >= 0, "k1", f"is {k1!r}, not a finite number >= 0")
    check(_is_number(b) and 0 <= b <= 1, "b", f"is {b!r}, not a number in [0, 1]")
    _check_doc_ids(check, doc_ids)
    check(len(doc_lengths) == len(doc_ids), "doc_lengths",
          f"holds {len(doc_lengths)} lengths for {len(doc_ids)} documents")
    check(np.all(doc_lengths >= 1), "doc_lengths", "holds a length below 1")
    check(np.all(np.diff(p.tokens) > 0), "tokens", "is not strictly increasing")
    check(len(p.offsets) == len(p.tokens) + 1, "offsets",
          f"holds {len(p.offsets)} entries for {len(p.tokens)} tokens")
    check(p.offsets[0] == 0 and np.all(np.diff(p.offsets) >= 0), "offsets",
          "must start at 0 and never decrease")
    check(p.offsets[-1] == len(p.doc_idx), "offsets",
          f"ends at {p.offsets[-1]}, not at the {len(p.doc_idx)} postings in 'doc_idx'")
    check(len(p.tf) == len(p.doc_idx), "tf",
          f"holds {len(p.tf)} entries for {len(p.doc_idx)} postings")
    check(np.all((p.doc_idx >= 0) & (p.doc_idx < len(doc_ids))), "doc_idx",
          f"holds an index outside the {len(doc_ids)} documents")
    check(np.all(p.tf >= 1), "tf", "holds a term frequency below 1")


@dataclass
class DenseIndex:
    """Exact full-scan index of passage embeddings from a specific encoder state.

    ``metadata["encoder_sha256"]`` is that state's ``encoder_checksum``;
    ``build`` always records it, and an index without it (built by hand, or
    written by an older version) never lends its rows to the reranker.
    """

    matrix: np.ndarray                       # [n_docs, d]
    doc_ids: list[str]
    metadata: dict = field(default_factory=dict)

    @classmethod
    def build(cls, documents: list[Document], encoder, *,
              corpus_checksum: str = "") -> "DenseIndex":
        doc_ids = _distinct_ids(documents)
        with ad.no_grad():
            matrix = encoder.batch_encode([d.tokens for d in documents]).data
        if np.any(np.linalg.norm(matrix, axis=1) == 0.0):
            raise DegenerateInputError("dense index: a passage embedding has zero norm")
        return cls(matrix=matrix, doc_ids=doc_ids,
                   metadata={"corpus_checksum": corpus_checksum,
                             "encoder_sha256": encoder_checksum(encoder)})

    @functools.cached_property
    def row_of(self) -> dict[str, int]:
        """The matrix row of each doc id, built on first use."""
        return {doc_id: i for i, doc_id in enumerate(self.doc_ids)}

    def search(self, query_embedding: np.ndarray, k: int, query_id: str = "q0") -> RunList:
        """Cosine similarity against every row, then a partial selection of the
        top k with the same result as sorting every row; ties break by doc id
        ascending. A zero-norm query or row (from a damaged file) raises
        ``DegenerateInputError``."""
        if len(self.doc_ids) == 0:
            raise DegenerateInputError("dense index is empty")
        if k < 1:
            raise ConfigError("dense search: k must be >= 1")
        sims = ad.cosine_rows(ad.tensor(np.reshape(query_embedding, -1)), ad.tensor(self.matrix))
        return RunList(query_id=query_id, entries=top_entries(self.doc_ids, sims.data, k),
                       tag="dense")

    def save(self, path) -> None:
        meta = {"kind": "embrank-dense-index", "doc_ids": self.doc_ids,
                "metadata": self.metadata}
        write_record_file(path, meta, {"matrix": self.matrix})

    @classmethod
    def load(cls, path) -> "DenseIndex":
        meta, arrays = read_record_file(path)
        if meta.get("kind") != "embrank-dense-index":
            raise DataFormatError(f"{path}: not a dense index file")
        require_keys(path, meta, arrays, ("doc_ids",), ("matrix",))
        doc_ids, matrix, metadata = meta["doc_ids"], arrays["matrix"], meta.get("metadata", {})
        # search and the reranker both take row i as the embedding of doc_ids[i].
        check = _checker(path, "dense")
        _check_doc_ids(check, doc_ids)
        check(matrix.ndim == 2 and matrix.dtype.kind == "f" and matrix.shape[1] >= 1, "matrix",
              f"has shape {matrix.shape} and dtype {matrix.dtype}, not [documents, d >= 1] floats")
        check(len(matrix) == len(doc_ids), "matrix",
              f"holds {len(matrix)} rows for {len(doc_ids)} documents")
        bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
        if bad.size:
            check(False, "matrix", f"row {bad[0]} ({doc_ids[bad[0]]!r}) holds NaN or an infinity")
        check(isinstance(metadata, dict), "metadata", "is not a JSON object")
        return cls(matrix=matrix, doc_ids=doc_ids, metadata=metadata)


def rrf_fuse(run_a: RunList, run_b: RunList, k_const: int = RRF_K_DEFAULT) -> RunList:
    """Reciprocal rank fusion: score(d) = sum over runs of 1/(K + rank), ranks 1-based.

    Documents absent from a run contribute nothing from it; ties break by
    doc id ascending, making the fusion symmetric in its two arguments up
    to that tie rule.
    """
    if k_const < 0:
        raise ConfigError("rrf_fuse: K must be >= 0")
    if run_a.query_id != run_b.query_id:
        raise ConfigError(f"rrf_fuse: mismatched query ids "
                          f"{run_a.query_id!r} vs {run_b.query_id!r}")
    scores: dict[str, float] = {}
    for run in (run_a, run_b):
        for rank, entry in enumerate(run.entries, start=1):
            scores[entry.doc_id] = scores.get(entry.doc_id, 0.0) + 1.0 / (k_const + rank)
    return RunList(query_id=run_a.query_id, entries=sorted_entries(scores), tag="rrf")


def sliding_window_rerank(query_tokens, candidates, models: ModelPair, *,
                          window: int = 20, stride: int = 10,
                          query_id: str = "q0", tag: str = "embrank-sw") -> RunList:
    """Rerank overlapping windows from the tail of the list toward the head.

    One ``batch_encode`` encodes each candidate once; a window reranks its
    candidates' rows, and its order replaces that slice in place, so documents
    promoted in a later (earlier-positioned) window can keep climbing. When
    the whole list fits one window this is bit-identical to the single-pass
    rerank, cosine scores included; with several windows the emitted scores
    are rank-derived (descending integers) because per-window cosines are
    not comparable across windows.
    """
    if not candidates:
        raise DegenerateInputError("sliding_window_rerank: candidates must be nonempty")
    if not 1 <= stride <= window:
        raise ConfigError(f"sliding_window_rerank: need 1 <= stride <= window, "
                          f"got stride={stride}, window={window}")
    overhead = len(models.instruction_ids()) + 2 * len(query_tokens) + 1
    budget = models.reranker.config.max_seq_len - overhead
    if window > budget:
        raise ShapeError(f"window {window} exceeds the reranker sequence budget {budget}")

    m = len(candidates)
    doc_ids = [doc_id for doc_id, _ in candidates]
    with ad.no_grad():
        embeddings = models.encoder.batch_encode([tokens for _, tokens in candidates])
    counter = TokenCounter()
    work = list(range(m))  # candidate indices, in the current order
    start = max(0, m - window)
    while True:
        piece = work[start:start + window]
        result = rerank_embeddings(query_tokens, [doc_ids[i] for i in piece],
                                   ad.take_rows(embeddings, piece), models,
                                   query_id=query_id, tag=tag, counter=counter,
                                   count_candidates=False)
        work[start:start + window] = [piece[i] for i in result.output.permutation]
        if start == 0:
            break
        start = max(0, start - stride)
    counter.candidates = m
    if m <= window:  # one window: the single-pass run, cosine scores included
        return result.run
    entries = [RunEntry(doc_id=doc_ids[j], score=float(m - i)) for i, j in enumerate(work)]
    return RunList(query_id=query_id, entries=entries, tag=tag, counters=counter)


RETRIEVAL_MODES = ("bm25", "dense", "rrf")


@dataclass
class EndToEndResult:
    first_stage: RunList
    reranked: RunList


def end_to_end(query_text: str, models: ModelPair, doc_tokens: dict[str, list[int]],
               bm25_index: InvertedIndex, dense_index: DenseIndex | None, mode: str,
               k: int = 100, *, query_id: str = "q0",
               rrf_k: int = RRF_K_DEFAULT) -> EndToEndResult:
    """Retrieve top-k by the chosen mode, then single-pass rerank the candidates.

    Mode "rrf" fuses the BM25 and dense top-k lists first and takes the top-k
    of the fusion, so the candidate set is a subset of the union of the two.

    When ``dense_index`` records the live encoder's fingerprint, the reranker
    takes each candidate's embedding from its stored row and only the query is
    encoded; a row holds the bits a fresh encode would give, so the run is the
    same. A recorded fingerprint of another encoder state raises
    ``ConfigError`` in every mode: the rows, and in "dense" or "rrf" mode the
    retrieval too, are stale. An index recording no fingerprint, or one
    missing a candidate, leaves every candidate to be encoded from
    ``doc_tokens``. Either way ``doc_tokens`` must be the indexed corpus (the
    CLI checks the indexes' recorded ``corpus_checksum``).
    """
    if mode not in RETRIEVAL_MODES:
        raise ConfigError(f"unknown retrieval mode {mode!r}; choose from {RETRIEVAL_MODES}")
    if mode in ("dense", "rrf") and dense_index is None:
        raise ConfigError(f"retrieval mode {mode!r} requires a dense index")
    rows = _live_rows(dense_index, models.encoder)
    query_tokens = models.vocab.encode(query_text)
    if mode != "bm25":
        with ad.no_grad():
            q_emb = models.encoder.encode_query(query_tokens).data

    if mode == "bm25":
        first = bm25_index.search(query_tokens, k, query_id=query_id)
    elif mode == "dense":
        first = dense_index.search(q_emb, k, query_id=query_id)
    else:
        bm25_run = bm25_index.search(query_tokens, k, query_id=query_id)
        dense_run = dense_index.search(q_emb, k, query_id=query_id)
        fused = rrf_fuse(bm25_run, dense_run, rrf_k)
        first = RunList(query_id=query_id, entries=fused.entries[:k], tag="rrf")

    tag = f"embrank-{mode}"
    ids = first.doc_ids()
    if not ids:
        return EndToEndResult(first_stage=first,
                              reranked=RunList(query_id=query_id, entries=[], tag=tag))
    if rows is not None and all(doc_id in rows for doc_id in ids):
        embeddings = ad.tensor(dense_index.matrix[[rows[doc_id] for doc_id in ids]])
        reranked = rerank_embeddings(query_tokens, ids, embeddings, models,
                                     query_id=query_id, tag=tag).run
    else:
        reranked = rerank_detailed(query_tokens, [(doc_id, doc_tokens[doc_id]) for doc_id in ids],
                                   models, query_id=query_id, tag=tag).run
    return EndToEndResult(first_stage=first, reranked=reranked)


def _live_rows(dense_index: DenseIndex | None, encoder) -> dict[str, int] | None:
    """``dense_index.row_of`` when the index records the live encoder's
    fingerprint; None when there is no index or it records none.

    The weights are read-only and every update replaces an array, so
    ``encoder_checksum`` hashes them once per weight state (``build`` already
    did for its own) and this check is a few identity tests per query.
    """
    recorded = dense_index.metadata.get("encoder_sha256") if dense_index is not None else None
    if not recorded:
        return None
    live = encoder_checksum(encoder)
    if recorded != live:
        raise ConfigError(f"dense index was built by encoder {recorded}, but the live "
                          f"encoder is {live}; rebuild the index")
    return dense_index.row_of
