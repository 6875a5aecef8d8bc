"""First-stage retrieval, rank fusion, and the sliding-window protocol.

BM25 runs over CSR postings of token ids, one layout in memory and on
disk, with the ln(1 + .) idf form, so scores are non-negative; a query sums
its terms with one bit-exact ``np.bincount``. Dense retrieval scores every
one of the encoder's passage embeddings (no approximate structures at this
scale) by cosine, with each row's norm computed once when the index is made
and the matrix read-only from then on, so the scores equal
``autodiff.cosine_rows`` bit for bit. Scoring in both is an exact full scan;
selecting the top k is partial and exact: ``top_entries`` orders only the
rows that score at least the k-th largest score, by score and then by each
index's ``id_rank`` (its rows' positions in doc-id order, computed once), so
the run equals a full sort's first k. Every rerank path takes its
candidates' rows from ``candidate_embeddings``: the dense index's stored rows
while the index records the live encoder's fingerprint (an ``end_to_end``
query then encodes only itself), else one encode of the distinct candidates.
Reciprocal rank fusion combines two runs with 1/(K + rank), K defaulting to
60. The sliding-window protocol reranks fixed-size overlapping slices of
those rows from the tail of the candidate list toward the head so strong
candidates bubble upward across windows.
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
from .errors import (ConfigError, DataFormatError, DegenerateInputError, NumericError,
                     ShapeError)
from .reranker import ModelPair, rerank_embeddings
from .runs import RunEntry, RunList, TokenCounter, rank_by_id, sorted_entries, top_entries
from .serialization import field_checker, read_record_file, require_keys, write_record_file

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
        self.corpus_checksum = corpus_checksum  # sha256 of the indexed corpus file; "" when unknown
        self.doc_ids = doc_ids
        self.doc_lengths = doc_lengths
        self.postings = postings
        self.id_rank = rank_by_id(doc_ids)  # a loaded file's ids need not be sorted
        self.avgdl = sum(doc_lengths) / len(doc_lengths)
        self._norm = k1 * (1.0 - b + b * np.asarray(doc_lengths, dtype=np.int64) / self.avgdl)

    @classmethod
    def build(cls, documents: list[Document], k1: float = 1.2, b: float = 0.75,
              corpus_checksum: str = "") -> "InvertedIndex":
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
        return cls(doc_ids, lengths, postings, k1=k1, b=b, corpus_checksum=corpus_checksum)

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
        hit_rows = np.flatnonzero(np.bincount(hit_docs, minlength=n))
        return RunList(query_id=query_id, tag="bm25",
                       entries=top_entries(self.doc_ids, self.id_rank, scores, k, rows=hit_rows))

    def save(self, path) -> None:
        p = self.postings
        meta = {"kind": "embrank-bm25-index", "k1": self.k1, "b": self.b,
                "doc_ids": self.doc_ids, "tokens": p.tokens.tolist(),
                "corpus_checksum": self.corpus_checksum}
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
    check = field_checker(path, "BM25 index")
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

    Construction (``build``, ``load`` or by hand) takes ``matrix`` as
    ``ad.param`` takes a weight: a float64 array is used as it is, not
    copied, and it turns read-only, so an in-place write raises
    ``ValueError``. It needs one distinct doc id per row of a 2-D matrix of
    finite values, and raises ``DataFormatError`` naming the field otherwise:
    search and the reranker both take row i as the embedding of
    ``doc_ids[i]``. Construction also computes ``norms``, each row's norm as
    ``ad.cosine_rows`` computes it, which the read-only matrix keeps true for
    the index's life, and ``id_rank``, each row's position in sorted doc-id
    order.
    """

    matrix: np.ndarray                       # [n_docs, d]
    doc_ids: list[str]
    metadata: dict = field(default_factory=dict)
    norms: np.ndarray = field(init=False, repr=False, compare=False)     # [n_docs]
    id_rank: np.ndarray = field(init=False, repr=False, compare=False)   # [n_docs]

    def __post_init__(self):
        check = field_checker(None, "dense index")
        _check_doc_ids(check, self.doc_ids)
        matrix = self.matrix = np.asarray(self.matrix, dtype=np.float64)
        matrix.flags.writeable = False
        check(matrix.ndim == 2 and matrix.shape[1] >= 1, "matrix",
              f"has shape {matrix.shape}, not [documents, d >= 1]")
        check(len(matrix) == len(self.doc_ids), "matrix",
              f"holds {len(matrix)} rows for {len(self.doc_ids)} documents")
        with np.errstate(over="ignore", invalid="ignore"):
            squares = np.matmul(matrix[:, None, :], matrix[:, :, None])[:, 0, 0]
        bad = np.flatnonzero(~np.isfinite(squares))
        if bad.size:
            check(False, "matrix", f"row {bad[0]} ({self.doc_ids[bad[0]]!r}) holds NaN, "
                                   f"an infinity or values whose squared norm overflows")
        check(isinstance(self.metadata, dict), "metadata", "is not a JSON object")
        self.norms = np.sqrt(squares)
        self.id_rank = rank_by_id(self.doc_ids)

    @classmethod
    def build(cls, documents: list[Document], encoder, *,
              corpus_checksum: str = "") -> "DenseIndex":
        doc_ids = _distinct_ids(documents)
        with ad.no_grad():
            matrix = encoder.batch_encode([d.tokens for d in documents]).data
        index = cls(matrix=matrix, doc_ids=doc_ids,
                    metadata={"corpus_checksum": corpus_checksum,
                              "encoder_sha256": encoder_checksum(encoder)})
        if not index.norms.all():
            raise DegenerateInputError("dense index: a passage embedding has zero norm")
        return index

    def encoder_matches(self, encoder) -> bool:
        """True when the index records ``encoder``'s fingerprint (its rows are that
        encoder's), False when it records none; ``ConfigError`` when it records
        another encoder state. Read-only weights are hashed once per state."""
        recorded = self.metadata.get("encoder_sha256")
        if not recorded:
            return False
        live = encoder_checksum(encoder)
        if recorded != live:
            raise ConfigError(f"dense index was built by encoder {recorded}, but the live "
                              f"encoder is {live}; rebuild the index")
        return True

    @functools.cached_property
    def row_of(self) -> dict[str, int]:
        """The matrix row of each doc id, built on first use."""
        return {doc_id: i for i, doc_id in enumerate(self.doc_ids)}

    def search(self, query_embedding: np.ndarray, k: int, query_id: str = "q0") -> RunList:
        """Cosine similarity against every row, then a partial selection of the
        top k with the same result as sorting every row; ties break by doc id
        ascending.

        Score i is ``dot(v, m_i) / (sqrt(dot(v, v)) * norms[i])``, the IEEE
        operations of ``ad.cosine_rows`` (which it equals bit for bit) with
        the row norms read from the index. A query of the wrong width raises
        ``ShapeError``, and one whose ``dot(v, v)`` is not finite raises
        ``NumericError`` before any division; a zero-norm query or row (from a
        damaged file) raises ``DegenerateInputError``, naming the row; a
        non-finite score raises ``NumericError``.
        """
        if k < 1:
            raise ConfigError("dense search: k must be >= 1")
        v = np.asarray(query_embedding, dtype=np.float64).reshape(-1)
        if len(v) != self.matrix.shape[1]:
            raise ShapeError(f"dense search: query has {len(v)} values, "
                             f"the index rows {self.matrix.shape[1]}")
        with np.errstate(over="ignore"):
            vv = float(np.dot(v, v))
        if not math.isfinite(vv):
            raise NumericError("dense search: the query's squared norm is not finite")
        if vv == 0.0:
            raise DegenerateInputError("dense search: query has zero norm")
        if not self.norms.all():
            row = int(np.flatnonzero(self.norms == 0.0)[0])
            raise DegenerateInputError(
                f"dense search: row {row} ({self.doc_ids[row]!r}) has zero norm")
        # Batched [1, d] @ [d, 1] dots, as in cosine_rows: a gemv would round differently.
        sims = np.matmul(self.matrix[:, None, :], v[:, None])[:, 0, 0] / (np.sqrt(vv) * self.norms)
        ad.check_finite(sims, "dense search")
        return RunList(query_id=query_id, tag="dense",
                       entries=top_entries(self.doc_ids, self.id_rank, sims, k))

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
        matrix = arrays["matrix"]
        field_checker(path, "dense index")(matrix.dtype.kind == "f", "matrix",
                                           f"has dtype {matrix.dtype}, not floats")
        try:
            return cls(matrix=matrix, doc_ids=meta["doc_ids"], metadata=meta.get("metadata", {}))
        except DataFormatError as exc:
            raise DataFormatError(f"{path}: {exc}") from None


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


def sliding_window_rerank(query_tokens, doc_ids: list[str], embeddings: ad.Tensor,
                          models: ModelPair, *, window: int = 20, stride: int = 10,
                          query_id: str = "q0", tag: str = "embrank-sw") -> RunList:
    """Rerank overlapping windows from the tail of the list toward the head.

    Row i of ``embeddings`` [n, d] is the encoder output of ``doc_ids[i]``
    (``candidate_embeddings`` gives them); a window reranks its candidates'
    rows, and its order replaces that slice in place, so documents promoted
    in a later (earlier-positioned) window can keep climbing. When the whole
    list fits one window this is bit-identical to the single-pass rerank,
    cosine scores included; with several windows the emitted scores are
    rank-derived (descending integers) because per-window cosines are not
    comparable across windows. The run's counter sums the windows' own
    counts, overlap included, and counts each candidate once. A window whose
    candidates overflow the reranker's sequence raises ``ShapeError`` from
    ``assemble_input``.
    """
    if not doc_ids:
        raise DegenerateInputError("sliding_window_rerank: candidates must be nonempty")
    if not 1 <= stride <= window:
        raise ConfigError(f"sliding_window_rerank: need 1 <= stride <= window, "
                          f"got stride={stride}, window={window}")

    m = len(doc_ids)
    counter = TokenCounter()
    work = list(range(m))  # candidate indices, in the current order
    start = max(0, m - window)
    while True:
        piece = work[start:start + window]
        result = rerank_embeddings(query_tokens, [doc_ids[i] for i in piece],
                                   ad.take_rows(embeddings, piece), models,
                                   query_id=query_id, tag=tag)
        counter.merge(result.run.counters)
        work[start:start + window] = [piece[i] for i in result.output.permutation]
        if start == 0:
            break
        start = max(0, start - stride)
    if m <= window:  # one window: the single-pass run, cosine scores included
        return result.run
    counter.candidates = m
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
    The candidates' rows come as from ``candidate_embeddings``: ``dense_index``'s
    stored rows while it records the live encoder (only the query is
    encoded), else one encode of the candidates from ``doc_tokens``; either
    gives the same bits, so the run is the same. The index is checked once,
    before any search, so one of another encoder state raises ``ConfigError``
    in every mode. A query with no candidates gets an empty run with zero
    counters. ``doc_tokens`` must be the indexed corpus (the CLI checks the
    indexes' recorded ``corpus_checksum``).
    """
    if mode not in RETRIEVAL_MODES:
        raise ConfigError(f"unknown retrieval mode {mode!r}; choose from {RETRIEVAL_MODES}")
    if mode in ("dense", "rrf") and dense_index is None:
        raise ConfigError(f"retrieval mode {mode!r} requires a dense index")
    live = dense_index is not None and dense_index.encoder_matches(models.encoder)
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
    reranked = (rerank_embeddings(query_tokens, ids,
                                  _rows(models, ids, doc_tokens, dense_index if live else None),
                                  models, query_id=query_id, tag=tag).run
                if ids else RunList(query_id=query_id, tag=tag, counters=TokenCounter()))
    return EndToEndResult(first_stage=first, reranked=reranked)


def candidate_embeddings(models: ModelPair, doc_ids: list[str], doc_tokens: dict[str, list[int]],
                         dense_index: DenseIndex | None = None) -> ad.Tensor:
    """The [n, d] encoder rows of ``doc_ids`` in order, for every rerank path.

    While ``dense_index`` records the live encoder's fingerprint and holds
    every id, its stored rows are gathered; else one ``no_grad``
    ``batch_encode`` of the distinct ids' ``doc_tokens`` gives the same bits
    (a row does not depend on its pack). An index recording another encoder
    state raises ``ConfigError`` (``DenseIndex.encoder_matches``).
    """
    live = dense_index is not None and dense_index.encoder_matches(models.encoder)
    return _rows(models, doc_ids, doc_tokens, dense_index if live else None)


def _rows(models: ModelPair, doc_ids: list[str], doc_tokens: dict[str, list[int]],
          live_index: DenseIndex | None) -> ad.Tensor:
    """``candidate_embeddings`` past its check: ``live_index`` holds the live
    encoder's rows, or is None."""
    if live_index is not None:
        rows = live_index.row_of
        if all(doc_id in rows for doc_id in doc_ids):
            return ad.tensor(live_index.matrix[[rows[doc_id] for doc_id in doc_ids]])
    distinct = {doc_id: i for i, doc_id in enumerate(dict.fromkeys(doc_ids))}
    with ad.no_grad():
        embeddings = models.encoder.batch_encode([doc_tokens[doc_id] for doc_id in distinct])
        return ad.take_rows(embeddings, [distinct[doc_id] for doc_id in doc_ids])
