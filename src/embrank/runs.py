"""Ranked run lists, exact top-k selection, token counters, and TREC run-file I/O."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .serialization import text_lines

SCORE_DECIMALS = 6


@dataclass
class TokenCounter:
    """Counters filled in by instrumented inference paths, never from config.

    ``generated_tokens`` only moves if some code path actually emits an output
    token; the similarity-scoring path contains no such call, so a regression
    that reintroduces generation shows up here as a nonzero count.
    """

    processed_passage_tokens: int = 0
    generated_tokens: int = 0
    candidates: int = 0

    def merge(self, other: "TokenCounter") -> None:
        self.processed_passage_tokens += other.processed_passage_tokens
        self.generated_tokens += other.generated_tokens
        self.candidates += other.candidates


@dataclass
class RunEntry:
    doc_id: str
    score: float


@dataclass
class RunList:
    """An ordered (descending score) document list for one query."""

    query_id: str
    entries: list[RunEntry] = field(default_factory=list)
    tag: str = "embrank"
    counters: TokenCounter | None = None

    def doc_ids(self) -> list[str]:
        return [e.doc_id for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


def sorted_entries(scored: dict[str, float]) -> list[RunEntry]:
    """Descending by score, ties broken by doc id ascending."""
    return [RunEntry(doc_id, score)
            for doc_id, score in sorted(scored.items(), key=lambda kv: (-kv[1], kv[0]))]


def rank_by_id(doc_ids: list[str]) -> np.ndarray:
    """Each row's position in sorted doc-id order, for ``top_entries``."""
    rank = np.empty(len(doc_ids), dtype=np.int64)
    rank[sorted(range(len(doc_ids)), key=doc_ids.__getitem__)] = np.arange(len(doc_ids))
    return rank


def top_entries(doc_ids: list[str], id_rank: np.ndarray, scores: np.ndarray, k: int,
                rows: np.ndarray | None = None) -> list[RunEntry]:
    """``sorted_entries({doc_ids[i]: scores[i] for i in rows})[:k]``, over every
    row when ``rows`` is None, for distinct ``doc_ids`` whose sorted positions
    are ``id_rank`` (``rank_by_id(doc_ids)``).

    One ``np.partition`` finds the k-th largest score and only the rows scoring
    at least that much are ordered, so every tie at the boundary survives to be
    broken by doc id exactly as the full sort breaks it. One ``np.lexsort`` on
    (-score, id rank) orders them; as in the full sort, 0.0 and -0.0 tie.
    """
    rows = np.arange(len(scores)) if rows is None else rows
    candidates = scores[rows]
    if k < len(candidates):
        kth = np.partition(candidates, len(candidates) - k)[len(candidates) - k]
        keep = candidates >= kth
        rows, candidates = rows[keep], candidates[keep]
    order = np.lexsort((id_rank[rows], -candidates))[:k]
    return [RunEntry(doc_ids[i], score)
            for i, score in zip(rows[order].tolist(), candidates[order].tolist())]


def write_trec_run(path, runs: list[RunList]) -> None:
    """Six-column TREC format: qid Q0 docid rank score tag (scores at 6 decimals)."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for run in runs:
            for rank, entry in enumerate(run.entries, start=1):
                fh.write(f"{run.query_id} Q0 {entry.doc_id} {rank} "
                         f"{entry.score:.{SCORE_DECIMALS}f} {run.tag}\n")


def read_trec_run(path) -> list[RunList]:
    """Runs in query order of first appearance; each query's ranks must run
    1, 2, ... over distinct documents with finite scores (else ``DataFormatError``)."""
    path = Path(path)
    runs: dict[str, RunList] = {}
    seen: set[tuple[str, str]] = set()
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 6:
            raise DataFormatError(f"{path}:{lineno}: expected 6 columns, got {len(parts)}")
        qid, _, doc_id, rank_str, score_str, tag = parts
        try:
            rank = int(rank_str)
            score = float(score_str)
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: bad rank/score") from exc
        if not math.isfinite(score):
            raise DataFormatError(f"{path}:{lineno}: score {score_str!r} is not finite")
        run = runs.setdefault(qid, RunList(query_id=qid, tag=tag))
        if rank != len(run.entries) + 1:
            raise DataFormatError(f"{path}:{lineno}: ranks for {qid} must be 1,2,... in order")
        if (qid, doc_id) in seen:
            raise DataFormatError(f"{path}:{lineno}: {qid} ranks {doc_id} twice")
        seen.add((qid, doc_id))
        run.entries.append(RunEntry(doc_id=doc_id, score=score))
    return list(runs.values())
