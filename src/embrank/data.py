"""Tokenization, corpus/query/qrels ingestion, and training-sample records.

File formats (all line-oriented, UTF-8):
  - corpus: one JSON object per line with keys "id" and "text";
  - queries: TSV "qid<TAB>text";
  - qrels: whitespace-separated "qid 0 docid grade" with integer grades >= 0;
  - samples: one JSON object per line (see ``write_samples``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataFormatError
from .serialization import jsonl_records, text_lines, write_jsonl

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
EOS_TOKEN = "<eos>"

# Fixed ranking instruction, constant across training and inference. Its words
# occupy reserved vocabulary slots so their ids never depend on the corpus.
INSTRUCTION_TEXT = "rank passages by relevance to the query"

_WORD_RE = re.compile(r"[a-z0-9]+|[^\sa-z0-9]")


def split_words(text: str) -> list[str]:
    """Lowercase and split on whitespace; punctuation marks become single tokens."""
    return _WORD_RE.findall(text.lower())


class Vocabulary:
    """Bijective token/id map with reserved ids for PAD, UNK, EOS and the instruction words.

    Built deterministically from a corpus: reserved tokens first, then the
    corpus tokens in sorted order, so the same corpus always yields the same ids.
    """

    def __init__(self, tokens: Sequence[str]):
        self.id_to_token: list[str] = list(tokens)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataFormatError("vocabulary contains duplicate tokens")
        missing = [t for t in (PAD_TOKEN, UNK_TOKEN, EOS_TOKEN) if t not in self.token_to_id]
        if missing:
            raise DataFormatError(f"vocabulary lacks the reserved token {missing[0]!r}")
        self.pad_id = self.token_to_id[PAD_TOKEN]
        self.unk_id = self.token_to_id[UNK_TOKEN]
        self.eos_id = self.token_to_id[EOS_TOKEN]

    @classmethod
    def build(cls, texts: Iterable[str]) -> "Vocabulary":
        return cls.from_words(map(split_words, texts))

    @classmethod
    def from_words(cls, word_lists: Iterable[Iterable[str]]) -> "Vocabulary":
        """``build`` over texts already split by ``split_words``."""
        reserved = [PAD_TOKEN, UNK_TOKEN, EOS_TOKEN]
        for word in split_words(INSTRUCTION_TEXT):
            if word not in reserved:
                reserved.append(word)
        return cls(reserved + sorted(set().union(*word_lists) - set(reserved)))

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, text: str) -> list[int]:
        """Deterministic text -> ids; unknown words map to the UNK id."""
        return [self.token_to_id.get(w, self.unk_id) for w in split_words(text)]

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def instruction_ids(self) -> list[int]:
        return self.encode(INSTRUCTION_TEXT)


@dataclass
class Document:
    doc_id: str
    text: str
    tokens: list[int]


@dataclass
class Query:
    query_id: str
    text: str


class Qrels:
    """Graded relevance judgments; pairs absent from the map have grade 0."""

    def __init__(self):
        self._grades: dict[str, dict[str, int]] = {}

    def set(self, query_id: str, doc_id: str, grade: int) -> None:
        if grade < 0:
            raise DataFormatError(f"negative grade {grade} for ({query_id}, {doc_id})")
        self._grades.setdefault(query_id, {})[doc_id] = grade

    def grade(self, query_id: str, doc_id: str) -> int:
        return self._grades.get(query_id, {}).get(doc_id, 0)

    def has_query(self, query_id: str) -> bool:
        return query_id in self._grades

    def query_ids(self) -> list[str]:
        return sorted(self._grades)

    def doc_grades(self, query_id: str) -> dict[str, int]:
        return dict(self._grades.get(query_id, {}))

    def __eq__(self, other) -> bool:
        return isinstance(other, Qrels) and self._grades == other._grades


@dataclass
class Candidate:
    doc_id: str
    grade: int
    rank_label: int


@dataclass
class RankingSample:
    """One training instance: a query and its graded candidate list.

    Exactly one candidate is the designated positive; every other index is a
    negative. ``rank_label`` is smaller for more relevant candidates, and equal
    labels mark ties (such pairs carry no pairwise-ordering signal).
    """

    query_id: str
    query_text: str
    candidates: list[Candidate]
    positive_index: int
    negative_indices: list[int] = field(default_factory=list)


def validate_sample(sample: RankingSample) -> None:
    n = len(sample.candidates)
    if n < 1:
        raise DataFormatError(f"sample {sample.query_id}: empty candidate list")
    if not 0 <= sample.positive_index < n:
        raise DataFormatError(f"sample {sample.query_id}: positive index out of range")
    expected = sorted(i for i in range(n) if i != sample.positive_index)
    if sorted(sample.negative_indices) != expected:
        raise DataFormatError(
            f"sample {sample.query_id}: negatives must be exactly the non-positive indices")
    for cand in sample.candidates:
        if cand.rank_label < 0:
            raise DataFormatError(f"sample {sample.query_id}: negative rank label")
        if not 0 <= cand.grade <= 3:
            raise DataFormatError(f"sample {sample.query_id}: grade {cand.grade} outside 0..3")


def has_orderable_pair(sample: RankingSample) -> bool:
    labels = {c.rank_label for c in sample.candidates}
    return len(labels) > 1


def rank_labels_from_grades(grades: Sequence[int]) -> list[int]:
    """Dense rank by grade descending; equal grades share a label (ties preserved)."""
    distinct = sorted(set(grades), reverse=True)
    position = {g: i for i, g in enumerate(distinct)}
    return [position[g] for g in grades]


# ---------------------------------------------------------------------------
# file loaders / writers
# ---------------------------------------------------------------------------

def load_corpus(path, vocab: Vocabulary | None = None) -> tuple[list[Document], Vocabulary]:
    """Read a nonempty JSONL corpus; builds the vocabulary from it unless one is given."""
    path = Path(path)
    raw: list[tuple[str, str]] = []
    seen_ids: set[str] = set()
    for lineno, record in jsonl_records(path):
        if not isinstance(record, dict) or "id" not in record or "text" not in record:
            raise DataFormatError(f"{path}:{lineno}: record must have 'id' and 'text' fields")
        doc_id = str(record["id"])
        if doc_id in seen_ids:
            raise DataFormatError(f"{path}:{lineno}: duplicate doc id {doc_id!r}")
        seen_ids.add(doc_id)
        raw.append((doc_id, str(record["text"])))
    if not raw:
        raise DataFormatError(f"{path}: corpus holds no documents")
    if vocab is None:
        vocab = Vocabulary.build(text for _, text in raw)
    docs = []
    for lineno, (doc_id, text) in enumerate(raw, start=1):
        tokens = vocab.encode(text)
        if not tokens:
            raise DataFormatError(f"{path}: document {doc_id!r} has no tokens")
        docs.append(Document(doc_id=doc_id, text=text, tokens=tokens))
    return docs, vocab


def write_corpus(path, documents: Iterable[Document]) -> None:
    write_jsonl(path, ({"id": doc.doc_id, "text": doc.text} for doc in documents))


def load_queries(path) -> list[Query]:
    """Queries in file order; a repeated query id raises ``DataFormatError``."""
    path = Path(path)
    queries: dict[str, Query] = {}
    for lineno, line in text_lines(path):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataFormatError(f"{path}:{lineno}: expected 'qid<TAB>text'")
        if parts[0] in queries:
            raise DataFormatError(f"{path}:{lineno}: duplicate query id {parts[0]!r}")
        queries[parts[0]] = Query(query_id=parts[0], text=parts[1])
    return list(queries.values())


def write_queries(path, queries: Iterable[Query]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for q in queries:
            fh.write(f"{q.query_id}\t{q.text}\n")


def load_qrels(path) -> Qrels:
    path = Path(path)
    qrels = Qrels()
    seen: set[tuple[str, str]] = set()
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise DataFormatError(f"{path}:{lineno}: expected 'qid 0 docid grade'")
        qid, _, doc_id, grade_str = parts
        try:
            grade = int(grade_str)
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: grade must be an integer") from exc
        if grade < 0:
            raise DataFormatError(f"{path}:{lineno}: grade must be >= 0")
        if (qid, doc_id) in seen:
            raise DataFormatError(f"{path}:{lineno}: duplicate pair ({qid}, {doc_id})")
        seen.add((qid, doc_id))
        qrels.set(qid, doc_id, grade)
    return qrels


def write_qrels(path, qrels: Qrels) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for qid in qrels.query_ids():
            for doc_id, grade in sorted(qrels.doc_grades(qid).items()):
                fh.write(f"{qid} 0 {doc_id} {grade}\n")


def write_samples(path, samples: Iterable[RankingSample]) -> None:
    write_jsonl(path, ({
        "query_id": s.query_id,
        "query": s.query_text,
        "candidates": [{"doc_id": c.doc_id, "grade": c.grade, "rank_label": c.rank_label}
                       for c in s.candidates],
        "positive_index": s.positive_index,
        "negative_indices": s.negative_indices,
    } for s in samples))


def load_samples(path) -> list[RankingSample]:
    path = Path(path)
    samples = []
    for lineno, record in jsonl_records(path):
        try:
            sample = RankingSample(
                query_id=record["query_id"],
                query_text=record["query"],
                candidates=[Candidate(c["doc_id"], int(c["grade"]), int(c["rank_label"]))
                            for c in record["candidates"]],
                positive_index=int(record["positive_index"]),
                negative_indices=[int(i) for i in record["negative_indices"]],
            )
            if not all(isinstance(v, str) for v in (sample.query_id, sample.query_text,
                                                     *(c.doc_id for c in sample.candidates))):
                raise TypeError("query_id, query and every doc_id must be strings")
            validate_sample(sample)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataFormatError(f"{path}:{lineno}: malformed sample record ({exc})") from exc
        samples.append(sample)
    return samples
