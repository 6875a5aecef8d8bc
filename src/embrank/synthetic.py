"""Seeded synthetic corpus generator with a latent-topic structure.

Every document draws its words from one topic. Four document kinds give the
corpus a deliberately adversarial lexical profile:

  - core docs (grade 3 for their own query, 2 for other queries of the topic):
    moderate topic-word density spread over the whole topic vocabulary;
  - related docs (grade 1): thin topic coverage, mostly common filler;
  - decoy docs (grade 0): short documents stuffed with the topic's most
    query-popular words plus a distractor vocabulary that appears nowhere
    else, so term-frequency retrieval scores them highly while their actual
    relevance is zero;
  - filler docs (grade 0): common/distractor words only, lexically inert.

Queries are sampled from the query-popular words actually present in their
source core document, so query and source always share topic words. Grades
are assigned by construction, which makes decoys exactly the failure mode a
trained reranker can learn to demote.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import (Candidate, Document, Qrels, Query, RankingSample, Vocabulary,
                   rank_labels_from_grades, validate_sample)
from .errors import ConfigError

QUERY_POPULAR = 6          # per-topic words that queries (and decoys) favor
TOPIC_WORDS = 20
COMMON_WORDS = 30
DISTRACTOR_WORDS = 40


@dataclass
class SyntheticDataset:
    documents: list[Document]
    vocab: Vocabulary
    train_queries: list[Query]
    eval_queries: list[Query]
    qrels: Qrels
    stage1_samples: list[RankingSample]
    stage2_samples: list[RankingSample]
    doc_topic: dict[str, int] = field(default_factory=dict)
    doc_kind: dict[str, str] = field(default_factory=dict)

    @property
    def queries(self) -> list[Query]:
        return self.train_queries + self.eval_queries


def _word_mix(*pools_and_probs) -> tuple[list[list[str]], np.ndarray, np.ndarray]:
    """Word pools with their normalised draw probabilities and their sizes."""
    pools = [p for p, _ in pools_and_probs]
    probs = np.array([pr for _, pr in pools_and_probs], dtype=np.float64)
    return pools, probs / probs.sum(), np.array([len(p) for p in pools])


def _sample_words(rng, mix, length) -> list[str]:
    pools, probs, sizes = mix
    choices = rng.choice(len(pools), size=length, p=probs)
    # one bounded draw per word, below its pool's size: the same stream as one
    # scalar ``rng.integers(0, size)`` call per word
    picks = rng.integers(0, sizes[choices])
    return [pools[c][i] for c, i in zip(choices.tolist(), picks.tolist())]


def _pick(rng, pool: list, k: int) -> list:
    """``k`` distinct items of ``pool``: the draws of ``rng.choice(pool, k,
    replace=False)``, made on positions so the pool is never copied to an array."""
    return [pool[i] for i in rng.choice(len(pool), k, replace=False).tolist()] if k else []


def generate_synthetic(seed: int,
                       n_topics: int = 5,
                       n_docs: int = 500,
                       n_queries: int = 60,
                       grade_noise: float = 0.0,
                       n_eval_queries: int = 10,
                       stage1_candidates: int = 20,
                       stage1_per_query: int = 2,
                       n_negatives: int = 15) -> SyntheticDataset:
    """Build a reproducible corpus + queries + qrels + two-stage training samples.

    ``grade_noise`` is the per-candidate probability of a +-1 label perturbation
    applied to the coarse stage-1 samples only; qrels and stage-2 labels always
    carry the true construction grades. Identical arguments (including seed)
    reproduce the dataset bit for bit.
    """
    if min(n_topics, n_docs, n_queries) < 1:
        raise ConfigError("n_topics, n_docs and n_queries must all be >= 1")
    if stage1_candidates < 1:
        raise ConfigError(f"stage1_candidates must be >= 1, got {stage1_candidates}")
    if n_negatives < 0:
        raise ConfigError(f"n_negatives must be >= 0, got {n_negatives}")
    if stage1_per_query < 0:
        raise ConfigError(f"stage1_per_query must be >= 0, got {stage1_per_query}")
    if not 0 <= n_eval_queries < n_queries:
        raise ConfigError("n_eval_queries must leave at least one training query")
    if n_docs < n_negatives + 2:
        raise ConfigError(
            f"n_docs={n_docs} cannot supply {n_negatives} negatives plus a positive")
    if not 0.0 <= grade_noise <= 1.0:
        raise ConfigError("grade_noise must be within [0, 1]")
    if stage1_candidates > n_docs:
        raise ConfigError("stage1_candidates exceeds the corpus size")

    rng = np.random.default_rng(seed)
    # label noise draws from its own stream so the corpus and candidate draws
    # are identical across grade_noise settings
    noise_rng = np.random.default_rng([seed, 0xBADC0DE])

    topic_words = [[f"t{t}w{j}" for j in range(TOPIC_WORDS)] for t in range(n_topics)]
    popular = [tw[:QUERY_POPULAR] for tw in topic_words]
    rest = [tw[QUERY_POPULAR:] for tw in topic_words]
    common = [f"c{j}" for j in range(COMMON_WORDS)]
    distractor = [f"x{j}" for j in range(DISTRACTOR_WORDS)]

    per_topic = n_docs // n_topics
    n_core = max(1, round(per_topic * 0.12))
    n_related = max(1, round(per_topic * 0.18))
    n_decoy = max(1, round(per_topic * 0.18))
    if n_core + n_related + n_decoy > per_topic:
        raise ConfigError(f"n_docs={n_docs} is too small for {n_topics} topics")
    n_filler = per_topic - n_core - n_related - n_decoy

    docs_raw: list[tuple[str, int, str, list[str]]] = []  # (kind, topic, doc_id, words)
    by_kind: dict[str, list[list[int]]] = {k: [[] for _ in range(n_topics)]
                                           for k in ("core", "related", "decoy", "filler")}

    def add_doc(kind: str, topic: int, words: list[str]) -> None:
        idx = len(docs_raw)
        docs_raw.append((kind, topic, f"d{idx:04d}", words))
        by_kind[kind][topic].append(idx)

    filler_mix = _word_mix((common, 0.6), (distractor, 0.4))
    for t in range(n_topics):
        core_mix = _word_mix((popular[t], 0.45), (rest[t], 0.25), (common, 0.3))
        related_mix = _word_mix((topic_words[t], 0.25), (common, 0.75))
        decoy_mix = _word_mix((popular[t], 0.35), (distractor, 0.65))
        for _ in range(n_core):
            length = int(rng.integers(28, 37))
            add_doc("core", t, _sample_words(rng, core_mix, length))
        for _ in range(n_related):
            length = int(rng.integers(24, 33))
            add_doc("related", t, _sample_words(rng, related_mix, length))
        for _ in range(n_decoy):
            length = int(rng.integers(18, 27))
            add_doc("decoy", t, _sample_words(rng, decoy_mix, length))
        for _ in range(n_filler):
            length = int(rng.integers(20, 31))
            add_doc("filler", t, _sample_words(rng, filler_mix, length))
    # leftover docs (n_docs not divisible by n_topics) become filler in topic 0
    while len(docs_raw) < n_docs:
        length = int(rng.integers(20, 31))
        add_doc("filler", 0, _sample_words(rng, filler_mix, length))

    # every word is t*w*, c* or x*, so split_words of the joined text gives the words back
    vocab = Vocabulary.from_words(words for *_, words in docs_raw)
    documents = [Document(doc_id=doc_id, text=" ".join(words),
                          tokens=[vocab.token_to_id[w] for w in words])
                 for _, _, doc_id, words in docs_raw]
    doc_topic = {doc_id: topic for _, topic, doc_id, _ in docs_raw}
    doc_kind = {doc_id: kind for kind, _, doc_id, _ in docs_raw}

    # queries: round-robin over topics, each anchored to a core source document
    queries: list[Query] = []
    source_of: dict[str, int] = {}  # query id -> the source's document position
    query_topic: dict[str, int] = {}
    for qi in range(n_queries):
        t = qi % n_topics
        cores = by_kind["core"][t]
        source_idx = cores[(qi // n_topics) % len(cores)]
        source_words = docs_raw[source_idx][3]
        shared = sorted(set(w for w in source_words if w in popular[t]))
        if not shared:
            shared = [popular[t][0]]
        k = int(rng.integers(3, 6))
        picked = _pick(rng, shared, min(k, len(shared)))
        qid = f"q{qi:03d}"
        queries.append(Query(query_id=qid, text=" ".join(picked)))
        source_of[qid] = source_idx
        query_topic[qid] = t

    doc_ids = [doc_id for _, _, doc_id, _ in docs_raw]
    qrels = Qrels()
    for q in queries:
        t = query_topic[q.query_id]
        source = source_of[q.query_id]
        for idx in by_kind["core"][t]:
            qrels.set(q.query_id, doc_ids[idx], 3 if idx == source else 2)
        for idx in by_kind["related"][t]:
            qrels.set(q.query_id, doc_ids[idx], 1)

    train_queries = queries[:n_queries - n_eval_queries]
    eval_queries = queries[n_queries - n_eval_queries:]
    # cross-topic cores are the hard negatives for topic matching: without
    # them the reranker learns a query-independent "looks relevant" prior
    other_cores = [[i for ot in range(n_topics) if ot != t for i in by_kind["core"][ot]]
                   for t in range(n_topics)]

    def build_sample(q: Query, n_cands: int, noise: float) -> RankingSample:
        # candidates are document positions until the list is complete
        t = query_topic[q.query_id]
        source = source_of[q.query_id]
        pools = [
            ([i for i in by_kind["core"][t] if i != source], 4),
            (by_kind["related"][t], 3),
            (by_kind["decoy"][t], 4),
            (other_cores[t], 2),
        ]
        chosen: list[int] = []
        for pool, want in pools:
            chosen.extend(_pick(rng, pool, min(want, len(pool), n_cands - 1 - len(chosen))))
        remaining = n_cands - 1 - len(chosen)
        if remaining > 0:
            free = np.ones(n_docs, dtype=bool)
            free[[source, *chosen]] = False
            leftovers = np.flatnonzero(free)  # never fewer: n_cands <= n_docs
            # drawn as ``_pick`` draws, on the positions left in document order
            chosen.extend(leftovers[rng.choice(len(leftovers), remaining,
                                               replace=False)].tolist())
        positions = [source] + chosen
        order = rng.permutation(len(positions))
        cand_ids = [doc_ids[positions[i]] for i in order]
        grades = [qrels.grade(q.query_id, d) for d in cand_ids]
        label_grades = list(grades)
        if noise > 0.0:
            for i in range(len(label_grades)):
                if noise_rng.random() < noise:
                    bump = 1 if noise_rng.random() < 0.5 else -1
                    label_grades[i] = min(3, max(0, label_grades[i] + bump))
        labels = rank_labels_from_grades(label_grades)
        positive = cand_ids.index(doc_ids[source])
        sample = RankingSample(
            query_id=q.query_id,
            query_text=q.text,
            candidates=[Candidate(d, g, r) for d, g, r in zip(cand_ids, grades, labels)],
            positive_index=positive,
            negative_indices=[i for i in range(len(cand_ids)) if i != positive],
        )
        validate_sample(sample)
        return sample

    stage1 = [build_sample(q, stage1_candidates, grade_noise)
              for q in train_queries for _ in range(stage1_per_query)]
    stage2 = [build_sample(q, n_negatives + 1, 0.0) for q in train_queries]

    return SyntheticDataset(
        documents=documents, vocab=vocab,
        train_queries=train_queries, eval_queries=eval_queries,
        qrels=qrels, stage1_samples=stage1, stage2_samples=stage2,
        doc_topic=doc_topic, doc_kind=doc_kind,
    )
