"""The benchmark's workloads and the closed loop that runs their ops.

Every workload makes its inputs from the seed alone, times calls into
embrank's public functions from outside, and checks every op's output.
Calls go through module attributes (``embrank.retrieval.end_to_end``, not a
name bound at import) so the tracer's wrappers see them in a traced run.
See NOTES.md for why each workload exists and what it should move.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import embrank.checkpoint
import embrank.data
import embrank.reranker
import embrank.retrieval
import embrank.runs
import embrank.serialization
import embrank.synthetic
import embrank.training

K = 100            # first-stage depth and rerank list size
DIGEST_QUERIES = 10  # the output digest covers the runs of the first queries

# A reference kernel's time with no neighbour contending for the core, on the
# 2-CPU x86_64 VM the benchmark was written on (Python 3.11, numpy 2.4,
# OpenBLAS 0.3.31 on one thread): plain, and with the per-row scan. It only
# sets the unit of the calibrated times.
PLAIN_NOMINAL_S = 1.05e-3
SCAN_ROWS = 200
SCAN_NOMINAL_S = 1.5e-3

_REF_RNG = np.random.default_rng(20260)
_REF_X = _REF_RNG.normal(size=(16, 64))
_REF_W = _REF_RNG.normal(size=(64, 64)) / 8.0
_REF_ROWS = _REF_RNG.normal(size=(200, 64))


def reference_kernel(scan_rows: int) -> float:
    """Time a fixed mix of interpreter work and small numpy ops, like the mix
    embrank runs but none of its code.

    On a shared host this CPU's speed flips between levels 1.3x to 1.6x apart
    within a second or two, and different code slows by different factors.
    The matmul part slows about as much as the encoder; with ``scan_rows``
    rows of a per-row cosine scan added it slows about as much as dense
    search. A time measured between runs of the kernel is put on the
    nominal machine speed by nominal / median(kernel); a change to embrank
    leaves the kernel untouched.
    """
    start = time.perf_counter()
    total = 0
    for i in range(14000):
        total += i
    y = _REF_X
    for _ in range(85):
        y = np.tanh(y @ _REF_W)
    q = _REF_X[0]
    q_norm = float(np.linalg.norm(q))
    scores = {i: float(np.dot(q, row) / (q_norm * np.linalg.norm(row)))
              for i, row in enumerate(_REF_ROWS[:scan_rows])}
    sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return time.perf_counter() - start


class Reference:
    """A reference kernel to calibrate against (its scan rows and nominal
    time), and every probe of it in this run."""

    def __init__(self, scan_rows: int, nominal_s: float):
        self.scan_rows = scan_rows
        self.nominal_s = nominal_s
        self.times: list[float] = []

    def probe(self, window_s: float = 0.0) -> list[float]:
        """Probe for window_s seconds, at least once. A probe is the median of
        three kernel runs, so one interrupt does not skew it."""
        probes = []
        end = time.perf_counter() + window_s
        while not probes or time.perf_counter() < end:
            probes.append(statistics.median(reference_kernel(self.scan_rows) for _ in range(3)))
        self.times += probes
        return probes

    def timed(self, fn, window_s: float = 0.0):
        """Run fn between probes. Returns (output, (seconds, factor)): the
        seconds as measured, and the factor that puts them on the nominal speed.

        One probe on each side tracks a short op. A job of several seconds
        outlasts many flips of the host's speed, so it takes window_s seconds
        of probes on each side, whose median estimates the host's average.
        """
        before = self.probe(window_s)
        start = time.perf_counter()
        try:
            out = fn()
        finally:
            seconds = time.perf_counter() - start
            after = self.probe(window_s)
        return out, (seconds, self.nominal_s / statistics.median(before + after))

    def run_factor(self) -> float:
        return self.nominal_s / statistics.median(self.times)


class Loop:
    """A closed loop with one client: the next op starts after the previous
    one returned and its output was checked. In a traced run, ``traced``
    selects per op whether the tracer's wrappers are installed.

    Times are kept as (seconds, factor) pairs; see ``Reference.timed``. Ops
    are calibrated against ``op_reference``; set-ups and bulk jobs, which
    are mostly encoder work, against the encoder-like reference.
    """

    def __init__(self, op_scan_rows: int, tracer=None):
        self.reference = Reference(0, PLAIN_NOMINAL_S)
        self.op_reference = (Reference(op_scan_rows, SCAN_NOMINAL_S) if op_scan_rows
                             else self.reference)
        self.tracer = tracer
        self.latency = {False: [], True: []}
        self.items = {False: 0, True: 0}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def timed(self, fn, window_s: float = 0.0):
        return self.reference.timed(fn, window_s)

    def traced_block(self, root: str, traced: bool):
        return self.tracer.active(root) if traced else contextlib.nullcontext()

    def verify(self, what: str, problems: list[str]) -> None:
        """Count one checked operation whose timing is reported elsewhere."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {problems[0]}")

    def run(self, fn, check, traced: bool = False, items: int = 1):
        """Time one op; return its output, or None if it raised or failed its check."""
        error = None

        def call():
            nonlocal error
            with self.traced_block("op", traced):
                try:
                    return fn()
                except Exception as exc:  # an op that raises is a failed op; keep measuring
                    error = exc
                    traceback.print_exc(file=sys.stderr)
                    return None

        out, sample = self.op_reference.timed(call)
        problems = [f"raised {error!r}"] if error is not None else check(out)
        self.verify("op", problems)
        if problems:
            return None
        self.latency[traced].append(sample)
        self.items[traced] += items
        return out


def schedule(i: int, trace: bool) -> tuple[int, bool]:
    """Map op number i to (input number, traced?).

    Untraced runs take input i. Traced runs take every input twice, once
    with and once without wrappers, in the order U T T U U T ..., so both
    halves see the same inputs and neither always runs second.
    """
    if not trace:
        return i, False
    return i // 2, (i % 2 == 1) != ((i // 2) % 2 == 1)


def check_run(run, k: int, query_id: str) -> list[str]:
    """A retrieval run: at most k unique entries, scores descending, ties by doc id."""
    problems = []
    if run.query_id != query_id:
        problems.append(f"query id {run.query_id!r}, expected {query_id!r}")
    if len(run.entries) > k:
        problems.append(f"{len(run.entries)} entries, more than k={k}")
    ids = run.doc_ids()
    if len(set(ids)) != len(ids):
        problems.append("duplicate doc ids")
    for rank, (a, b) in enumerate(zip(run.entries, run.entries[1:]), start=1):
        if not (a.score > b.score or (a.score == b.score and a.doc_id < b.doc_id)):
            problems.append(f"ranks {rank} and {rank + 1} out of order")
            break
    return problems


def trec_digest(runs, workdir: Path) -> str:
    """sha256 of the TREC file embrank writes for these runs."""
    path = workdir / "digest.trec"
    embrank.runs.write_trec_run(path, runs)
    return embrank.serialization.sha256_file(path)


class Workload:
    name = ""
    op_scan_rows = 0  # see reference_kernel
    # set-ups per untraced run; setup_s is their median
    setup_repeats = 3
    # the names the benchmark's plan gives these metrics: name -> (alias, scale, unit)
    aliases: dict = {}

    def __init__(self):
        self.bulk_times: list[tuple[float, float]] = []   # (seconds, factor)
        self.digest: dict = {}

    def setup(self, seed: int, loop: Loop) -> None:
        raise NotImplementedError

    def measure(self, loop: Loop, seconds: float, trace: bool, workdir: Path) -> None:
        raise NotImplementedError


class RerankRRF100(Workload):
    """The deployment path: per query, BM25 and dense top-100 fused by RRF,
    then one single-pass rerank of the 100 candidates."""

    name = "rerank-rrf100"
    setup_repeats = 7  # each set-up builds the indexes once: bulk_s is their median
    aliases = {"items_per_s": ("rerank_qps", 1.0, "1/s"),
               "op_p50_ms": ("rerank_p50_ms", 1.0, "ms"),
               "op_p90_ms": ("rerank_p90_ms", 1.0, "ms")}

    def setup(self, seed, loop):
        ds = embrank.synthetic.generate_synthetic(seed, n_docs=500)
        self.models = embrank.reranker.build_model_pair(ds.vocab, seed)
        self.queries = ds.queries
        self.doc_tokens = {d.doc_id: d.tokens for d in ds.documents}
        (self.bm25, self.dense), sample = loop.timed(lambda: (
            embrank.retrieval.InvertedIndex.build(ds.documents),
            embrank.retrieval.DenseIndex.build(ds.documents, self.models.encoder)))
        self.bulk_times.append(sample)

    def _op(self, query):
        return embrank.retrieval.end_to_end(query.text, self.models, self.doc_tokens,
                                            self.bm25, self.dense, mode="rrf", k=K,
                                            query_id=query.query_id)

    def _check(self, query, result, tracer):
        first, reranked = result.first_stage, result.reranked
        problems = check_run(first, K, query.query_id)
        candidates = first.doc_ids()
        if len(candidates) != K:
            problems.append(f"{len(candidates)} candidates, expected {K}")
        if sorted(reranked.doc_ids()) != sorted(candidates):
            problems.append("rerank output is not a permutation of the candidates")
        counters = reranked.counters
        if counters is None:
            return problems + ["no token counters on the reranked run"]
        if counters.processed_passage_tokens != len(candidates):
            problems.append(f"#Proc {counters.processed_passage_tokens} != "
                            f"{len(candidates)} candidates")
        if counters.generated_tokens != 0:
            problems.append(f"#Gen {counters.generated_tokens} != 0")
        scores = [e.score for e in reranked.entries]
        if not all(math.isfinite(s) and -1.0 <= s <= 1.0 for s in scores):
            problems.append("a score is not finite or outside [-1, 1]")
        if any(a < b for a, b in zip(scores, scores[1:])):
            problems.append("reranked scores are not descending")
        if tracer is not None and not problems:
            tracer.counts["reranker.proc_tokens"] += counters.processed_passage_tokens
            tracer.counts["reranker.gen_tokens"] += counters.generated_tokens
            tracer.counts["retrieval.candidates"] += len(candidates)
        return problems

    def measure(self, loop, seconds, trace, workdir):
        digest_runs = {}
        deadline = time.perf_counter() + seconds
        i = 0
        while i < 2 or time.perf_counter() < deadline:
            n, traced = schedule(i, trace)
            query = self.queries[n % len(self.queries)]
            tracer = loop.tracer if traced else None
            result = loop.run(lambda: self._op(query),
                              lambda out: self._check(query, out, tracer), traced)
            if result is not None and n < DIGEST_QUERIES:
                digest_runs.setdefault(n, result.reranked)
            i += 1
        self.digest = {"trec_sha256": trec_digest([digest_runs[n] for n in sorted(digest_runs)],
                                                  workdir),
                       "trec_queries": len(digest_runs)}


class TrainDual(Workload):
    """Dual-stage training as ``run_dual_stage`` runs it; one op is one
    ``train_step`` of 8 samples."""

    name = "train-dual"
    setup_repeats = 5
    aliases = {"items_per_s": ("train_samples_per_s", 1.0, "1/s"),
               "op_p50_ms": ("train_step_p50_s", 1e-3, "s")}

    def setup(self, seed, loop):
        # 16 training queries: stage 1 has 32 lists of 20 candidates (4 steps),
        # stage 2 has 16 lists of 1 positive + 15 negatives (2 steps), so one
        # dual-stage pass takes a few seconds and a run holds whole passes.
        ds = embrank.synthetic.generate_synthetic(seed, n_docs=500, n_queries=20,
                                                  n_eval_queries=4)
        self.models = embrank.reranker.build_model_pair(ds.vocab, seed)
        self.doc_tokens = {d.doc_id: d.tokens for d in ds.documents}
        self.seed = seed
        self.stages = [(embrank.training.StageConfig("stage1", epochs=1), ds.stage1_samples),
                       (embrank.training.StageConfig("stage2", epochs=1), ds.stage2_samples)]

    def _train_pass(self, loop, traced, step):
        """One epoch of each stage, as ``run_dual_stage`` does it: stage i is
        seeded with seed + i and gets a fresh Adam over the trainable parameters."""
        training = embrank.training
        loss_cfg, optim = training.LossConfig(), training.OptimConfig()
        loss_cfg.validate()
        models = self.models
        for i, (stage, samples) in enumerate(self.stages):
            for sample in samples:
                embrank.data.validate_sample(sample)
            usable = [s for s in samples if embrank.data.has_orderable_pair(s)]
            models.encoder.set_trainable(loss_cfg.encoder_trainable)
            models.reranker.set_trainable(True)
            models.reranker.residual_enabled = loss_cfg.residual_enabled
            models.reranker.hidden_state_enabled = loss_cfg.hidden_state_enabled
            params = {f"encoder.{k}": t for k, t in models.encoder.parameters().items()
                      if t.requires_grad}
            params.update({f"reranker.{k}": t for k, t in models.reranker.parameters().items()
                           if t.requires_grad})
            optimizer = training.Adam(params, lr=stage.lr, config=optim)
            order = np.random.default_rng(self.seed + i).permutation(len(usable))
            for lo in range(0, len(order), stage.batch_size):
                batch = [usable[j] for j in order[lo:lo + stage.batch_size]]
                loop.run(lambda: training.train_step(models, batch, self.doc_tokens, optimizer,
                                                     loss_cfg, step, stage.name),
                         self._check, traced, items=len(batch))
                step += 1
        return step

    @staticmethod
    def _check(record):
        return [f"{key} is {record[key]}" for key in ("infonce", "ranknet", "combined", "grad_norm")
                if not math.isfinite(record[key])]

    def measure(self, loop, seconds, trace, workdir):
        deadline = time.perf_counter() + seconds
        step = passes = 0
        while passes < (2 if trace else 1) or time.perf_counter() < deadline:
            traced = trace and passes % 4 in (1, 2)
            done = len(loop.latency[traced])
            step = self._train_pass(loop, traced, step)
            steps = loop.latency[traced][done:]
            busy = sum(s for s, _ in steps)
            if busy:  # a pass's time is the sum of its steps', each on the nominal speed
                self.bulk_times.append((busy, sum(s * f for s, f in steps) / busy))
            if passes == 0:
                self.digest = {"parameter_checksum": embrank.checkpoint.parameter_checksum(self.models)}
            passes += 1
        self.digest["passes"] = passes


class Retrieve5k(Workload):
    """A 5000-doc index build with save and load, then per query BM25 and
    dense top-100 fused by RRF; no reranker."""

    name = "retrieve-5k"
    op_scan_rows = SCAN_ROWS  # its reads are mostly a per-row cosine scan
    aliases = {"bulk_s": ("index_build_s", 1.0, "s"),
               "items_per_s": ("retrieve_qps", 1.0, "1/s"),
               "op_p50_ms": ("retrieve_p50_ms", 1.0, "ms"),
               "op_p90_ms": ("retrieve_p90_ms", 1.0, "ms")}

    def setup(self, seed, loop):
        ds = embrank.synthetic.generate_synthetic(seed, n_docs=5000, n_queries=300)
        self.models = embrank.reranker.build_model_pair(ds.vocab, seed)
        self.documents = ds.documents
        self.queries = ds.queries

    def _build(self, loop, traced, workdir):
        """Build both indexes, write them and read them back; time all of it."""
        retrieval = embrank.retrieval

        def build():
            with loop.traced_block("bulk", traced):
                bm25 = retrieval.InvertedIndex.build(self.documents)
                dense = retrieval.DenseIndex.build(self.documents, self.models.encoder)
                bm25.save(workdir / "bm25.idx")
                dense.save(workdir / "dense.idx")
                self.bm25 = retrieval.InvertedIndex.load(workdir / "bm25.idx")
                self.dense = retrieval.DenseIndex.load(workdir / "dense.idx")
            return bm25, dense

        (bm25, dense), sample = loop.timed(build, window_s=1.0)
        self.bulk_times.append(sample)
        problems = []
        if (self.bm25.doc_ids, self.bm25.doc_lengths, self.bm25.postings) != \
                (bm25.doc_ids, bm25.doc_lengths, bm25.postings):
            problems.append("BM25 index read back differs from the one written")
        if self.dense.doc_ids != dense.doc_ids or not np.array_equal(self.dense.matrix, dense.matrix):
            problems.append("dense index read back differs from the one written")
        if len(self.dense.doc_ids) != len(self.documents):
            problems.append(f"dense index holds {len(self.dense.doc_ids)} docs")
        loop.verify("index build", problems)
        sha = embrank.serialization.sha256_file
        self.digest.update(bm25_index_sha256=sha(workdir / "bm25.idx"),
                           dense_index_sha256=sha(workdir / "dense.idx"))

    def _op(self, query):
        tokens = self.models.vocab.encode(query.text)
        bm25_run = self.bm25.search(tokens, K, query_id=query.query_id)
        q_emb = self.models.encoder.encode_query(tokens).data
        dense_run = self.dense.search(q_emb, K, query_id=query.query_id)
        fused = embrank.retrieval.rrf_fuse(bm25_run, dense_run)
        top = embrank.runs.RunList(query_id=query.query_id, entries=fused.entries[:K], tag="rrf")
        return bm25_run, dense_run, top

    @staticmethod
    def _check(query, out, tracer):
        bm25_run, dense_run, top = out
        problems = [f"{what}: {p}" for what, run in (("bm25", bm25_run), ("dense", dense_run),
                                                     ("rrf", top))
                    for p in check_run(run, K, query.query_id)]
        if len(dense_run.entries) != K:
            problems.append(f"dense run holds {len(dense_run.entries)} entries, expected {K}")
        if not set(top.doc_ids()) <= set(bm25_run.doc_ids()) | set(dense_run.doc_ids()):
            problems.append("rrf run holds a doc that neither input run holds")
        if tracer is not None and not problems:
            tracer.counts["retrieval.candidates"] += len(top.entries)
        return problems

    def measure(self, loop, seconds, trace, workdir):
        deadline = time.perf_counter() + seconds
        self._build(loop, trace, workdir)
        digest_runs = {}
        i = 0
        while i < 2 or time.perf_counter() < deadline:
            n, traced = schedule(i, trace)
            query = self.queries[n % len(self.queries)]
            tracer = loop.tracer if traced else None
            out = loop.run(lambda: self._op(query),
                           lambda o: self._check(query, o, tracer), traced)
            if out is not None and n < DIGEST_QUERIES:
                digest_runs.setdefault(n, out[2])
            i += 1
        self.digest.update(trec_sha256=trec_digest([digest_runs[n] for n in sorted(digest_runs)],
                                                   workdir),
                           trec_queries=len(digest_runs))


WORKLOADS = {w.name: w for w in (RerankRRF100, TrainDual, Retrieve5k)}
