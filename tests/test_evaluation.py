"""nDCG, TREC run I/O, efficiency accounting, ordering and ablation harnesses."""

import math

import numpy as np
import pytest

from embrank.data import Qrels, Query
from embrank.errors import ConfigError, DataFormatError
from embrank.evaluation import (ABLATION_VARIANTS, EvalItem, ablation_suite,
                                efficiency_report, evaluate_reranker,
                                format_ablation_table, mean_ndcg, ndcg_at_k,
                                ordering_experiment, rerank_eval_set)
from embrank.reranker import build_model_pair, rerank_detailed
from embrank.retrieval import InvertedIndex
from embrank.runs import (RunEntry, RunList, TokenCounter, read_trec_run,
                          write_trec_run)
from embrank.training import LossConfig, OptimConfig, StageConfig

from helpers import naive_ndcg


def qrels_of(qid, grades: dict) -> Qrels:
    qrels = Qrels()
    for doc_id, grade in grades.items():
        qrels.set(qid, doc_id, grade)
    return qrels


def run_of(qid, doc_ids):
    return RunList(query_id=qid,
                   entries=[RunEntry(d, float(len(doc_ids) - i))
                            for i, d in enumerate(doc_ids)])


class TestNdcg:
    def test_ideal_order_scores_one(self):
        qrels = qrels_of("q", {"a": 3, "b": 2, "c": 1, "d": 0})
        assert ndcg_at_k(run_of("q", ["a", "b", "c", "d"]), qrels, 10) == pytest.approx(1.0)

    def test_single_binary_doc_at_rank_two(self):
        qrels = qrels_of("q", {"rel": 1})
        run = run_of("q", ["junk", "rel", "junk2"])
        assert ndcg_at_k(run, qrels, 10) == pytest.approx(1.0 / math.log2(3.0), abs=1e-12)
        assert ndcg_at_k(run, qrels, 10) == pytest.approx(0.63093, abs=1e-5)

    def test_relevant_doc_outside_cutoff_scores_zero(self):
        qrels = qrels_of("q", {"rel": 1})
        run = run_of("q", [f"junk{i}" for i in range(10)] + ["rel"])
        assert ndcg_at_k(run, qrels, 10) == 0.0

    def test_unknown_query_is_an_error(self):
        qrels = qrels_of("q1", {"a": 1})
        with pytest.raises(DataFormatError):
            ndcg_at_k(run_of("q2", ["a"]), qrels, 10)

    def test_zero_relevant_query_returns_none_and_is_excluded(self):
        qrels = qrels_of("q1", {"a": 0})
        assert ndcg_at_k(run_of("q1", ["a"]), qrels, 10) is None
        qrels.set("q2", "b", 2)
        result = mean_ndcg([run_of("q1", ["a"]), run_of("q2", ["b"])], qrels, 10)
        assert result.evaluated == 1 and result.excluded == 1
        assert result.mean == pytest.approx(1.0)

    def test_ideal_ranking_counts_missing_judged_docs(self):
        """IDCG covers judged docs absent from the run, so omissions cost score."""
        qrels = qrels_of("q", {"a": 3, "b": 3})
        partial = run_of("q", ["a"])
        value = ndcg_at_k(partial, qrels, 10)
        assert value == pytest.approx(7.0 / (7.0 + 7.0 / math.log2(3.0)), abs=1e-12)

    def test_adjacent_good_swap_never_decreases(self):
        """Swapping a higher grade above an adjacent lower grade inside the
        cutoff never decreases nDCG."""
        rng = np.random.default_rng(50)
        for _ in range(50):
            n = int(rng.integers(3, 10))
            grades = {f"d{i}": int(rng.integers(0, 4)) for i in range(n)}
            qrels = qrels_of("q", grades)
            if all(g == 0 for g in grades.values()):
                continue
            order = [f"d{i}" for i in rng.permutation(n)]
            i = int(rng.integers(0, n - 1))
            if grades[order[i]] < grades[order[i + 1]]:
                before = ndcg_at_k(run_of("q", order), qrels, 10)
                order[i], order[i + 1] = order[i + 1], order[i]
                after = ndcg_at_k(run_of("q", order), qrels, 10)
                assert after >= before - 1e-12

    def test_matches_independent_oracle_on_random_instances(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            doc_ids = [f"d{i}" for i in range(n)]
            grades = {d: int(rng.integers(0, 4)) for d in doc_ids}
            qrels = qrels_of("q", grades)
            order = [doc_ids[i] for i in rng.permutation(n)]
            got = ndcg_at_k(run_of("q", order), qrels, 10)
            want = naive_ndcg(order, grades, 10)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-12)


class TestTrecRoundTrip:
    def test_write_read_identical_at_six_decimals(self, tmp_path):
        runs = [RunList("q1", [RunEntry("d1", 0.123456789), RunEntry("d2", -1.5)], tag="t"),
                RunList("q2", [RunEntry("d9", 3.0)], tag="t")]
        path = tmp_path / "run.trec"
        write_trec_run(path, runs)
        loaded = read_trec_run(path)
        assert [r.query_id for r in loaded] == ["q1", "q2"]
        assert loaded[0].entries[0].score == pytest.approx(0.123457, abs=0)
        # a second round trip is byte-stable
        path2 = tmp_path / "run2.trec"
        write_trec_run(path2, loaded)
        assert path.read_text() == path2.read_text()

    def test_six_columns_enforced(self, tmp_path):
        path = tmp_path / "bad.trec"
        path.write_text("q1 Q0 d1 1 0.5\n")
        with pytest.raises(DataFormatError):
            read_trec_run(path)

    def test_rank_sequence_enforced(self, tmp_path):
        path = tmp_path / "bad.trec"
        path.write_text("q1 Q0 d1 2 0.5 tag\n")
        with pytest.raises(DataFormatError):
            read_trec_run(path)

    def test_document_ranked_twice_rejected(self, tmp_path):
        """Read, this run would give nDCG@10 1.6309 with d1 graded 1."""
        path = tmp_path / "bad.trec"
        path.write_text("q1 Q0 d1 1 0.9 t\nq1 Q0 d2 2 0.85 t\nq1 Q0 d1 3 0.8 t\n")
        with pytest.raises(DataFormatError) as err:
            read_trec_run(path)
        assert str(err.value) == f"{path}:3: q1 ranks d1 twice"

    def test_same_document_for_two_queries_is_fine(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("q1 Q0 d1 1 0.9 t\nq2 Q0 d1 1 0.8 t\n")
        assert [r.doc_ids() for r in read_trec_run(path)] == [["d1"], ["d1"]]

    @pytest.mark.parametrize("score", ["nan", "inf", "-Infinity"])
    def test_non_finite_score_rejected(self, tmp_path, score):
        path = tmp_path / "bad.trec"
        path.write_text(f"q1 Q0 d1 1 0.9 t\nq1 Q0 d2 2 {score} t\n")
        with pytest.raises(DataFormatError) as err:
            read_trec_run(path)
        assert str(err.value) == f"{path}:2: score {score!r} is not finite"


class TestEfficiencyReport:
    def run_with(self, qid, proc, cands, gen=0):
        run = RunList(query_id=qid)
        run.counters = TokenCounter(processed_passage_tokens=proc,
                                    generated_tokens=gen, candidates=cands)
        return run

    def test_single_pass_hundred_candidates(self):
        report = efficiency_report([self.run_with("q", 100, 100)])
        assert (report.processed_passage_tokens, report.avg_tokens_per_passage,
                report.generated_tokens) == (100, 1.0, 0)

    def test_sliding_window_nine_windows(self):
        report = efficiency_report([self.run_with("q", 180, 100)])
        assert report.processed_passage_tokens == 180
        assert report.avg_tokens_per_passage == pytest.approx(1.8)
        assert report.generated_tokens == 0

    def test_single_candidate(self):
        report = efficiency_report([self.run_with("q", 1, 1)])
        assert (report.processed_passage_tokens, report.avg_tokens_per_passage,
                report.generated_tokens) == (1, 1.0, 0)

    def test_aggregates_per_query(self):
        report = efficiency_report([self.run_with("q1", 100, 100),
                                    self.run_with("q2", 50, 50)])
        assert report.processed_passage_tokens == 150
        assert report.avg_tokens_per_passage == pytest.approx(1.0)
        assert len(report.per_query) == 2

    def test_counts_come_from_instrumentation_not_config(self):
        """A reintroduced generation call would be caught: the counter moves only
        when code actually reports generated tokens."""
        counter = TokenCounter()
        counter.count_generated(7)
        run = RunList(query_id="q")
        run.counters = counter
        assert efficiency_report([run]).generated_tokens == 7

    def test_missing_counters_rejected(self):
        with pytest.raises(ConfigError):
            efficiency_report([RunList(query_id="q")])


@pytest.fixture(scope="module")
def eval_setup(small_dataset, small_doc_tokens):
    models = build_model_pair(small_dataset.vocab, seed=60, d_model=16,
                              n_layers=1, n_heads=2, reranker_max_len=96)
    index = InvertedIndex.build(small_dataset.documents)
    items = []
    for q in small_dataset.eval_queries:
        run = index.search(small_dataset.vocab.encode(q.text), 20,
                           query_id=q.query_id)
        items.append(EvalItem(query=q, candidates=[
            (e.doc_id, small_doc_tokens[e.doc_id]) for e in run.entries]))
    return small_dataset, models, items


class TestOrderingExperiment:
    def test_involution_and_identity(self, eval_setup):
        """Reversing twice reproduces the original-order nDCG exactly."""
        ds, models, items = eval_setup
        report = ordering_experiment(models, items, ds.qrels, seed=5)
        double_reversed = [EvalItem(query=i.query, candidates=i.candidates[::-1][::-1])
                           for i in items]
        report2 = ordering_experiment(models, double_reversed, ds.qrels, seed=5)
        assert report.ndcg["original"] == report2.ndcg["original"]

    def test_all_orderings_reported_with_seed(self, eval_setup):
        ds, models, items = eval_setup
        report = ordering_experiment(models, items, ds.qrels, seed=9)
        assert set(report.ndcg) == {"original", "inverse", "random"}
        assert report.seed == 9
        for value in report.ndcg.values():
            assert 0.0 <= value <= 1.0

    def test_random_ordering_reproducible(self, eval_setup):
        ds, models, items = eval_setup
        a = ordering_experiment(models, items, ds.qrels, seed=13)
        b = ordering_experiment(models, items, ds.qrels, seed=13)
        assert a.ndcg == b.ndcg


class TestAblationStructure:
    """Bitwise scoring-path checks for the component-removal variants."""

    def test_without_hidden_state_scores_are_pure_embedding_cosines(self, eval_setup):
        ds, _, items = eval_setup
        models = build_model_pair(ds.vocab, seed=61, d_model=16, n_layers=1,
                                  n_heads=2, reranker_max_len=96,
                                  hidden_state_enabled=False)
        item = items[0]
        qt = ds.vocab.encode(item.query.text)
        result = rerank_detailed(qt, item.candidates[:6], models, query_id="q")
        h = result.output.h_eos.data
        for i, e in enumerate(result.embeddings.data):
            expected = float(np.dot(h, e) /
                             (np.sqrt(np.dot(h, h)) * np.sqrt(np.dot(e, e))))
            assert result.output.scores[i] == expected  # bitwise

    def test_without_residual_scores_are_pure_hidden_cosines(self, eval_setup):
        ds, _, items = eval_setup
        models = build_model_pair(ds.vocab, seed=61, d_model=16, n_layers=1,
                                  n_heads=2, reranker_max_len=96,
                                  residual_enabled=False)
        item = items[0]
        qt = ds.vocab.encode(item.query.text)
        result = rerank_detailed(qt, item.candidates[:6], models, query_id="q")
        rin = models.reranker.assemble_input(models.instruction_ids(), qt,
                                             result.embeddings)
        hidden = models.reranker.contextualize(rin).data
        h = result.output.h_eos.data
        for i, p in enumerate(rin.passage_positions):
            hp = hidden[p]
            expected = float(np.dot(h, hp) /
                             (np.sqrt(np.dot(h, h)) * np.sqrt(np.dot(hp, hp))))
            assert result.output.scores[i] == expected  # bitwise

    def test_suite_runs_all_variants_from_identical_init(self, small_dataset,
                                                         small_doc_tokens, eval_setup):
        ds, _, items = eval_setup
        rows = ablation_suite(
            ds.vocab, small_doc_tokens,
            ds.stage1_samples[:4], ds.stage2_samples[:4], items[:2], ds.qrels,
            model_kwargs=dict(d_model=16, n_layers=1, n_heads=2, reranker_max_len=96),
            stage1=StageConfig("stage1", epochs=1, batch_size=2, lr=1e-3),
            stage2=StageConfig("stage2", epochs=1, batch_size=2, lr=1e-3),
            optim=OptimConfig(), base_loss=LossConfig(), seed=62)
        assert [r.variant for r in rows] == list(ABLATION_VARIANTS)
        assert rows[0].is_baseline and not any(r.is_baseline for r in rows[1:])
        table = format_ablation_table(rows)
        assert "full" in table and "wo_encoder_loss" in table

    def test_wo_encoder_loss_zeroes_trace_multiplier(self, small_dataset,
                                                     small_doc_tokens, eval_setup):
        ds, _, items = eval_setup
        rows = ablation_suite(
            ds.vocab, small_doc_tokens,
            ds.stage1_samples[:2], ds.stage2_samples[:2], items[:1], ds.qrels,
            model_kwargs=dict(d_model=16, n_layers=1, n_heads=2, reranker_max_len=96),
            stage1=StageConfig("stage1", epochs=1, batch_size=2, lr=1e-3),
            stage2=StageConfig("stage2", epochs=1, batch_size=2, lr=1e-3),
            optim=OptimConfig(), base_loss=LossConfig(), seed=63,
            variants=("wo_encoder_loss",))
        records = rows[0].train_report.records
        assert records and all(r["lambda_effective"] == 0.0 for r in records)
        assert all(r["combined"] == pytest.approx(r["ranknet"], abs=1e-15)
                   for r in records)


def test_evaluate_reranker_returns_mean(eval_setup):
    ds, models, items = eval_setup
    result = evaluate_reranker(models, items, ds.qrels, k=10)
    assert 0.0 <= result.mean <= 1.0
    assert result.evaluated == len(items)


def test_rerank_eval_set_counters_attached(eval_setup):
    ds, models, items = eval_setup
    runs = rerank_eval_set(models, items)
    assert all(r.counters is not None and r.counters.generated_tokens == 0 for r in runs)
