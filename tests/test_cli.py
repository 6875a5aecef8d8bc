"""CLI surface: subcommand wiring, run-directory contract, reproducibility."""

import dataclasses
import json
import hashlib

import pytest

import embrank.autodiff as ad
from embrank.checkpoint import (encoder_checksum, load_checkpoint, parameter_checksum,
                                save_checkpoint)
from embrank.cli import main
from embrank.config import load_config
from embrank.data import load_corpus, load_queries, load_samples
from embrank.reranker import build_model_pair
from embrank.retrieval import InvertedIndex
from embrank.runs import read_trec_run
from embrank.serialization import read_record_file, write_record_file
from embrank.training import TrainReport, train_stages

from helpers import distinct_tokens

MICRO_CONFIG = {
    "seed": 3,
    "model": {"d_model": 16, "n_layers": 1, "n_heads": 2,
              "encoder_max_len": 48, "reranker_max_len": 96},
    "data": {"n_topics": 3, "n_docs": 60, "n_queries": 9, "n_eval_queries": 3,
             "stage1_candidates": 18, "stage1_per_query": 1},
    "stages": [{"epochs": 1, "batch_size": 3, "lr": 0.001},
               {"epochs": 1, "batch_size": 3, "lr": 0.001}],
    "retrieval": {"top_k": 30},
}


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """gen-data + build-index + train, shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(MICRO_CONFIG))
    data = root / "data"
    assert main(["gen-data", "--config", str(config), "--out", str(data)]) == 0
    train = root / "train"
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(train)]) == 0
    index = root / "index"
    assert main(["build-index", "--config", str(config),
                 "--corpus", str(data / "corpus.jsonl"), "--out", str(index),
                 "--dense", "--checkpoint", str(train / "checkpoints/final.ckpt")]) == 0
    return root, config, data, train, index


class TestGenData:
    def test_outputs_and_config_echo(self, workdir):
        root, config, data, train, index = workdir
        for name in ("corpus.jsonl", "queries_train.tsv", "queries_eval.tsv",
                     "qrels.txt", "stage1.jsonl", "stage2.jsonl", "config.json"):
            assert (data / name).exists()
        echoed = json.loads((data / "config.json").read_text())
        assert echoed["config"]["seed"] == 3
        assert echoed["command"] == "gen-data"

    def test_same_seed_byte_identical(self, workdir, tmp_path):
        root, config, data, train, index = workdir
        again = tmp_path / "again"
        assert main(["gen-data", "--config", str(config), "--out", str(again)]) == 0
        for name in ("corpus.jsonl", "queries_eval.tsv", "qrels.txt", "stage2.jsonl"):
            assert sha(again / name) == sha(data / name)


class TestTrain:
    def test_run_directory_contract(self, workdir):
        root, config, data, train, index = workdir
        assert (train / "checkpoints/stage1.ckpt").exists()
        assert (train / "checkpoints/stage2.ckpt").exists()
        assert (train / "checkpoints/final.ckpt").exists()
        records = [json.loads(line) for line in (train / "metrics.jsonl").read_text().splitlines()]
        assert records
        assert set(records[0]) >= {"step", "stage", "infonce", "ranknet", "combined", "grad_norm"}

    def test_identical_seeds_identical_checkpoints(self, workdir, tmp_path):
        root, config, data, train, index = workdir
        again = tmp_path / "train2"
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(again)]) == 0
        assert sha(again / "checkpoints/final.ckpt") == sha(train / "checkpoints/final.ckpt")
        assert sha(again / "metrics.jsonl") == sha(train / "metrics.jsonl")

    @pytest.mark.parametrize("n_stages", [2, 1])
    def test_same_training_as_train_stages(self, workdir, tmp_path, n_stages):
        """train runs train_stages over the config's stages: same seeds, steps and
        weights; a one-stage config trains what the two-stage plan with stage 2
        at 0 epochs trains."""
        root, config, data, train, index = workdir
        stage_cfgs = load_config(config).stage_configs()
        if n_stages == 1:
            config = tmp_path / "one_stage.json"
            config.write_text(json.dumps({**MICRO_CONFIG, "stages": MICRO_CONFIG["stages"][:1]}))
            train = tmp_path / "train1"
            assert main(["train", "--config", str(config), "--data", str(data),
                         "--out", str(train)]) == 0
            assert not (train / "checkpoints/stage2.ckpt").exists()
            stage_cfgs[1] = dataclasses.replace(stage_cfgs[1], epochs=0)
        cfg = load_config(config)
        docs, vocab = load_corpus(data / "corpus.jsonl")
        models = build_model_pair(vocab, cfg.seed, **cfg.model.build_kwargs())
        plan = list(zip(stage_cfgs, [load_samples(data / "stage1.jsonl"),
                                     load_samples(data / "stage2.jsonl")]))
        report = TrainReport()
        for _ in train_stages(models, plan, {d.doc_id: d.tokens for d in docs}, cfg.optim,
                              cfg.loss, cfg.seed, report):
            pass
        final = load_checkpoint(train / "checkpoints/final.ckpt")
        assert parameter_checksum(final) == parameter_checksum(models)
        records = [json.loads(line) for line in (train / "metrics.jsonl").read_text().splitlines()]
        assert records == json.loads(json.dumps(report.records))


class TestEndToEndAndEvaluate:
    def test_bm25_mode_and_evaluate(self, workdir, tmp_path):
        root, config, data, train, index = workdir
        out = tmp_path / "e2e"
        assert main(["end-to-end", "--config", str(config),
                     "--checkpoint", str(train / "checkpoints/final.ckpt"),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--queries", str(data / "queries_eval.tsv"),
                     "--bm25-index", str(index / "bm25.idx"),
                     "--qrels", str(data / "qrels.txt"),
                     "--mode", "bm25", "--out", str(out)]) == 0
        assert (out / "run.trec").exists() and (out / "first_stage.trec").exists()
        eval_out = tmp_path / "eval"
        assert main(["evaluate", "--run", str(out / "run.trec"),
                     "--qrels", str(data / "qrels.txt"), "--k", "10",
                     "--out", str(eval_out)]) == 0
        metrics = json.loads((eval_out / "metrics.jsonl").read_text())
        assert 0.0 <= metrics["mean"] <= 1.0

    def test_rrf_mode_runs(self, workdir, tmp_path):
        root, config, data, train, index = workdir
        out = tmp_path / "rrf"
        assert main(["end-to-end", "--config", str(config),
                     "--checkpoint", str(train / "checkpoints/final.ckpt"),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--queries", str(data / "queries_eval.tsv"),
                     "--bm25-index", str(index / "bm25.idx"),
                     "--dense-index", str(index / "dense.idx"),
                     "--mode", "rrf", "--out", str(out)]) == 0
        runs = read_trec_run(out / "run.trec")
        assert len(runs) == 3

    @pytest.mark.parametrize("mismatch", ["checkpoint", "corpus"])
    def test_dense_index_provenance_mismatch_rejected(self, workdir, tmp_path, capsys, mismatch):
        root, config, data, train, index = workdir
        final, corpus = train / "checkpoints/final.ckpt", data / "corpus.jsonl"
        built_ckpt, built_corpus = final, corpus
        if mismatch == "checkpoint":
            built_ckpt = train / "checkpoints/stage1.ckpt"
            recorded = encoder_checksum(load_checkpoint(built_ckpt).encoder)
            actual = encoder_checksum(load_checkpoint(final).encoder)
        else:
            built_corpus = tmp_path / "fewer_docs.jsonl"
            built_corpus.write_text("".join(corpus.read_text().splitlines(keepends=True)[:-1]))
            recorded, actual = sha(built_corpus), sha(corpus)
        other = tmp_path / "other_index"
        assert main(["build-index", "--config", str(config), "--corpus", str(built_corpus),
                     "--out", str(other), "--dense", "--checkpoint", str(built_ckpt)]) == 0
        capsys.readouterr()
        code = main(["end-to-end", "--config", str(config), "--checkpoint", str(final),
                     "--corpus", str(corpus), "--queries", str(data / "queries_eval.tsv"),
                     "--bm25-index", str(index / "bm25.idx"),
                     "--dense-index", str(other / "dense.idx"),
                     "--mode", "rrf", "--out", str(tmp_path / "e2e")])
        err = capsys.readouterr().err
        assert code == 1
        assert recorded != actual and recorded in err and actual in err

    def run_rrf(self, workdir, tmp_path, checkpoint, dense_index):
        root, config, data, train, index = workdir
        return main(["end-to-end", "--config", str(config), "--checkpoint", str(checkpoint),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--queries", str(data / "queries_eval.tsv"),
                     "--bm25-index", str(index / "bm25.idx"),
                     "--dense-index", str(dense_index),
                     "--mode", "rrf", "--out", str(tmp_path / "e2e")])

    @pytest.mark.parametrize("changed", ["encoder", "reranker"])
    def test_dense_index_checked_against_the_encoder_only(self, workdir, tmp_path, capsys,
                                                          changed):
        """The index was built from final.ckpt; a checkpoint differing from it
        in one weight is refused only when that weight is the encoder's."""
        root, config, data, train, index = workdir
        models = load_checkpoint(train / "checkpoints/final.ckpt")
        tok_emb = getattr(models, changed).parameters()["tok_emb"]
        changed_data = tok_emb.data.copy()
        changed_data[0, 0] += 1e-3
        ad.set_param_data(tok_emb, changed_data)
        changed_ckpt = tmp_path / "changed.ckpt"
        save_checkpoint(changed_ckpt, models)
        capsys.readouterr()
        code = self.run_rrf(workdir, tmp_path, changed_ckpt, index / "dense.idx")
        err = capsys.readouterr().err
        if changed == "reranker":
            assert code == 0, err
            assert len(read_trec_run(tmp_path / "e2e" / "run.trec")) == 3
        else:
            recorded = read_record_file(index / "dense.idx")[0]["metadata"]["encoder_sha256"]
            assert code == 1
            assert str(index / "dense.idx") in err
            assert recorded in err and encoder_checksum(models.encoder) in err

    @pytest.mark.parametrize("built_from", ["final", "stage1"])
    def test_index_recording_only_a_pair_checksum_still_checked(self, workdir, tmp_path,
                                                                capsys, built_from):
        """Indexes written before the encoder fingerprint record the whole
        pair's ``parameter_checksum`` as ``encoder_checkpoint_id``."""
        root, config, data, train, index = workdir
        final = train / "checkpoints/final.ckpt"
        recorded = parameter_checksum(load_checkpoint(train / f"checkpoints/{built_from}.ckpt"))
        meta, arrays = read_record_file(index / "dense.idx")
        meta["metadata"] = {"corpus_checksum": meta["metadata"]["corpus_checksum"],
                            "encoder_checkpoint_id": recorded}
        old_index = tmp_path / "old_dense.idx"
        write_record_file(old_index, meta, arrays)
        capsys.readouterr()
        code = self.run_rrf(workdir, tmp_path, final, old_index)
        err = capsys.readouterr().err
        if built_from == "final":
            assert code == 0, err
        else:
            assert code == 1
            assert recorded in err and parameter_checksum(load_checkpoint(final)) in err

    def refused_over_fewer_docs(self, workdir, tmp_path, capsys, bm25_index) -> str:
        """The stderr of end-to-end over the first 40 documents of the corpus
        ``bm25_index`` was built from, once it exits 1 naming both checksums."""
        root, config, data, train, index = workdir
        corpus = data / "corpus.jsonl"
        fewer = tmp_path / "fewer_docs.jsonl"
        fewer.write_text("".join(corpus.read_text().splitlines(keepends=True)[:40]))
        code = main(["end-to-end", "--config", str(config),
                     "--checkpoint", str(train / "checkpoints/final.ckpt"),
                     "--corpus", str(fewer), "--queries", str(data / "queries_eval.tsv"),
                     "--bm25-index", str(bm25_index),
                     "--mode", "bm25", "--out", str(tmp_path / "e2e")])
        err = capsys.readouterr().err
        assert code == 1
        assert sha(corpus) in err and sha(fewer) in err
        return err

    def test_bm25_index_over_another_corpus_rejected(self, workdir, tmp_path, capsys):
        self.refused_over_fewer_docs(workdir, tmp_path, capsys, workdir[4] / "bm25.idx")

    def test_re_saved_bm25_index_over_another_corpus_rejected(self, workdir, tmp_path, capsys):
        """A copy made by ``load`` and ``save`` keeps the checksum of the corpus
        it was built from, so it is checked as the original is."""
        copy = tmp_path / "copy.idx"
        InvertedIndex.load(workdir[4] / "bm25.idx").save(copy)
        assert str(copy) in self.refused_over_fewer_docs(workdir, tmp_path, capsys, copy)

    def test_query_retrieving_nothing_gets_a_zero_trace_record(self, workdir, tmp_path):
        root, config, data, train, index = workdir
        queries = tmp_path / "queries.tsv"
        queries.write_text((data / "queries_eval.tsv").read_text() + "q900\tzzz qqq\n")
        common = ["--config", str(config), "--checkpoint", str(train / "checkpoints/final.ckpt"),
                  "--corpus", str(data / "corpus.jsonl"), "--bm25-index", str(index / "bm25.idx"),
                  "--mode", "bm25"]
        with_empty, without = tmp_path / "with_empty", tmp_path / "without"
        assert main(["end-to-end", *common, "--queries", str(queries),
                     "--out", str(with_empty)]) == 0
        assert main(["end-to-end", *common, "--queries", str(data / "queries_eval.tsv"),
                     "--out", str(without)]) == 0
        trace = [json.loads(l) for l in (with_empty / "trace.jsonl").read_text().splitlines()]
        assert trace[-1] == {"query_id": "q900", "processed_passage_tokens": 0,
                             "candidates": 0, "generated_tokens": 0}
        assert (with_empty / "trace.jsonl").read_text().startswith(
            (without / "trace.jsonl").read_text())
        proc = sum(rec["processed_passage_tokens"] for rec in trace)
        assert proc > 0
        report = (with_empty / "report.txt").read_text()
        assert f"#Proc={proc} " in report
        assert report.splitlines()[-1] == (without / "report.txt").read_text().splitlines()[-1]

    def test_evaluate_perfect_run_scores_one(self, tmp_path):
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d1 3\nq1 0 d2 1\n")
        run = tmp_path / "run.trec"
        run.write_text("q1 Q0 d1 1 2.000000 t\nq1 Q0 d2 2 1.000000 t\n")
        out = tmp_path / "eval"
        assert main(["evaluate", "--run", str(run), "--qrels", str(qrels),
                     "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.jsonl").read_text())
        assert metrics["mean"] == pytest.approx(1.0)


class TestRerankCommand:
    def test_rerank_bm25_candidates(self, workdir, tmp_path):
        root, config, data, train, index = workdir
        e2e = tmp_path / "first"
        assert main(["end-to-end", "--config", str(config),
                     "--checkpoint", str(train / "checkpoints/final.ckpt"),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--queries", str(data / "queries_eval.tsv"),
                     "--bm25-index", str(index / "bm25.idx"),
                     "--mode", "bm25", "--out", str(e2e)]) == 0
        out = tmp_path / "rerank"
        assert main(["rerank", "--config", str(config),
                     "--checkpoint", str(train / "checkpoints/final.ckpt"),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--queries", str(data / "queries_eval.tsv"),
                     "--candidates", str(e2e / "first_stage.trec"),
                     "--out", str(out)]) == 0
        reranked = read_trec_run(out / "run.trec")
        first = read_trec_run(e2e / "first_stage.trec")
        assert [sorted(r.doc_ids()) for r in reranked] == [sorted(r.doc_ids()) for r in first]
        trace = [json.loads(l) for l in (out / "trace.jsonl").read_text().splitlines()]
        assert all(rec["generated_tokens"] == 0 for rec in trace)

    def test_sliding_mode(self, workdir, tmp_path):
        root, config, data, train, index = workdir
        e2e = tmp_path / "first"
        main(["end-to-end", "--config", str(config),
              "--checkpoint", str(train / "checkpoints/final.ckpt"),
              "--corpus", str(data / "corpus.jsonl"),
              "--queries", str(data / "queries_eval.tsv"),
              "--bm25-index", str(index / "bm25.idx"),
              "--mode", "bm25", "--out", str(e2e)])
        out = tmp_path / "sw"
        assert main(["rerank", "--config", str(config),
                     "--checkpoint", str(train / "checkpoints/final.ckpt"),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--queries", str(data / "queries_eval.tsv"),
                     "--candidates", str(e2e / "first_stage.trec"),
                     "--mode", "sliding", "--window", "10", "--stride", "5",
                     "--out", str(out)]) == 0
        assert (out / "run.trec").exists()

    @pytest.mark.parametrize("mode", ["single", "sliding"])
    def test_each_candidate_encoded_once(self, workdir, tmp_path, encode_calls, mode):
        """One ``batch_encode`` per command holds each distinct candidate of
        every query once; the queries' lists overlap by half."""
        root, config, data, train, index = workdir
        vocab = load_checkpoint(train / "checkpoints/final.ckpt").vocab
        docs = load_corpus(data / "corpus.jsonl", vocab=vocab)[0]
        queries = load_queries(data / "queries_eval.tsv")
        lists = [[(d.doc_id, d.tokens) for d in docs[6 * j:6 * j + 12]]
                 for j in range(len(queries))]
        candidates = tmp_path / "first.trec"
        candidates.write_text("".join(f"{q.query_id} Q0 {doc_id} {rank} {-rank}.0 t\n"
                                      for q, pairs in zip(queries, lists)
                                      for rank, (doc_id, _) in enumerate(pairs, start=1)))
        assert main(["rerank", "--config", str(config),
                     "--checkpoint", str(train / "checkpoints/final.ckpt"),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--queries", str(data / "queries_eval.tsv"),
                     "--candidates", str(candidates),
                     "--mode", mode, "--window", "10", "--stride", "5",
                     "--out", str(tmp_path / "rerank")]) == 0
        assert [sorted(call) for call in encode_calls] == [distinct_tokens(lists)]

    @pytest.mark.parametrize("flag", ["--window", "--stride"])
    def test_sliding_flag_of_zero_is_rejected_not_replaced(self, workdir, tmp_path, capsys,
                                                          flag):
        """A 0 on the command line reaches sliding_window_rerank's check instead
        of falling back to the config's window 20 / stride 10."""
        root, config, data, train, index = workdir
        qid = load_queries(data / "queries_eval.tsv")[0].query_id
        doc_id = load_corpus(data / "corpus.jsonl")[0][0].doc_id
        candidates = tmp_path / "first.trec"
        candidates.write_text(f"{qid} Q0 {doc_id} 1 1.0 t\n")
        code = main(["rerank", "--config", str(config),
                     "--checkpoint", str(train / "checkpoints/final.ckpt"),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--queries", str(data / "queries_eval.tsv"),
                     "--candidates", str(candidates), "--mode", "sliding", flag, "0",
                     "--out", str(tmp_path / "sw")])
        assert code == 1
        assert "need 1 <= stride <= window" in capsys.readouterr().err


class TestAblate:
    def test_ablate_reports_all_variants(self, workdir, tmp_path):
        root, config, data, train, index = workdir
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(config), "--data", str(data),
                     "--out", str(out)]) == 0
        rows = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert len(rows) == 7
        assert sum(1 for r in rows if r["baseline"]) == 1
        assert {r["variant"] for r in rows} >= {"full", "wo_stage1", "wo_encoder_loss"}


class TestEfficiencyAndOrdering:
    def test_efficiency_from_trace(self, workdir, tmp_path):
        root, config, data, train, index = workdir
        trace = tmp_path / "trace.jsonl"
        trace.write_text(json.dumps({"query_id": "q0", "processed_passage_tokens": 100,
                                     "candidates": 100, "generated_tokens": 0}) + "\n")
        out = tmp_path / "eff"
        assert main(["efficiency", "--trace", str(trace), "--out", str(out)]) == 0
        text = (out / "report.txt").read_text()
        assert "#Proc=100" in text and "#Gen=0" in text

    @pytest.mark.parametrize("bad_line, message", [
        (b'{"query_id": "q1", "processed_passage_tokens": 5, "generated_tokens": 0}',
         "candidates must be an integer"),
        (b'{"query_id": "q1", ', "invalid JSON"),
        (b'{"query_id": "q\xff"}', "not UTF-8 text"),
    ], ids=["missing key", "not JSON", "not UTF-8"])
    def test_bad_trace_line_names_the_file_and_line(self, tmp_path, capsys, bad_line, message):
        good = json.dumps({"query_id": "q0", "processed_passage_tokens": 100,
                           "candidates": 100, "generated_tokens": 0}).encode()
        trace = tmp_path / "trace.jsonl"
        trace.write_bytes(good + b"\n" + bad_line + b"\n")
        assert main(["efficiency", "--trace", str(trace)]) == 1
        err = capsys.readouterr().err
        assert f"{trace}:2: {message}" in err and "Traceback" not in err

    def test_order_exp(self, workdir, tmp_path):
        root, config, data, train, index = workdir
        out = tmp_path / "order"
        assert main(["order-exp", "--config", str(config),
                     "--checkpoint", str(train / "checkpoints/final.ckpt"),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--queries", str(data / "queries_eval.tsv"),
                     "--qrels", str(data / "qrels.txt"),
                     "--out", str(out)]) == 0
        rows = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert {r["ordering"] for r in rows} == {"original", "inverse", "random"}


class TestErrors:
    def test_unknown_config_key_is_key_level_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": {"d_model": 16, "n_layerz": 2}}))
        code = main(["gen-data", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "model.n_layerz" in capsys.readouterr().err

    @pytest.mark.parametrize("config_data, key", [({"seed": "x"}, "seed"),
                                                  ({"model": {"d_model": "x"}}, "model.d_model")])
    def test_config_value_of_another_type_names_the_key(self, tmp_path, capsys,
                                                        config_data, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(config_data))
        code = main(["gen-data", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 1
        assert f"{config}: {key}: expected int, got str 'x'" in capsys.readouterr().err

    def test_gen_data_with_no_stage1_candidates_names_the_key(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": {"stage1_candidates": 0}}))
        code = main(["gen-data", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "embrank gen-data: error: stage1_candidates must be >= 1, got 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("optim", [{"beta1": 1.0}, {"beta2": 1.0}, {"eps": 0.0}])
    def test_train_with_a_degenerate_optimizer_writes_no_checkpoint(self, workdir, tmp_path,
                                                                     capsys, optim):
        """Each of these makes Adam's first update 0/0: ``train`` exits 1
        naming the key instead of saving NaN weights."""
        root, config, data, train, index = workdir
        bad = tmp_path / "config.json"
        bad.write_text(json.dumps({**MICRO_CONFIG, "optim": optim}))
        out = tmp_path / "train"
        assert main(["train", "--config", str(bad), "--data", str(data),
                     "--out", str(out)]) == 1
        (key,) = optim
        assert f"optim.{key}: must be" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.ckpt"))

    def test_missing_input_path_names_the_path(self, tmp_path, capsys):
        code = main(["evaluate", "--run", str(tmp_path / "missing.trec"),
                     "--qrels", str(tmp_path / "missing.txt")])
        assert code == 1
        assert "missing.trec" in capsys.readouterr().err

    def test_build_index_on_an_empty_corpus_names_the_file(self, tmp_path, capsys):
        corpus = tmp_path / "empty_corpus.jsonl"
        corpus.write_text("\n")
        code = main(["build-index", "--corpus", str(corpus), "--out", str(tmp_path / "index")])
        assert code == 1
        assert "empty_corpus.jsonl: corpus holds no documents" in capsys.readouterr().err

    def test_non_utf8_qrels_names_the_file(self, workdir, tmp_path, capsys):
        root, config, data, train, index = workdir
        qrels = tmp_path / "qrels.txt"
        qrels.write_bytes((data / "qrels.txt").read_bytes() + b"q9 0 d\xff 1\n")
        run = tmp_path / "run.trec"
        run.write_text("q1 Q0 d1 1 0.5 t\n")
        assert main(["evaluate", "--run", str(run), "--qrels", str(qrels)]) == 1
        assert f"{qrels}:" in capsys.readouterr().err

    def test_non_utf8_config_names_the_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"seed": "\xff"}')
        assert main(["gen-data", "--config", str(config), "--out", str(tmp_path / "x")]) == 1
        assert f"{config}:1: not UTF-8 text" in capsys.readouterr().err

    def test_end_to_end_rejects_a_repeated_query_id(self, workdir, tmp_path, capsys):
        """Otherwise it would write a run.trec that ``evaluate`` cannot read."""
        root, config, data, train, index = workdir
        queries = tmp_path / "queries.tsv"
        first = (data / "queries_eval.tsv").read_text().splitlines()[0]
        queries.write_text(f"{first}\n{first}\n")
        code = main(["end-to-end", "--config", str(config),
                     "--checkpoint", str(train / "checkpoints/final.ckpt"),
                     "--corpus", str(data / "corpus.jsonl"), "--queries", str(queries),
                     "--bm25-index", str(index / "bm25.idx"), "--mode", "bm25",
                     "--out", str(tmp_path / "e2e")])
        assert code == 1
        assert f"{queries}:2: duplicate query id" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(MICRO_CONFIG))
        out = tmp_path / "seeded"
        assert main(["gen-data", "--config", str(config), "--seed", "99",
                     "--out", str(out)]) == 0
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["config"]["seed"] == 99
