"""Command-line surface tying the modules into reproducible experiments.

Every subcommand writes its outputs plus the effective configuration and
seed into the run directory, so a run is re-executable from its artifacts
alone. Output files never contain wall-clock times: two runs with the same
seed produce byte-identical checkpoints, run files, and metric reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import __version__
from .checkpoint import encoder_checksum, load_checkpoint, parameter_checksum, save_checkpoint
from .config import ExperimentConfig, config_to_dict, load_config, save_config
from .data import (load_corpus, load_qrels, load_queries, load_samples,
                   write_corpus, write_qrels, write_queries, write_samples)
from .errors import ConfigError, EmbrankError
from .evaluation import (EvalItem, ablation_suite, efficiency_report,
                         format_ablation_table, mean_ndcg, ndcg_at_k,
                         ordering_experiment, rerank_eval_set)
from .retrieval import DenseIndex, InvertedIndex, end_to_end, sliding_window_rerank
from .reranker import build_model_pair, rerank_detailed
from .runs import RunList, TokenCounter, read_trec_run, write_trec_run
from .serialization import sha256_file
from .synthetic import generate_synthetic
from .training import TrainReport, train_stages


def _path(value: str) -> Path:
    return Path(os.path.expandvars(value))


def _outdir(value: str) -> Path:
    out = _path(value)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _effective_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    cfg.validate()
    return cfg


def _echo_config(out: Path, cfg: ExperimentConfig, command: str, extra: dict | None = None) -> None:
    payload = {"command": command, "version": __version__, "config": config_to_dict(cfg)}
    if extra:
        payload["inputs"] = extra
    (out / "config.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                                     encoding="utf-8")


def _write_trace(out: Path, runs: list[RunList]) -> None:
    with (out / "trace.jsonl").open("w", encoding="utf-8") as fh:
        for run in runs:
            c = run.counters
            if c is None:
                continue
            fh.write(json.dumps({
                "query_id": run.query_id,
                "processed_passage_tokens": c.processed_passage_tokens,
                "candidates": c.candidates,
                "generated_tokens": c.generated_tokens,
            }, sort_keys=True) + "\n")


def _load_candidate_lists(run_path: Path, doc_tokens: dict, k: int) -> dict[str, list]:
    lists: dict[str, list] = {}
    for run in read_trec_run(run_path):
        cands = []
        for entry in run.entries[:k]:
            if entry.doc_id not in doc_tokens:
                raise ConfigError(f"candidate {entry.doc_id!r} not present in the corpus")
            cands.append((entry.doc_id, doc_tokens[entry.doc_id]))
        lists[run.query_id] = cands
    return lists


def _load_model_and_corpus(args):
    """The ``--checkpoint`` model pair, the ``--corpus`` documents tokenized with
    its vocabulary, and their tokens by doc id."""
    models = load_checkpoint(_path(args.checkpoint))
    docs, _ = load_corpus(_path(args.corpus), vocab=models.vocab)
    return models, docs, {d.doc_id: d.tokens for d in docs}


def _bm25_eval_items(cfg: ExperimentConfig, docs, doc_tokens: dict, vocab,
                     queries) -> list[EvalItem]:
    """Each query with its BM25 top-k candidates from an index over ``docs``."""
    index = InvertedIndex.build(docs, k1=cfg.retrieval.k1, b=cfg.retrieval.b)
    items = []
    for q in queries:
        run = index.search(vocab.encode(q.text), cfg.retrieval.top_k, query_id=q.query_id)
        items.append(EvalItem(query=q, candidates=[(e.doc_id, doc_tokens[e.doc_id])
                                                   for e in run.entries]))
    return items


def _check_provenance(index_path, recorded: dict, actual: dict) -> None:
    """Refuse an index recorded as built from another checkpoint or corpus.
    ``actual`` maps a recorded key to (flag, value); an index built through
    the library without ids records empty values, which are not checked."""
    for key, (flag, value) in actual.items():
        got = recorded.get(key, "")
        if got and got != value:
            raise ConfigError(f"{index_path}: index {key} is {got}, but {flag} gives {value}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    cfg = _effective_config(args)
    out = _outdir(args.out)
    dataset = generate_synthetic(seed=cfg.seed, **dataclasses.asdict(cfg.data))
    write_corpus(out / "corpus.jsonl", dataset.documents)
    write_queries(out / "queries_train.tsv", dataset.train_queries)
    write_queries(out / "queries_eval.tsv", dataset.eval_queries)
    write_qrels(out / "qrels.txt", dataset.qrels)
    write_samples(out / "stage1.jsonl", dataset.stage1_samples)
    write_samples(out / "stage2.jsonl", dataset.stage2_samples)
    _echo_config(out, cfg, "gen-data")
    print(f"gen-data: {len(dataset.documents)} docs, "
          f"{len(dataset.train_queries)} train / {len(dataset.eval_queries)} eval queries "
          f"-> {out}")
    return 0


def cmd_build_index(args) -> int:
    cfg = _effective_config(args)
    out = _outdir(args.out)
    corpus_path = _path(args.corpus)
    docs, vocab = load_corpus(corpus_path)
    checksum = sha256_file(corpus_path)
    index = InvertedIndex.build(docs, k1=cfg.retrieval.k1, b=cfg.retrieval.b)
    index.save(out / "bm25.idx", corpus_checksum=checksum)
    built = ["bm25.idx"]
    if args.dense:
        if not args.checkpoint:
            raise ConfigError("--dense requires --checkpoint for the encoder")
        models = load_checkpoint(_path(args.checkpoint))
        dense = DenseIndex.build(docs, models.encoder, corpus_checksum=checksum)
        dense.save(out / "dense.idx")
        built.append("dense.idx")
    _echo_config(out, cfg, "build-index", {"corpus": str(corpus_path),
                                           "corpus_checksum": checksum})
    print(f"build-index: {', '.join(built)} over {len(docs)} docs -> {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _effective_config(args)
    out = _outdir(args.out)
    data_dir = _path(args.data)
    docs, vocab = load_corpus(data_dir / "corpus.jsonl")
    doc_tokens = {d.doc_id: d.tokens for d in docs}
    stage1 = load_samples(data_dir / "stage1.jsonl")
    stage2 = load_samples(data_dir / "stage2.jsonl")
    models = build_model_pair(vocab, cfg.seed, **cfg.model.build_kwargs())

    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    report = TrainReport()
    stages = list(zip(cfg.stage_configs(), [stage1, stage2]))
    for stage_cfg in train_stages(models, stages, doc_tokens, cfg.optim, cfg.loss,
                                  cfg.seed, report):
        save_checkpoint(ckpt_dir / f"{stage_cfg.name}.ckpt", models,
                        {"stage": stage_cfg.name})
    save_checkpoint(ckpt_dir / "final.ckpt", models, {"stage": "final"})

    with (out / "metrics.jsonl").open("w", encoding="utf-8") as fh:
        for record in report.records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    _echo_config(out, cfg, "train", {"data": str(data_dir),
                                     "final_checksum": parameter_checksum(models)})
    print(f"train: {len(report.records)} steps recorded, checkpoints in {ckpt_dir}")
    return 0


def cmd_rerank(args) -> int:
    cfg = _effective_config(args)
    out = _outdir(args.out)
    models, _, doc_tokens = _load_model_and_corpus(args)
    queries = {q.query_id: q for q in load_queries(_path(args.queries))}
    lists = _load_candidate_lists(_path(args.candidates), doc_tokens, cfg.retrieval.top_k)

    runs = []
    for qid, cands in lists.items():
        if qid not in queries:
            raise ConfigError(f"candidate run references unknown query {qid!r}")
        query_tokens = models.vocab.encode(queries[qid].text)
        if args.mode == "sliding":
            runs.append(sliding_window_rerank(
                query_tokens, cands, models, window=args.window or cfg.retrieval.window,
                stride=args.stride or cfg.retrieval.stride, query_id=qid))
        else:
            runs.append(rerank_detailed(query_tokens, cands, models, query_id=qid).run)
    write_trec_run(out / "run.trec", runs)
    _write_trace(out, runs)
    report = efficiency_report(runs)
    (out / "report.txt").write_text(
        f"reranked {len(runs)} queries ({args.mode})\n{report.table_row()}\n",
        encoding="utf-8")
    _echo_config(out, cfg, "rerank", {"checkpoint": str(args.checkpoint),
                                      "candidates": str(args.candidates),
                                      "mode": args.mode})
    print(f"rerank: {len(runs)} queries ({args.mode}) -> {out / 'run.trec'}")
    return 0


def cmd_evaluate(args) -> int:
    runs = read_trec_run(_path(args.run))
    qrels = load_qrels(_path(args.qrels))
    result = mean_ndcg(runs, qrels, k=args.k)
    lines = [f"queries evaluated: {result.evaluated}",
             f"queries excluded (no relevant docs): {result.excluded}",
             f"nDCG@{args.k}: {result.mean:.6f}"]
    per_query = []
    for run in runs:
        value = ndcg_at_k(run, qrels, args.k)
        per_query.append(f"{run.query_id}\t{'n/a' if value is None else f'{value:.6f}'}")
    text = "\n".join(lines) + "\n\nper-query:\n" + "\n".join(per_query) + "\n"
    if args.out:
        out = _outdir(args.out)
        (out / "report.txt").write_text(text, encoding="utf-8")
        with (out / "metrics.jsonl").open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"metric": f"ndcg@{args.k}", "mean": result.mean,
                                 "evaluated": result.evaluated,
                                 "excluded": result.excluded}, sort_keys=True) + "\n")
    print(text, end="")
    return 0


def cmd_end_to_end(args) -> int:
    cfg = _effective_config(args)
    out = _outdir(args.out)
    models, _, doc_tokens = _load_model_and_corpus(args)
    queries = load_queries(_path(args.queries))
    bm25 = InvertedIndex.load(_path(args.bm25_index))
    dense = DenseIndex.load(_path(args.dense_index)) if args.dense_index else None
    corpus = ("--corpus", sha256_file(_path(args.corpus)))
    _check_provenance(args.bm25_index, {"corpus_checksum": bm25.corpus_checksum},
                      {"corpus_checksum": corpus})
    if dense is not None:
        # Indexes written before the encoder fingerprint recorded the whole
        # pair's checksum as encoder_checkpoint_id; they are still checked.
        _check_provenance(args.dense_index, dense.metadata,
                          {"encoder_sha256": ("--checkpoint", encoder_checksum(models.encoder)),
                           "encoder_checkpoint_id": ("--checkpoint", parameter_checksum(models)),
                           "corpus_checksum": corpus})

    first_runs, reranked_runs = [], []
    for q in queries:
        result = end_to_end(q.text, models, doc_tokens, bm25, dense, args.mode,
                            k=cfg.retrieval.top_k, query_id=q.query_id,
                            rrf_k=cfg.retrieval.rrf_k)
        first_runs.append(result.first_stage)
        reranked_runs.append(result.reranked)
    write_trec_run(out / "first_stage.trec", first_runs)
    write_trec_run(out / "run.trec", reranked_runs)
    _write_trace(out, reranked_runs)

    lines = [f"end-to-end mode={args.mode}, {len(queries)} queries, "
             f"top_k={cfg.retrieval.top_k}"]
    if args.qrels:
        qrels = load_qrels(_path(args.qrels))
        base = mean_ndcg(first_runs, qrels, k=10)
        rer = mean_ndcg(reranked_runs, qrels, k=10)
        lines.append(f"first-stage nDCG@10: {base.mean:.6f}")
        lines.append(f"reranked    nDCG@10: {rer.mean:.6f}")
    lines.append(efficiency_report(reranked_runs).table_row())
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _echo_config(out, cfg, "end-to-end", {"mode": args.mode,
                                          "checkpoint": str(args.checkpoint)})
    print("\n".join(lines))
    return 0


def cmd_ablate(args) -> int:
    cfg = _effective_config(args)
    out = _outdir(args.out)
    data_dir = _path(args.data)
    docs, vocab = load_corpus(data_dir / "corpus.jsonl")
    doc_tokens = {d.doc_id: d.tokens for d in docs}
    stage1 = load_samples(data_dir / "stage1.jsonl")
    stage2 = load_samples(data_dir / "stage2.jsonl")
    qrels = load_qrels(data_dir / "qrels.txt")
    eval_queries = load_queries(data_dir / "queries_eval.tsv")

    items = _bm25_eval_items(cfg, docs, doc_tokens, vocab, eval_queries)
    stage_cfgs = cfg.stage_configs()
    if len(stage_cfgs) != 2:
        raise ConfigError("ablate requires a two-stage config")
    rows = ablation_suite(vocab, doc_tokens, stage1, stage2, items, qrels,
                          model_kwargs=cfg.model.build_kwargs(),
                          stage1=stage_cfgs[0], stage2=stage_cfgs[1],
                          optim=cfg.optim, base_loss=cfg.loss, seed=cfg.seed)
    table = format_ablation_table(rows)
    (out / "report.txt").write_text(table + "\n", encoding="utf-8")
    with (out / "metrics.jsonl").open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps({"variant": row.variant, "ndcg": row.ndcg,
                                 "baseline": row.is_baseline}, sort_keys=True) + "\n")
    _echo_config(out, cfg, "ablate", {"data": str(data_dir)})
    print(table)
    return 0


def cmd_efficiency(args) -> int:
    trace_path = _path(args.trace)
    runs = []
    with trace_path.open("r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            run = RunList(query_id=rec["query_id"])
            run.counters = TokenCounter(
                processed_passage_tokens=rec["processed_passage_tokens"],
                generated_tokens=rec["generated_tokens"],
                candidates=rec["candidates"])
            runs.append(run)
    report = efficiency_report(runs)
    lines = [f"queries: {len(runs)}", report.table_row()]
    text = "\n".join(lines) + "\n"
    if args.out:
        (_outdir(args.out) / "report.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_order_exp(args) -> int:
    cfg = _effective_config(args)
    out = _outdir(args.out)
    models, docs, doc_tokens = _load_model_and_corpus(args)
    queries = load_queries(_path(args.queries))
    qrels = load_qrels(_path(args.qrels))
    items = _bm25_eval_items(cfg, docs, doc_tokens, models.vocab, queries)
    report = ordering_experiment(models, items, qrels, seed=cfg.seed)
    text = "\n".join(report.rows()) + f"\nseed: {report.seed}\n"
    (out / "report.txt").write_text(text, encoding="utf-8")
    with (out / "metrics.jsonl").open("w", encoding="utf-8") as fh:
        for name, value in report.ndcg.items():
            fh.write(json.dumps({"ordering": name, "ndcg": value,
                                 "seed": report.seed}, sort_keys=True) + "\n")
    _echo_config(out, cfg, "order-exp", {"checkpoint": str(args.checkpoint)})
    print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embrank",
        description="Compressed-passage listwise reranking experiments.")
    parser.add_argument("--version", action="version", version=f"embrank {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", help="JSON experiment config")
        if seed:
            p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("gen-data", help="generate a synthetic corpus and training samples")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("build-index", help="build BM25 (and optionally dense) indexes")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dense", action="store_true")
    p.add_argument("--checkpoint", help="encoder checkpoint for the dense index")
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("train", help="dual-stage training on generated data")
    common(p)
    p.add_argument("--data", required=True, help="gen-data output directory")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rerank", help="rerank candidate lists from a first-stage run")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--candidates", required=True, help="first-stage TREC run file")
    p.add_argument("--mode", choices=["single", "sliding"], default="single")
    p.add_argument("--window", type=int)
    p.add_argument("--stride", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("evaluate", help="nDCG@k of a TREC run against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("end-to-end", help="retrieve (bm25|dense|rrf) then rerank")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--bm25-index", required=True)
    p.add_argument("--dense-index")
    p.add_argument("--qrels")
    p.add_argument("--mode", choices=["bm25", "dense", "rrf"], default="bm25")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_end_to_end)

    p = sub.add_parser("ablate", help="train and evaluate every ablation variant")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("efficiency", help="aggregate token counters from a trace file")
    p.add_argument("--trace", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_efficiency)

    p = sub.add_parser("order-exp", help="nDCG under original/inverse/random input order")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_order_exp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EmbrankError, OSError) as exc:
        print(f"embrank {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
