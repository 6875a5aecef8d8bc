"""Loss closed forms, optimizer behavior, and the dual-stage loops."""

import math

import numpy as np
import pytest

import embrank.autodiff as ad
from embrank.autodiff import backward
from embrank.checkpoint import parameter_checksum
from embrank.errors import ConfigError, DegenerateInputError, TrainingError
from embrank.reranker import build_model_pair
from embrank.training import (Adam, LossConfig, OptimConfig, StageConfig,
                              _ensure_finite_loss, _trainable_params,
                              combined_loss, infonce_loss, ranknet_loss,
                              run_dual_stage, train_stage, train_step)

RECORD_KEYS = ("infonce", "ranknet", "combined", "grad_norm")


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def rows(*vectors):
    """The [n, d] matrix of the given vectors."""
    return ad.tensor(np.array(vectors, dtype=np.float64))


class TestInfoNCE:
    def test_uniform_similarities_three_negatives(self):
        """All cosines equal: softmax over 4 slots is uniform, loss = ln 4."""
        v = [1.0, 0.0]
        loss = infonce_loss(rows(v), [rows(v, v, v, v)], tau1=0.05)
        assert loss.item() == pytest.approx(math.log(4.0), abs=1e-10)

    def test_zero_negatives_gives_zero(self):
        q = [0.3, 0.4]
        p = [-1.0, 2.0]
        loss = infonce_loss(rows(q), [rows(p)], tau1=0.05)
        assert loss.item() == pytest.approx(0.0, abs=1e-15)

    def test_separated_closed_form(self):
        """s+ = 1, one negative at s- = 0, tau 0.05: loss = ln(1 + e^-20)."""
        q = [1.0, 0.0]
        pos = [2.0, 0.0]
        neg = [0.0, 3.0]
        loss = infonce_loss(rows(q), [rows(pos, neg)], tau1=0.05)
        assert loss.item() == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-10)

    def test_batch_average(self):
        v = [1.0, 0.0]
        single = infonce_loss(rows(v), [rows(v, v)], tau1=0.05).item()
        double = infonce_loss(rows(v, v), [rows(v, v), rows(v, v)], tau1=0.05).item()
        assert double == pytest.approx(single, abs=1e-12)

    def test_monotone_in_positive_similarity(self):
        q = [1.0, 0.0]
        neg = unit([1.0, 1.0])
        angles = [0.2, 0.5, 1.0, 1.4]
        losses = [infonce_loss(rows(q), [rows(unit([math.cos(a), math.sin(a)]), neg)]).item()
                  for a in angles]
        assert losses == sorted(losses)  # larger angle -> smaller s+ -> larger loss

    def test_monotone_in_negative_similarity(self):
        q = [1.0, 0.0]
        pos = unit([1.0, 0.2])
        angles = [1.4, 1.0, 0.5, 0.2]
        losses = [infonce_loss(rows(q), [rows(pos, unit([math.cos(a), math.sin(a)]))]).item()
                  for a in angles]
        assert losses == sorted(losses)  # closer negative -> larger loss

    def test_zero_norm_embedding_rejected(self):
        with pytest.raises(DegenerateInputError):
            infonce_loss(rows([0.0, 0.0]), [rows([1.0, 0.0])])

    def test_gradient_reaches_query_embedding(self):
        q = ad.param([[0.5, 0.5]])
        pos = [1.0, 0.1]
        neg = [-0.4, 0.8]
        backward(infonce_loss(q, [rows(pos, neg)], tau1=0.05))
        assert q.grad is not None and np.any(q.grad != 0.0)


class TestRankNet:
    def test_equal_scores_pay_ln2_per_pair(self):
        """Labels 0,1,2 give three ordered pairs; equal scores cost ln 2 each."""
        loss = ranknet_loss([0.4, 0.4, 0.4], [0, 1, 2], tau2=0.05)
        assert loss.item() == pytest.approx(3.0 * math.log(2.0), abs=1e-10)

    def test_perfect_separation_near_zero(self):
        loss = ranknet_loss([0.99, 0.0, -0.99], [0, 1, 2], tau2=0.05)
        assert loss.item() < 1e-6

    def test_three_candidate_closed_form(self):
        """Scores (0.9, 0.5, 0.1) with labels (0, 1, 2) at tau 0.05:
        ln(1+e^-8) + ln(1+e^-16) + ln(1+e^-8)."""
        expected = 2.0 * math.log1p(math.exp(-8.0)) + math.log1p(math.exp(-16.0))
        loss = ranknet_loss([0.9, 0.5, 0.1], [0, 1, 2], tau2=0.05)
        assert loss.item() == pytest.approx(expected, rel=1e-12)
        assert loss.item() == pytest.approx(6.71e-4, rel=1e-2)

    def test_tied_labels_contribute_nothing(self):
        base = ranknet_loss([0.9, 0.2, 0.1], [0, 1, 1], tau2=0.05).item()
        # moving the tied pair's relative scores around changes nothing they owe
        swapped = ranknet_loss([0.9, 0.1, 0.2], [0, 1, 1], tau2=0.05).item()
        pair_02 = math.log1p(math.exp((0.1 - 0.9) / 0.05))
        pair_01 = math.log1p(math.exp((0.2 - 0.9) / 0.05))
        assert base == pytest.approx(pair_01 + pair_02, rel=1e-12)
        assert swapped == pytest.approx(pair_01 + pair_02, rel=1e-12)

    def test_candidate_order_irrelevant(self):
        """Permuting (scores, labels) together leaves the pair set, so the loss,
        unchanged within 1e-9."""
        rng = np.random.default_rng(21)
        scores = rng.uniform(-1, 1, size=8).tolist()
        labels = rng.integers(0, 4, size=8).tolist()
        if len(set(labels)) == 1:
            labels[0] = labels[0] + 1
        base = ranknet_loss(scores, labels, tau2=0.05).item()
        for _ in range(10):
            perm = rng.permutation(8)
            loss = ranknet_loss([scores[i] for i in perm],
                                [labels[i] for i in perm], tau2=0.05).item()
            assert loss == pytest.approx(base, abs=1e-9)

    def test_no_orderable_pair_is_an_error(self):
        with pytest.raises(DegenerateInputError):
            ranknet_loss([0.5, 0.1], [1, 1], tau2=0.05)

    def test_single_candidate_is_an_error(self):
        with pytest.raises(DegenerateInputError):
            ranknet_loss([0.5], [0], tau2=0.05)


class TestCombined:
    def test_lambda_zero_equals_ranknet(self):
        inf = ad.tensor(2.7)
        rk = ad.tensor(0.9)
        assert combined_loss(inf, rk, 0.0).item() == rk.item()

    def test_arithmetic(self):
        assert combined_loss(ad.tensor(2.0), ad.tensor(3.0), 0.1).item() == pytest.approx(3.2, abs=1e-15)

    def test_gradient_linearity(self, tiny_models, tiny_vocab):
        """grad(lam*I + R) = lam*grad(I) + grad(R) within 1e-10, parameter-wise."""
        vocab = tiny_vocab
        docs = [vocab.encode(t) for t in ("alpha beta", "epsilon zeta", "theta iota")]
        query = vocab.encode("alpha beta")
        lam = 0.1

        def forward_parts():
            embs = tiny_models.encoder.batch_encode(docs)
            q = tiny_models.encoder.batch_encode([query])
            out = tiny_models.reranker.forward(tiny_models.instruction_ids(), query, embs)
            inf = infonce_loss(q, [embs], 0.05)
            rk = ranknet_loss(out.score_tensor, [0, 1, 2], 0.05)
            return inf, rk

        params = _trainable_params(tiny_models)

        def grads_of(build):
            for t in params.values():
                t.grad = None
            backward(build())
            return {k: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                    for k, t in params.items()}

        g_inf = grads_of(lambda: forward_parts()[0])
        g_rk = grads_of(lambda: forward_parts()[1])
        g_combined = grads_of(lambda: combined_loss(*forward_parts(), lam))
        for k in params:
            np.testing.assert_allclose(g_combined[k], lam * g_inf[k] + g_rk[k],
                                       atol=1e-10)


class TestAdam:
    def test_zero_lr_is_identity_on_params(self, tiny_models):
        params = _trainable_params(tiny_models)
        before = {k: t.data.copy() for k, t in params.items()}
        opt = Adam(params, lr=0.0)
        for t in params.values():
            t.grad = np.ones_like(t.data)
        opt.clip_gradients()
        opt.step()
        for k, t in params.items():
            np.testing.assert_array_equal(t.data, before[k])

    def test_step_moves_against_gradient(self):
        p = ad.param([1.0, 1.0])
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.array([1.0, -1.0])
        opt.step()
        assert p.data[0] < 1.0 < p.data[1]

    def test_step_replaces_the_array_with_the_in_place_values(self):
        """One step equals ``data -= lr * update`` bit for bit, in a new
        read-only array."""
        rng = np.random.default_rng(0)
        p = ad.param(rng.normal(size=(3, 4)))
        before, g = p.data, rng.normal(size=(3, 4))
        cfg = OptimConfig()
        opt = Adam({"p": p}, lr=0.1, config=cfg)
        p.grad = g.copy()
        opt.step()
        m, v = (1.0 - cfg.beta1) * g, (1.0 - cfg.beta2) * g * g
        update = (m / (1.0 - cfg.beta1)) / (np.sqrt(v / (1.0 - cfg.beta2)) + cfg.eps)
        expected = before.copy()
        expected -= 0.1 * update
        assert p.data is not before
        np.testing.assert_array_equal(p.data, expected)
        with pytest.raises(ValueError):
            p.data[0, 0] = 0.0

    def test_clip_bounds_global_norm(self):
        p = ad.param(np.zeros(4))
        opt = Adam({"p": p}, lr=0.1, config=OptimConfig(clip_norm=1.0))
        p.grad = np.full(4, 10.0)
        pre = opt.clip_gradients()
        assert pre == pytest.approx(20.0)
        assert float(np.linalg.norm(p.grad)) == pytest.approx(1.0, rel=1e-12)


class TestTrainingLoops:
    def test_loss_decreases_on_repeated_sample(self, small_dataset, small_doc_tokens):
        models = build_model_pair(small_dataset.vocab, seed=2, d_model=16,
                                  n_layers=1, n_heads=2, reranker_max_len=64)
        sample = small_dataset.stage2_samples[0]
        cfg = LossConfig()
        opt = Adam(_trainable_params(models), lr=1e-3)
        first = train_step(models, [sample], small_doc_tokens, opt, cfg, 0, "s")
        for i in range(5):
            last = train_step(models, [sample], small_doc_tokens, opt, cfg, i + 1, "s")
        assert last["combined"] < first["combined"]

    def test_frozen_encoder_checksum_unchanged(self, small_dataset, small_doc_tokens):
        models = build_model_pair(small_dataset.vocab, seed=3, d_model=16,
                                  n_layers=1, n_heads=2, reranker_max_len=64)
        enc_before = {k: t.data.copy() for k, t in models.encoder.parameters().items()}
        rer_before = parameter_checksum(models)
        cfg = LossConfig(encoder_trainable=False)
        train_stage(models, small_dataset.stage2_samples[:4], small_doc_tokens,
                    StageConfig("stage2", epochs=1, batch_size=2, lr=1e-3),
                    OptimConfig(), cfg, seed=0)
        for k, t in models.encoder.parameters().items():
            np.testing.assert_array_equal(t.data, enc_before[k])
        assert parameter_checksum(models) != rer_before  # reranker did move

    def test_deterministic_under_seed(self, small_dataset, small_doc_tokens):
        def run():
            models = build_model_pair(small_dataset.vocab, seed=5, d_model=16,
                                      n_layers=1, n_heads=2, reranker_max_len=64)
            run_dual_stage(models, small_dataset.stage1_samples[:4],
                           small_dataset.stage2_samples[:4], small_doc_tokens,
                           StageConfig("stage1", epochs=1, batch_size=2, lr=1e-3),
                           StageConfig("stage2", epochs=1, batch_size=2, lr=1e-3),
                           OptimConfig(), LossConfig(), seed=5)
            return parameter_checksum(models)
        assert run() == run()

    def test_skip_both_stages_leaves_models_at_init(self, small_dataset, small_doc_tokens):
        models = build_model_pair(small_dataset.vocab, seed=6, d_model=16,
                                  n_layers=1, n_heads=2, reranker_max_len=64)
        before = parameter_checksum(models)
        report = run_dual_stage(models, small_dataset.stage1_samples,
                                small_dataset.stage2_samples, small_doc_tokens,
                                StageConfig("stage1"), StageConfig("stage2"),
                                OptimConfig(), LossConfig(), seed=6,
                                skip_stage1=True, skip_stage2=True)
        assert parameter_checksum(models) == before
        assert report.stages == [] and report.records == []

    def test_stage_order_and_dataset_identity_recorded(self, small_dataset, small_doc_tokens):
        models = build_model_pair(small_dataset.vocab, seed=7, d_model=16,
                                  n_layers=1, n_heads=2, reranker_max_len=64)
        report = run_dual_stage(models, small_dataset.stage1_samples[:2],
                                small_dataset.stage2_samples[:2], small_doc_tokens,
                                StageConfig("stage1", epochs=1, batch_size=2),
                                StageConfig("stage2", epochs=1, batch_size=2),
                                OptimConfig(), LossConfig(), seed=7)
        assert [s["name"] for s in report.stages] == ["stage1", "stage2"]
        assert report.stages[0]["samples"] == 2
        stages_in_records = [r["stage"] for r in report.records]
        assert stages_in_records == sorted(stages_in_records)

    def test_encoder_gradient_reach_through_ranknet_alone(self, tiny_models, tiny_vocab):
        """With joint training on, the pairwise loss alone back-propagates into
        encoder parameters via the injected embeddings and the residual path."""
        vocab = tiny_vocab
        docs = [vocab.encode(t) for t in ("alpha beta", "epsilon zeta", "theta iota")]
        query = vocab.encode("alpha")
        embs = tiny_models.encoder.batch_encode(docs)
        out = tiny_models.reranker.forward(tiny_models.instruction_ids(), query, embs)
        backward(ranknet_loss(out.score_tensor, [0, 1, 2], 0.05))
        grads = [t.grad for t in tiny_models.encoder.parameters().values()]
        assert any(g is not None and np.any(g != 0.0) for g in grads)

    def test_encoder_loss_disabled_traces_zero_multiplier(self, small_dataset, small_doc_tokens):
        models = build_model_pair(small_dataset.vocab, seed=8, d_model=16,
                                  n_layers=1, n_heads=2, reranker_max_len=64)
        cfg = LossConfig(encoder_loss_enabled=False)
        opt = Adam(_trainable_params(models), lr=1e-3)
        record = train_step(models, [small_dataset.stage2_samples[0]],
                            small_doc_tokens, opt, cfg, 0, "s")
        assert record["lambda_effective"] == 0.0
        assert record["combined"] == pytest.approx(record["ranknet"], abs=1e-15)
        assert record["infonce"] > 0.0  # still computed for the trace

    def test_nan_loss_aborts_with_step_index(self):
        with pytest.raises(TrainingError) as err:
            _ensure_finite_loss(float("nan"), step=37)
        assert "37" in str(err.value)

    def test_no_orderable_samples_rejected(self, small_dataset, small_doc_tokens):
        models = build_model_pair(small_dataset.vocab, seed=9, d_model=16,
                                  n_layers=1, n_heads=2, reranker_max_len=64)
        import copy
        degenerate = copy.deepcopy(small_dataset.stage2_samples[:1])
        for c in degenerate[0].candidates:
            c.rank_label = 0
        with pytest.raises(ConfigError):
            train_stage(models, degenerate, small_doc_tokens,
                        StageConfig("stage2", epochs=1), OptimConfig(), LossConfig(),
                        seed=0)


def every_use_step(models, batch, doc_tokens, loss_cfg):
    """``train_step``'s losses and backward with every candidate and query use
    encoded as its own ``batch_encode`` row; returns the four record values."""
    query_ids = [models.vocab.encode(sample.query_text) for sample in batch]
    passages = [doc_tokens[c.doc_id] for sample in batch for c in sample.candidates]
    embeddings = models.encoder.batch_encode(passages + query_ids)
    candidate_embs, ranknet_terms, lo = [], [], 0
    for sample, ids in zip(batch, query_ids):
        sample_rows = np.arange(lo, lo + len(sample.candidates))
        lo += len(sample.candidates)
        output = models.reranker.forward(models.instruction_ids(), ids,
                                         ad.take_rows(embeddings, sample_rows))
        contrast = [sample.positive_index, *sample.negative_indices]
        candidate_embs.append(ad.take_rows(embeddings, sample_rows[contrast]))
        ranknet_terms.append(ranknet_loss(output.score_tensor,
                                          [c.rank_label for c in sample.candidates],
                                          loss_cfg.tau2))
    infonce = infonce_loss(ad.take_rows(embeddings, np.arange(lo, lo + len(batch))),
                           candidate_embs, loss_cfg.tau1)
    ranknet = ranknet_terms[0]
    for term in ranknet_terms[1:]:
        ranknet = ad.add(ranknet, term)
    ranknet = ad.mul(ranknet, 1.0 / len(batch))
    combined = combined_loss(infonce, ranknet, loss_cfg.effective_lambda())
    backward(combined)
    norm = ad.global_grad_norm(_trainable_params(models).values())
    return dict(zip(RECORD_KEYS, (infonce.item(), ranknet.item(), combined.item(), norm)))


def test_each_unique_sequence_encoded_once(small_dataset, small_doc_tokens, monkeypatch):
    """Two lists of one query that share candidates, and a third sample that
    shares some of them: the step encodes each token sequence once, its losses
    and gradient norm equal those of encoding every use bit for bit, and its
    gradients, which now sum over the uses inside the backward, are within
    1e-12 of that reference."""
    first = small_dataset.stage2_samples[0]
    again = next(s for s in small_dataset.stage1_samples if s.query_id == first.query_id)
    batch = [first, again, small_dataset.stage2_samples[1]]
    uses = [tuple(small_doc_tokens[c.doc_id]) for s in batch for c in s.candidates]
    queries = [tuple(small_dataset.vocab.encode(s.query_text)) for s in batch]
    assert len(set(uses)) < len(uses) and len(set(queries)) < len(queries)

    def fresh():
        return build_model_pair(small_dataset.vocab, seed=4, d_model=16, n_layers=1,
                                n_heads=2, reranker_max_len=64)

    cfg = LossConfig()
    reference_models = fresh()
    want = every_use_step(reference_models, batch, small_doc_tokens, cfg)
    want_grads = {k: t.grad for k, t in _trainable_params(reference_models).items()}

    models = fresh()
    encoded = []
    real = models.encoder.batch_encode

    def spy(passages):
        encoded.extend(tuple(p) for p in passages)
        return real(passages)
    monkeypatch.setattr(models.encoder, "batch_encode", spy)
    params = _trainable_params(models)
    opt = Adam(params, lr=0.0, config=OptimConfig(clip_norm=0.0))
    record = train_step(models, batch, small_doc_tokens, opt, cfg, 0, "s")

    assert sorted(encoded) == sorted(set(uses + queries))
    assert [record[k].hex() for k in RECORD_KEYS] == [want[k].hex() for k in RECORD_KEYS]
    for k, t in params.items():
        np.testing.assert_allclose(t.grad, want_grads[k], rtol=0, atol=1e-12, err_msg=k)
