"""Input assembly, causality, residual fusion, scoring, and counters."""

import numpy as np
import pytest

import embrank.autodiff as ad
from embrank.autodiff import backward
from embrank.errors import ConfigError, DegenerateInputError, ShapeError
from embrank.reranker import build_model_pair, fuse_residual, rerank_embeddings

from helpers import rerank_pairs


@pytest.fixture
def vocab(tiny_vocab):
    return tiny_vocab


def random_embeddings(models, n, seed=0):
    rng = np.random.default_rng(seed)
    d = models.reranker.config.d_model
    return ad.tensor(rng.normal(size=(n, d)))


def docs_from(vocab, texts):
    return [(f"d{i}", vocab.encode(t)) for i, t in enumerate(texts)]


class TestAssembly:
    def test_sequence_length_counts(self, tiny_models, vocab):
        inst = tiny_models.instruction_ids()
        query = vocab.encode("alpha beta")
        rin = tiny_models.reranker.assemble_input(inst, query, random_embeddings(tiny_models, 1))
        assert rin.x.shape[0] == len(inst) + len(query) + 1 + len(query) + 1
        assert rin.eos_position == rin.x.shape[0] - 1

    def test_passage_positions_contiguous(self, tiny_models, vocab):
        inst = tiny_models.instruction_ids()
        query = vocab.encode("alpha")
        rin = tiny_models.reranker.assemble_input(inst, query, random_embeddings(tiny_models, 5))
        start = len(inst) + len(query)
        assert rin.passage_positions == list(range(start, start + 5))

    def test_injected_slot_is_embedding_plus_position(self, tiny_models, vocab):
        """Each passage slot holds e_i + positional embedding, bit for bit."""
        inst = tiny_models.instruction_ids()
        query = vocab.encode("alpha beta")
        embs = random_embeddings(tiny_models, 3, seed=4)
        rin = tiny_models.reranker.assemble_input(inst, query, embs)
        pos_table = tiny_models.reranker.transformer.params["pos_emb"].data
        for i, p in enumerate(rin.passage_positions):
            np.testing.assert_array_equal(rin.x.data[p], embs.data[i] + pos_table[p])

    def test_wrong_embedding_dim_rejected(self, tiny_models, vocab):
        bad = ad.tensor(np.zeros((1, tiny_models.reranker.config.d_model + 1)))
        with pytest.raises(ShapeError):
            tiny_models.reranker.assemble_input(tiny_models.instruction_ids(),
                                                vocab.encode("alpha"), bad)

    def test_budget_overflow_rejected(self, tiny_models, vocab):
        n = tiny_models.reranker.config.max_seq_len  # cannot also fit query/eos
        with pytest.raises(ShapeError):
            tiny_models.reranker.assemble_input(tiny_models.instruction_ids(),
                                                vocab.encode("alpha"),
                                                random_embeddings(tiny_models, n))

    def test_zero_candidates_rejected(self, tiny_models, vocab):
        with pytest.raises(ShapeError):
            tiny_models.reranker.assemble_input(tiny_models.instruction_ids(),
                                                vocab.encode("alpha"),
                                                random_embeddings(tiny_models, 0))


class TestCausality:
    @staticmethod
    def _assert_earlier_states_ignore_later_passages(models, vocab):
        inst = models.instruction_ids()
        query = vocab.encode("alpha beta")
        rng = np.random.default_rng(11)
        d = models.reranker.config.d_model
        base = ad.tensor(rng.normal(size=(4, d)))
        rin = models.reranker.assemble_input(inst, query, base)
        h = models.reranker.contextualize(rin)
        changed = base.data.copy()
        changed[2] = rng.normal(size=d)
        changed[3] = rng.normal(size=d)
        rin2 = models.reranker.assemble_input(inst, query, ad.tensor(changed))
        h2 = models.reranker.contextualize(rin2)
        for p in rin.passage_positions[:2]:
            np.testing.assert_array_equal(h.data[p], h2.data[p])
        return h

    def test_earlier_hidden_states_ignore_later_passages(self, tiny_models, vocab):
        """Bitwise: h at passage position i is invariant to any change in e_j, j > i."""
        assert self._assert_earlier_states_ignore_later_passages(tiny_models, vocab).requires_grad

    def test_earlier_hidden_states_ignore_later_passages_without_a_tape(self, tiny_models, vocab):
        """The same on the tape-free forward, whose attention keeps no head copies."""
        with ad.no_grad():
            h = self._assert_earlier_states_ignore_later_passages(tiny_models, vocab)
        assert not h.requires_grad

    def test_eos_state_sees_every_passage(self, tiny_models, vocab):
        inst = tiny_models.instruction_ids()
        query = vocab.encode("alpha")
        rng = np.random.default_rng(12)
        d = tiny_models.reranker.config.d_model
        base = ad.tensor(rng.normal(size=(3, d)))
        rin = tiny_models.reranker.assemble_input(inst, query, base)
        h_eos = tiny_models.reranker.contextualize(rin).data[rin.eos_position]
        for i in range(3):
            changed = base.data.copy()
            changed[i] = rng.normal(size=d)
            rin2 = tiny_models.reranker.assemble_input(inst, query, ad.tensor(changed))
            h_eos2 = tiny_models.reranker.contextualize(rin2).data[rin2.eos_position]
            assert np.max(np.abs(h_eos - h_eos2)) > 0.0

    def test_single_candidate_runs_end_to_end(self, tiny_models, vocab):
        run = rerank_pairs(vocab.encode("alpha"), docs_from(vocab, ["epsilon zeta"]),
                           tiny_models).run
        assert run.doc_ids() == ["d0"]


class TestFuseResidual:
    def test_zero_hidden_gives_embedding(self):
        h = ad.tensor(np.zeros(4))
        e = ad.tensor([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(fuse_residual(h, e).data, e.data)

    def test_zero_embedding_gives_hidden(self):
        h = ad.tensor([1.0, -1.0])
        e = ad.tensor(np.zeros(2))
        np.testing.assert_array_equal(fuse_residual(h, e).data, h.data)

    def test_elementwise_sum(self):
        out = fuse_residual(ad.tensor([1.0, 2.0]), ad.tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_ablation_flags(self):
        h = ad.tensor([1.0, 2.0])
        e = ad.tensor([3.0, 4.0])
        np.testing.assert_array_equal(fuse_residual(h, e, residual=False).data, h.data)
        np.testing.assert_array_equal(fuse_residual(h, e, hidden_state=False).data, e.data)
        with pytest.raises(ConfigError):
            fuse_residual(h, e, residual=False, hidden_state=False)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            fuse_residual(ad.tensor([1.0]), ad.tensor([1.0, 2.0]))

    def test_residual_gradient_shortcut(self, tiny_models, vocab):
        """With the hidden path cut (run under ``no_grad``), e_i still receives
        gradient through the direct residual term."""
        inst = tiny_models.instruction_ids()
        query = vocab.encode("alpha")
        rng = np.random.default_rng(13)
        d = tiny_models.reranker.config.d_model
        e = ad.param(rng.normal(size=(1, d)))
        rin = tiny_models.reranker.assemble_input(inst, query, e)
        with ad.no_grad():
            hidden = tiny_models.reranker.contextualize(rin)
        h_p = ad.take_rows(hidden, rin.passage_positions)
        h_eos = ad.pick(hidden, rin.eos_position)
        r = fuse_residual(h_p, e)
        backward(ad.sum_all(ad.cosine_rows(h_eos, r)))
        assert e.grad is not None and np.any(e.grad != 0.0)


class TestScore:
    def test_parallel_scores_one_and_ranks_first(self, tiny_models):
        h_eos = ad.tensor([1.0, 2.0, 3.0, 0.0])
        fused = ad.tensor([[-3.0, 1.0, 0.0, 2.0], [2.0, 4.0, 6.0, 0.0]])
        scores, _, perm = tiny_models.reranker.score(h_eos, fused)
        assert scores[1] == pytest.approx(1.0, abs=1e-12)
        assert perm[0] == 1

    def test_antiparallel_scores_minus_one_and_ranks_last(self, tiny_models):
        h_eos = ad.tensor([1.0, 0.0])
        fused = ad.tensor([[-1.0, 0.0], [0.5, 0.5]])
        scores, _, perm = tiny_models.reranker.score(h_eos, fused)
        assert scores[0] == pytest.approx(-1.0, abs=1e-12)
        assert perm[-1] == 0

    def test_permutation_invariant_to_eos_rescaling(self, tiny_models):
        rng = np.random.default_rng(14)
        h = rng.normal(size=6)
        fused = ad.tensor(rng.normal(size=(5, 6)))
        _, _, perm1 = tiny_models.reranker.score(ad.tensor(h), fused)
        _, _, perm5 = tiny_models.reranker.score(ad.tensor(5.0 * h), fused)
        assert perm1 == perm5

    def test_ties_break_by_input_position(self, tiny_models):
        h_eos = ad.tensor([1.0, 0.0])
        same = ad.tensor([[2.0, 0.0], [3.0, 0.0], [0.0, 1.0]])
        scores, _, perm = tiny_models.reranker.score(h_eos, same)
        assert scores[0] == scores[1] == pytest.approx(1.0, abs=1e-12)
        assert perm == [0, 1, 2]

    def test_zero_norm_fused_rejected(self, tiny_models):
        with pytest.raises(DegenerateInputError):
            tiny_models.reranker.score(ad.tensor([1.0, 0.0]), ad.tensor([[0.0, 0.0]]))


class TestRerank:
    def test_counters_measure_single_pass(self, tiny_models, vocab):
        docs = docs_from(vocab, ["alpha beta", "epsilon zeta", "theta iota"])
        run = rerank_pairs(vocab.encode("alpha"), docs, tiny_models).run
        assert run.counters.processed_passage_tokens == 3
        assert run.counters.candidates == 3
        assert run.counters.generated_tokens == 0

    def test_output_is_permutation_of_inputs(self, tiny_models, vocab):
        texts = ["alpha beta", "epsilon zeta", "theta", "beta delta", "gamma mu"]
        run = rerank_pairs(vocab.encode("alpha beta"), docs_from(vocab, texts),
                           tiny_models).run
        assert sorted(run.doc_ids()) == [f"d{i}" for i in range(5)]

    def test_scores_sorted_descending_resort_is_noop(self, tiny_models, vocab):
        texts = ["alpha beta", "epsilon zeta", "theta iota kappa", "beta delta"]
        run = rerank_pairs(vocab.encode("alpha"), docs_from(vocab, texts), tiny_models).run
        resorted = sorted(run.entries, key=lambda e: -e.score)
        assert [e.doc_id for e in resorted] == run.doc_ids()

    def test_empty_documents_rejected(self, tiny_models, vocab):
        with pytest.raises(DegenerateInputError):
            rerank_pairs(vocab.encode("alpha"), [], tiny_models)

    def test_rows_and_ids_of_another_count_rejected(self, tiny_models, vocab):
        with pytest.raises(ShapeError, match="3 embeddings for 2 documents"):
            rerank_embeddings(vocab.encode("alpha"), ["d0", "d1"],
                              random_embeddings(tiny_models, 3), tiny_models)

    def test_detailed_exposes_graph_tensors(self, tiny_models, vocab):
        docs = docs_from(vocab, ["alpha beta", "epsilon zeta"])
        result = rerank_pairs(vocab.encode("alpha"), docs, tiny_models)
        assert result.output.score_tensor.shape == (2,)
        assert result.embeddings.shape == (2, tiny_models.reranker.config.d_model)
        assert result.output.h_eos.shape == (tiny_models.reranker.config.d_model,)

    def test_input_permutation_still_yields_valid_permutation(self, tiny_models, vocab):
        """Order sensitivity is allowed; output validity under any input order is not."""
        texts = ["alpha beta", "epsilon zeta", "theta iota", "beta delta", "gamma"]
        docs = docs_from(vocab, texts)
        rng = np.random.default_rng(15)
        for _ in range(5):
            perm = rng.permutation(len(docs))
            shuffled = [docs[i] for i in perm]
            run = rerank_pairs(vocab.encode("alpha"), shuffled, tiny_models).run
            assert sorted(run.doc_ids()) == sorted(d for d, _ in docs)


class TestReadRows:
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("n", [1, 4])
    def test_forward_equals_the_unpruned_forward(self, vocab, n_layers, n):
        """``forward`` reads only the passage slots and EOS from the last block;
        its hidden states, fused rows and scores equal those read from the
        full ``contextualize`` output bit for bit, down to one candidate."""
        models = build_model_pair(vocab, seed=31, d_model=16, n_layers=n_layers, n_heads=2,
                                  reranker_max_len=64, ffn_mult=2)
        rer, query = models.reranker, vocab.encode("alpha beta")
        embeddings = random_embeddings(models, n, seed=n)
        out = rer.forward(models.instruction_ids(), query, embeddings)
        rin = rer.assemble_input(models.instruction_ids(), query, embeddings)
        full = rer.contextualize(rin).data
        np.testing.assert_array_equal(out.h_eos.data, full[rin.eos_position])
        np.testing.assert_array_equal(out.fused.data,
                                      full[rin.passage_positions] + embeddings.data)
        scores, _, permutation = rer.score(ad.tensor(full[rin.eos_position]),
                                           ad.tensor(full[rin.passage_positions]
                                                     + embeddings.data))
        assert out.scores == scores and out.permutation == permutation
