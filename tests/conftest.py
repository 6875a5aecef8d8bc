import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from embrank.data import Vocabulary
from embrank.encoder import EncoderModel
from embrank.reranker import build_model_pair
from embrank.synthetic import generate_synthetic


@pytest.fixture
def encode_calls(monkeypatch):
    """The passages of every ``EncoderModel.batch_encode`` call made in the
    test, one list of token tuples per call."""
    calls = []
    original = EncoderModel.batch_encode

    def spy(self, passages):
        calls.append([tuple(p) for p in passages])
        return original(self, passages)
    monkeypatch.setattr(EncoderModel, "batch_encode", spy)
    return calls


TINY_TEXTS = [
    "alpha beta gamma delta",
    "epsilon zeta eta",
    "theta iota kappa alpha",
    "beta delta zeta lambda",
    "gamma epsilon theta mu",
]


@pytest.fixture(scope="session")
def tiny_vocab():
    return Vocabulary.build(TINY_TEXTS)


@pytest.fixture
def tiny_models(tiny_vocab):
    """Fresh small model pair per test; tests may mutate parameters freely."""
    return build_model_pair(tiny_vocab, seed=17, d_model=16, n_layers=1, n_heads=2,
                            encoder_max_len=12, reranker_max_len=64, ffn_mult=2)


@pytest.fixture(scope="session")
def small_dataset():
    """Shared synthetic dataset; treated as immutable by every consumer."""
    return generate_synthetic(seed=11, n_topics=3, n_docs=90, n_queries=12,
                              n_eval_queries=3, stage1_candidates=18,
                              stage1_per_query=1)


@pytest.fixture(scope="session")
def small_doc_tokens(small_dataset):
    return {d.doc_id: d.tokens for d in small_dataset.documents}
