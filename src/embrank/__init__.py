"""embrank: compressed-passage listwise reranking.

An encoder compresses each candidate passage into a single embedding that is
injected as one input token of a causal listwise reranker; fused passage
representations (hidden state + original embedding) are scored against the
end-of-sequence aggregation state by cosine similarity, with zero generated
tokens. Training jointly optimizes both models with a contrastive retrieval
loss and a pairwise ranking loss over two stages. Retrieval, rank fusion and
evaluation utilities complete the pipeline.
"""

__version__ = "0.1.0"

from .autodiff import Tensor, backward, cosine_rows, tensor
from .data import (Document, Qrels, Query, RankingSample, Vocabulary,
                   load_corpus, load_qrels, load_queries)
from .encoder import EncoderModel
from .errors import (ConfigError, DataFormatError, DegenerateInputError,
                     EmbrankError, NumericError, ShapeError, TrainingError)
from .evaluation import (EvalItem, ablation_suite, efficiency_report, mean_ndcg,
                         ndcg_at_k, ordering_experiment)
from .gradcheck import finite_diff_check, finite_diff_check_many
from .reranker import (ModelPair, RerankerModel, build_model_pair, fuse_residual,
                       rerank_embeddings)
from .retrieval import (DenseIndex, InvertedIndex, candidate_embeddings, end_to_end,
                        rrf_fuse, sliding_window_rerank)
from .runs import RunList, TokenCounter, read_trec_run, write_trec_run
from .synthetic import SyntheticDataset, generate_synthetic
from .training import (Adam, LossConfig, OptimConfig, StageConfig, TrainReport,
                       combined_loss, infonce_loss, ranknet_loss, train_stages)
from .transformer import CausalTransformer, ModelConfig
