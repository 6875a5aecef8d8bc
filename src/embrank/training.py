"""Ranking losses, Adam optimizer, the training step and the stage loop.

The combined objective is lambda * contrastive retrieval loss + pairwise
ranking loss. Temperatures default to 0.05 for both terms and the balance
factor to 0.1. Stage 1 runs coarse alignment on larger noisy candidate
lists, stage 2 fine refinement on 1-positive/15-negative samples; both
stages optimize the same combined objective. ``train_stages`` runs any plan
of stages; a stage given 0 epochs is removed from the run and trains
nothing, which is how the stage-removal ablations are built.

Reference hyperparameters for the full-scale setting (batch size 128,
learning rate 6e-6) are documented here but deliberately not defaulted:
they target multi-billion-parameter backbones and stall the toy models,
so the toy default is lr 3e-4 with per-step batches of 8.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward
from .data import RankingSample, has_orderable_pair, validate_sample
from .errors import ConfigError, DegenerateInputError, TrainingError
from .reranker import ModelPair

REFERENCE_FULL_SCALE = {"batch_size": 128, "learning_rate": 6e-6}


@dataclass
class LossConfig:
    tau1: float = 0.05
    tau2: float = 0.05
    lam: float = 0.1
    encoder_loss_enabled: bool = True
    residual_enabled: bool = True
    hidden_state_enabled: bool = True
    encoder_trainable: bool = True

    def validate(self) -> None:
        if self.tau1 <= 0 or self.tau2 <= 0:
            raise ConfigError("temperatures tau1 and tau2 must be positive")
        if self.lam < 0:
            raise ConfigError("lambda must be >= 0")
        if not self.residual_enabled and not self.hidden_state_enabled:
            raise ConfigError("residual_enabled and hidden_state_enabled cannot both be off")

    def effective_lambda(self) -> float:
        return self.lam if self.encoder_loss_enabled else 0.0


@dataclass
class StageConfig:
    name: str
    epochs: int = 3
    batch_size: int = 8
    lr: float = 3e-4


@dataclass
class OptimConfig:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    clip_norm: float = 1.0

    def validate(self) -> None:
        """Adam divides by 1 - beta**t and by sqrt(v) + eps: a beta of 1 makes
        every first update 0/0, and an eps of 0 that of a zero gradient."""
        for name, ok, rule in (("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
                               ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
                               ("eps", self.eps > 0, "> 0"),
                               ("weight_decay", self.weight_decay >= 0, ">= 0"),
                               ("clip_norm", self.clip_norm >= 0, ">= 0")):
            if not ok:
                raise ConfigError(f"{name}: must be {rule}, got {getattr(self, name)!r}")


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else ad.tensor(x)


def infonce_loss(query_embs, candidate_embs, tau1: float = 0.05) -> Tensor:
    """Contrastive loss over encoder cosine similarities, averaged over the batch.

    Row i of ``query_embs`` [B, d] is sample i's query, ``candidate_embs[i]``
    [1 + n_neg, d] its positive then its negatives. Per sample:
    -log( exp(s+/tau) / (exp(s+/tau) + sum_j exp(s-_j/tau)) ).
    With zero negatives the ratio is 1 and the sample contributes exactly 0.
    """
    n = len(candidate_embs)
    if n < 1 or query_embs.ndim != 2 or query_embs.shape[0] != n:
        raise ConfigError(f"infonce_loss: {n} candidate matrices for queries {query_embs.shape}")
    if tau1 <= 0:
        raise ConfigError("infonce_loss: tau1 must be positive")
    inv_tau = 1.0 / tau1
    terms = []
    for i, candidates in enumerate(candidate_embs):
        vec = ad.mul(ad.cosine_rows(ad.pick(query_embs, i), candidates), inv_tau)
        terms.append(ad.sub(ad.logsumexp(vec), ad.pick(vec, 0)))
    return ad.mul(functools.reduce(ad.add, terms), 1.0 / n)


def ranknet_loss(scores, rank_labels, tau2: float = 0.05) -> Tensor:
    """Pairwise logistic loss for one query: sum over label-ordered pairs
    (j ranked above k) of log(1 + exp((s_k - s_j)/tau)). Tied labels
    contribute no pair. ``scores`` is an [n] tensor or a sequence of floats."""
    if tau2 <= 0:
        raise ConfigError("ranknet_loss: tau2 must be positive")
    s = _lift(scores)
    labels = np.asarray(rank_labels)
    if s.ndim != 1 or labels.shape != s.shape:
        raise ConfigError("ranknet_loss: scores and labels must align")
    if s.shape[0] < 2:
        raise DegenerateInputError("ranknet_loss: need at least two candidates")
    j, k = np.nonzero(labels[:, None] < labels[None, :])
    if not j.size:
        raise DegenerateInputError("ranknet_loss: no strictly ordered pair under these labels")
    diffs = ad.mul(ad.sub(ad.take_rows(s, k), ad.take_rows(s, j)), 1.0 / tau2)
    return ad.sum_all(ad.softplus(diffs))


def combined_loss(infonce: Tensor, ranknet: Tensor, lam: float = 0.1) -> Tensor:
    """lam * infonce + ranknet, exactly."""
    if lam < 0:
        raise ConfigError("combined_loss: lambda must be >= 0")
    return ad.add(ad.mul(_lift(infonce), lam), _lift(ranknet))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Adam with decoupled weight decay and global-norm gradient clipping."""

    def __init__(self, params: dict[str, Tensor], lr: float, config: OptimConfig | None = None):
        self.params = dict(params)
        self.lr = lr
        self.config = config or OptimConfig()
        self._m = {k: np.zeros_like(t.data) for k, t in self.params.items()}
        self._v = {k: np.zeros_like(t.data) for k, t in self.params.items()}
        self._t = 0

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def clip_gradients(self) -> float:
        """Scale all gradients so their global norm is at most clip_norm; returns the pre-clip norm."""
        norm = ad.global_grad_norm(self.params.values())
        limit = self.config.clip_norm
        if limit > 0 and norm > limit:
            factor = limit / norm
            for t in self.params.values():
                if t.grad is not None:
                    t.grad *= factor
        return norm

    def step(self) -> None:
        cfg = self.config
        self._t += 1
        bias1 = 1.0 - cfg.beta1 ** self._t
        bias2 = 1.0 - cfg.beta2 ** self._t
        for name, t in self.params.items():
            if t.grad is None or not t.requires_grad:
                continue
            g = t.grad
            m = self._m[name]
            v = self._v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            update = (m / bias1) / (np.sqrt(v / bias2) + cfg.eps)
            if cfg.weight_decay:
                update = update + cfg.weight_decay * t.data
            ad.set_param_data(t, t.data - self.lr * update)


# ---------------------------------------------------------------------------
# training step and stage loop
# ---------------------------------------------------------------------------

@dataclass
class TrainReport:
    records: list[dict] = field(default_factory=list)
    stages: list[dict] = field(default_factory=list)
    skipped_samples: int = 0


def _ensure_finite_loss(value: float, step: int) -> None:
    if not np.isfinite(value):
        raise TrainingError(f"non-finite loss at step {step}")


def _trainable_params(models: ModelPair) -> dict[str, Tensor]:
    return {k: t for k, t in models.parameters().items() if t.requires_grad}


def train_step(models: ModelPair, batch: list[RankingSample], doc_tokens,
               optimizer: Adam, loss_cfg: LossConfig, step: int, stage_name: str) -> dict:
    """Forward, backward, clip, and update over one batch; returns the trace record.

    Each unique token sequence of the batch, candidate passage or query, is
    one row of a single ``batch_encode`` matrix, whose packs fill across
    samples. ``take_rows`` gathers each sample's candidate rows, its InfoNCE
    rows (positive first) and the B query rows, so a sequence's gradient sums
    over its uses; the losses equal those from encoding every use separately
    bit for bit (``batch_encode`` keeps each passage's bits).
    """
    optimizer.zero_grad()
    query_ids = [models.vocab.encode(sample.query_text) for sample in batch]
    for sample, ids in zip(batch, query_ids):
        if not ids:
            raise TrainingError(f"sample {sample.query_id}: empty query")
    passages = [doc_tokens[c.doc_id] for sample in batch for c in sample.candidates]
    row_of: dict[tuple, int] = {}
    rows = np.array([row_of.setdefault(tuple(tokens), len(row_of))
                     for tokens in passages + query_ids])
    embeddings = models.encoder.batch_encode(list(row_of))
    candidate_embs, ranknet_terms = [], []
    lo = 0
    for sample, ids in zip(batch, query_ids):
        sample_rows = rows[lo:lo + len(sample.candidates)]
        lo += len(sample.candidates)
        output = models.reranker.forward(models.instruction_ids(), ids,
                                         ad.take_rows(embeddings, sample_rows))
        contrast = [sample.positive_index, *sample.negative_indices]
        candidate_embs.append(ad.take_rows(embeddings, sample_rows[contrast]))
        labels = [c.rank_label for c in sample.candidates]
        ranknet_terms.append(ranknet_loss(output.score_tensor, labels, loss_cfg.tau2))
    infonce = infonce_loss(ad.take_rows(embeddings, rows[lo:]), candidate_embs, loss_cfg.tau1)
    ranknet = ad.mul(functools.reduce(ad.add, ranknet_terms), 1.0 / len(batch))
    lam_eff = loss_cfg.effective_lambda()
    combined = combined_loss(infonce, ranknet, lam_eff)
    _ensure_finite_loss(combined.item(), step)
    backward(combined)
    grad_norm = optimizer.clip_gradients()
    optimizer.step()
    return {
        "step": step,
        "stage": stage_name,
        "infonce": infonce.item(),
        "ranknet": ranknet.item(),
        "combined": combined.item(),
        "grad_norm": grad_norm,
        "lambda_effective": lam_eff,
    }


def train_stages(models: ModelPair, plan, doc_tokens, optim: OptimConfig,
                 loss_cfg: LossConfig, seed: int, report: TrainReport):
    """Run the (StageConfig, samples) pairs of ``plan`` in order into ``report``.

    Stage i is seeded with ``seed + i``, and step numbers continue from the
    records already in ``report``. A stage of 0 epochs trains nothing, so
    ``dataclasses.replace(stage, epochs=0)`` removes a stage without moving
    the seeds of those after it. Each stage syncs the reranker's ablation
    flags and the encoder's trainability from ``loss_cfg`` before building
    its own Adam, so a frozen encoder receives neither gradients nor updates.

    The loss and optimizer configs and every stage (epochs, batch size,
    samples) are checked here, before anything trains: a bad plan raises
    ``ConfigError`` from the call itself. The returned iterator trains the
    stages as it is driven and yields each stage as it finishes, so a caller
    can checkpoint between stages.
    """
    loss_cfg.validate()
    optim.validate()
    checked = []
    for stage, samples in plan:
        if stage.epochs < 0 or stage.batch_size < 1:
            raise ConfigError(f"stage {stage.name}: invalid epochs={stage.epochs}/"
                              f"batch_size={stage.batch_size}")
        for sample in samples:
            validate_sample(sample)
        usable = [sample for sample in samples if has_orderable_pair(sample)]
        if not usable:
            raise ConfigError(f"stage {stage.name}: no sample has an orderable pair")
        checked.append((stage, usable, len(samples) - len(usable)))
    return _run_stages(models, checked, doc_tokens, optim, loss_cfg, seed, report)


def _run_stages(models, checked, doc_tokens, optim, loss_cfg, seed, report):
    """``train_stages``' loop over its checked (stage, usable samples, skipped
    count) triples."""
    for i, (stage, usable, skipped) in enumerate(checked):
        report.skipped_samples += skipped
        models.encoder.set_trainable(loss_cfg.encoder_trainable)
        models.reranker.set_trainable(True)
        models.reranker.residual_enabled = loss_cfg.residual_enabled
        models.reranker.hidden_state_enabled = loss_cfg.hidden_state_enabled

        optimizer = Adam(_trainable_params(models), lr=stage.lr, config=optim)
        rng = np.random.default_rng(seed + i)
        first_step = len(report.records)
        for _ in range(stage.epochs):
            order = rng.permutation(len(usable))
            for lo in range(0, len(order), stage.batch_size):
                batch = [usable[j] for j in order[lo:lo + stage.batch_size]]
                report.records.append(train_step(models, batch, doc_tokens, optimizer,
                                                 loss_cfg, len(report.records), stage.name))
        report.stages.append({
            "name": stage.name,
            "samples": len(usable),
            "epochs": stage.epochs,
            "batch_size": stage.batch_size,
            "lr": stage.lr,
            "steps": len(report.records) - first_step,
        })
        yield stage
