"""SGD training with clipped MSE, best-k checkpoint tracking, early stop.

The loop is deliberately plain: the train split is featurized once into
one packed (sum T, D) matrix, standardized in place, minibatches come
from a seeded shuffle stream, and the optimizer is classical heavy-ball
momentum (v <- momentum*v + g; p <- p - lr*v). Each step gathers its
utterances' rows into a workspace buffer and makes one packed
forward/backward call; the workspace is sized once per run to the
batch_size longest utterances, so the gather and activation buffers are
allocated once, not per step.
Everything a run produces (best parameters, the feature scaler, the
checkpoint ledger, the eval log) travels together in a TrainResult so
inference can never see half a model.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import CorpusManifest, PooledCorpus, Sample
from .errors import UndefinedCorrelationError, ValidationError
from .frontend import EmbeddingMatrix, FeatureScaler, FrontendConfig, featurize
from .metrics import EvalPairs, pearson, spearman, system_aggregate
from .model import (
    HeadParams,
    ModelParams,
    ScorePrediction,
    Workspace,
    alignnet_backward,
    alignnet_raw,
    copy_params,
    head_backward,
    head_raw,
    init_alignnet,
    init_head,
    save_params,
    zero_grads,
)
from .seeding import named_rng

logger = logging.getLogger(__name__)

MODEL_KINDS = ("head", "alignnet")
SELECTION_CRITERIA = ("utt_lcc", "sys_srcc")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 16
    lr: float = 0.001
    momentum: float = 0.9
    max_steps: int = 100_000
    patience_steps: int = 2000
    top_k: int = 5
    loss_tau: float = 0.25
    selection: str = "utt_lcc"
    seed: int = 0
    eval_interval: int = 250

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.lr <= 0 or self.max_steps < 0:
            raise ValidationError("batch_size, lr must be positive; max_steps >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError("momentum must be in [0, 1)")
        if self.patience_steps < 1 or self.top_k < 1 or self.eval_interval < 1:
            raise ValidationError("patience_steps, top_k, eval_interval must be >= 1")
        if self.loss_tau < 0:
            raise ValidationError("loss_tau must be >= 0")
        if self.selection not in SELECTION_CRITERIA:
            raise ValidationError(f"selection must be one of {SELECTION_CRITERIA}")


def clipped_mse(preds: np.ndarray, targets: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """Mean of (p-t)^2 over pairs with |p-t| > tau, plus d(loss)/d(preds).

    tau = 0 degenerates to plain MSE. The gradient is zero inside the
    margin, so near-perfect predictions stop pulling on the parameters.
    """
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.shape != targets.shape or preds.ndim != 1:
        raise ValidationError(f"shape mismatch: preds {preds.shape} vs targets {targets.shape}")
    err = preds - targets
    mask = np.abs(err) > tau
    loss = float(np.mean(mask * err**2))
    grad = 2.0 * err * mask / len(preds)
    return loss, grad


def select_criterion(domain_tag: str) -> str:
    """Model-selection metric by corpus domain.

    Synthetic corpora rank systems, so selection tracks system SRCC;
    non-synthetic and pooled corpora select on utterance LCC (system
    grouping is ill-defined across pooled corpora).
    """
    if domain_tag == "synthetic":
        return "sys_srcc"
    if domain_tag in ("non-synthetic", "pooled"):
        return "utt_lcc"
    raise ValidationError(f"unknown domain tag {domain_tag!r}")


@dataclass(frozen=True)
class LedgerEntry:
    step: int
    value: float
    params: ModelParams
    path: Path | None = None


@dataclass
class CheckpointLedger:
    """The top_k best checkpoints by dev criterion, higher is better.

    An insertion happens when the ledger is not full or when the value
    strictly beats the current worst; last_improvement_step records the
    most recent insertion and drives early stopping.
    """

    top_k: int
    entries: list[LedgerEntry] = field(default_factory=list)
    last_improvement_step: int = 0

    def offer(self, step: int, value: float, params: ModelParams, path: Path | None = None) -> bool:
        if not np.isfinite(value):
            return False
        if len(self.entries) >= self.top_k and value <= self.entries[-1].value:
            return False
        evicted = None
        if len(self.entries) >= self.top_k:
            evicted = self.entries.pop()
        self.entries.append(LedgerEntry(step=step, value=value, params=copy_params(params), path=path))
        self.entries.sort(key=lambda e: (-e.value, e.step))
        self.last_improvement_step = step
        if evicted is not None and evicted.path is not None:
            evicted.path.unlink(missing_ok=True)
        return True

    @property
    def best(self) -> LedgerEntry | None:
        return self.entries[0] if self.entries else None

    def values(self) -> list[float]:
        return [e.value for e in self.entries]


@dataclass(frozen=True)
class LogRecord:
    step: int
    train_loss: float
    dev_criterion: float | None


@dataclass(frozen=True)
class TrainResult:
    """Everything one training run produced."""

    params: ModelParams
    initial_params: ModelParams
    scaler: FeatureScaler
    ledger: CheckpointLedger
    log: tuple[LogRecord, ...]
    model_kind: str
    criterion: str
    steps_run: int
    stop_reason: str  # "max_steps", "patience" or "zero_steps"


def predict_clipped(params: ModelParams, frames: np.ndarray, dataset_id: str | None = None) -> float:
    if isinstance(params, HeadParams):
        return ScorePrediction.from_raw(head_raw(params, frames)).clipped
    return ScorePrediction.from_raw(alignnet_raw(params, frames, dataset_id)).clipped


def _dev_criterion(
    params: ModelParams,
    dev_samples: Sequence[Sample],
    dev_mats: list[EmbeddingMatrix],
    criterion: str,
) -> float:
    preds = [predict_clipped(params, m.frames, s.dataset_id) for s, m in zip(dev_samples, dev_mats)]
    pairs = EvalPairs(
        sample_ids=tuple(s.sample_id for s in dev_samples),
        system_ids=tuple(s.system_id for s in dev_samples),
        true=np.array([s.mos for s in dev_samples]),
        pred=np.array(preds),
    )
    if criterion == "utt_lcc":
        return pearson(pairs)
    return spearman(system_aggregate(pairs))


def train(
    model_kind: str,
    corpus: CorpusManifest | PooledCorpus,
    frontend_config: FrontendConfig,
    config: TrainConfig,
    hidden: int = 64,
    embed_dim: int = 16,
    decoder_hidden: int = 32,
    init_params: ModelParams | None = None,
    scaler: FeatureScaler | None = None,
    dataset_ids: tuple[str, ...] | None = None,
    out_dir: Path | None = None,
) -> TrainResult:
    """Run one seeded training run and return the best checkpoint.

    The dev criterion is evaluated on clipped predictions every
    eval_interval steps; training halts at max_steps or once the ledger
    has not improved for patience_steps. A dev criterion that is
    undefined (constant predictions early on) counts as no improvement.
    init_params/scaler override initialization for fine-tuning phases;
    dataset_ids fixes the alignnet table rows (defaults to the corpus's
    dataset ids). With max_steps = 0 the initialized parameters come back
    untouched and the ledger stays empty.
    """
    if model_kind not in MODEL_KINDS:
        raise ValidationError(f"unknown model kind {model_kind!r}")
    train_samples = corpus.samples("train")
    dev_samples = corpus.samples("dev")
    if not train_samples:
        raise ValueError("empty train split")
    if not dev_samples:
        raise ValueError("empty dev split (needed for model selection)")
    if config.selection == "sys_srcc" and any(s.system_id is None for s in dev_samples):
        raise ValidationError("sys_srcc selection needs system_id on every dev sample")

    # One (sum T, D) train matrix, standardized in place: utterance i is
    # rows starts[i] : starts[i] + lengths[i].
    train_frames = [featurize(s, frontend_config).frames for s in train_samples]
    lengths_all = np.array([len(f) for f in train_frames])
    starts_all = np.cumsum(lengths_all) - lengths_all
    train_frames = np.concatenate(train_frames)
    if scaler is None:
        scaler = FeatureScaler.fit(train_frames)
    scaler.standardize(train_frames)
    dev_mats = [featurize(s, frontend_config, scaler) for s in dev_samples]

    dim = train_frames.shape[1]
    if model_kind == "alignnet":
        if dataset_ids is None:
            dataset_ids = (
                corpus.dataset_ids if isinstance(corpus, PooledCorpus) else (corpus.name,)
            )
        table_ids = set(dataset_ids)
        missing = {s.dataset_id for s in train_samples} - table_ids
        if missing:
            raise ValidationError(f"train samples reference dataset_ids outside the table: {sorted(missing)}")
        params: ModelParams = (
            init_params
            if init_params is not None
            else init_alignnet(dim, dataset_ids, config.seed, hidden, embed_dim, decoder_hidden)
        )
    else:
        params = init_params if init_params is not None else init_head(dim, hidden, config.seed)
    if params.dim != dim:
        raise ValidationError(f"initial params dim {params.dim} != feature dim {dim}")
    initial_params = copy_params(params)

    targets_all = np.array([s.mos for s in train_samples])
    if model_kind == "alignnet":
        rows_all = np.array([params.row_index(s.dataset_id) for s in train_samples])
    work = Workspace(rows=int(np.sort(lengths_all)[-config.batch_size :].sum()))

    velocity = zero_grads(params)
    ledger = CheckpointLedger(top_k=config.top_k)
    log: list[LogRecord] = []
    losses_since_eval: list[float] = []
    shuffle_rng = named_rng(config.seed, "shuffle")
    order = np.empty(0, dtype=np.intp)
    step = 0
    stop_reason = "zero_steps" if config.max_steps == 0 else "max_steps"

    while step < config.max_steps:
        if not order.size:
            order = shuffle_rng.permutation(len(train_samples))
        batch, order = order[: config.batch_size], order[config.batch_size :]
        step += 1

        lengths = lengths_all[batch]
        n = int(lengths.sum())
        # Row of each batch frame in train_frames, utterances in batch order.
        frame_rows = np.arange(n) + np.repeat(starts_all[batch] - (np.cumsum(lengths) - lengths), lengths)
        frames = np.take(train_frames, frame_rows, axis=0, out=work.take("frames", n, dim), mode="clip")

        def loss(raws: np.ndarray) -> tuple[float, np.ndarray]:
            value, d_raws = clipped_mse(raws, targets_all[batch], config.loss_tau)
            if not np.isfinite(value):
                raise RuntimeError(
                    f"non-finite loss {value} at step {step} (batch {batch.tolist()}, raw preds {raws.tolist()})"
                )
            return value, d_raws

        if model_kind == "head":
            value, grads = head_backward(params, frames, lengths=lengths, loss=loss, work=work)
        else:
            value, grads = alignnet_backward(params, frames, lengths=lengths, rows=rows_all[batch], loss=loss, work=work)
        losses_since_eval.append(value)

        new_arrays = {}
        for name, p_arr in params.as_dict().items():
            velocity[name] = config.momentum * velocity[name] + grads[name]
            new_arrays[name] = p_arr - config.lr * velocity[name]
        params = params.with_arrays(new_arrays)

        if step % config.eval_interval == 0:
            try:
                value: float | None = _dev_criterion(params, dev_samples, dev_mats, config.selection)
            except UndefinedCorrelationError:
                value = None
            if value is not None:
                path = None
                if out_dir is not None:
                    out_dir.mkdir(parents=True, exist_ok=True)
                    path = out_dir / f"ckpt_step{step}.bin"
                if ledger.offer(step, value, params, path) and path is not None:
                    save_params(params, path)
            log.append(
                LogRecord(step=step, train_loss=float(np.mean(losses_since_eval)), dev_criterion=value)
            )
            losses_since_eval = []

        if step > ledger.last_improvement_step + config.patience_steps:
            logger.info("early stop at step %d (no improvement since %d)", step, ledger.last_improvement_step)
            stop_reason = "patience"
            break

    best = ledger.best
    final = copy_params(best.params) if best is not None else copy_params(params)
    if config.max_steps == 0:
        final = copy_params(initial_params)
    return TrainResult(
        params=final,
        initial_params=initial_params,
        scaler=scaler,
        ledger=ledger,
        log=tuple(log),
        model_kind=model_kind,
        criterion=config.selection,
        steps_run=step,
        stop_reason=stop_reason,
    )


@dataclass(frozen=True)
class MdfResult:
    """Two-phase run: pre-train on one corpus, fine-tune on the pool."""

    phase1: TrainResult
    phase2: TrainResult


def train_mdf(
    model_kind: str,
    pretrain_name: str,
    pooled: PooledCorpus,
    frontend_config: FrontendConfig,
    phase1_config: TrainConfig,
    phase2_config: TrainConfig,
    hidden: int = 64,
    embed_dim: int = 16,
    decoder_hidden: int = 32,
    out_dir: Path | None = None,
) -> MdfResult:
    """Pre-train on one pool member, then fine-tune on the whole pool.

    Phase 2 starts from the phase-1 best checkpoint bit-exactly (its
    initial_params field is the proof) and keeps the phase-1 feature
    scaler so the parameters keep their meaning. The alignnet table is
    built over all pool members in phase 1 already, so the shapes carry.
    """
    members = {m.name: m for m in pooled.members}
    if pretrain_name not in members:
        raise ValueError(f"pretrain corpus {pretrain_name!r} not among pool members {sorted(members)}")
    phase1 = train(
        model_kind,
        members[pretrain_name],
        frontend_config,
        phase1_config,
        hidden=hidden,
        embed_dim=embed_dim,
        decoder_hidden=decoder_hidden,
        dataset_ids=pooled.dataset_ids if model_kind == "alignnet" else None,
        out_dir=None if out_dir is None else out_dir / "phase1",
    )
    phase2 = train(
        model_kind,
        pooled,
        frontend_config,
        phase2_config,
        init_params=copy_params(phase1.params),
        scaler=phase1.scaler,
        dataset_ids=pooled.dataset_ids if model_kind == "alignnet" else None,
        out_dir=None if out_dir is None else out_dir / "phase2",
    )
    return MdfResult(phase1=phase1, phase2=phase2)


@dataclass(frozen=True)
class SeedSummary:
    per_seed: tuple[tuple[int, dict[str, float]], ...]
    mean: dict[str, float]


def run_seeds(run_fn: Callable[[int], dict[str, float]], seeds: Sequence[int]) -> SeedSummary:
    """Run a seeded experiment per seed and arithmetic-mean the metrics."""
    if not seeds:
        raise ValidationError("run_seeds needs at least one seed")
    per_seed = []
    for seed in seeds:
        result = run_fn(seed)
        if per_seed and set(result) != set(per_seed[0][1]):
            raise ValidationError("seed runs reported differing metric keys")
        per_seed.append((seed, dict(result)))
    keys = per_seed[0][1].keys()
    mean = {k: float(np.mean([metrics[k] for _, metrics in per_seed])) for k in keys}
    return SeedSummary(per_seed=tuple(per_seed), mean=mean)
