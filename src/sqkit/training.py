"""SGD training with clipped MSE, best-k checkpoint tracking, early stop.

Training is two steps. prepare_train_data does everything that does not
depend on the seed, once: it reads the train split's raw features into
one packed (sum T, D) matrix (frontend.packed_features), fits the scaler
and standardizes a float64 matrix in place, reads and standardizes the dev
split, and pools each train utterance into the retrieval datastore. train
then runs one seeded SGD loop over that TrainData without changing it,
so any number of seeds share one featurization. MDF is two train calls:
prepare_mdf_data featurizes the pool once and returns both phases'
TrainData.

The loop is deliberately plain: minibatches come from a seeded shuffle
stream, and the optimizer is classical heavy-ball momentum
(v <- momentum*v + g; p <- p - lr*v). Each step gathers its utterances'
rows into a workspace buffer and makes one packed forward/backward call;
the workspace is sized once per run to the batch_size longest
utterances, so the gather and activation buffers are allocated once, not
per step.
Everything a run produces (best parameters, the feature scaler, the
retrieval datastore, the checkpoint ledger, the eval log) travels
together in a TrainResult so inference can never see half a model.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import CorpusManifest, PooledCorpus, Sample
from .errors import UndefinedCorrelationError, ValidationError
from .frontend import FeatureScaler, FrontendConfig, featurize, packed_features, split_features
from .inference import Datastore, predict_clipped
from .metrics import EvalPairs, pearson, spearman, system_aggregate
# head_raw and alignnet_raw are unused here: perfbench's tracer wraps these
# names on this module, and a site that stops resolving fails its run.
from .model import (
    ModelParams,
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


@dataclass
class CheckpointLedger:
    """The top_k best checkpoints by dev criterion, higher is better.

    An insertion happens when the ledger is not full or when the value
    strictly beats the current worst; last_improvement_step records the
    most recent insertion and drives early stopping. Given a directory,
    offer saves an inserted checkpoint there as ckpt_step<step>.bin and
    deletes the evicted one's file; entries hold no path.
    """

    top_k: int
    entries: list[LedgerEntry] = field(default_factory=list)
    last_improvement_step: int = 0

    def offer(self, step: int, value: float, params: ModelParams, directory: Path | None = None) -> bool:
        if not np.isfinite(value):
            return False
        if len(self.entries) >= self.top_k and value <= self.entries[-1].value:
            return False
        evicted = self.entries.pop() if len(self.entries) >= self.top_k else None
        self.entries.append(LedgerEntry(step=step, value=value, params=copy_params(params)))
        self.entries.sort(key=lambda e: (-e.value, e.step))
        self.last_improvement_step = step
        if directory is not None:
            if evicted is not None:
                (directory / f"ckpt_step{evicted.step}.bin").unlink(missing_ok=True)
            directory.mkdir(parents=True, exist_ok=True)
            save_params(params, directory / f"ckpt_step{step}.bin")
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
    scaler: FeatureScaler
    datastore: Datastore
    ledger: CheckpointLedger
    log: tuple[LogRecord, ...]
    model_kind: str
    criterion: str
    steps_run: int
    stop_reason: str  # "max_steps", "patience" or "zero_steps"


def _dev_criterion(
    params: ModelParams,
    dev_samples: Sequence[Sample],
    dev_mats: Sequence[np.ndarray],
    criterion: str,
) -> float:
    preds = [predict_clipped(params, m, s.dataset_id) for s, m in zip(dev_samples, dev_mats)]
    pairs = EvalPairs(
        sample_ids=tuple(s.sample_id for s in dev_samples),
        system_ids=tuple(s.system_id for s in dev_samples),
        true=np.array([s.mos for s in dev_samples]),
        pred=np.array(preds),
    )
    if criterion == "utt_lcc":
        return pearson(pairs)
    return spearman(system_aggregate(pairs))


def table_dataset_ids(corpus: CorpusManifest | PooledCorpus) -> tuple[str, ...]:
    """The alignnet table rows train gives a corpus by default: the pool
    members' names, or the corpus name."""
    return corpus.dataset_ids if isinstance(corpus, PooledCorpus) else (corpus.name,)


@dataclass(frozen=True)
class TrainData:
    """What a training run needs of its corpus and nothing of its seed,
    built once and read, never changed, by every seed trained from it.

    frames is the packed train split, read-only (standardized if float64,
    raw if float32): utterance i is the lengths[i] rows after those of the
    utterances before it.
    dev_mats are the dev samples' (T, D) arrays standardized by the same
    scaler, and datastore is each train utterance's rows pooled over time,
    its MOS and its dataset id (train's targets and alignnet table rows).
    """

    corpus: CorpusManifest | PooledCorpus
    frames: np.ndarray
    lengths: np.ndarray
    scaler: FeatureScaler
    dev_mats: tuple[np.ndarray, ...]
    datastore: Datastore


def _check_splits(corpus: CorpusManifest | PooledCorpus) -> None:
    """Training needs a train split and a dev split, neither empty."""
    if not corpus.samples("train"):
        raise ValidationError("empty train split")
    if not corpus.samples("dev"):
        raise ValidationError("empty dev split (needed for model selection)")


def _standardized(
    corpus: CorpusManifest | PooledCorpus,
    frames: np.ndarray,
    lengths: np.ndarray,
    scaler: FeatureScaler,
    frontend_config: FrontendConfig,
) -> TrainData:
    """TrainData over the corpus's packed raw train frames, which scaler
    standardizes in place if float64; each dev utterance's raw features are
    read into their own matrix and standardized in place by the same scaler."""
    train_samples = corpus.samples("train")
    starts = np.cumsum(lengths) - lengths
    targets = np.array([s.mos for s in train_samples])
    # Each utterance's standardized rows pooled over time: the records
    # build_datastore would make from the train split, bit for bit. This is
    # np.mean's own sum, with its division done once for all utterances.
    # float64 (dsp) rows are standardized in place, float32 (SQE1) ones into
    # a buffer, whole utterances of about 4,096 rows at a time (standardizing
    # each step's dsp rows cost 6% of train; each utterance alone, 8%).
    pooled = np.empty((len(train_samples), frames.shape[1]))
    firsts = np.flatnonzero(np.diff(starts // 4096, prepend=-1)).tolist()
    chunks = [(first, stop, starts[first], starts[stop - 1] + lengths[stop - 1])
              for first, stop in zip(firsts, [*firsts[1:], len(starts)])]
    work = Workspace(rows=max(end - begin for _, _, begin, end in chunks))  # sized once, to the largest chunk
    for first, stop, begin, end in chunks:
        rows = frames[begin:end]
        chunk = scaler.standardize(rows, out=None if frames.dtype == np.float64 else work.take("pool", *rows.shape))
        for row, start, length in zip(pooled[first:stop], (starts[first:stop] - begin).tolist(),
                                      lengths[first:stop].tolist()):
            np.add.reduce(chunk[start : start + length], axis=0, out=row)
    frames.flags.writeable = False
    pooled /= lengths[:, None]
    # One array per dev utterance, as featurize makes them: one packed dev matrix, freed after train,
    # raises glibc's mmap threshold, and knn-retrieval's benchmark ran 8% slower after it (2-vCPU host).
    dev_raws = split_features(corpus, "dev", frontend_config, featurize)
    return TrainData(
        corpus=corpus,
        frames=frames,
        lengths=lengths,
        scaler=scaler,
        dev_mats=tuple(scaler.standardize(raw) for raw in dev_raws),
        datastore=Datastore(embeddings=pooled, scores=targets, dataset_ids=tuple(s.dataset_id for s in train_samples)),
    )


def prepare_train_data(corpus: CorpusManifest | PooledCorpus, frontend_config: FrontendConfig) -> TrainData:
    """Featurize a corpus's train and dev splits once for any number of
    training runs, reading dsp features from the store each member corpus's
    feature_store names (a temp dir for a member without one). The train
    split goes straight into one packed matrix at its source's precision,
    and the scaler is fitted on its raw frames."""
    _check_splits(corpus)
    frames, lengths = packed_features(corpus, "train", frontend_config, featurize)
    return _standardized(corpus, frames, lengths, FeatureScaler.fit(frames), frontend_config)


def prepare_mdf_data(
    pretrain_name: str, pooled: PooledCorpus, frontend_config: FrontendConfig
) -> tuple[TrainData, TrainData]:
    """The two MDF phases, featurized once: pre-training on the member
    pretrain_name, then fine-tuning on the whole pool.

    The pool's train split is packed into one matrix, and the scaler is
    fitted on the member's rows and standardizes the whole pool, so the
    phase-1 parameters keep their meaning in phase 2. A member's samples
    are one contiguous block of the pool's, so phase 1's frames, lengths,
    dev matrices and datastore records are views of phase 2's.
    """
    names = [m.name for m in pooled.members]
    if pretrain_name not in names:
        raise ValidationError(f"pretrain corpus {pretrain_name!r} not among pool members {sorted(names)}")
    index = names.index(pretrain_name)
    member = pooled.members[index]
    _check_splits(member)  # phase 1 needs both splits, as any training does

    def block(split: str) -> slice:
        start = sum(m.size(split) for m in pooled.members[:index])
        return slice(start, start + member.size(split))

    train_block, dev_block = block("train"), block("dev")
    frames, lengths = packed_features(pooled, "train", frontend_config, featurize)
    rows = slice(int(lengths[: train_block.start].sum()), int(lengths[: train_block.stop].sum()))
    phase2 = _standardized(pooled, frames, lengths, FeatureScaler.fit(frames[rows]), frontend_config)
    datastore = phase2.datastore
    phase1 = TrainData(
        corpus=member,
        frames=phase2.frames[rows],
        lengths=phase2.lengths[train_block],
        scaler=phase2.scaler,
        dev_mats=phase2.dev_mats[dev_block],
        datastore=Datastore(
            embeddings=datastore.embeddings[train_block],
            scores=datastore.scores[train_block],
            dataset_ids=datastore.dataset_ids[train_block],
        ),
    )
    return phase1, phase2


def train(
    model_kind: str,
    data: TrainData,
    config: TrainConfig,
    hidden: int = 64,
    embed_dim: int = 16,
    decoder_hidden: int = 32,
    init_params: ModelParams | None = None,
    dataset_ids: tuple[str, ...] | None = None,
    out_dir: Path | None = None,
) -> TrainResult:
    """Run one seeded training run on prepared data and return the best
    checkpoint.

    The dev criterion is evaluated on clipped predictions every
    eval_interval steps; training halts at max_steps or once the ledger
    has not improved for patience_steps. A dev criterion that is
    undefined (constant predictions early on) counts as no improvement.
    init_params overrides initialization for fine-tuning phases;
    dataset_ids fixes the alignnet table rows (defaults to the corpus's
    dataset ids). With max_steps = 0 the initialized parameters come back
    untouched and the ledger stays empty.
    """
    if model_kind not in MODEL_KINDS:
        raise ValidationError(f"unknown model kind {model_kind!r}")
    dev_samples = data.corpus.samples("dev")
    if config.selection == "sys_srcc" and any(s.system_id is None for s in dev_samples):
        raise ValidationError("sys_srcc selection needs system_id on every dev sample")

    train_frames, lengths_all = data.frames, data.lengths
    starts_all = np.cumsum(lengths_all) - lengths_all
    targets_all = data.datastore.scores
    dim = train_frames.shape[1]
    if model_kind == "alignnet":
        if dataset_ids is None:
            dataset_ids = table_dataset_ids(data.corpus)
        table_ids = set(dataset_ids)
        missing = set(data.datastore.dataset_ids) - table_ids
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

    if model_kind == "alignnet":
        rows_all = np.array([params.row_index(dataset_id) for dataset_id in data.datastore.dataset_ids])
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
            order = shuffle_rng.permutation(len(lengths_all))
        batch, order = order[: config.batch_size], order[config.batch_size :]
        step += 1

        lengths = lengths_all[batch]
        n = int(lengths.sum())
        # Row of each batch frame in train_frames, utterances in batch order.
        frame_rows = np.arange(n) + np.repeat(starts_all[batch] - (np.cumsum(lengths) - lengths), lengths)
        frames = np.take(train_frames, frame_rows, axis=0, out=work.take("rows", n, dim, train_frames.dtype), mode="clip")
        if frames.dtype != np.float64:  # raw rows: take cannot cast, so they are standardized from their copy
            frames = data.scaler.standardize(frames, out=work.take("frames", n, dim))

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
                value: float | None = _dev_criterion(params, dev_samples, data.dev_mats, config.selection)
            except UndefinedCorrelationError:
                value = None
            if value is not None:
                ledger.offer(step, value, params, out_dir)
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
    return TrainResult(
        params=final,
        scaler=data.scaler,
        datastore=data.datastore,
        ledger=ledger,
        log=tuple(log),
        model_kind=model_kind,
        criterion=config.selection,
        steps_run=step,
        stop_reason=stop_reason,
    )
