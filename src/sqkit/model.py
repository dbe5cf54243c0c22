"""The two trainable predictors and their analytic gradients.

Both models score every frame with a small feed-forward network and
average the frame scores at the end, so predictions are invariant to
frame order and duplication. Gradients are hand-derived; the finite
difference suite in the tests is the authority that keeps them honest.

Shapes (D = feature dim, T = frames):
  head:      o_t = w2 . relu(W1^T x_t + b1) + b2
  alignnet:  h_t = relu(W1^T x_t + b1)
             u_t = concat(h_t, e_d)          e_d = dataset embedding row
             o_t = v2 . relu(V1^T u_t + c1) + c2
  raw = mean_t o_t,  prediction = clip_score(raw) = min(5, max(1, raw))

Each model has one forward pass, over a packed batch: the utterances'
frames stacked into one (sum T, D) matrix plus their lengths, with
per-utterance means from np.add.reduceat over the start rows. The
backward kernels run it as their first half, so a training step is one
call; head_raw / alignnet_raw run it on one utterance. A Workspace keeps
the large (sum T, width) intermediates between calls.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .codec import Reader, pack_strings, write_artifact
from .errors import CheckpointError, ValidationError
from .seeding import named_rng

PARAMS_MAGIC = b"SQPM"
PARAMS_VERSION = 1
KIND_HEAD = 1
KIND_ALIGNNET = 2

SCORE_LO = 1.0
SCORE_HI = 5.0


def clip_score(raw: float) -> float:
    """A raw mean frame score clamped to the [1, 5] rating scale. A NaN raw
    raises ValidationError, where max(1.0, nan) would return 1.0."""
    if raw != raw:  # a plain NaN test: numpy's costs more than the clamp
        raise ValidationError("the model scored NaN: a parameter or feature is not finite")
    return float(min(SCORE_HI, max(SCORE_LO, raw)))


@dataclass(frozen=True)
class HeadParams:
    """Two-layer feed-forward head applied per frame, averaged last."""

    w1: np.ndarray  # (D, H)
    b1: np.ndarray  # (H,)
    w2: np.ndarray  # (H,)
    b2: np.ndarray  # ()

    @property
    def dim(self) -> int:
        return int(self.w1.shape[0])

    @property
    def hidden(self) -> int:
        return int(self.w1.shape[1])

    def as_dict(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def with_arrays(self, arrays: dict[str, np.ndarray]) -> "HeadParams":
        return replace(self, **arrays)


@dataclass(frozen=True)
class AlignNetParams:
    """Trunk + dataset-embedding fusion + two-layer decoder.

    dataset_ids gives the row key for each table row; unknown ids have no
    row and must go through domain-embedding retrieval at inference.
    """

    w1: np.ndarray  # (D, H)
    b1: np.ndarray  # (H,)
    table: np.ndarray  # (N, E)
    v1: np.ndarray  # (H+E, G)
    c1: np.ndarray  # (G,)
    v2: np.ndarray  # (G,)
    c2: np.ndarray  # ()
    dataset_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.dataset_ids) != self.table.shape[0]:
            raise ValidationError("dataset_ids length must match embedding table rows")
        if len(set(self.dataset_ids)) != len(self.dataset_ids):
            raise ValidationError("duplicate dataset_ids in embedding table")

    @property
    def dim(self) -> int:
        return int(self.w1.shape[0])

    @property
    def hidden(self) -> int:
        return int(self.w1.shape[1])

    @property
    def embed_dim(self) -> int:
        return int(self.table.shape[1])

    @property
    def decoder_hidden(self) -> int:
        return int(self.v1.shape[1])

    def row_index(self, dataset_id: str) -> int:
        try:
            return self.dataset_ids.index(dataset_id)
        except ValueError:
            raise KeyError(f"dataset_id {dataset_id!r} not in embedding table {self.dataset_ids}")

    def as_dict(self) -> dict[str, np.ndarray]:
        return {
            "w1": self.w1,
            "b1": self.b1,
            "table": self.table,
            "v1": self.v1,
            "c1": self.c1,
            "v2": self.v2,
            "c2": self.c2,
        }

    def with_arrays(self, arrays: dict[str, np.ndarray]) -> "AlignNetParams":
        return replace(self, **arrays)


ModelParams = HeadParams | AlignNetParams


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape: tuple[int, ...]) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def init_head(dim: int, hidden: int, seed: int) -> HeadParams:
    """Glorot-uniform weights, zero biases; deterministic per seed."""
    if dim < 1 or hidden < 1:
        raise ValidationError("dim and hidden must be >= 1")
    rng = named_rng(seed, "init/head")
    return HeadParams(
        w1=_glorot(rng, dim, hidden, (dim, hidden)),
        b1=np.zeros(hidden),
        w2=_glorot(rng, hidden, 1, (hidden,)),
        b2=np.zeros(()),
    )


def init_alignnet(
    dim: int,
    dataset_ids: tuple[str, ...] | list[str],
    seed: int,
    hidden: int = 64,
    embed_dim: int = 16,
    decoder_hidden: int = 32,
) -> AlignNetParams:
    """Glorot-uniform weights (embedding table included), zero biases."""
    if dim < 1 or hidden < 1 or embed_dim < 1 or decoder_hidden < 1:
        raise ValidationError("all widths must be >= 1")
    if not dataset_ids:
        raise ValidationError("alignnet needs at least one dataset id")
    rng = named_rng(seed, "init/alignnet")
    n = len(dataset_ids)
    fused = hidden + embed_dim
    return AlignNetParams(
        w1=_glorot(rng, dim, hidden, (dim, hidden)),
        b1=np.zeros(hidden),
        table=_glorot(rng, n, embed_dim, (n, embed_dim)),
        v1=_glorot(rng, fused, decoder_hidden, (fused, decoder_hidden)),
        c1=np.zeros(decoder_hidden),
        v2=_glorot(rng, decoder_hidden, 1, (decoder_hidden,)),
        c2=np.zeros(()),
        dataset_ids=tuple(dataset_ids),
    )


class Workspace:
    """Working buffers reused across the calls of one loop: the packed
    kernels' intermediates over a training run, and the audio-sized arrays
    of the synthetic generator and of featurize over a corpus.

    One buffer per name, (rows, width) or, without a width, (rows,),
    allocated on first use and grown only when a call needs more rows. The
    owner sizes it once to its largest call where it knows that size.
    Without reuse every call would fault fresh pages in for its
    temporaries: glibc serves an allocation of 128 KiB or more with a new
    mmap. Callers drop the workspace with the loop, so its memory lives no
    longer than the loop.
    """

    def __init__(self, rows: int = 0) -> None:
        self.rows = rows
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, rows: int, width: int | None = None, dtype=np.float64) -> np.ndarray:
        tail = () if width is None else (width,)
        buf = self._buffers.get(name)
        if buf is None or len(buf) < rows or buf.shape[1:] != tail or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty((max(rows, self.rows), *tail), dtype)
        return buf[:rows]


Loss = Callable[[np.ndarray], tuple[float, np.ndarray]]
Indices = Sequence[int] | np.ndarray | None


def _sum_loss(raws: np.ndarray) -> tuple[float, np.ndarray]:
    return float(raws.sum()), np.ones_like(raws)


def _segments(frames: np.ndarray, dim: int, lengths: Indices) -> tuple[np.ndarray, np.ndarray]:
    """Per-utterance lengths and start rows of a packed (sum T, D) batch."""
    if frames.ndim != 2 or frames.shape[1] != dim:
        raise ValidationError(f"expected (T, {dim}) features, got shape {frames.shape}")
    lengths = np.array([frames.shape[0]] if lengths is None else lengths, dtype=np.intp)
    # The checks run on Python ints: numpy's per-call overhead would cost
    # more than a one-utterance forward pass's arithmetic.
    counts = lengths.tolist()
    if lengths.ndim != 1 or not counts or min(counts) < 1 or sum(counts) != frames.shape[0]:
        raise ValidationError(f"lengths must be positive and sum to the {frames.shape[0]} packed frames")
    return lengths, lengths.cumsum() - lengths


def _loss_grad(loss: Loss | None, raws: np.ndarray, lengths: np.ndarray):
    """The raw scores through the loss; returns the loss value, d(loss)/d(raw)
    per utterance and d(loss)/d(score) per frame."""
    value, d_raws = (loss or _sum_loss)(raws)
    d_raws = np.asarray(d_raws, dtype=np.float64)
    if d_raws.shape != raws.shape:
        raise ValidationError(f"loss gradient shape {d_raws.shape} != raw scores {raws.shape}")
    return value, d_raws, np.repeat(d_raws / lengths, lengths)


def _head_forward(params: HeadParams, frames: np.ndarray, lengths: Indices, work: Workspace):
    """The head's forward pass over a packed batch: each utterance's raw
    score, its lengths and start rows, and the hidden activations (work's
    "hidden" buffer) that backward needs."""
    lengths, starts = _segments(frames, params.dim, lengths)
    act = np.matmul(frames, params.w1, out=work.take("hidden", len(frames), params.hidden))
    act += params.b1
    np.maximum(act, 0.0, out=act)
    return np.add.reduceat(act @ params.w2 + params.b2, starts) / lengths, lengths, starts, act


def head_raw(params: HeadParams, frames: np.ndarray) -> float:
    """One utterance's mean frame score; frames is its (T, D) matrix."""
    return float(_head_forward(params, frames, None, Workspace())[0][0])


def head_backward(
    params: HeadParams,
    frames: np.ndarray,
    *,
    lengths: Indices = None,
    loss: Loss | None = None,
    work: Workspace | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """One forward/backward pass over a packed batch: loss value plus
    d(loss)/d(theta) for every parameter.

    frames stacks the utterances' (T_u, D) rows; lengths lists the T_u
    (default: one utterance). loss(raws) -> (value, d_raws) sees every
    raw score between the two halves, so it can reject a batch before any
    backward work; the default is sum(raws), so one utterance gives
    (raw, d(raw)/d(theta)).
    """
    raws, lengths, _, act = _head_forward(params, frames, lengths, work or Workspace())
    value, d_raws, d_scores = _loss_grad(loss, raws, lengths)
    d_w2 = act.T @ d_scores
    d_act = np.greater(act, 0.0, out=act)  # relu(x) > 0 <=> x > 0; act becomes its mask
    d_act *= params.w2
    d_act *= d_scores[:, None]
    grads = {"w1": frames.T @ d_act, "b1": d_act.sum(axis=0), "w2": d_w2, "b2": np.array(d_raws.sum())}
    return value, grads


def _alignnet_forward(params: AlignNetParams, frames: np.ndarray, dataset_id: str | None, lengths: Indices,
                      rows: Indices, work: Workspace):
    """_head_forward for alignnet, which also returns each utterance's
    table row and the decoder activations (work's "decoder" buffer).

    The row enters the decoder as a per-utterance bias, table[rows] @
    V1[H:] + c1: in exact arithmetic that is concat(h_t, e_d) @ V1 + c1,
    with no (sum T, H+E) fused matrix built.
    """
    lengths, starts = _segments(frames, params.dim, lengths)
    rows = np.array([params.row_index(dataset_id)] if rows is None else rows, dtype=np.intp)
    picked = rows.tolist()  # checked as Python ints, as _segments checks lengths
    if rows.shape != lengths.shape or min(picked) < 0 or max(picked) >= len(params.dataset_ids):
        raise ValidationError(f"need one table row in [0, {len(params.dataset_ids)}) per utterance")
    n, h = len(frames), params.hidden
    trunk = np.matmul(frames, params.w1, out=work.take("hidden", n, h))
    trunk += params.b1
    np.maximum(trunk, 0.0, out=trunk)
    dec = np.matmul(trunk, params.v1[:h], out=work.take("decoder", n, params.decoder_hidden))
    dec += (params.table[rows] @ params.v1[h:] + params.c1).repeat(lengths, axis=0)
    np.maximum(dec, 0.0, out=dec)
    raws = np.add.reduceat(dec @ params.v2 + params.c2, starts) / lengths
    return raws, lengths, starts, rows, trunk, dec


def alignnet_raw(params: AlignNetParams, frames: np.ndarray, dataset_id: str) -> float:
    """head_raw for alignnet, scored with the table row of dataset_id."""
    return float(_alignnet_forward(params, frames, dataset_id, None, None, Workspace())[0][0])


def alignnet_backward(
    params: AlignNetParams,
    frames: np.ndarray,
    dataset_id: str | None = None,
    *,
    lengths: Indices = None,
    rows: Indices = None,
    loss: Loss | None = None,
    work: Workspace | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """head_backward for alignnet; rows gives each utterance's table row
    (default: the row of dataset_id for one utterance)."""
    work = work or Workspace()
    raws, lengths, starts, rows, trunk, dec = _alignnet_forward(params, frames, dataset_id, lengths, rows, work)
    value, d_raws, d_scores = _loss_grad(loss, raws, lengths)
    v1_trunk, v1_embed = params.v1[: params.hidden], params.v1[params.hidden :]

    d_v2 = dec.T @ d_scores
    d_dec = np.greater(dec, 0.0, out=dec)  # dec is needed no more: its mask overwrites it
    d_dec *= params.v2
    d_dec *= d_scores[:, None]
    d_bias = np.add.reduceat(d_dec, starts, axis=0)
    d_table = np.zeros_like(params.table)
    np.add.at(d_table, rows, d_bias @ v1_embed.T)  # rows repeat within a batch
    d_v1 = np.concatenate([trunk.T @ d_dec, params.table[rows].T @ d_bias])
    d_trunk = np.matmul(d_dec, v1_trunk.T, out=work.take("d_hidden", len(frames), params.hidden))
    d_trunk *= np.greater(trunk, 0.0, out=trunk)
    grads = {
        "w1": frames.T @ d_trunk,
        "b1": d_trunk.sum(axis=0),
        "table": d_table,
        "v1": d_v1,
        "c1": d_bias.sum(axis=0),
        "v2": d_v2,
        "c2": np.array(d_raws.sum()),
    }
    return value, grads


def zero_grads(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.as_dict().items()}


def copy_params(params: ModelParams) -> ModelParams:
    return params.with_arrays({k: v.copy() for k, v in params.as_dict().items()})


def save_params(params: ModelParams, path: str | Path) -> None:
    """Serialize parameters; round-trip through load_params is bit-exact.

    Layout: magic, version byte, kind byte, uint32 shape header, then the
    float64 arrays in as_dict order (alignnet also stores its dataset-id
    string table between header and payload).
    """
    if isinstance(params, HeadParams):
        kind, dims, ids = KIND_HEAD, (params.dim, params.hidden), ()
    elif isinstance(params, AlignNetParams):
        ids = params.dataset_ids
        kind, dims = KIND_ALIGNNET, (params.dim, params.hidden, len(ids), params.embed_dim, params.decoder_hidden)
    else:
        raise CheckpointError(f"cannot serialize {type(params).__name__}")
    arrays = (np.asarray(arr, dtype="<f8").tobytes() for arr in params.as_dict().values())
    fmt = "<BB" + "I" * len(dims)
    write_artifact(path, PARAMS_MAGIC, fmt, (PARAMS_VERSION, kind, *dims), pack_strings(ids), *arrays)


def load_params(path: str | Path) -> ModelParams:
    """Load a checkpoint (its kind tag picks the model); a malformed file,
    or one holding a non-finite value, raises CheckpointError naming it."""
    reader = Reader(Path(path).read_bytes(), path, CheckpointError, PARAMS_MAGIC, "checkpoint")
    version, kind = reader.fields("<BB")
    if version != PARAMS_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    if kind == KIND_HEAD:
        d, h = reader.fields("<II")
        shapes = {"w1": (d, h), "b1": (h,), "w2": (h,), "b2": ()}
    elif kind == KIND_ALIGNNET:
        d, h, n, e, g = reader.fields("<IIIII")
        ids = tuple(reader.strings(n))
        if len(set(ids)) != n:
            raise CheckpointError(f"{path}: duplicate dataset ids {ids}")
        shapes = {"w1": (d, h), "b1": (h,), "table": (n, e), "v1": (h + e, g), "c1": (g,), "v2": (g,), "c2": ()}
    else:
        raise CheckpointError(f"{path}: unknown model kind tag {kind}")
    arrays = {name: reader.array("<f8", shape).copy() for name, shape in shapes.items()}
    reader.end()
    non_finite = [name for name, values in arrays.items() if not np.isfinite(values).all()]
    if non_finite:
        raise CheckpointError(f"{path}: non-finite values in {', '.join(non_finite)}")
    return HeadParams(**arrays) if kind == KIND_HEAD else AlignNetParams(**arrays, dataset_ids=ids)
