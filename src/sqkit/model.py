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
  raw = mean_t o_t,  clipped = min(5, max(1, raw))
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

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


@dataclass(frozen=True)
class ScorePrediction:
    """A model output: the raw mean frame score and its [1, 5] clamp."""

    raw: float
    clipped: float

    @staticmethod
    def from_raw(raw: float) -> "ScorePrediction":
        return ScorePrediction(raw=float(raw), clipped=float(min(SCORE_HI, max(SCORE_LO, raw))))


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


def _check_dim(frames: np.ndarray, dim: int) -> None:
    if frames.ndim != 2 or frames.shape[1] != dim:
        raise ValidationError(f"expected (T, {dim}) features, got shape {frames.shape}")


def head_raw(params: HeadParams, frames: np.ndarray) -> float:
    _check_dim(frames, params.dim)
    hidden = np.maximum(frames @ params.w1 + params.b1, 0.0)
    return float(np.mean(hidden @ params.w2 + params.b2))


def head_backward(params: HeadParams, frames: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """Raw score plus d(raw)/d(theta) for every parameter."""
    _check_dim(frames, params.dim)
    t = frames.shape[0]
    pre = frames @ params.w1 + params.b1
    act = np.maximum(pre, 0.0)
    raw = float(np.mean(act @ params.w2 + params.b2))
    d_act = np.where(pre > 0.0, params.w2, 0.0) / t
    grads = {
        "w1": frames.T @ d_act,
        "b1": d_act.sum(axis=0),
        "w2": act.mean(axis=0),
        "b2": np.ones(()),
    }
    return raw, grads


def alignnet_raw(params: AlignNetParams, frames: np.ndarray, dataset_id: str) -> float:
    _check_dim(frames, params.dim)
    row = params.table[params.row_index(dataset_id)]
    trunk = np.maximum(frames @ params.w1 + params.b1, 0.0)
    fused = np.concatenate([trunk, np.broadcast_to(row, (trunk.shape[0], len(row)))], axis=1)
    dec = np.maximum(fused @ params.v1 + params.c1, 0.0)
    return float(np.mean(dec @ params.v2 + params.c2))


def alignnet_backward(
    params: AlignNetParams, frames: np.ndarray, dataset_id: str
) -> tuple[float, dict[str, np.ndarray]]:
    """Raw score plus d(raw)/d(theta); table gradient touches one row."""
    _check_dim(frames, params.dim)
    t = frames.shape[0]
    h = params.hidden
    idx = params.row_index(dataset_id)
    row = params.table[idx]

    pre1 = frames @ params.w1 + params.b1
    trunk = np.maximum(pre1, 0.0)
    fused = np.concatenate([trunk, np.broadcast_to(row, (t, len(row)))], axis=1)
    pre2 = fused @ params.v1 + params.c1
    dec = np.maximum(pre2, 0.0)
    raw = float(np.mean(dec @ params.v2 + params.c2))

    d_dec = np.where(pre2 > 0.0, params.v2, 0.0) / t
    d_fused = d_dec @ params.v1.T
    d_trunk = np.where(pre1 > 0.0, d_fused[:, :h], 0.0)
    d_table = np.zeros_like(params.table)
    d_table[idx] = d_fused[:, h:].sum(axis=0)
    grads = {
        "w1": frames.T @ d_trunk,
        "b1": d_trunk.sum(axis=0),
        "table": d_table,
        "v1": fused.T @ d_dec,
        "c1": d_dec.sum(axis=0),
        "v2": dec.mean(axis=0),
        "c2": np.ones(()),
    }
    return raw, grads


def zero_grads(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.as_dict().items()}


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    """Bitwise equality of two parameter sets of the same kind."""
    if type(a) is not type(b):
        return False
    if isinstance(a, AlignNetParams) and a.dataset_ids != b.dataset_ids:
        return False
    da, db = a.as_dict(), b.as_dict()
    return all(da[k].shape == db[k].shape and np.array_equal(da[k], db[k]) for k in da)


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
    """Load a checkpoint (its kind tag picks the model); a malformed file raises CheckpointError."""
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
    return HeadParams(**arrays) if kind == KIND_HEAD else AlignNetParams(**arrays, dataset_ids=ids)
