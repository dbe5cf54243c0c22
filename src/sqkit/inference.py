"""Inference over trained models: parametric, kNN retrieval, domain retrieval.

The datastore holds one time-pooled (embedding, score, dataset_id) record
per training sample and never changes after it is built, so queries are
pure functions. kNN weighting uses exp(-d/temperature) by default: nearer
neighbors count more. The as-published formula weighted by exp(+d), which
favors far neighbors; pass paper_literal=True to reproduce it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import Reader, pack_strings, write_artifact
from .corpus import CorpusManifest, PooledCorpus
from .errors import ValidationError
from .frontend import EmbeddingMatrix, FeatureScaler, FrontendConfig, featurize, pool_time
from .metrics import EvalPairs
from .model import AlignNetParams, HeadParams, ModelParams, ScorePrediction, alignnet_raw, head_raw

DATASTORE_MAGIC = b"SQDS"
DISTANCE_KINDS = ("euclidean", "cosine")


@dataclass(frozen=True)
class Datastore:
    """Immutable retrieval index: (N, D) embeddings with scores and origins."""

    embeddings: np.ndarray
    scores: np.ndarray
    dataset_ids: tuple[str, ...]
    distance_kind: str = "euclidean"

    def __post_init__(self) -> None:
        emb = np.asarray(self.embeddings, dtype=np.float64)
        scores = np.asarray(self.scores, dtype=np.float64)
        if emb.ndim != 2 or emb.shape[0] < 1:
            raise ValidationError("datastore needs at least one (N, D) record")
        if scores.shape != (emb.shape[0],) or len(self.dataset_ids) != emb.shape[0]:
            raise ValidationError("embeddings, scores and dataset_ids must align")
        if self.distance_kind not in DISTANCE_KINDS:
            raise ValidationError(f"distance_kind must be one of {DISTANCE_KINDS}")
        object.__setattr__(self, "embeddings", emb)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return int(self.embeddings.shape[0])

    @property
    def dim(self) -> int:
        return int(self.embeddings.shape[1])


@dataclass(frozen=True)
class KnnConfig:
    k: int = 5
    temperature: float = 1.0
    distance_kind: str = "euclidean"
    paper_literal: bool = False

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        if self.temperature <= 0:
            raise ValidationError("temperature must be > 0")
        if self.distance_kind not in DISTANCE_KINDS:
            raise ValidationError(f"distance_kind must be one of {DISTANCE_KINDS}")


@dataclass(frozen=True)
class NeighborSet:
    """k retrieved records, ascending by distance."""

    distances: np.ndarray
    scores: np.ndarray
    dataset_ids: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.dataset_ids)


def _distances(ds_embeddings: np.ndarray, query: np.ndarray, kind: str) -> np.ndarray:
    if kind == "euclidean":
        return np.sqrt(np.sum((ds_embeddings - query) ** 2, axis=1))
    q_norm = np.linalg.norm(query)
    e_norms = np.linalg.norm(ds_embeddings, axis=1)
    # Zero-norm vectors have no direction; give them the maximum distance.
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = (ds_embeddings @ query) / (e_norms * q_norm)
    cos = np.where((e_norms == 0) | (q_norm == 0), -1.0, cos)
    return 1.0 - np.clip(cos, -1.0, 1.0)


def build_datastore(
    frontend_config: FrontendConfig,
    corpus: CorpusManifest | PooledCorpus,
    scaler: FeatureScaler | None = None,
    distance_kind: str = "euclidean",
    split: str = "train",
) -> Datastore:
    """One record per sample of the split, in the model's feature space.

    The embedding is the time-pooled feature matrix, scaled exactly as the
    trained model saw it; the score is the manifest MOS.
    """
    samples = corpus.samples(split)
    if not samples:
        raise ValueError(f"corpus has no samples in split {split!r}")
    embeddings = np.stack([pool_time(featurize(s, frontend_config, scaler)) for s in samples])
    return Datastore(
        embeddings=embeddings,
        scores=np.array([s.mos for s in samples]),
        dataset_ids=tuple(s.dataset_id for s in samples),
        distance_kind=distance_kind,
    )


def retrieve_neighbors(ds: Datastore, query: np.ndarray, k: int) -> NeighborSet:
    """The k nearest records; ties broken by score then dataset_id so the
    result never depends on datastore record order."""
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (ds.dim,):
        raise ValidationError(f"query shape {query.shape} != ({ds.dim},)")
    if k > len(ds):
        raise ValidationError(f"k={k} exceeds datastore size {len(ds)}")
    dists = _distances(ds.embeddings, query, ds.distance_kind)
    order = np.lexsort((np.array(ds.dataset_ids), ds.scores, dists))[:k]
    return NeighborSet(
        distances=dists[order],
        scores=ds.scores[order],
        dataset_ids=tuple(ds.dataset_ids[i] for i in order),
    )


def knn_weights(distances: np.ndarray, temperature: float, paper_literal: bool = False) -> np.ndarray:
    """Softmax weights over neighbor distances; default favors near ones.

    The exponent is shifted by its maximum before exp so tiny temperatures
    stay finite instead of overflowing.
    """
    sign = 1.0 if paper_literal else -1.0
    x = sign * np.asarray(distances, dtype=np.float64) / temperature
    x = x - np.max(x)
    w = np.exp(x)
    return w / w.sum()


def knn_predict(ds: Datastore, query: np.ndarray, cfg: KnnConfig) -> float:
    """Softmax-weighted average of the k nearest scores (convex combination)."""
    neighbors = retrieve_neighbors(ds, query, cfg.k)
    w = knn_weights(neighbors.distances, cfg.temperature, cfg.paper_literal)
    return float(w @ neighbors.scores)


def nearest_dataset_id(ds: Datastore, query: np.ndarray) -> str:
    """Which training corpus the query most resembles (1-NN)."""
    return retrieve_neighbors(ds, query, 1).dataset_ids[0]


def parametric_predict(params: ModelParams, mat: EmbeddingMatrix, dataset_id: str | None = None) -> float:
    """Clipped forward pass; alignnet needs a dataset_id in its table."""
    if isinstance(params, HeadParams):
        return ScorePrediction.from_raw(head_raw(params, mat.frames)).clipped
    if dataset_id is None:
        raise ValidationError("alignnet parametric prediction needs a dataset_id")
    return ScorePrediction.from_raw(alignnet_raw(params, mat.frames, dataset_id)).clipped


def domain_embedding_retrieval_predict(params: AlignNetParams, ds: Datastore, mat: EmbeddingMatrix) -> float:
    """Score with the embedding row of the nearest training neighbor.

    This is how the alignnet scores utterances from unseen corpora: the
    query picks the training dataset it most resembles and borrows that
    dataset's embedding row.
    """
    chosen = nearest_dataset_id(ds, pool_time(mat))
    return ScorePrediction.from_raw(alignnet_raw(params, mat.frames, chosen)).clipped


def predict_split(
    corpus: CorpusManifest | PooledCorpus,
    split: str,
    frontend_config: FrontendConfig,
    scaler: FeatureScaler | None,
    params: ModelParams,
    mode: str = "parametric",
    knn_config: KnnConfig | None = None,
    datastore: Datastore | None = None,
) -> EvalPairs:
    """Predict a whole split under one inference mode, as EvalPairs.

    Modes: "parametric" (forward pass; alignnet uses each sample's own
    dataset_id), "knn" (datastore retrieval, model params unused beyond
    the shared feature space), "domain-retrieval" (alignnet with the
    nearest neighbor's dataset embedding).
    """
    samples = corpus.samples(split)
    if not samples:
        raise ValueError(f"corpus has no samples in split {split!r}")
    if mode in ("knn", "domain-retrieval") and datastore is None:
        raise ValidationError(f"mode {mode!r} needs a datastore")
    preds = []
    for sample in samples:
        mat = featurize(sample, frontend_config, scaler)
        if mode == "parametric":
            preds.append(parametric_predict(params, mat, sample.dataset_id))
        elif mode == "knn":
            preds.append(knn_predict(datastore, pool_time(mat), knn_config or KnnConfig()))
        elif mode == "domain-retrieval":
            if not isinstance(params, AlignNetParams):
                raise ValidationError("domain-retrieval needs alignnet parameters")
            preds.append(domain_embedding_retrieval_predict(params, datastore, mat))
        else:
            raise ValidationError(f"unknown inference mode {mode!r}")
    return EvalPairs(
        sample_ids=tuple(s.sample_id for s in samples),
        system_ids=tuple(s.system_id for s in samples),
        true=np.array([s.mos for s in samples]),
        pred=np.array(preds),
    )


def _record_dtype(dim: int) -> np.dtype:
    return np.dtype([("embedding", "<f4", (dim,)), ("score", "<f4"), ("id", "<u4")])


def save_datastore(path: str | Path, ds: Datastore) -> None:
    """Binary datastore: magic SQDS, uint8 distance kind, uint32 N, D and
    id count, the sorted dataset-id string table, then N records of float32
    embedding, float32 score and uint32 string-table index."""
    unique_ids = sorted(set(ds.dataset_ids))
    index = {d: i for i, d in enumerate(unique_ids)}
    records = np.empty(len(ds), dtype=_record_dtype(ds.dim))
    records["embedding"] = ds.embeddings
    records["score"] = ds.scores
    records["id"] = [index[d] for d in ds.dataset_ids]
    fields = (DISTANCE_KINDS.index(ds.distance_kind), len(ds), ds.dim, len(unique_ids))
    write_artifact(path, DATASTORE_MAGIC, "<BIII", fields, pack_strings(unique_ids), records.tobytes())


def load_datastore(path: str | Path) -> Datastore:
    """Load a datastore; a malformed one raises ValidationError."""
    reader = Reader(Path(path).read_bytes(), path, ValidationError, DATASTORE_MAGIC, "datastore")
    kind_idx, n, dim, n_ids = reader.fields("<BIII")
    if kind_idx >= len(DISTANCE_KINDS) or n < 1:
        raise ValidationError(f"{path}: bad datastore header (distance kind tag {kind_idx}, {n} records)")
    unique_ids = reader.strings(n_ids)
    if unique_ids != sorted(set(unique_ids)):
        raise ValidationError(f"{path}: dataset-id table is not sorted and unique")
    # Bounds-check the record bytes before building a dtype from the header's D.
    records = reader.array("u1", (n, 4 * dim + 8)).view(_record_dtype(dim)).reshape(n)
    reader.end()
    id_index = records["id"].tolist()
    if set(id_index) != set(range(n_ids)):
        raise ValidationError(f"{path}: record dataset-id indices do not cover the {n_ids}-entry table")
    if not (np.all(np.isfinite(records["embedding"])) and np.all(np.isfinite(records["score"]))):
        raise ValidationError(f"{path}: non-finite embedding or score")
    return Datastore(
        embeddings=records["embedding"],
        scores=records["score"],
        dataset_ids=tuple(unique_ids[i] for i in id_index),
        distance_kind=DISTANCE_KINDS[kind_idx],
    )
