"""Inference over trained models: parametric, kNN retrieval, domain retrieval.

The datastore holds one time-pooled (embedding, score, dataset_id) record
per training sample and never changes after it is built, so queries are
pure functions. kNN weighting uses exp(-d/temperature) by default: nearer
neighbors count more. The as-published formula weighted by exp(+d), which
favors far neighbors; pass paper_literal=True to reproduce it.

``predict_split`` is the one scoring entry point: it featurizes a split
once and scores it in one inference mode for every model it is given,
each a (params, scaler, datastore) triple, such as all seeds of a run;
one model is a one-element list, and each standardizes the raw features
with its own scaler. Parametric and domain retrieval share one forward
loop and differ only in the table row that scores an utterance. The
retrieval modes make one ``retrieve_neighbors`` call per model and split
under the datastore's distance kind (euclidean or cosine, set when it is
built or loaded); a KnnConfig sets k and the weighting.

Retrieval is exact and batched. ``retrieve_neighbors`` takes a (Q, D)
batch of queries. It screens all records with one matrix product per
block of query rows, keeps every record that rounding error allows among
the k nearest, recomputes those distances row by row and ranks them by
(distance, score, dataset_id). A query gets the same neighbors, bit for
bit, in a batch of one or inside a larger batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .codec import Reader, pack_strings, write_artifact
from .corpus import CorpusManifest, PooledCorpus, Sample
from .errors import ValidationError
from .frontend import FeatureScaler, FrontendConfig, featurize, split_features
from .metrics import EvalPairs
from .model import AlignNetParams, HeadParams, ModelParams, Workspace, alignnet_raw, clip_score, head_raw

DATASTORE_MAGIC = b"SQD2"
DISTANCE_KINDS = ("euclidean", "cosine")
INFERENCE_MODES = ("parametric", "knn", "domain-retrieval")

# The screening buffer holds about this many bytes of float64 distances:
# as many query rows per block as fit, and at least one.
_BLOCK_BYTES = 2 ** 21


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """Row-wise squared norms; inf where one overflows, so that a caller can
    reject vectors too large for the distance arithmetic."""
    with np.errstate(over="ignore"):
        return np.sum(rows * rows, axis=1)


@dataclass(frozen=True)
class Datastore:
    """Immutable retrieval index: (N, D) embeddings with scores and origins.

    Derived once on construction: ``id_table`` (the sorted unique dataset
    ids), ``id_codes`` (each record's index in it, so the tie-break sorts
    integers in the same order as the strings) and ``sq_norms`` (each
    embedding's squared norm).
    """

    embeddings: np.ndarray
    scores: np.ndarray
    dataset_ids: tuple[str, ...]
    distance_kind: str = "euclidean"
    id_table: tuple[str, ...] = field(init=False, repr=False, compare=False)
    id_codes: np.ndarray = field(init=False, repr=False, compare=False)
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        emb = np.asarray(self.embeddings, dtype=np.float64)
        scores = np.asarray(self.scores, dtype=np.float64)
        if emb.ndim != 2 or emb.shape[0] < 1:
            raise ValidationError("datastore needs at least one (N, D) record")
        if scores.shape != (emb.shape[0],) or len(self.dataset_ids) != emb.shape[0]:
            raise ValidationError("embeddings, scores and dataset_ids must align")
        if self.distance_kind not in DISTANCE_KINDS:
            raise ValidationError(f"distance_kind must be one of {DISTANCE_KINDS}")
        sq_norms = _squared_norms(emb)
        if not (np.all(np.isfinite(sq_norms)) and np.all(np.isfinite(scores))):
            raise ValidationError("datastore embeddings and scores must be finite, and no squared norm may overflow")
        id_table = tuple(sorted(set(self.dataset_ids)))
        code = {d: i for i, d in enumerate(id_table)}
        object.__setattr__(self, "embeddings", emb)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "id_table", id_table)
        object.__setattr__(self, "id_codes", np.array([code[d] for d in self.dataset_ids], dtype=np.intp))
        object.__setattr__(self, "sq_norms", sq_norms)

    def __len__(self) -> int:
        return int(self.embeddings.shape[0])

    @property
    def dim(self) -> int:
        return int(self.embeddings.shape[1])


@dataclass(frozen=True)
class KnnConfig:
    k: int = 5
    temperature: float = 1.0
    paper_literal: bool = False

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        if self.temperature <= 0:
            raise ValidationError("temperature must be > 0")


@dataclass(frozen=True)
class NeighborSet:
    """The k retrieved records of each of Q queries, ascending by
    (distance, score, dataset_id): (Q, k) distances and scores, and one
    k-tuple of dataset ids per query. len() is Q.
    """

    distances: np.ndarray
    scores: np.ndarray
    dataset_ids: tuple

    def __len__(self) -> int:
        return len(self.dataset_ids)


def _screen(ds: Datastore, block: np.ndarray, q_sq: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """Approximate distances from each row of a (B, D) query block, whose
    squared norms are q_sq, to every record, written into out (B, N);
    returns each row's candidate limit.

    Euclidean screens by the squared distance ||e||^2 + ||q||^2 - 2 e.q,
    cosine by 1 - e.q / (||e|| ||q||), so both cost one matrix product.
    """
    np.matmul(block, ds.embeddings.T, out=out)
    if ds.distance_kind == "euclidean":
        out *= -2.0
        out += ds.sq_norms
        out += q_sq[:, None]
        scale = ds.sq_norms.max() + q_sq
    else:
        e_norms, q_norms = np.sqrt(ds.sq_norms), np.sqrt(q_sq)
        out *= np.divide(1.0, e_norms, out=np.zeros_like(e_norms), where=e_norms > 0)
        out *= np.divide(1.0, q_norms, out=np.zeros_like(q_norms), where=q_norms > 0)[:, None]
        np.clip(out, -1.0, 1.0, out=out)
        out[:, e_norms == 0] = -1.0
        out[q_norms == 0] = -1.0
        np.subtract(1.0, out, out=out)
        scale = 2.0
    # Error allowance, with unit roundoff u = eps/2 and M = max||e||^2 +
    # ||q||^2: each dot product of length D errs by at most D*u times the
    # sum of its terms' magnitudes, so the expansion misses the true squared
    # distance by at most (2D + 3)*u*M, and the row-wise recompute in
    # _distances by at most (D + 2)*u times a squared distance <= 2M. A
    # record of the exact top k, counting records that tie with the k-th
    # after the square root (relative gap <= 4u), therefore screens at most
    # (8D + 22)*u*M above the k-th smallest screened value. The allowance
    # (16D + 32)*u*M exceeds that. Cosine is the same argument on unit
    # vectors, M = 2.
    tol = 8 * (ds.dim + 2) * np.finfo(np.float64).eps * scale
    return np.partition(out, k - 1, axis=1)[:, k - 1] + tol


def _distances(ds: Datastore, rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Exact distances from query to the given records, each computed from
    its own record alone, so it does not depend on which rows are asked."""
    emb = ds.embeddings[rows]
    if ds.distance_kind == "euclidean":
        return np.sqrt(np.sum((emb - query) ** 2, axis=1))
    q_norm = np.linalg.norm(query)
    e_norms = np.sqrt(ds.sq_norms[rows])
    # Zero-norm vectors have no direction; give them the maximum distance.
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = np.sum(emb * query, axis=1) / (e_norms * q_norm)
    cos = np.where((e_norms == 0) | (q_norm == 0), -1.0, cos)
    return 1.0 - np.clip(cos, -1.0, 1.0)


def build_datastore(
    frontend_config: FrontendConfig,
    corpus: CorpusManifest | PooledCorpus,
    scaler: FeatureScaler | None = None,
    distance_kind: str = "euclidean",
) -> Datastore:
    """One record per sample of the train split, in the model's feature space.

    The embedding is the time-pooled feature matrix, scaled exactly as the
    trained model saw it; the score is the manifest MOS.
    """
    samples = corpus.samples("train")
    if not samples:
        raise ValidationError("corpus has no samples in split 'train'")
    work = Workspace()
    raws = (featurize(s, frontend_config, work).frames for s in samples)  # fresh arrays: standardized in place
    embeddings = np.stack([(raw if scaler is None else scaler.standardize(raw)).mean(axis=0) for raw in raws])
    return Datastore(
        embeddings=embeddings,
        scores=np.array([s.mos for s in samples]),
        dataset_ids=tuple(s.dataset_id for s in samples),
        distance_kind=distance_kind,
    )


def retrieve_neighbors(ds: Datastore, query: np.ndarray, k: int) -> NeighborSet:
    """The k nearest records of each row of a (Q, D) query batch; ties
    broken by score then dataset_id so the result never depends on
    datastore record order. Row i equals the call on query[i:i + 1] bit
    for bit.

    Each block of query rows is screened in one buffer of about 2 MB;
    only the records within the rounding-error allowance of the k-th
    screened value get exact distances and the tie-break sort.
    """
    query = np.asarray(query, dtype=np.float64)
    if query.ndim != 2 or query.shape[1] != ds.dim:
        raise ValidationError(f"query shape {query.shape} != (Q, {ds.dim})")
    if k > len(ds):
        raise ValidationError(f"k={k} exceeds datastore size {len(ds)}")
    if k < 1:
        raise ValidationError(f"k={k} must be >= 1")
    q_sq = _squared_norms(query)
    if not np.all(np.isfinite(q_sq)):
        raise ValidationError("query has non-finite values or a squared norm that overflows")
    block_rows = max(1, _BLOCK_BYTES // (8 * len(ds)))
    screened = np.empty((min(block_rows, len(query)), len(ds)))
    distances = np.empty((len(query), k))
    index = np.empty((len(query), k), dtype=np.intp)
    for start in range(0, len(query), block_rows):
        block = query[start : start + block_rows]
        approx = screened[: len(block)]
        limits = _screen(ds, block, q_sq[start : start + block_rows], k, approx)
        for i, (row, approx_row, limit) in enumerate(zip(block, approx, limits), start):
            candidates = np.flatnonzero(approx_row <= limit)
            dists = _distances(ds, candidates, row)
            order = np.lexsort((ds.id_codes[candidates], ds.scores[candidates], dists))[:k]
            distances[i] = dists[order]
            index[i] = candidates[order]
    ids = tuple(tuple(ds.dataset_ids[j] for j in row) for row in index.tolist())
    return NeighborSet(distances=distances, scores=ds.scores[index], dataset_ids=ids)


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


def predict_clipped(params: ModelParams, frames: np.ndarray, dataset_id: str | None = None) -> float:
    """One utterance's clipped forward pass; alignnet scores it with the
    table row of dataset_id. Dev eval in training and the parametric and
    domain-retrieval modes all score through it, one utterance a call."""
    if isinstance(params, HeadParams):
        return clip_score(head_raw(params, frames))
    return clip_score(alignnet_raw(params, frames, dataset_id))


def check_table_rows(table_ids: tuple[str, ...], samples: tuple[Sample, ...], split: str) -> None:
    """Parametric alignnet scoring needs a table row for every sample's
    dataset id; name the missing ones and the mode that scores them."""
    unknown = sorted({s.dataset_id for s in samples} - set(table_ids))
    if unknown:
        raise ValidationError(
            f"dataset id(s) {unknown} of split {split!r} have no row in the alignnet embedding table "
            f"{table_ids}; score unseen corpora with --inference domain-retrieval"
        )


def predict_split(
    corpus: CorpusManifest | PooledCorpus,
    split: str,
    frontend_config: FrontendConfig,
    models: Sequence[tuple[ModelParams | None, FeatureScaler | None, Datastore | None]],
    mode: str = "parametric",
    knn_config: KnnConfig | None = None,
) -> list[EvalPairs]:
    """Predict a whole split under one inference mode for each model, a
    (params, scaler, datastore) triple; one EvalPairs per model.

    Modes: "parametric" (clipped forward pass; alignnet uses each
    sample's own dataset_id, which must have a row in its table),
    "knn" (softmax-weighted mean of the k nearest datastore scores under
    the datastore's distance; params are unused beyond the shared feature
    space; knn_config defaults to KnnConfig()) and "domain-retrieval"
    (alignnet with the table row of the nearest record's dataset, how
    the alignnet scores corpora outside its table). Arguments are
    checked before any sample is featurized.

    Each sample's raw (T, D) features are read once
    (frontend.split_features: dsp ones from the store each member corpus's
    feature_store names, or a temp dir for a member without one), and each
    model standardizes its own copy with its scaler (none: the raw
    features) into one workspace buffer. The retrieval modes pool each
    model's query rows in one pass, then make one retrieve_neighbors call
    per model (k neighbors for knn, 1 for domain retrieval). One forward
    loop scores parametric and domain retrieval; it streams the split in
    parametric mode, and domain retrieval holds the raw arrays for it.
    """
    if mode not in INFERENCE_MODES:
        raise ValidationError(f"unknown inference mode {mode!r}")
    samples = corpus.samples(split)
    for params, _scaler, datastore in models:
        if mode != "parametric" and datastore is None:
            raise ValidationError(f"mode {mode!r} needs a datastore")
        if mode == "domain-retrieval" and not isinstance(params, AlignNetParams):
            raise ValidationError("domain-retrieval needs alignnet parameters")
        if mode == "parametric" and isinstance(params, AlignNetParams):
            check_table_rows(params.dataset_ids, samples, split)
    if not samples:
        raise ValidationError(f"corpus has no samples in split {split!r}")

    work = Workspace()

    def standardized(scaler: FeatureScaler | None, raw: np.ndarray) -> np.ndarray:
        """raw, or its standardized copy in work's "query" buffer (valid until the next call)."""
        return raw if scaler is None else scaler.standardize(raw, work.take("query", *raw.shape))

    cfg = knn_config or KnnConfig()
    preds: list[list[float]] = [[] for _ in models]
    row_ids = [[s.dataset_id for s in samples]] * len(models)  # parametric: each sample's own table row
    # Domain retrieval holds every utterance's raw matrix, so none may live in the workspace.
    raws = split_features(corpus, split, frontend_config, featurize, None if mode == "domain-retrieval" else work)
    if mode != "parametric":
        if mode == "domain-retrieval":
            raws = list(raws)  # the forward loop runs after retrieval
        queries = [np.empty((len(samples), datastore.dim)) for _, _, datastore in models]
        for i, (s, raw) in enumerate(zip(samples, raws, strict=True)):
            for (_params, scaler, datastore), query in zip(models, queries):
                if raw.shape[1] != datastore.dim:
                    raise ValidationError(f"{s.sample_id}: feature dim {raw.shape[1]} != datastore dim {datastore.dim}")
                # np.mean's bits (its sum, then its division) at less cost; retrieve_neighbors checks finiteness
                np.divide(np.add.reduce(standardized(scaler, raw), axis=0), len(raw), out=query[i])
        k = cfg.k if mode == "knn" else 1
        found = [retrieve_neighbors(datastore, query, k) for (_, _, datastore), query in zip(models, queries)]
        if mode == "knn":
            for pred, neighbors in zip(preds, found):
                weights = (knn_weights(d, cfg.temperature, cfg.paper_literal) for d in neighbors.distances)
                pred.extend(float(w @ sc) for w, sc in zip(weights, neighbors.scores))
        else:
            row_ids = [[ids[0] for ids in neighbors.dataset_ids] for neighbors in found]
    for i, raw in enumerate(raws):  # knn: the pooling pass above used the stream up
        for pred, (params, scaler, _datastore), ids in zip(preds, models, row_ids):
            pred.append(predict_clipped(params, standardized(scaler, raw), ids[i]))
    sample_ids = tuple(s.sample_id for s in samples)
    system_ids = tuple(s.system_id for s in samples)
    true = [s.mos for s in samples]
    return [EvalPairs(sample_ids, system_ids, np.array(true), np.array(p)) for p in preds]


def save_datastore(path: str | Path, ds: Datastore) -> None:
    """Binary datastore: magic SQD2, uint32 N, D and id count, the sorted
    dataset-id string table, then float64 embeddings (N x D), float64
    scores (N) and uint32 string-table indices (N). The file holds no
    distance: a query setting, chosen when it is loaded."""
    fields = (len(ds), ds.dim, len(ds.id_table))
    arrays = (ds.embeddings.astype("<f8"), ds.scores.astype("<f8"), ds.id_codes.astype("<u4"))
    write_artifact(path, DATASTORE_MAGIC, "<III", fields, pack_strings(ds.id_table), *(a.tobytes() for a in arrays))


def load_datastore(path: str | Path, distance_kind: str = "euclidean") -> Datastore:
    """Load a datastore queried under distance_kind; a malformed one, or
    one in the older SQDS layout, raises ValidationError."""
    reader = Reader(Path(path).read_bytes(), path, ValidationError, DATASTORE_MAGIC, "datastore")
    n, dim, n_ids = reader.fields("<III")
    if n < 1:
        raise ValidationError(f"{path}: bad datastore header ({n} records)")
    unique_ids = reader.strings(n_ids)
    if unique_ids != sorted(set(unique_ids)):
        raise ValidationError(f"{path}: dataset-id table is not sorted and unique")
    # Copies: the views into the file bytes need not be 8-byte aligned.
    embeddings = reader.array("<f8", (n, dim)).copy()
    scores = reader.array("<f8", (n,)).copy()
    id_index = reader.array("<u4", (n,)).tolist()
    reader.end()
    if set(id_index) != set(range(n_ids)):
        raise ValidationError(f"{path}: record dataset-id indices do not cover the {n_ids}-entry table")
    return Datastore(
        embeddings=embeddings,
        scores=scores,
        dataset_ids=tuple(unique_ids[i] for i in id_index),
        distance_kind=distance_kind,
    )
