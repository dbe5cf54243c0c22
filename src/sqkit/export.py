"""Data exports for external plotting: embedding dumps and PCA.

Nothing here renders anything; the outputs are rows and matrices meant
for whatever plotting stack the user prefers.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import CorpusManifest, PooledCorpus
from .errors import ValidationError
from .frontend import FeatureScaler, FrontendConfig, featurize, split_features
from .model import Workspace
from .seeding import named_rng

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EmbeddingDump:
    """Pooled embeddings for a subset of samples from several labeled sets."""

    set_labels: tuple[str, ...]
    sample_ids: tuple[str, ...]
    roles: tuple[str, ...]  # "train" or "test" flag per row
    embeddings: np.ndarray  # (N, D)
    truncated_sets: tuple[str, ...]  # sets smaller than the requested n


def select_samples(n_total: int, n_wanted: int, seed: int, label: str) -> list[int]:
    """Deterministic without-replacement choice of row indices for one set."""
    n_take = min(n_wanted, n_total)
    perm = named_rng(seed, f"export/{label}").permutation(n_total)
    return sorted(perm[:n_take].tolist())


def export_embeddings(
    sets: list[tuple[str, CorpusManifest | PooledCorpus, str, str]],
    frontend_config: FrontendConfig,
    scaler: FeatureScaler | None,
    n_per_set: int = 100,
    seed: int = 0,
) -> EmbeddingDump:
    """Pool-and-collect embeddings from each (label, corpus, split, role) set.

    Takes n_per_set random samples per set (the whole set when smaller,
    recorded in truncated_sets); the choice is a pure function of
    (seed, label). dsp features are read from the store that the set's
    corpus names in its feature_store (frontend.split_features), which is
    built whole for the set's split first when missing, as for any reader.
    """
    if n_per_set < 1:
        raise ValidationError("n_per_set must be >= 1")
    labels, ids, roles, rows = [], [], [], []
    truncated = []
    work = Workspace()
    for label, corpus, split, role in sets:
        samples = corpus.samples(split)
        if not samples:
            raise ValidationError(f"set {label!r} has no samples in split {split!r}")
        if len(samples) < n_per_set:
            truncated.append(label)
            logger.info("set %r has %d < %d samples; taking all", label, len(samples), n_per_set)
        chosen = select_samples(len(samples), n_per_set, seed, label)
        raw_mats = split_features(corpus, split, frontend_config, featurize, work, chosen)
        for i, raw in zip(chosen, raw_mats, strict=True):
            labels.append(label)
            ids.append(samples[i].sample_id)
            roles.append(role)
            if scaler is not None:
                raw = scaler.standardize(raw)
            rows.append(raw.mean(axis=0))
    return EmbeddingDump(
        set_labels=tuple(labels),
        sample_ids=tuple(ids),
        roles=tuple(roles),
        embeddings=np.stack(rows),
        truncated_sets=tuple(truncated),
    )


def pca_2d(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project (N, D) points onto their top two principal axes.

    Returns (projection (N, 2), components (2, D), mean (D,)); the
    projection is exact for point clouds lying in a 2-D affine subspace:
    mean + projection @ components reconstructs them.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2 or points.shape[1] < 2:
        raise ValidationError(f"pca_2d needs at least 2 points of dim >= 2, got {points.shape}")
    mean = points.mean(axis=0)
    centered = points - mean
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:2]
    return centered @ components.T, components, mean
