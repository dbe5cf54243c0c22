"""Correctness checks on a repetition's outputs, independent of sqkit.

Nothing here imports sqkit: the digest hashes files, the metric readers
parse CSV and JSON, and the kNN reference reimplements retrieval with
numpy from the precomputed embedding files and ``scaler.bin``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

# Every file the pipeline writes that must be byte-identical across runs
# of the same code and seed.
DIGEST_GLOBS = (
    "train/seed*/params.ckpt",
    "train/seed*/scaler.bin",
    "train/seed*/meta.json",
    "train/seed*/log.jsonl",
    "infer/seed*/predictions.csv",
    "infer/seed*/datastore.bin",
    "records.csv",
    "records_mean.csv",
)
# datastore.bin exists only where infer runs a retrieval mode
REQUIRED_GLOBS = tuple(g for g in DIGEST_GLOBS if not g.endswith("datastore.bin"))


def output_digest(out: Path) -> tuple[str, list[str]]:
    """sha256 over (relative path, bytes) of every deterministic output,
    plus the required kinds of file that are missing."""
    h = hashlib.sha256()
    missing = []
    for pattern in DIGEST_GLOBS:
        paths = sorted(out.glob(pattern))
        if not paths and pattern in REQUIRED_GLOBS:
            missing.append(pattern)
        for path in paths:
            h.update(path.relative_to(out).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest(), missing


def mean_utt_lcc(out: Path) -> float | None:
    """Mean utt_lcc over the test sets in records_mean.csv; None when a
    value is undefined or absent."""
    with open(out / "records_mean.csv", encoding="utf-8", newline="") as fh:
        values = [row["value"] for row in csv.DictReader(fh) if row["metric"] == "utt_lcc"]
    if not values or "undefined" in values:
        return None
    return float(np.mean([float(v) for v in values]))


def steps_run(out: Path) -> int:
    return sum(json.loads(p.read_text(encoding="utf-8"))["steps_run"] for p in out.glob("train/seed*/meta.json"))


def prediction_rows(out: Path) -> int:
    total = 0
    for path in out.glob("infer/seed*/predictions.csv"):
        with open(path, encoding="utf-8", newline="") as fh:
            total += sum(1 for _ in csv.DictReader(fh))
    return total


def _read_sqe1(path: Path) -> np.ndarray:
    data = path.read_bytes()
    if data[:4] != b"SQE1":
        raise ValueError(f"{path}: not an SQE1 file")
    t, d = struct.unpack("<II", data[4:12])
    return np.frombuffer(data, dtype="<f4", count=t * d, offset=12).reshape(t, d).astype(np.float64)


def _read_scaler(path: Path) -> tuple[np.ndarray, np.ndarray]:
    data = path.read_bytes()
    if data[:4] != b"SQSC":
        raise ValueError(f"{path}: not a scaler file")
    (dim,) = struct.unpack("<I", data[4:8])
    mean = np.frombuffer(data, dtype="<f8", count=dim, offset=8)
    std = np.frombuffer(data, dtype="<f8", count=dim, offset=8 + 8 * dim)
    return mean, std


def _manifest(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def knn_reference(inputs: Path, out: Path, train_corpora: tuple[str, ...], query_corpus: str, k: int,
                  temperature: float, n_check: int, seed: int) -> tuple[int, float]:
    """Recompute the kNN prediction of a seeded subset of queries for every
    seed and compare with predictions.csv.

    The datastore is every sample of the train splits the program wrote
    under out/corpora (the split itself is the program's; the embeddings,
    scores and dataset ids come from the benchmark's own input files).
    Ranking: euclidean distance between time-pooled scaled vectors, ties
    broken by score then dataset id; weights: softmax of -d/T.
    Returns (queries checked, largest absolute difference).
    """
    by_id = {}
    for csv_path in inputs.glob("*.csv"):
        for row in _manifest(csv_path):
            by_id[row["sample_id"]] = row
    train_ids = [row["sample_id"] for name in train_corpora for row in _manifest(out / "corpora" / name / "train.csv")]
    query_rows = _manifest(inputs / f"{query_corpus}.csv")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x4B4E4E]))
    chosen = rng.choice(len(query_rows), size=min(n_check, len(query_rows)), replace=False)
    raw_train = [_read_sqe1(inputs / by_id[sid]["embedding_path"]) for sid in train_ids]
    scores = np.array([float(by_id[sid]["mos"]) for sid in train_ids])
    ids = np.array([by_id[sid]["dataset"] for sid in train_ids])

    checked, worst = 0, 0.0
    for seed_dir in sorted(out.glob("infer/seed*")):
        mean, std = _read_scaler(out / "train" / seed_dir.name / "scaler.bin")
        store = np.stack([((f - mean) / std).mean(axis=0) for f in raw_train])
        predicted = {row["sample_id"]: float(row["pred"]) for row in _manifest(seed_dir / "predictions.csv")}
        for i in chosen:
            row = query_rows[i]
            query = ((_read_sqe1(inputs / row["embedding_path"]) - mean) / std).mean(axis=0)
            dist = np.sqrt(np.sum((store - query) ** 2, axis=1))
            order = np.lexsort((ids, scores, dist))[:k]
            x = -dist[order] / temperature
            w = np.exp(x - x.max())
            w /= w.sum()
            worst = max(worst, abs(float(w @ scores[order]) - predicted[row["sample_id"]]))
            checked += 1
    return checked, worst
