"""The benchmark's workloads: one sqkit recipe each, plus generated inputs.

A workload is a recipe (the flat key = value file the sqkit CLI reads),
the extra flags each command gets, and for knn-retrieval the precomputed
embedding files and manifests the benchmark writes before ``prepare``.
The workload seed feeds every corpus and embedding generator; the model
training seeds stay fixed so a seed changes the data, not the recipe.

Sizes are chosen so that six or more repetitions fit in one run and
the layer a workload isolates dominates its command (see README.md).
Clip durations span a narrow band, so the total audio a command handles,
and with it the work, changes with the seed by under 3% (one standard
deviation, on train-alignnet's 20 dev clips) and by about 1% elsewhere.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

COMMANDS = ("prepare", "train", "infer", "benchmark")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # utt_lcc floor: a constant predictor has no defined correlation and a
    # shuffled one sits near 0, so a floor far above 0 rejects both. None
    # at the tiny size, whose few training steps promise no accuracy.
    lcc_floor: float | None
    corpora: int
    recipe: str
    command_args: dict[str, tuple[str, ...]] = field(default_factory=dict)
    knn_inputs: dict | None = None


def _synthetic(name: str, seed: int, n: int, lo: float, hi: float, rate: int = 16000, delta: float = 0.0,
               split_ratio: float | None = None) -> str:
    lines = [
        f"corpus.{name}.kind = synthetic",
        f"corpus.{name}.n = {n}",
        f"corpus.{name}.seed = {seed}",
        f"corpus.{name}.duration_lo = {lo}",
        f"corpus.{name}.duration_hi = {hi}",
        f"corpus.{name}.rate = {rate}",
        f"corpus.{name}.delta = {delta}",
    ]
    if split_ratio is not None:
        lines.append(f"corpus.{name}.split_ratio = {split_ratio}")
    return "\n".join(lines)


# Sizes per workload: "full" is what the benchmark measures, "tiny" is for
# the smoke test of the benchmark itself.
SIZES = {
    "train-alignnet": {
        "full": {"n": 64, "steps": 160},
        "tiny": {"n": 16, "steps": 30},
    },
    "score-many": {
        "full": {"n_train": 24, "n_test": 40, "steps": 60},
        "tiny": {"n_train": 12, "n_test": 6, "steps": 4},
    },
    "knn-retrieval": {
        "full": {"n_each": 2000, "n_query": 400, "steps": 100},
        "tiny": {"n_each": 60, "n_query": 10, "steps": 4},
    },
}


def train_alignnet(seed: int, size: str) -> Workload:
    s = SIZES["train-alignnet"][size]
    recipe = "\n".join([
        _synthetic("shifta", 100 + seed, s["n"], 1.6, 2.4, delta=-0.5, split_ratio=0.85),
        _synthetic("shiftb", 200 + seed, s["n"], 1.6, 2.4, delta=0.5, split_ratio=0.85),
        "frontend.n_mels = 40",
        "model.kind = alignnet",
        "model.hidden = 64",
        "model.embed_dim = 16",
        "model.decoder_hidden = 32",
        "train.corpus = shifta+shiftb",
        "train.batch_size = 16",
        "train.lr = 0.01",
        f"train.max_steps = {s['steps']}",
        # patience >= max_steps: early stopping never changes the work done
        f"train.patience_steps = {s['steps']}",
        "train.eval_interval = 50",
        "train.loss_tau = 0.0",
        "infer.corpus = shifta",
        "infer.split = train",
        "infer.mode = parametric",
        "benchmark.tests = shifta,shiftb",
        "benchmark.split = dev",
        "seeds = 0",
    ])
    return Workload(
        name="train-alignnet",
        why="alignnet SGD on pooled shifted corpora: the per-sample backward pass dominates train_s",
        lcc_floor=None if size == "tiny" else 0.7,
        corpora=2,
        recipe=recipe,
    )


def score_many(seed: int, size: str) -> Workload:
    s = SIZES["score-many"][size]
    recipe = "\n".join([
        # the head trains on both recording rates so it can score both test corpora
        _synthetic("small22k", 300 + seed, s["n_train"], 1.2, 1.8, rate=22050, split_ratio=0.75),
        _synthetic("small8k", 600 + seed, s["n_train"], 1.2, 1.8, rate=8000, split_ratio=0.75),
        _synthetic("wide22k", 400 + seed, s["n_test"], 2.6, 3.4, rate=22050),
        _synthetic("narrow8k", 500 + seed, s["n_test"], 2.6, 3.4, rate=8000),
        "frontend.n_mels = 40",
        "model.kind = head",
        "model.hidden = 32",
        "train.corpus = small22k+small8k",
        "train.batch_size = 8",
        "train.lr = 0.003",
        f"train.max_steps = {s['steps']}",
        f"train.patience_steps = {s['steps']}",
        "train.eval_interval = 10",
        "train.loss_tau = 0.0",
        "infer.corpus = wide22k",
        "infer.mode = parametric",
        "benchmark.tests = wide22k,narrow8k",
        "seeds = 0,1",
    ])
    return Workload(
        name="score-many",
        why="a tiny head scores two resampled test corpora for two seeds: featurization and corpus regeneration dominate",
        lcc_floor=None if size == "tiny" else 0.7,
        corpora=4,
        recipe=recipe,
    )


def knn_retrieval(seed: int, size: str) -> Workload:
    s = SIZES["knn-retrieval"][size]
    recipe = "\n".join([
        "corpus.knna.kind = manifest",
        "corpus.knna.path = inputs/knna.csv",
        "corpus.knna.seed = 0",
        f"corpus.knna.split_ratio = {KNN_SPLIT_RATIO}",
        "corpus.knnb.kind = manifest",
        "corpus.knnb.path = inputs/knnb.csv",
        "corpus.knnb.seed = 0",
        f"corpus.knnb.split_ratio = {KNN_SPLIT_RATIO}",
        "corpus.knnq.kind = manifest",
        "corpus.knnq.path = inputs/knnq.csv",
        "frontend.kind = precomputed",
        f"frontend.expected_dim = {KNN_DIM}",
        "model.kind = alignnet",
        "model.hidden = 32",
        "model.embed_dim = 8",
        "model.decoder_hidden = 16",
        "train.corpus = knna+knnb",
        "train.batch_size = 16",
        "train.lr = 0.01",
        f"train.max_steps = {s['steps']}",
        f"train.patience_steps = {s['steps']}",
        "train.eval_interval = 50",
        "train.loss_tau = 0.0",
        "infer.corpus = knnq",
        "infer.mode = knn",
        f"infer.knn_k = {KNN_K}",
        f"infer.knn_temperature = {KNN_TEMPERATURE}",
        "benchmark.tests = knna,knnb",
        "benchmark.split = dev",
        "seeds = 0",
    ])
    return Workload(
        name="knn-retrieval",
        why="kNN and 1-NN domain retrieval over a 3.8k-record datastore of precomputed embeddings: no DSP runs",
        lcc_floor=None if size == "tiny" else 0.7,
        corpora=3,
        recipe=recipe,
        command_args={"benchmark": ("--inference", "domain-retrieval")},
        knn_inputs={"seed": seed, "n_each": s["n_each"], "n_query": s["n_query"]},
    )


KNN_DIM = 64
KNN_K = 5
KNN_TEMPERATURE = 1.0
KNN_SPLIT_RATIO = 0.95
KNN_SHIFTS = {"knna": -0.5, "knnb": 0.5}

WORKLOADS = {
    "train-alignnet": train_alignnet,
    "score-many": score_many,
    "knn-retrieval": knn_retrieval,
}

MANIFEST_HEADER = ["sample_id", "audio_path", "embedding_path", "dataset", "system_id", "mos",
                   "listener_id", "listener_score"]


def write_knn_inputs(inputs_dir: Path, seed: int, n_each: int, n_query: int) -> None:
    """Write the knn-retrieval corpora: SQE1 frame files plus one manifest
    CSV per corpus (knna, knnb: the two training datasets; knnq: queries
    drawn from both).

    Each utterance has a latent point z in R^3 that fixes both its mean
    embedding (a seeded linear map into R^64 plus a per-dataset offset)
    and its MOS (3 + tanh(u . z) + the dataset's shift). Frames scatter
    around the mean embedding, 10 to 30 frames per utterance.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6B6E6E]))
    latent = 3
    basis = rng.normal(size=(latent, KNN_DIM))
    direction = rng.normal(size=latent)
    direction /= np.linalg.norm(direction)
    offsets = {name: rng.normal(scale=1.5, size=KNN_DIM) for name in KNN_SHIFTS}
    emb_dir = inputs_dir / "emb"
    emb_dir.mkdir(parents=True, exist_ok=True)

    def utterance(dataset: str, source: str, sample_id: str) -> list[str]:
        z = rng.normal(size=latent)
        mos = float(np.clip(3.0 + np.tanh(z @ direction) + KNN_SHIFTS[source], 1.0, 5.0))
        center = z @ basis + offsets[source]
        n_frames = int(rng.integers(10, 31))
        frames = center + rng.normal(scale=0.5, size=(n_frames, KNN_DIM))
        path = emb_dir / f"{sample_id}.sqe"
        payload = np.ascontiguousarray(frames, dtype="<f4")
        with open(path, "wb") as fh:
            fh.write(b"SQE1" + struct.pack("<II", n_frames, KNN_DIM) + payload.tobytes())
        return [sample_id, "", f"emb/{sample_id}.sqe", dataset, f"sys{int(z[0] > 0)}", repr(mos), "", ""]

    tables = {name: [utterance(name, name, f"{name}-{i:05d}") for i in range(n_each)] for name in KNN_SHIFTS}
    sources = sorted(KNN_SHIFTS)
    tables["knnq"] = [utterance("knnq", sources[i % 2], f"knnq-{i:05d}") for i in range(n_query)]
    for name, rows in tables.items():
        with open(inputs_dir / f"{name}.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(MANIFEST_HEADER)
            writer.writerows(rows)
