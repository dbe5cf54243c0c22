"""
Retrieval-based scoring without a decoder
=========================================

Builds a datastore of (embedding, score) records from a training split,
then predicts by softmax-weighted k-nearest-neighbor regression. No
gradient step is involved; the training data itself is the model.
"""

import tempfile
from pathlib import Path

import numpy as np

from sqkit import (
    FrontendConfig,
    KnnConfig,
    SynthSpec,
    build_datastore,
    featurize,
    generate_synthetic_corpus,
    knn_weights,
    mse,
    predict_split,
    retrieve_neighbors,
    save_datastore,
    load_datastore,
    split_random,
)

with tempfile.TemporaryDirectory(prefix="sqkit-demo-") as tmp:
    work = Path(tmp)
    spec = SynthSpec(
        name="demo",
        out_dir=work / "wav",
        n_utterances=48,
        snr_grid_db=(-2.0, 0.0, 2.0, 5.0),
        mos_intercept=3.0,
        mos_slope=0.4,
        sigma=0.0,
        duration_s=(0.3, 0.5),
    )
    corpus = split_random(generate_synthetic_corpus(spec, seed=0), 0.75, seed=0)
    frontend = FrontendConfig()

    # one record per training utterance: time-pooled embedding plus its score
    ds = build_datastore(frontend, corpus)
    print("datastore:", len(ds), "records of dim", ds.dim, "distance", ds.distance_kind)

    # inspect retrieval for one held-out utterance: queries are (Q, D) rows
    sample = corpus.samples("dev")[0]
    query = featurize(sample, frontend).frames.mean(axis=0)[None]
    neighbors = retrieve_neighbors(ds, query, k=5)
    distances, scores = neighbors.distances[0], neighbors.scores[0]
    print("query", sample.sample_id, "true", round(sample.mos, 2))
    for dist, score in zip(distances, scores):
        print(f"  neighbor at distance {dist:7.3f}  score {score:.2f}")

    # temperature controls how sharply weight concentrates on near neighbors;
    # the prediction is the weighted mean of the neighbor scores
    for temperature in (10.0, 1.0, 0.01):
        w = knn_weights(distances, temperature)
        print(f"T={temperature:<5}  weights {np.round(w, 3)}  pred {w @ scores:.3f}")

    # whole-split accuracy
    (pairs,) = predict_split(corpus, "dev", frontend, [(None, None, ds)], mode="knn",
                             knn_config=KnnConfig(k=5, temperature=1.0))
    print(f"dev mse via retrieval: {mse(pairs):.4f}")

    # datastores serialize to a single binary file (float64 payload, so the
    # loaded store is bit-identical); the distance is chosen at load
    save_datastore(work / "ds.bin", ds)
    again = load_datastore(work / "ds.bin", distance_kind="euclidean")
    assert np.array_equal(again.embeddings, ds.embeddings) and np.array_equal(again.scores, ds.scores)
    print("round-tripped datastore with", len(again), "records")
