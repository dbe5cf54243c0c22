"""Datastore retrieval, softmax-weighted kNN, and the three inference modes."""

import dataclasses
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
import sqkit.inference
from sqkit import (
    CorpusManifest,
    Datastore,
    EmbeddingMatrix,
    FeatureScaler,
    FrontendConfig,
    KnnConfig,
    PooledCorpus,
    Sample,
    SynthSpec,
    ValidationError,
    alignnet_raw,
    build_datastore,
    clip_score,
    featurize,
    generate_synthetic_corpus,
    head_raw,
    init_alignnet,
    init_head,
    knn_weights,
    load_datastore,
    predict_split,
    retrieve_neighbors,
    save_datastore,
    save_precomputed,
)
from sqkit.codec import write_artifact
from sqkit.inference import DATASTORE_MAGIC
from test_training import DIM, FRONTEND, make_corpus


def line_datastore(values, scores, ids=None, kind="euclidean"):
    values = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    ids = tuple(ids) if ids is not None else tuple(f"d{i}" for i in range(len(values)))
    return Datastore(embeddings=values, scores=np.asarray(scores, float), dataset_ids=ids, distance_kind=kind)


def predict_frames(monkeypatch, mats, mode, params=None, knn_config=None, datastore=None, dataset_id="q"):
    """predict_split over one sample per (T, D) frame matrix in mats, all
    from dataset_id; featurize is replaced by a lookup of the matrices."""
    frames = {f"s{i}": EmbeddingMatrix(frames=m) for i, m in enumerate(mats)}
    samples = tuple(Sample(sid, None, Path(sid), dataset_id, None, 3.0) for sid in frames)
    corpus = CorpusManifest("frames", "synthetic", {"test": samples})
    monkeypatch.setattr(sqkit.inference, "featurize", lambda sample, *_: frames[sample.sample_id])
    return predict_split(corpus, "test", FRONTEND, [(params, None, datastore)], mode, knn_config)[0].pred


def knn_predictions(monkeypatch, ds, queries, cfg):
    """knn-mode predictions, one per row of the (Q, D) queries: each is a
    one-frame utterance, so its time pool is the row itself."""
    one_frame = np.asarray(queries, dtype=np.float64)[:, None, :]
    return predict_frames(monkeypatch, one_frame, "knn", knn_config=cfg, datastore=ds)


def dsp_corpus(tmp_path, name, seed):
    """13 short synthetic clips: 8 train and 5 dev samples."""
    spec = SynthSpec(name, tmp_path / name, n_utterances=13, duration_s=(0.1, 0.2))
    samples = generate_synthetic_corpus(spec, seed).samples("train")
    return CorpusManifest(name, "synthetic", {"train": samples[:8], "dev": samples[8:]})


def batch_row(neighbors, i):
    return sqkit.inference.NeighborSet(neighbors.distances[i], neighbors.scores[i], neighbors.dataset_ids[i])


class TestBuildDatastore:
    def test_one_record_per_train_sample(self, tmp_path):
        corpus = make_corpus(tmp_path, "dsa", n_train=9, n_dev=3, seed=0)
        ds = build_datastore(FRONTEND, corpus)
        assert len(ds) == 9
        np.testing.assert_array_equal(ds.scores, [s.mos for s in corpus.samples("train")])
        assert set(ds.dataset_ids) == {"dsa"}

    def test_rebuild_is_identical(self, tmp_path):
        corpus = make_corpus(tmp_path, "dsb", seed=1)
        a = build_datastore(FRONTEND, corpus)
        b = build_datastore(FRONTEND, corpus)
        np.testing.assert_array_equal(a.embeddings, b.embeddings)

    def test_records_are_time_pooled_features(self, tmp_path):
        from sqkit import featurize

        corpus = make_corpus(tmp_path, "dsc", n_train=3, n_dev=3, seed=2)
        ds = build_datastore(FRONTEND, corpus)
        expected = featurize(corpus.samples("train")[0], FRONTEND).frames.mean(axis=0)
        np.testing.assert_array_equal(ds.embeddings[0], expected)

    def test_records_are_exact_time_means(self, tmp_path):
        """A one-frame utterance pools to itself, v and -v cancel, and every
        record is the exact mean of its frames to rounding, inside each
        column's range."""
        rng = np.random.default_rng(7)
        v = rng.normal(size=DIM)
        utterances = [v[None], np.stack([v, -v])] + [rng.normal(size=(n, DIM)) for n in (5, 12)]
        samples = []
        for i, frames in enumerate(utterances):
            save_precomputed(tmp_path / f"u{i}.bin", frames)
            samples.append(Sample(f"u{i}", None, tmp_path / f"u{i}.bin", "pool", None, 3.0))
        corpus = CorpusManifest("pool", "non-synthetic", {"train": tuple(samples)})
        ds = build_datastore(FRONTEND, corpus)
        stored = [f.astype(np.float32).astype(np.float64) for f in utterances]
        assert ds.embeddings[0].tobytes() == stored[0][0].tobytes()
        assert ds.embeddings[1].tolist() == [0.0] * DIM
        for record, frames in zip(ds.embeddings, stored):
            exact = [float(sum(map(Fraction, col.tolist())) / len(col)) for col in frames.T]
            np.testing.assert_allclose(record, exact, rtol=1e-15, atol=1e-300)
            assert np.all(record >= frames.min(axis=0)) and np.all(record <= frames.max(axis=0))

    def test_empty_split_rejected(self, tmp_path):
        corpus = make_corpus(tmp_path, "dsd", seed=3)
        dev_only = dataclasses.replace(corpus, splits={"dev": corpus.samples("dev")})
        with pytest.raises(ValidationError, match="no samples in split 'train'"):
            build_datastore(FRONTEND, dev_only)


class TestRetrieveNeighbors:
    def test_sorted_ascending_and_sized(self):
        ds = line_datastore([5.0, 1.0, 3.0, 2.0], [1, 2, 3, 4])
        ns = retrieve_neighbors(ds, np.array([[0.0], [4.5]]), k=3)
        assert len(ns) == 2
        np.testing.assert_array_equal(ns.distances, [[1.0, 2.0, 3.0], [0.5, 1.5, 2.5]])
        np.testing.assert_array_equal(ns.scores, [[2.0, 4.0, 3.0], [1.0, 3.0, 4.0]])
        assert ns.dataset_ids == (("d1", "d3", "d2"), ("d0", "d2", "d3"))

    def test_k_larger_than_store_rejected(self):
        ds = line_datastore([1.0, 2.0], [3, 4])
        with pytest.raises(ValidationError, match="exceeds"):
            retrieve_neighbors(ds, np.array([[0.0]]), k=3)
        with pytest.raises(ValidationError, match="k=0"):
            retrieve_neighbors(ds, np.array([[0.0]]), k=0)

    def test_query_shape_checked(self):
        # A (D,) vector is not a batch: a single query is a (1, D) batch.
        ds = line_datastore([1.0], [3])
        for bad in (np.zeros(1), np.zeros(2), np.zeros((3, 2)), np.zeros((1, 1, 1))):
            with pytest.raises(ValidationError, match="query shape"):
                retrieve_neighbors(ds, bad, k=1)

    def test_tie_break_ignores_record_order(self):
        # Two records at identical distance: the one with lower score wins
        # the slot no matter how the store is laid out.
        a = line_datastore([1.0, -1.0], [4.0, 2.0], ids=("p", "q"))
        b = line_datastore([-1.0, 1.0], [2.0, 4.0], ids=("q", "p"))
        na = retrieve_neighbors(a, np.array([[0.0]]), k=1)
        nb = retrieve_neighbors(b, np.array([[0.0]]), k=1)
        assert na.scores[0, 0] == nb.scores[0, 0] == 2.0
        assert na.dataset_ids == nb.dataset_ids == (("q",),)


def reference_neighbors(ds, query, k):
    """Retrieval as it was before batching: every distance, then a full
    lexsort with the dataset ids as a string key. Cosine takes its dot
    products row by row, as the kernel does."""
    emb = ds.embeddings
    if ds.distance_kind == "euclidean":
        dists = np.sqrt(np.sum((emb - query) ** 2, axis=1))
    else:
        q_norm = np.linalg.norm(query)
        e_norms = np.linalg.norm(emb, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            cos = np.sum(emb * query, axis=1) / (e_norms * q_norm)
        cos = np.where((e_norms == 0) | (q_norm == 0), -1.0, cos)
        dists = 1.0 - np.clip(cos, -1.0, 1.0)
    order = np.lexsort((np.array(ds.dataset_ids), ds.scores, dists))[:k]
    return dists[order], ds.scores[order], tuple(ds.dataset_ids[i] for i in order)


def random_points(rng, style, shape):
    if style == "normal":
        return rng.normal(size=shape)
    if style == "grid":  # duplicate-heavy: exact distance ties, zero vectors
        return rng.integers(-1, 2, size=shape).astype(np.float64)
    return 1e4 + rng.normal(size=shape)  # large offset: the expansion cancels


def assert_same_bits(got, want):
    distances, scores, ids = want
    assert got.distances.tobytes() == np.asarray(distances).tobytes()
    assert got.scores.tobytes() == np.asarray(scores).tobytes()
    assert got.dataset_ids == ids


class TestBatchedKernel:
    def test_matches_reference_on_random_stores(self, monkeypatch):
        """200 random stores, both distance kinds, every k from 1 to N:
        each batch row and the batch of one of its query equal the
        reference bit for bit."""
        rng = np.random.default_rng(5005)
        for _ in range(200):
            n, d = int(rng.integers(1, 41)), int(rng.integers(1, 9))
            style = str(rng.choice(["normal", "grid", "offset"]))
            ds = Datastore(
                random_points(rng, style, (n, d)),
                rng.integers(1, 4, size=n).astype(np.float64),
                tuple(str(x) for x in rng.choice(["b", "a", "c"], size=n)),
                distance_kind=str(rng.choice(sqkit.inference.DISTANCE_KINDS)),
            )
            n_queries = int(rng.integers(1, 12))
            queries = random_points(rng, style, (n_queries, d))
            copies = rng.integers(0, n, size=n_queries // 2)
            queries[: len(copies)] = ds.embeddings[copies]
            # Screen 1 to n_queries rows per block, so batches span blocks.
            block_rows = int(rng.integers(1, n_queries + 1))
            monkeypatch.setattr(sqkit.inference, "_BLOCK_BYTES", 8 * n * block_rows)
            full = [reference_neighbors(ds, q, n) for q in queries]
            for k in range(1, n + 1):
                batch = retrieve_neighbors(ds, queries, k)
                assert batch.distances.shape == batch.scores.shape == (n_queries, k)
                assert len(batch) == n_queries
                for i, q in enumerate(queries):
                    want = tuple(part[:k] for part in full[i])
                    single = retrieve_neighbors(ds, q[None], k)
                    assert single.distances.shape == (1, k) and len(single) == 1
                    assert_same_bits(batch_row(single, 0), want)
                    assert_same_bits(batch_row(batch, i), want)

    def test_batch_spanning_blocks_at_the_real_block_size(self):
        rng = np.random.default_rng(5006)
        n = 2 ** 16 + 3
        ds = Datastore(
            rng.integers(-3, 4, size=(n, 3)).astype(np.float64),
            rng.integers(1, 6, size=n).astype(np.float64),
            tuple(f"d{i}" for i in rng.integers(0, 4, size=n)),
        )
        queries = rng.integers(-3, 4, size=(7, 3)).astype(np.float64)
        assert len(queries) > sqkit.inference._BLOCK_BYTES // (8 * n) >= 1
        for k in (1, 7, 500):
            batch = retrieve_neighbors(ds, queries, k)
            for i, q in enumerate(queries):
                want = reference_neighbors(ds, q, k)
                assert_same_bits(batch_row(retrieve_neighbors(ds, q[None], k), 0), want)
                np.testing.assert_array_equal(batch.distances[i], want[0])
                assert batch.dataset_ids[i] == want[2]

    def test_empty_batch(self):
        ds = line_datastore([1.0, 2.0], [3, 4])
        batch = retrieve_neighbors(ds, np.zeros((0, 1)), k=2)
        assert batch.distances.shape == (0, 2) and batch.dataset_ids == ()


class TestNonFiniteInputs:
    # 1e200 is finite, but its square overflows the distance arithmetic.
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_query_rejected(self, bad):
        ds = Datastore(np.eye(3), np.ones(3), ("a", "b", "c"))
        with pytest.raises(ValidationError, match="non-finite"):
            retrieve_neighbors(ds, np.array([[bad, 0.0, 0.0]]), 2)
        batch = np.zeros((4, 3))
        batch[2, 1] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            retrieve_neighbors(ds, batch, 2)

    @pytest.mark.parametrize("field, bad", [
        ("embeddings", np.nan), ("embeddings", -np.inf), ("embeddings", 1e200), ("scores", np.nan), ("scores", np.inf),
    ])
    def test_datastore_rejected(self, field, bad):
        arrays = {"embeddings": np.zeros((2, 2)), "scores": np.ones(2)}
        arrays[field].flat[1] = bad
        with pytest.raises(ValidationError, match="finite"):
            Datastore(dataset_ids=("a", "b"), **arrays)

    def test_loading_a_nan_record_is_validation_error(self, tmp_path):
        path = tmp_path / "store.bin"
        save_datastore(path, Datastore(np.array([[1234.5, 0.0]]), np.array([3.0]), ("a",)))
        data = path.read_bytes()
        marker = np.float64(1234.5).tobytes()
        assert data.count(marker) == 1
        path.write_bytes(data.replace(marker, np.float64(np.nan).tobytes()))
        with pytest.raises(ValidationError, match="finite"):
            load_datastore(path)


class TestKnnWeights:
    def test_sum_to_one_and_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = rng.uniform(0, 10, size=rng.integers(1, 8))
            w = knn_weights(d, temperature=rng.uniform(0.1, 5))
            assert w.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(w > 0)

    def test_matches_softmax_oracle(self):
        d = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(
            knn_weights(d, temperature=1.0), oracles.softmax_oracle([-0.0, -1.0, -2.0]), rtol=1e-12
        )

    def test_near_neighbors_weigh_more_by_default(self):
        w = knn_weights(np.array([0.0, 2.0]), temperature=1.0)
        assert w[0] > w[1]

    def test_paper_literal_reverses_the_preference(self):
        w = knn_weights(np.array([0.0, 2.0]), temperature=1.0, paper_literal=True)
        assert w[0] < w[1]

    def test_tiny_temperature_stays_finite(self):
        w = knn_weights(np.array([0.1, 5.0]), temperature=1e-9)
        assert np.all(np.isfinite(w))
        assert w[0] == pytest.approx(1.0)


class TestKnnPredict:
    def test_k1_returns_nearest_score(self, monkeypatch):
        ds = line_datastore([0.0, 10.0], [2.0, 5.0])
        assert knn_predictions(monkeypatch, ds, [[1.0], [9.0]], KnnConfig(k=1)).tolist() == [2.0, 5.0]

    def test_equidistant_pair_averages(self, monkeypatch):
        ds = line_datastore([1.0, -1.0], [2.0, 4.0])
        assert knn_predictions(monkeypatch, ds, [[0.0]], KnnConfig(k=2))[0] == pytest.approx(3.0)

    def test_k3_matches_softmax_oracle(self, monkeypatch):
        ds = line_datastore([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
        pred = knn_predictions(monkeypatch, ds, [[0.0]], KnnConfig(k=3, temperature=1.0))[0]
        w = oracles.softmax_oracle([0.0, -1.0, -2.0])
        expected = w[0] * 1.0 + w[1] * 3.0 + w[2] * 5.0
        assert pred == pytest.approx(expected, rel=1e-12)

    def test_prediction_is_convex_combination(self, monkeypatch):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            ds = Datastore(
                embeddings=rng.normal(size=(n, 3)),
                scores=rng.uniform(1, 5, size=n),
                dataset_ids=tuple(f"d{i}" for i in range(n)),
            )
            k = int(rng.integers(1, n + 1))
            cfg = KnnConfig(k=k, temperature=rng.uniform(0.2, 3))
            preds = knn_predictions(monkeypatch, ds, rng.normal(size=(4, 3)), cfg)
            assert np.all(ds.scores.min() - 1e-12 <= preds) and np.all(preds <= ds.scores.max() + 1e-12)

    def test_record_order_invariance(self, monkeypatch):
        rng = np.random.default_rng(2)
        emb = rng.normal(size=(8, 2))
        emb[3] = emb[5]  # force a distance tie
        scores = rng.uniform(1, 5, size=8)
        ids = tuple(f"d{i}" for i in range(8))
        perm = rng.permutation(8)
        a = Datastore(embeddings=emb, scores=scores, dataset_ids=ids)
        b = Datastore(
            embeddings=emb[perm], scores=scores[perm], dataset_ids=tuple(ids[i] for i in perm)
        )
        q = np.stack([rng.normal(size=2), emb[3]])
        cfg = KnnConfig(k=4, temperature=0.7)
        assert knn_predictions(monkeypatch, a, q, cfg).tobytes() == knn_predictions(monkeypatch, b, q, cfg).tobytes()

    def test_tiny_temperature_approaches_one_nearest_neighbor(self, monkeypatch):
        ds = line_datastore([0.3, 1.0, 4.0], [1.5, 3.0, 4.5])
        q = [[0.0]]
        soft = knn_predictions(monkeypatch, ds, q, KnnConfig(k=3, temperature=1e-6))[0]
        hard = knn_predictions(monkeypatch, ds, q, KnnConfig(k=1))[0]
        assert soft == pytest.approx(hard, abs=1e-6)

    def test_paper_literal_pulls_toward_far_scores(self, monkeypatch):
        ds = line_datastore([0.0, 2.0], [1.0, 5.0])
        q = [[0.0]]
        default = knn_predictions(monkeypatch, ds, q, KnnConfig(k=2, temperature=1.0))[0]
        literal = knn_predictions(monkeypatch, ds, q, KnnConfig(k=2, temperature=1.0, paper_literal=True))[0]
        assert default < 3.0 < literal


class TestCosineDistance:
    def test_orders_unit_vectors_by_angle(self):
        angles = np.array([0.1, 0.8, 2.0])
        emb = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        ds = Datastore(
            embeddings=emb, scores=np.array([1.0, 2.0, 3.0]),
            dataset_ids=("a", "b", "c"), distance_kind="cosine",
        )
        ns = retrieve_neighbors(ds, np.array([[1.0, 0.0]]), k=3)
        assert ns.dataset_ids == (("a", "b", "c"),)
        assert np.all(np.diff(ns.distances[0]) > 0)

    def test_zero_norm_record_gets_maximum_distance(self):
        emb = np.array([[0.0, 0.0], [1.0, 0.0]])
        ds = Datastore(
            embeddings=emb, scores=np.array([1.0, 5.0]),
            dataset_ids=("z", "u"), distance_kind="cosine",
        )
        ns = retrieve_neighbors(ds, np.array([[1.0, 0.0]]), k=2)
        assert ns.dataset_ids == (("u", "z"),)
        assert ns.distances[0, 1] == 2.0

    def test_parallel_vectors_have_zero_distance(self):
        ds = Datastore(
            embeddings=np.array([[2.0, 0.0]]), scores=np.array([3.0]),
            dataset_ids=("a",), distance_kind="cosine",
        )
        ns = retrieve_neighbors(ds, np.array([[0.5, 0.0]]), k=1)
        assert ns.distances[0, 0] == 0.0


class TestParametricPredict:
    def test_head_equals_forward_clip(self, monkeypatch):
        rng = np.random.default_rng(3)
        params = init_head(DIM, 3, seed=0)
        params = params.with_arrays({"b2": np.array(3.0)})
        mats = [rng.normal(size=(5, DIM)), 40.0 * rng.normal(size=(2, DIM))]
        preds = predict_frames(monkeypatch, mats, "parametric", params)
        assert preds.tolist() == [clip_score(head_raw(params, m)) for m in mats]

    def test_alignnet_scores_each_sample_with_its_own_row(self, monkeypatch):
        params = init_alignnet(DIM, ("a", "b"), seed=0, hidden=3, embed_dim=2, decoder_hidden=3)
        params = params.with_arrays({"c2": np.array(3.0), "table": np.array([[2.0, -2.0], [-2.0, 2.0]])})
        frames = np.random.default_rng(4).normal(size=(4, DIM))
        preds = {d: predict_frames(monkeypatch, [frames], "parametric", params, dataset_id=d)[0] for d in "ab"}
        assert preds == {d: clip_score(alignnet_raw(params, frames, d)) for d in "ab"}
        assert preds["a"] != preds["b"]

    def test_alignnet_without_dataset_id_rejected(self, tmp_path, monkeypatch):
        # A sample whose dataset has no table row fails before any sample
        # is featurized, and the error names the id and the way out.
        corpus = make_corpus(tmp_path, "unseen", seed=14)
        params = init_alignnet(DIM, ("a",), seed=0, hidden=3, embed_dim=2, decoder_hidden=3)
        forbid_featurize(monkeypatch)
        with pytest.raises(ValidationError, match=r"\['unseen'\].*--inference domain-retrieval"):
            predict_split(corpus, "dev", FRONTEND, [(params, None, None)])


class TestDomainRetrieval:
    def test_single_corpus_store_always_picks_it(self, tmp_path):
        corpus = make_corpus(tmp_path, "only", seed=4)
        ds = build_datastore(FRONTEND, corpus)
        assert retrieve_neighbors(ds, np.zeros((1, ds.dim)), 1).dataset_ids == (("only",),)

    def test_exact_match_query_picks_its_own_record(self):
        rng = np.random.default_rng(5)
        emb = rng.normal(size=(6, 3))
        ds = Datastore(
            embeddings=emb, scores=rng.uniform(1, 5, 6),
            dataset_ids=("a", "a", "b", "b", "c", "c"),
        )
        assert retrieve_neighbors(ds, emb, 1).dataset_ids == tuple((d,) for d in ds.dataset_ids)

    def test_identical_table_rows_make_retrieval_irrelevant(self, monkeypatch):
        rng = np.random.default_rng(6)
        params = init_alignnet(3, ("a", "b"), seed=1, hidden=4, embed_dim=2, decoder_hidden=3)
        params = params.with_arrays({"table": np.tile(params.table[0], (2, 1))})
        frames = rng.normal(size=(4, 3))
        store_a = Datastore(
            embeddings=rng.normal(size=(2, 3)), scores=np.array([2.0, 4.0]), dataset_ids=("a", "a")
        )
        store_b = Datastore(
            embeddings=rng.normal(size=(2, 3)), scores=np.array([2.0, 4.0]), dataset_ids=("b", "b")
        )
        pred_a = predict_frames(monkeypatch, [frames], "domain-retrieval", params, datastore=store_a)
        pred_b = predict_frames(monkeypatch, [frames], "domain-retrieval", params, datastore=store_b)
        assert pred_a.tolist() == pred_b.tolist() == [clip_score(alignnet_raw(params, frames, "a"))]


def forbid_featurize(monkeypatch):
    def featurized(*_args, **_kwargs):
        raise AssertionError("predict_split featurized a sample before checking its arguments")

    monkeypatch.setattr(sqkit.inference, "featurize", featurized)


class TestPredictSplit:
    def test_parametric_matches_per_sample_loop(self, tmp_path):
        from sqkit import featurize

        corpus = make_corpus(tmp_path, "ps", n_train=6, n_dev=4, seed=7)
        params = init_head(6, 4, seed=2)
        (pairs,) = predict_split(corpus, "dev", FRONTEND, [(params, None, None)])
        expected = [clip_score(head_raw(params, featurize(s, FRONTEND).frames)) for s in corpus.samples("dev")]
        np.testing.assert_array_equal(pairs.pred, expected)
        np.testing.assert_array_equal(pairs.true, [s.mos for s in corpus.samples("dev")])

    def test_an_empty_split_is_rejected(self, tmp_path):
        corpus = make_corpus(tmp_path, "pse", seed=7)
        with pytest.raises(ValidationError, match="corpus has no samples in split 'test'"):
            predict_split(corpus, "test", FRONTEND, [(init_head(6, 4, seed=2), None, None)])

    def test_knn_mode_needs_datastore(self, tmp_path, monkeypatch):
        corpus = make_corpus(tmp_path, "psk", seed=8)
        params = init_head(6, 4, seed=0)
        forbid_featurize(monkeypatch)
        with pytest.raises(ValidationError, match="datastore"):
            predict_split(corpus, "dev", FRONTEND, [(params, None, None)], mode="knn")

    def test_domain_retrieval_needs_alignnet(self, tmp_path, monkeypatch):
        corpus = make_corpus(tmp_path, "psd", seed=9)
        ds = build_datastore(FRONTEND, corpus)
        params = init_head(6, 4, seed=0)
        forbid_featurize(monkeypatch)
        with pytest.raises(ValidationError, match="alignnet"):
            predict_split(corpus, "dev", FRONTEND, [(params, None, ds)], mode="domain-retrieval")

    @pytest.mark.parametrize("mode", ["knn", "domain-retrieval"])
    def test_a_feature_dim_other_than_the_datastores_is_refused(self, monkeypatch, mode):
        params = init_alignnet(2, ("a",), seed=0, hidden=3, embed_dim=2, decoder_hidden=3)
        with pytest.raises(ValidationError) as info:
            predict_frames(monkeypatch, [np.ones((3, 2))], mode, params=params, datastore=line_datastore([1.0], [3.0]))
        assert str(info.value) == "s0: feature dim 2 != datastore dim 1"

    def test_unknown_mode_rejected(self, tmp_path, monkeypatch):
        corpus = make_corpus(tmp_path, "psu", seed=10)
        params = init_head(6, 4, seed=0)
        forbid_featurize(monkeypatch)
        with pytest.raises(ValidationError, match="unknown inference mode"):
            predict_split(corpus, "dev", FRONTEND, [(params, None, None)], mode="oracle")

    def test_the_datastore_decides_the_distance(self, monkeypatch):
        # (9, 0) is nearest to (10, 1) by euclidean distance but parallel
        # to (1, 0): one KnnConfig scores it 5 or 1 by the store's kind.
        stores = {
            kind: Datastore(np.array([[1.0, 0.0], [10.0, 1.0]]), np.array([1.0, 5.0]), ("a", "b"), distance_kind=kind)
            for kind in ("euclidean", "cosine")
        }
        cfg = KnnConfig(k=1)
        preds = {kind: knn_predictions(monkeypatch, ds, [[9.0, 0.0]], cfg).tolist() for kind, ds in stores.items()}
        assert preds == {"euclidean": [5.0], "cosine": [1.0]}

    def test_knn_needs_no_params_and_defaults_to_the_store_distance(self, tmp_path):
        corpus = make_corpus(tmp_path, "psn", seed=13)
        ds = build_datastore(FRONTEND, corpus, distance_kind="cosine")
        (pairs,) = predict_split(corpus, "dev", FRONTEND, [(None, None, ds)], mode="knn")
        cfg = KnnConfig()
        expected = []
        for s in corpus.samples("dev"):
            want = reference_neighbors(ds, featurize(s, FRONTEND).frames.mean(axis=0), cfg.k)
            expected.append(float(knn_weights(want[0], cfg.temperature) @ want[1]))
        np.testing.assert_array_equal(pairs.pred, expected)

    @pytest.mark.parametrize("kind", ["euclidean", "cosine"])
    def test_retrieval_modes_match_per_sample_loop_bitwise(self, tmp_path, monkeypatch, kind):
        pooled = PooledCorpus((
            make_corpus(tmp_path, "pa", n_train=10, n_dev=7, seed=21),
            make_corpus(tmp_path, "pb", n_train=10, n_dev=7, seed=22),
        ))
        ds = build_datastore(FRONTEND, pooled, distance_kind=kind)
        params = init_alignnet(DIM, ("pa", "pb"), seed=3, hidden=4, embed_dim=2, decoder_hidden=3)
        params = params.with_arrays({"c2": np.array(3.0), "table": np.array([[2.0, -2.0], [-2.0, 2.0]])})
        # Three query rows per screening block: the 14 dev samples span five.
        monkeypatch.setattr(sqkit.inference, "_BLOCK_BYTES", 8 * len(ds) * 3)
        cfg = KnnConfig(k=3, temperature=0.5)
        mats = [featurize(s, FRONTEND).frames for s in pooled.samples("dev")]
        # Per sample: a batch of one, then the weighting or the forward pass.
        singles = [batch_row(retrieve_neighbors(ds, m.mean(axis=0)[None], cfg.k), 0) for m in mats]

        (knn,) = predict_split(pooled, "dev", FRONTEND, [(params, None, ds)], mode="knn", knn_config=cfg)
        expected = np.array([float(knn_weights(n.distances, cfg.temperature) @ n.scores) for n in singles])
        assert knn.pred.tobytes() == expected.tobytes()

        (dr,) = predict_split(pooled, "dev", FRONTEND, [(params, None, ds)], mode="domain-retrieval")
        nearest = [retrieve_neighbors(ds, m.mean(axis=0)[None], 1).dataset_ids[0][0] for m in mats]
        expected = np.array([clip_score(alignnet_raw(params, m, d)) for m, d in zip(mats, nearest)])
        assert dr.pred.tobytes() == expected.tobytes()
        assert len(set(dr.pred.tolist())) > 1

    @pytest.mark.parametrize("kind", ["euclidean", "cosine"])
    @pytest.mark.parametrize("k", [1, 5])
    def test_retrieval_modes_equal_the_per_sample_reference(self, tmp_path, kind, k):
        """Both retrieval modes, two models in one call (one with a scaler,
        one without), against the per-sample path written out: featurize,
        scaler.standardize, the time mean, retrieve_neighbors on a batch of one,
        then knn_weights or the clipped forward pass. The first dev query
        ties at distance 0 with two records of equal score that differ in
        dataset id, the "rb" one stored first: the tie-break picks "ra"."""
        pooled = PooledCorpus((
            make_corpus(tmp_path, "ra", n_train=8, n_dev=4, seed=61),
            make_corpus(tmp_path, "rb", n_train=8, n_dev=4, seed=62),
        ))
        train, dev = pooled.samples("train"), pooled.samples("dev")
        raw = np.concatenate([featurize(s, FRONTEND).frames for s in train])

        def reference(scaler, sample):
            frames = featurize(sample, FRONTEND).frames
            frames = frames if scaler is None else scaler.standardize(frames)
            return frames, frames.mean(axis=0)[None]

        models = []
        for seed, scaler in enumerate([FeatureScaler(mean=raw.mean(axis=0), std=raw.std(axis=0)), None]):
            params = init_alignnet(DIM, ("ra", "rb"), seed=seed, hidden=4, embed_dim=2, decoder_hidden=3)
            params = params.with_arrays({"c2": np.array(3.0), "table": np.array([[2.0, -2.0], [-2.0, 2.0]])})
            tie = reference(scaler, dev[0])[1]
            ds = Datastore(
                np.concatenate([tie, tie] + [reference(scaler, s)[1] for s in train]),
                np.array([3.5, 3.5] + [s.mos for s in train]),
                ("rb", "ra") + tuple(s.dataset_id for s in train),
                distance_kind=kind,
            )
            models.append((params, scaler, ds))
        cfg = KnnConfig(k=k, temperature=0.5)
        knn = predict_split(pooled, "dev", FRONTEND, models, "knn", cfg)
        dr = predict_split(pooled, "dev", FRONTEND, models, "domain-retrieval")

        for (params, scaler, ds), got_knn, got_dr in zip(models, knn, dr):
            want_knn, want_dr = [], []
            for s in dev:
                frames, query = reference(scaler, s)
                near = retrieve_neighbors(ds, query, k)
                want_knn.append(float(knn_weights(near.distances[0], cfg.temperature, cfg.paper_literal) @ near.scores[0]))
                nearest = retrieve_neighbors(ds, query, 1).dataset_ids[0][0]
                want_dr.append(clip_score(alignnet_raw(params, frames, nearest)))
            assert got_knn.pred.tobytes() == np.array(want_knn).tobytes()
            assert got_dr.pred.tobytes() == np.array(want_dr).tobytes()
            frames, query = reference(scaler, dev[0])
            tied = retrieve_neighbors(ds, query, 2)
            assert tied.dataset_ids[0] == ("ra", "rb") and tied.distances[0, 0] == tied.distances[0, 1]
            assert got_dr.pred[0] == clip_score(alignnet_raw(params, frames, "ra")) != clip_score(
                alignnet_raw(params, frames, "rb")
            )

    @pytest.mark.parametrize("mode", ["parametric", "knn", "domain-retrieval"])
    def test_several_models_score_as_each_does_alone(self, tmp_path, monkeypatch, mode):
        """Models with their own scalers, parameters and datastores, scored
        in one call, each featurized sample shared: every model's result
        equals its own one-model call, and the sample is featurized once.

        Two inputs: an SQE1 split goes through featurize on every read, so a
        second read shows; a dsp split is featurized once into its store and
        read back through the workspace, so a model that overwrote the raw
        features there would change the next model's scores."""
        sqe1 = PooledCorpus((
            make_corpus(tmp_path, "ma", n_train=8, n_dev=5, seed=31),
            make_corpus(tmp_path, "mb", n_train=8, n_dev=5, seed=32),
        ))
        dsp = PooledCorpus((dsp_corpus(tmp_path / "dsp", "ma", seed=31), dsp_corpus(tmp_path / "dsp", "mb", seed=32)))
        featurized = []
        real = sqkit.inference.featurize

        def counted(sample, *args):
            featurized.append(sample.sample_id)
            return real(sample, *args)

        for frontend, pooled in ((FRONTEND, sqe1), (FrontendConfig(n_mels=DIM // 2), dsp)):
            raw = np.concatenate([featurize(s, frontend).frames for s in pooled.samples("train")])
            models = []
            for seed in range(3):
                scaler = FeatureScaler(mean=raw.mean(axis=0) + 0.1 * seed, std=raw.std(axis=0) * (1.0 + seed))
                params = init_alignnet(DIM, ("ma", "mb"), seed=seed, hidden=4, embed_dim=2, decoder_hidden=3)
                table = np.array([[1.0, -1.0], [-1.0, 1.0]]) * (seed + 1)
                params = params.with_arrays({"c2": np.array(3.0), "table": table})
                models.append((params, scaler, build_datastore(frontend, pooled, scaler=scaler)))
            cfg = KnnConfig(k=3, temperature=0.5)
            alone = [predict_split(pooled, "dev", frontend, [model], mode, cfg)[0].pred for model in models]
            featurized.clear()
            monkeypatch.setattr(sqkit.inference, "featurize", counted)
            together = predict_split(pooled, "dev", frontend, models, mode, cfg)
            monkeypatch.setattr(sqkit.inference, "featurize", real)
            assert [pairs.pred.tobytes() for pairs in together] == [pred.tobytes() for pred in alone], frontend.kind
            assert len({pred.tobytes() for pred in alone}) == len(models)  # the models do differ
            assert featurized == [s.sample_id for s in pooled.samples("dev")]

    def test_knn_predictions_stay_in_score_range(self, tmp_path):
        corpus = make_corpus(tmp_path, "psr", n_train=10, n_dev=6, seed=11)
        ds = build_datastore(FRONTEND, corpus)
        params = init_head(6, 4, seed=0)
        (pairs,) = predict_split(corpus, "dev", FRONTEND, [(params, None, ds)], mode="knn", knn_config=KnnConfig(k=3))
        assert np.all(pairs.pred >= 1.0) and np.all(pairs.pred <= 5.0)


class TestDatastoreFiles:
    def test_round_trip_with_float32_quantization(self, tmp_path):
        rng = np.random.default_rng(12)
        ds = Datastore(
            embeddings=rng.normal(size=(5, 4)).astype(np.float32),
            scores=rng.uniform(1, 5, 5).astype(np.float32),
            dataset_ids=("x", "y", "x", "z", "y"),
            distance_kind="cosine",
        )
        path = tmp_path / "store.bin"
        save_datastore(path, ds)
        loaded = load_datastore(path, "cosine")
        np.testing.assert_array_equal(loaded.embeddings, ds.embeddings)
        np.testing.assert_array_equal(loaded.scores, ds.scores)
        assert loaded.dataset_ids == ds.dataset_ids
        assert loaded.distance_kind == "cosine"

    def test_float64_store_round_trips_exactly(self, tmp_path):
        rng = np.random.default_rng(13)
        ds = Datastore(
            embeddings=rng.normal(size=(4, 3)),
            scores=rng.uniform(1, 5, 4),
            dataset_ids=("a", "b", "c", "d"),
        )
        path = tmp_path / "store64.bin"
        save_datastore(path, ds)
        loaded = load_datastore(path)
        assert loaded.embeddings.tobytes() == ds.embeddings.tobytes()
        assert loaded.scores.tobytes() == ds.scores.tobytes()
        assert loaded.distance_kind == "euclidean"  # the file holds no distance; the loader's default applies

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"WHAT" + b"\x00" * 30)
        with pytest.raises(ValidationError, match="not a datastore"):
            load_datastore(path)

    def test_a_header_of_no_records_is_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        write_artifact(path, DATASTORE_MAGIC, "<III", (0, 2, 0))
        with pytest.raises(ValidationError) as info:
            load_datastore(path)
        assert str(info.value) == f"{path}: bad datastore header (0 records)"

    @pytest.mark.parametrize("table", [b"\x01\x00b\x01\x00a", b"\x01\x00a\x01\x00a"])
    def test_an_unsorted_or_duplicated_id_table_is_rejected(self, tmp_path, table):
        path = tmp_path / "store.bin"
        save_datastore(path, Datastore(np.eye(2), np.array([2.0, 4.0]), ("a", "b")))
        data = path.read_bytes()
        path.write_bytes(data.replace(b"\x01\x00a\x01\x00b", table, 1))
        with pytest.raises(ValidationError) as info:
            load_datastore(path)
        assert str(info.value) == f"{path}: dataset-id table is not sorted and unique"


class TestDatastoreValidation:
    def test_misaligned_fields_rejected(self):
        with pytest.raises(ValidationError):
            Datastore(embeddings=np.zeros((2, 3)), scores=np.zeros(3), dataset_ids=("a", "b"))

    def test_empty_store_rejected(self):
        with pytest.raises(ValidationError):
            Datastore(embeddings=np.zeros((0, 3)), scores=np.zeros(0), dataset_ids=())

    def test_bad_distance_kind_rejected(self):
        with pytest.raises(ValidationError):
            Datastore(
                embeddings=np.zeros((1, 2)), scores=np.zeros(1),
                dataset_ids=("a",), distance_kind="manhattan",
            )

    def test_knn_config_validation(self):
        with pytest.raises(ValidationError):
            KnnConfig(k=0)
        with pytest.raises(ValidationError):
            KnnConfig(temperature=0.0)
