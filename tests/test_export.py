"""Embedding dumps and 2-D PCA."""

import numpy as np
import pytest

from sqkit import (
    ValidationError,
    export_embeddings,
    pca_2d,
    select_samples,
)
from test_training import FRONTEND, make_corpus


class TestSelectSamples:
    def test_deterministic_per_seed_and_label(self):
        a = select_samples(50, 10, seed=4, label="bvcc")
        b = select_samples(50, 10, seed=4, label="bvcc")
        c = select_samples(50, 10, seed=4, label="other")
        assert a == b
        assert a != c

    def test_returns_sorted_unique_indices(self):
        chosen = select_samples(30, 12, seed=0, label="x")
        assert chosen == sorted(set(chosen))
        assert len(chosen) == 12
        assert all(0 <= i < 30 for i in chosen)

    def test_small_sets_are_taken_whole(self):
        assert select_samples(4, 100, seed=0, label="x") == [0, 1, 2, 3]


class TestExportEmbeddings:
    def test_collects_rows_and_flags_truncation(self, tmp_path):
        corpus = make_corpus(tmp_path, "exp", n_train=6, n_dev=3, seed=0)
        dump = export_embeddings(
            [("exp-train", corpus, "train", "train"), ("exp-dev", corpus, "dev", "test")],
            FRONTEND,
            None,
            n_per_set=4,
        )
        assert dump.embeddings.shape == (4 + 3, 6)
        assert dump.set_labels.count("exp-train") == 4
        assert dump.set_labels.count("exp-dev") == 3
        assert dump.truncated_sets == ("exp-dev",)
        assert set(dump.roles) == {"train", "test"}

    def test_same_seed_same_choice(self, tmp_path):
        corpus = make_corpus(tmp_path, "expd", n_train=10, n_dev=3, seed=1)
        sets = [("s", corpus, "train", "train")]
        a = export_embeddings(sets, FRONTEND, None, n_per_set=5, seed=9)
        b = export_embeddings(sets, FRONTEND, None, n_per_set=5, seed=9)
        assert a.sample_ids == b.sample_ids
        np.testing.assert_array_equal(a.embeddings, b.embeddings)

    def test_empty_split_rejected(self, tmp_path):
        corpus = make_corpus(tmp_path, "expe", seed=2)
        with pytest.raises(ValidationError, match="no samples"):
            export_embeddings([("s", corpus, "test", "test")], FRONTEND, None)

    def test_n_per_set_validated(self, tmp_path):
        corpus = make_corpus(tmp_path, "expn", seed=3)
        with pytest.raises(ValidationError):
            export_embeddings([("s", corpus, "train", "train")], FRONTEND, None, n_per_set=0)


class TestPca2d:
    def test_planar_cloud_reconstructs_exactly(self):
        # Points on a 2-D plane inside a 7-D space: the projection must
        # lose nothing, so mean + proj @ components rebuilds the cloud.
        rng = np.random.default_rng(4)
        basis = np.linalg.qr(rng.normal(size=(7, 2)))[0].T
        coeffs = rng.normal(size=(40, 2)) * [3.0, 1.5]
        points = coeffs @ basis + rng.normal(size=7)
        proj, components, mean = pca_2d(points)
        rebuilt = mean + proj @ components
        np.testing.assert_allclose(rebuilt, points, atol=1e-12)

    def test_shapes(self):
        rng = np.random.default_rng(5)
        proj, components, mean = pca_2d(rng.normal(size=(12, 5)))
        assert proj.shape == (12, 2)
        assert components.shape == (2, 5)
        assert mean.shape == (5,)

    def test_first_axis_carries_most_variance(self):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(100, 4)) * [10.0, 1.0, 0.5, 0.1]
        proj, _, _ = pca_2d(points)
        assert proj[:, 0].var() > proj[:, 1].var()

    def test_orthonormal_components(self):
        rng = np.random.default_rng(7)
        _, components, _ = pca_2d(rng.normal(size=(20, 6)))
        np.testing.assert_allclose(components @ components.T, np.eye(2), atol=1e-12)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValidationError):
            pca_2d(np.zeros((1, 5)))
        with pytest.raises(ValidationError):
            pca_2d(np.zeros((5, 1)))
