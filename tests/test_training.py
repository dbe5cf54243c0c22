"""Loss, checkpoint ledger, the SGD loop, two-phase fine-tuning, seed sweeps."""

from pathlib import Path

import numpy as np
import pytest

from sqkit import (
    CheckpointLedger,
    CorpusManifest,
    EmbeddingMatrix,
    FeatureScaler,
    FrontendConfig,
    HeadParams,
    PooledCorpus,
    Sample,
    TrainConfig,
    ValidationError,
    alignnet_raw,
    clipped_mse,
    featurize,
    head_raw,
    init_alignnet,
    init_head,
    named_rng,
    params_equal,
    pool,
    run_seeds,
    save_precomputed,
    select_criterion,
    train,
    train_mdf,
)

DIM = 6


def make_corpus(tmp_path, name, n_train=12, n_dev=6, seed=0, mos_fn=None, dev_mos_const=None):
    """Tiny corpus of precomputed embeddings whose pooled mean encodes mos."""
    rng = np.random.default_rng(seed)
    emb_dir = Path(tmp_path) / name
    emb_dir.mkdir(parents=True, exist_ok=True)

    def build(split, count):
        samples = []
        for i in range(count):
            base = rng.normal(size=DIM)
            frames = np.tile(base, (3, 1)) + 0.01 * rng.normal(size=(3, DIM))
            if dev_mos_const is not None and split == "dev":
                mos = dev_mos_const
            elif mos_fn is not None:
                mos = mos_fn(base)
            else:
                mos = float(np.clip(3.0 + base[0], 1.0, 5.0))
            path = emb_dir / f"{split}{i}.bin"
            save_precomputed(path, EmbeddingMatrix(frames=frames.astype(np.float32)))
            samples.append(
                Sample(
                    sample_id=f"{name}-{split}{i}",
                    audio_ref=None,
                    embedding_ref=path,
                    dataset_id=name,
                    system_id=f"sys{i % 3}",
                    mos=mos,
                )
            )
        return tuple(samples)

    corpus = CorpusManifest(
        name=name,
        domain_tag="non-synthetic",
        language="en",
        native_rate_hz=16000,
        splits={"train": build("train", n_train), "dev": build("dev", n_dev)},
    )
    corpus.validate()
    return corpus


FRONTEND = FrontendConfig(kind="precomputed", expected_dim=DIM)


def per_sample_reference(params, frames, dataset_id):
    """Raw score and d(raw)/d(theta) of one utterance, written out the
    unpacked way (alignnet builds the fused trunk+embedding matrix)."""
    t = len(frames)
    pre1 = frames @ params.w1 + params.b1
    trunk = np.maximum(pre1, 0.0)
    if isinstance(params, HeadParams):
        d_trunk = np.where(pre1 > 0.0, params.w2, 0.0) / t
        grads = {"w1": frames.T @ d_trunk, "b1": d_trunk.sum(axis=0), "w2": trunk.mean(axis=0), "b2": np.ones(())}
        return head_raw(params, frames), grads
    h, row = params.hidden, params.row_index(dataset_id)
    fused = np.concatenate([trunk, np.tile(params.table[row], (t, 1))], axis=1)
    pre2 = fused @ params.v1 + params.c1
    d_dec = np.where(pre2 > 0.0, params.v2, 0.0) / t
    d_fused = d_dec @ params.v1.T
    d_trunk = np.where(pre1 > 0.0, d_fused[:, :h], 0.0)
    d_table = np.zeros_like(params.table)
    d_table[row] = d_fused[:, h:].sum(axis=0)
    grads = {
        "w1": frames.T @ d_trunk,
        "b1": d_trunk.sum(axis=0),
        "table": d_table,
        "v1": fused.T @ d_dec,
        "c1": d_dec.sum(axis=0),
        "v2": np.maximum(pre2, 0.0).mean(axis=0),
        "c2": np.ones(()),
    }
    return alignnet_raw(params, frames, dataset_id), grads


class TestClippedMse:
    def test_tau_zero_is_plain_mse(self):
        preds = np.array([1.0, 2.0, 4.0])
        targets = np.array([1.5, 2.0, 3.0])
        loss, grad = clipped_mse(preds, targets, tau=0.0)
        assert loss == pytest.approx((0.25 + 0.0 + 1.0) / 3)
        np.testing.assert_allclose(grad, 2 * (preds - targets) / 3)

    def test_errors_inside_margin_cost_nothing(self):
        loss, grad = clipped_mse(np.array([3.1, 2.9]), np.array([3.0, 3.0]), tau=0.25)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_mixed_errors(self):
        # |0.1| <= 0.25 drops out; 0.5^2 / 2 = 0.125 stays.
        loss, grad = clipped_mse(np.array([3.1, 3.5]), np.array([3.0, 3.0]), tau=0.25)
        assert loss == pytest.approx(0.125)
        np.testing.assert_allclose(grad, [0.0, 0.5])

    def test_boundary_error_is_inside(self):
        loss, _ = clipped_mse(np.array([3.25]), np.array([3.0]), tau=0.25)
        assert loss == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            clipped_mse(np.zeros(3), np.zeros(4), tau=0.0)


class TestSelectCriterion:
    def test_mapping(self):
        assert select_criterion("synthetic") == "sys_srcc"
        assert select_criterion("non-synthetic") == "utt_lcc"
        assert select_criterion("pooled") == "utt_lcc"

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValidationError):
            select_criterion("telephone")


class TestCheckpointLedger:
    PARAMS = init_head(3, 2, seed=0)

    def test_keeps_top_k_sorted(self):
        ledger = CheckpointLedger(top_k=3)
        for step, value in [(1, 0.2), (2, 0.9), (3, 0.5), (4, 0.7), (5, 0.1)]:
            ledger.offer(step, value, self.PARAMS)
        assert ledger.values() == [0.9, 0.7, 0.5]
        assert ledger.best.step == 2

    def test_equal_to_worst_is_not_an_improvement(self):
        ledger = CheckpointLedger(top_k=2)
        ledger.offer(1, 0.5, self.PARAMS)
        ledger.offer(2, 0.8, self.PARAMS)
        assert not ledger.offer(3, 0.5, self.PARAMS)
        assert ledger.last_improvement_step == 2
        assert ledger.offer(4, 0.6, self.PARAMS)
        assert ledger.last_improvement_step == 4
        assert ledger.values() == [0.8, 0.6]

    def test_insertion_while_not_full_counts_as_improvement(self):
        ledger = CheckpointLedger(top_k=3)
        ledger.offer(10, 0.9, self.PARAMS)
        assert ledger.offer(20, 0.1, self.PARAMS)
        assert ledger.last_improvement_step == 20

    def test_ties_rank_by_earlier_step(self):
        ledger = CheckpointLedger(top_k=3)
        ledger.offer(5, 0.7, self.PARAMS)
        ledger.offer(1, 0.7, self.PARAMS)
        assert [e.step for e in ledger.entries] == [1, 5]

    def test_eviction_unlinks_checkpoint_file(self, tmp_path):
        ledger = CheckpointLedger(top_k=1)
        low = tmp_path / "low.bin"
        high = tmp_path / "high.bin"
        low.write_bytes(b"x")
        high.write_bytes(b"y")
        ledger.offer(1, 0.2, self.PARAMS, path=low)
        ledger.offer(2, 0.9, self.PARAMS, path=high)
        assert not low.exists()
        assert high.exists()

    def test_non_finite_value_rejected(self):
        ledger = CheckpointLedger(top_k=2)
        assert not ledger.offer(1, float("nan"), self.PARAMS)
        assert ledger.entries == []


class TestTrainLoop:
    # The packed step sums gradients in another order than a per-sample
    # loop, so the hand reference agrees to rounding, not bitwise: at most
    # 6e-17 measured on parameters near 0.7. 1e-15 is still far below the
    # step itself, which moves every parameter array by more than 1e-6.
    def check_one_step(self, kind, corpus, params, **sizes):
        config = TrainConfig(
            batch_size=8, lr=0.01, momentum=0.9, max_steps=1, loss_tau=0.0, seed=3,
            eval_interval=1, patience_steps=10, top_k=2,
        )
        result = train(kind, corpus, FRONTEND, config, **sizes)
        assert params_equal(result.initial_params, params)

        # Replicate the step by hand from the same deterministic pieces.
        samples = corpus.samples("train")
        raw_mats = [featurize(s, FRONTEND) for s in samples]
        scaler = FeatureScaler.fit(np.concatenate([m.frames for m in raw_mats]))
        mats = [scaler.transform(m) for m in raw_mats]
        order = named_rng(3, "shuffle").permutation(8).tolist()
        raws, grads = [], []
        for i in order:
            raw, g = per_sample_reference(params, mats[i].frames, samples[i].dataset_id)
            raws.append(raw)
            grads.append(g)
        targets = np.array([samples[i].mos for i in order])
        _, dpred = clipped_mse(np.array(raws), targets, tau=0.0)
        total = {name: np.zeros_like(arr) for name, arr in params.as_dict().items()}
        for scale, g in zip(dpred, grads):
            for name in total:
                total[name] += scale * g[name]
        expected = {name: arr - 0.01 * total[name] for name, arr in params.as_dict().items()}

        assert result.steps_run == 1 and result.stop_reason == "max_steps"
        for name, arr in result.params.as_dict().items():
            assert np.max(np.abs(expected[name] - params.as_dict()[name])) > 1e-6  # the step moved it
            np.testing.assert_allclose(arr, expected[name], rtol=0, atol=1e-15)

    def test_one_step_matches_hand_sgd(self, tmp_path):
        corpus = make_corpus(tmp_path, "tiny", n_train=8, n_dev=5, seed=1)
        self.check_one_step("head", corpus, init_head(DIM, 4, seed=3), hidden=4)

    def test_one_alignnet_step_over_both_datasets_matches_hand_sgd(self, tmp_path):
        # batch_size 8 takes the whole pooled train split: both table rows in one batch.
        corpus = pool([
            make_corpus(tmp_path, "seta", n_train=4, n_dev=4, seed=1),
            make_corpus(tmp_path, "setb", n_train=4, n_dev=4, seed=2),
        ])
        params = init_alignnet(DIM, ("seta", "setb"), seed=3, hidden=4, embed_dim=2, decoder_hidden=3)
        self.check_one_step("alignnet", corpus, params, hidden=4, embed_dim=2, decoder_hidden=3)

    def test_same_seed_is_bit_identical(self, tmp_path):
        corpus = make_corpus(tmp_path, "det", seed=2)
        config = TrainConfig(batch_size=4, lr=0.01, max_steps=30, eval_interval=10, seed=5,
                             patience_steps=100)
        a = train("head", corpus, FRONTEND, config, hidden=4)
        b = train("head", corpus, FRONTEND, config, hidden=4)
        assert params_equal(a.params, b.params)
        assert a.log == b.log

    def test_zero_steps_returns_initialization(self, tmp_path):
        corpus = make_corpus(tmp_path, "zero", seed=3)
        config = TrainConfig(max_steps=0, seed=1)
        result = train("head", corpus, FRONTEND, config, hidden=4)
        assert params_equal(result.params, result.initial_params)
        assert result.ledger.entries == []
        assert result.steps_run == 0
        assert result.stop_reason == "zero_steps"

    def test_early_stop_when_dev_criterion_stays_undefined(self, tmp_path):
        # Constant dev targets make the correlation undefined at every
        # eval, so nothing ever enters the ledger and patience runs out.
        corpus = make_corpus(tmp_path, "flat", seed=4, dev_mos_const=3.0)
        config = TrainConfig(
            batch_size=4, max_steps=500, eval_interval=1, patience_steps=7, seed=2,
        )
        result = train("head", corpus, FRONTEND, config, hidden=4)
        assert result.steps_run == 8
        assert result.stop_reason == "patience"
        assert result.ledger.entries == []
        assert all(rec.dev_criterion is None for rec in result.log)

    def test_training_reduces_loss(self, tmp_path):
        corpus = make_corpus(tmp_path, "learn", n_train=24, n_dev=12, seed=5)
        config = TrainConfig(
            batch_size=8, lr=0.05, max_steps=400, eval_interval=50, patience_steps=400,
            loss_tau=0.0, seed=0,
        )
        result = train("head", corpus, FRONTEND, config, hidden=8)
        assert result.log[-1].train_loss < result.log[0].train_loss

    def test_checkpoints_written_and_pruned(self, tmp_path):
        corpus = make_corpus(tmp_path, "ck", n_train=16, n_dev=8, seed=6)
        out = tmp_path / "out"
        config = TrainConfig(
            batch_size=8, lr=0.05, max_steps=200, eval_interval=20, patience_steps=200,
            top_k=2, seed=0,
        )
        result = train("head", corpus, FRONTEND, config, hidden=4, out_dir=out)
        on_disk = sorted(out.glob("ckpt_step*.bin"))
        assert len(on_disk) == len(result.ledger.entries) <= 2
        assert {e.path for e in result.ledger.entries} == set(on_disk)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_loss_aborts_with_diagnostics(self, tmp_path):
        corpus = make_corpus(tmp_path, "blow", seed=7)
        huge = init_head(DIM, 4, seed=0)
        huge = huge.with_arrays(
            {"w1": np.full((DIM, 4), 1e200), "w2": np.full(4, 1e200)}
        )
        config = TrainConfig(batch_size=4, max_steps=5, eval_interval=5, seed=0)
        with pytest.raises(RuntimeError, match="non-finite loss"):
            train("head", corpus, FRONTEND, config, hidden=4, init_params=huge)

    def test_empty_splits_rejected(self, tmp_path):
        corpus = make_corpus(tmp_path, "empty", seed=8)
        no_dev = CorpusManifest(
            name="empty",
            domain_tag="non-synthetic",
            language="en",
            native_rate_hz=16000,
            splits={"train": corpus.samples("train")},
        )
        with pytest.raises(ValueError, match="dev"):
            train("head", no_dev, FRONTEND, TrainConfig(max_steps=1), hidden=4)

    def test_alignnet_needs_table_rows_for_train_ids(self, tmp_path):
        corpus = make_corpus(tmp_path, "tbl", seed=9)
        with pytest.raises(ValidationError, match="outside the table"):
            train(
                "alignnet", corpus, FRONTEND, TrainConfig(max_steps=1), hidden=4,
                embed_dim=2, decoder_hidden=3, dataset_ids=("other",),
            )


class TestTrainMdf:
    def build_pool(self, tmp_path):
        a = make_corpus(tmp_path, "seta", n_train=8, n_dev=5, seed=10)
        b = make_corpus(tmp_path, "setb", n_train=8, n_dev=5, seed=11)
        return pool([a, b])

    def test_phase2_starts_from_phase1_best_bit_exactly(self, tmp_path):
        pooled = self.build_pool(tmp_path)
        cfg1 = TrainConfig(batch_size=4, lr=0.01, max_steps=20, eval_interval=5,
                           patience_steps=100, seed=1)
        cfg2 = TrainConfig(batch_size=4, lr=0.01, max_steps=10, eval_interval=5,
                           patience_steps=100, seed=1)
        result = train_mdf("alignnet", "seta", pooled, FRONTEND, cfg1, cfg2,
                           hidden=4, embed_dim=2, decoder_hidden=3)
        assert params_equal(result.phase2.initial_params, result.phase1.params)
        assert result.phase1.params.dataset_ids == ("seta", "setb")
        assert result.phase2.scaler is result.phase1.scaler

    def test_zero_step_phase2_returns_phase1_model(self, tmp_path):
        pooled = self.build_pool(tmp_path)
        cfg1 = TrainConfig(batch_size=4, lr=0.01, max_steps=20, eval_interval=5,
                           patience_steps=100, seed=2)
        cfg2 = TrainConfig(max_steps=0, seed=2)
        result = train_mdf("head", "setb", pooled, FRONTEND, cfg1, cfg2, hidden=4)
        assert params_equal(result.phase2.params, result.phase1.params)

    def test_unknown_pretrain_member_rejected(self, tmp_path):
        pooled = self.build_pool(tmp_path)
        cfg = TrainConfig(max_steps=1)
        with pytest.raises(ValueError, match="not among pool members"):
            train_mdf("head", "setc", pooled, FRONTEND, cfg, cfg, hidden=4)


class TestRunSeeds:
    def test_single_seed_mean_equals_the_run(self):
        summary = run_seeds(lambda s: {"utt_lcc": 0.5 + s / 10}, [3])
        assert summary.mean == {"utt_lcc": 0.8}
        assert summary.per_seed == ((3, {"utt_lcc": 0.8}),)

    def test_constant_runs_have_exact_mean(self):
        summary = run_seeds(lambda s: {"m": 0.25}, [0, 1, 2])
        assert summary.mean["m"] == 0.25

    def test_mean_lies_between_extremes(self):
        summary = run_seeds(lambda s: {"m": float(s)}, [1, 2, 6])
        assert 1.0 <= summary.mean["m"] <= 6.0
        assert summary.mean["m"] == pytest.approx(3.0)

    def test_mismatched_keys_rejected(self):
        runs = [{"a": 1.0}, {"b": 2.0}]
        with pytest.raises(ValidationError):
            run_seeds(lambda s: runs[s], [0, 1])

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValidationError):
            run_seeds(lambda s: {"m": 0.0}, [])
