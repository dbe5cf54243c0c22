"""Loss, checkpoint ledger, the SGD loop, two-phase fine-tuning, seed sweeps."""

import collections
import dataclasses
import os
import re
from pathlib import Path

import numpy as np
import pytest

import oracles
import sqkit.frontend
import sqkit.training
from sqkit import (
    AudioFormatError,
    CheckpointLedger,
    CorpusManifest,
    FeatureScaler,
    FrontendConfig,
    HeadParams,
    Sample,
    SynthSpec,
    TrainConfig,
    TrainData,
    ValidationError,
    clipped_mse,
    featurize,
    generate_synthetic_corpus,
    init_alignnet,
    init_head,
    named_rng,
    pool,
    predict_split,
    prepare_mdf_data,
    prepare_train_data,
    save_precomputed,
    select_criterion,
    split_random,
    subsample,
    train,
    write_wav,
)
from test_cli import counted_featurize
from test_model import params_equal

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
            save_precomputed(path, frames.astype(np.float32))
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
        return oracles.head_raw_reference(params, frames), grads
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
    return oracles.alignnet_raw_reference(params, frames, dataset_id), grads


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


class TestTrainConfig:
    @pytest.mark.parametrize("fields, message", [
        ({"batch_size": 0}, "batch_size, lr must be positive; max_steps >= 0"),
        ({"lr": 0.0}, "batch_size, lr must be positive; max_steps >= 0"),
        ({"max_steps": -1}, "batch_size, lr must be positive; max_steps >= 0"),
        ({"momentum": 1.0}, "momentum must be in [0, 1)"),
        ({"momentum": -0.1}, "momentum must be in [0, 1)"),
        ({"patience_steps": 0}, "patience_steps, top_k, eval_interval must be >= 1"),
        ({"top_k": 0}, "patience_steps, top_k, eval_interval must be >= 1"),
        ({"eval_interval": 0}, "patience_steps, top_k, eval_interval must be >= 1"),
        ({"loss_tau": -0.25}, "loss_tau must be >= 0"),
        ({"selection": "sys_mse"}, "selection must be one of ('utt_lcc', 'sys_srcc')"),
    ])
    def test_each_out_of_range_value_is_refused(self, fields, message):
        with pytest.raises(ValidationError) as info:
            TrainConfig(**fields)
        assert str(info.value) == message


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
        ledger.offer(1, 0.2, self.PARAMS, directory=tmp_path)
        assert (tmp_path / "ckpt_step1.bin").exists()
        ledger.offer(2, 0.9, self.PARAMS, directory=tmp_path)
        assert not ledger.offer(3, 0.1, self.PARAMS, directory=tmp_path)
        assert sorted(tmp_path.iterdir()) == [tmp_path / "ckpt_step2.bin"]

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
        data = prepare_train_data(corpus, FRONTEND)
        result = train(kind, data, config, **sizes)
        # Zero steps return the initialization: the step started from params.
        assert params_equal(train(kind, data, dataclasses.replace(config, max_steps=0), **sizes).params, params)

        # Replicate the step by hand from the same deterministic pieces.
        samples = corpus.samples("train")
        raw_mats = [featurize(s, FRONTEND) for s in samples]
        scaler = FeatureScaler.fit(np.concatenate([m.frames for m in raw_mats]))
        mats = [scaler.standardize(m.frames) for m in raw_mats]
        order = named_rng(3, "shuffle").permutation(8).tolist()
        raws, grads = [], []
        for i in order:
            raw, g = per_sample_reference(params, mats[i], samples[i].dataset_id)
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
        a = train("head", prepare_train_data(corpus, FRONTEND), config, hidden=4)
        b = train("head", prepare_train_data(corpus, FRONTEND), config, hidden=4)
        assert params_equal(a.params, b.params)
        assert a.log == b.log

    def test_zero_steps_returns_initialization(self, tmp_path):
        corpus = make_corpus(tmp_path, "zero", seed=3)
        config = TrainConfig(max_steps=0, seed=1)
        result = train("head", prepare_train_data(corpus, FRONTEND), config, hidden=4)
        assert params_equal(result.params, init_head(DIM, 4, seed=1))
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
        result = train("head", prepare_train_data(corpus, FRONTEND), config, hidden=4)
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
        result = train("head", prepare_train_data(corpus, FRONTEND), config, hidden=8)
        assert result.log[-1].train_loss < result.log[0].train_loss

    def test_checkpoints_written_and_pruned(self, tmp_path):
        corpus = make_corpus(tmp_path, "ck", n_train=16, n_dev=8, seed=6)
        out = tmp_path / "out"
        config = TrainConfig(
            batch_size=8, lr=0.05, max_steps=200, eval_interval=20, patience_steps=200,
            top_k=2, seed=0,
        )
        result = train("head", prepare_train_data(corpus, FRONTEND), config, hidden=4, out_dir=out)
        on_disk = sorted(out.glob("ckpt_step*.bin"))
        assert len(on_disk) == len(result.ledger.entries) <= 2
        assert {out / f"ckpt_step{e.step}.bin" for e in result.ledger.entries} == set(on_disk)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_loss_aborts_with_diagnostics(self, tmp_path):
        corpus = make_corpus(tmp_path, "blow", seed=7)
        huge = init_head(DIM, 4, seed=0)
        huge = huge.with_arrays(
            {"w1": np.full((DIM, 4), 1e200), "w2": np.full(4, 1e200)}
        )
        config = TrainConfig(batch_size=4, max_steps=5, eval_interval=5, seed=0)
        with pytest.raises(RuntimeError, match="non-finite loss"):
            train("head", prepare_train_data(corpus, FRONTEND), config, hidden=4, init_params=huge)

    def test_empty_splits_rejected(self, tmp_path):
        corpus = make_corpus(tmp_path, "empty", seed=8)
        no_dev = CorpusManifest(
            name="empty",
            domain_tag="non-synthetic",
            splits={"train": corpus.samples("train")},
        )
        with pytest.raises(ValidationError, match="dev"):
            train("head", prepare_train_data(no_dev, FRONTEND), TrainConfig(max_steps=1), hidden=4)

    def test_an_empty_train_split_is_rejected(self, tmp_path):
        corpus = make_corpus(tmp_path, "notrain", seed=8)
        no_train = dataclasses.replace(corpus, splits={"train": (), "dev": corpus.samples("dev")})
        with pytest.raises(ValidationError, match="empty train split"):
            prepare_train_data(no_train, FRONTEND)

    def test_an_unknown_model_kind_is_rejected(self, tmp_path):
        data = prepare_train_data(make_corpus(tmp_path, "kind", seed=8), FRONTEND)
        with pytest.raises(ValidationError, match="unknown model kind 'mlp'"):
            train("mlp", data, TrainConfig(max_steps=1), hidden=4)

    def test_sys_srcc_needs_a_system_id_on_every_dev_sample(self, tmp_path):
        corpus = make_corpus(tmp_path, "nosys", seed=8)
        first, *rest = corpus.samples("dev")
        dev = (dataclasses.replace(first, system_id=None), *rest)
        data = prepare_train_data(dataclasses.replace(corpus, splits={**corpus.splits, "dev": dev}), FRONTEND)
        with pytest.raises(ValidationError, match="sys_srcc selection needs system_id on every dev sample"):
            train("head", data, TrainConfig(max_steps=1, selection="sys_srcc"), hidden=4)

    def test_init_params_of_another_dim_are_rejected(self, tmp_path):
        data = prepare_train_data(make_corpus(tmp_path, "dim", seed=8), FRONTEND)
        with pytest.raises(ValidationError, match=f"initial params dim {DIM + 1} != feature dim {DIM}"):
            train("head", data, TrainConfig(max_steps=1), init_params=init_head(DIM + 1, 4, seed=0))

    def test_alignnet_needs_table_rows_for_train_ids(self, tmp_path):
        corpus = make_corpus(tmp_path, "tbl", seed=9)
        with pytest.raises(ValidationError, match="outside the table"):
            train(
                "alignnet", prepare_train_data(corpus, FRONTEND), TrainConfig(max_steps=1), hidden=4,
                embed_dim=2, decoder_hidden=3, dataset_ids=("other",),
            )


class TestTrainMdf:
    """prepare_mdf_data featurizes the pool once; phase 1 is a view of
    phase 2. The hand-off between the phases is proved through the CLI in
    the acceptance gate (mdf-contract)."""

    def build_pool(self, tmp_path):
        a = make_corpus(tmp_path, "seta", n_train=8, n_dev=5, seed=10)
        b = make_corpus(tmp_path, "setb", n_train=7, n_dev=4, seed=11)
        return pool([a, b])

    @pytest.mark.parametrize("pretrain", ["seta", "setb"])
    def test_phases_are_views_of_one_featurization(self, tmp_path, pretrain):
        pooled = self.build_pool(tmp_path)
        member = {m.name: m for m in pooled.members}[pretrain]
        calls = []
        real = sqkit.frontend.load_precomputed

        def counted(path, *args, **kwargs):  # every decode: the packed train one and featurize's of dev
            calls.append(str(path))
            return real(path, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sqkit.frontend, "load_precomputed", counted)
            phase1, phase2 = prepare_mdf_data(pretrain, pooled, FRONTEND)
        refs = [str(s.embedding_ref) for split in ("train", "dev") for s in pooled.samples(split)]
        assert sorted(calls) == sorted(refs)
        assert np.shares_memory(phase1.frames, phase2.frames)
        assert phase1.scaler is phase2.scaler
        assert (phase1.corpus, phase2.corpus) == (member, pooled)

        # Phase 1 is the member prepared alone, bit for bit.
        alone = prepare_train_data(member, FRONTEND)
        for name in ("frames", "lengths"):
            assert getattr(phase1, name).tobytes() == getattr(alone, name).tobytes(), name
        assert phase1.scaler.mean.tobytes() == alone.scaler.mean.tobytes()
        assert phase1.scaler.std.tobytes() == alone.scaler.std.tobytes()
        assert [m.tobytes() for m in phase1.dev_mats] == [m.tobytes() for m in alone.dev_mats]
        assert phase1.datastore.embeddings.tobytes() == alone.datastore.embeddings.tobytes()
        assert phase1.datastore.dataset_ids == alone.datastore.dataset_ids

        # Phase 2 is the whole pool's decoded float32 rows, held raw, and
        # standardizes under the member's scaler to the bits of the float64 rows.
        raw = np.concatenate([featurize(s, FRONTEND).frames for s in pooled.samples("train")])
        assert phase2.frames.dtype == np.float32 and phase2.frames.tobytes() == raw.astype(np.float32).tobytes()
        standardize = phase1.scaler.standardize
        assert standardize(phase2.frames.astype(np.float64)).tobytes() == standardize(raw).tobytes()
        assert not phase2.frames.flags.writeable
        assert [m.tobytes() for m in phase2.dev_mats] == [
            phase1.scaler.standardize(featurize(s, FRONTEND).frames).tobytes() for s in pooled.samples("dev")
        ]

    def test_zero_step_phase2_returns_phase1_model(self, tmp_path):
        phase1, phase2 = prepare_mdf_data("setb", self.build_pool(tmp_path), FRONTEND)
        cfg1 = TrainConfig(batch_size=4, lr=0.01, max_steps=20, eval_interval=5,
                           patience_steps=100, seed=2)
        first = train("head", phase1, cfg1, hidden=4)
        second = train("head", phase2, TrainConfig(max_steps=0, seed=2), init_params=first.params)
        assert params_equal(second.params, first.params)

    def test_unknown_pretrain_member_rejected(self, tmp_path):
        pooled = self.build_pool(tmp_path)
        with pytest.raises(ValidationError, match="not among pool members"):
            prepare_mdf_data("setc", pooled, FRONTEND)


class TestPackedTrainMatrix:
    """prepare_train_data reads into one packed matrix (dsp features from
    a feature store, precomputed ones into rows allocated from their file
    sizes). dsp frames are float64, standardized in place, so they must
    equal their scaler's standardization of np.concatenate of per-utterance
    featurize, bit for bit. Precomputed frames stay the files' raw float32
    rows, whose float64 copy standardizes to those same bits."""

    # (rate, samples): 400 samples is one 25 ms window at 16 kHz.
    CLIPS = [
        (16000, 0), (16000, 1), (16000, 399), (16000, 400), (16000, 401), (16000, 4567),
        (8000, 150), (8000, 200), (8000, 3001),
        (22050, 300), (22050, 551), (22050, 6001),
    ]

    def wav_corpus(self, tmp_path, clips):
        rng = np.random.default_rng(0)
        samples = []
        for i, (rate, n) in enumerate(clips):
            path = tmp_path / f"clip{i}.wav"
            write_wav(path, 0.3 * rng.uniform(-1.0, 1.0, size=n), rate)
            samples.append(Sample(f"clip{i}", path, None, "wavs", None, 3.0))
        return CorpusManifest("wavs", "non-synthetic", {"train": tuple(samples), "dev": tuple(samples[:2])})

    def check_packing(self, corpus, config):
        samples = corpus.samples("train")
        raw = [featurize(s, config).frames for s in samples]
        data = prepare_train_data(corpus, config)
        assert isinstance(data, TrainData)
        packed = np.concatenate(raw).astype(np.float64)
        fitted = FeatureScaler.fit(packed)
        assert (data.scaler.mean.tobytes(), data.scaler.std.tobytes()) == (fitted.mean.tobytes(), fitted.std.tobytes())
        standardized = data.scaler.standardize(packed.copy())
        if config.kind == "dsp":
            assert data.frames.dtype == np.float64 and data.frames.tobytes() == standardized.tobytes()
        else:
            assert data.frames.dtype == np.float32 and data.frames.tobytes() == packed.astype(np.float32).tobytes()
            assert data.scaler.standardize(data.frames.astype(np.float64)).tobytes() == standardized.tobytes()
        assert data.lengths.tolist() == [len(f) for f in raw]
        assert not data.frames.flags.writeable
        dev = [data.scaler.standardize(featurize(s, config).frames).tobytes() for s in corpus.samples("dev")]
        assert [m.tobytes() for m in data.dev_mats] == dev  # packed, then standardized once

    def test_wavs_at_every_rate_and_around_one_window(self, tmp_path):
        corpus = self.wav_corpus(tmp_path, self.CLIPS)
        self.check_packing(corpus, FrontendConfig(n_mels=8))
        self.check_packing(corpus, FrontendConfig(n_mels=8, window_ms=32.0, hop_ms=7.5))

    def embedding_corpus(self, tmp_path):
        rng = np.random.default_rng(1)
        samples = []
        for i, n_frames in enumerate([1, 2, 7, 30, 3, 1]):
            path = tmp_path / f"e{i}.bin"
            save_precomputed(path, rng.normal(size=(n_frames, DIM)).astype(np.float32))
            samples.append(Sample(f"b{i}", None, path, "emb", None, 3.0))
        return CorpusManifest("emb", "non-synthetic", {"train": tuple(samples), "dev": tuple(samples[:2])})

    def test_embedding_files(self, tmp_path):
        corpus = self.embedding_corpus(tmp_path)
        self.check_packing(corpus, FRONTEND)
        self.check_packing(corpus, FrontendConfig(kind="precomputed"))  # D from the first file's header

    def test_raw_frames_train_and_pool_as_their_standardized_float64_copy(self, tmp_path):
        rng = np.random.default_rng(2)
        samples = []
        for i, n_frames in enumerate(rng.integers(1, 60, size=300)):
            path = tmp_path / f"r{i}.bin"
            save_precomputed(path, rng.normal(3.0, 2.0, size=(n_frames, DIM)).astype(np.float32))
            samples.append(Sample(f"r{i}", None, path, "emb", None, float(rng.uniform(1.0, 5.0))))
        corpus = CorpusManifest("emb", "non-synthetic", {"train": tuple(samples), "dev": tuple(samples[:4])})
        data = prepare_train_data(corpus, FRONTEND)
        assert len(data.frames) > 2 * 4096  # the datastore pools several chunks of utterances
        pooled = np.stack([data.scaler.standardize(featurize(s, FRONTEND).frames).mean(axis=0) for s in samples])
        assert data.datastore.embeddings.tobytes() == pooled.tobytes()
        # The former contract: frames standardized once, in float64.
        held = dataclasses.replace(data, frames=data.scaler.standardize(data.frames.astype(np.float64)))
        config = TrainConfig(batch_size=5, max_steps=12, eval_interval=4, patience_steps=100, seed=3)
        for kind in ("head", "alignnet"):
            ours, theirs = train(kind, data, config, hidden=4), train(kind, held, config, hidden=4)
            assert ours.log == theirs.log
            assert [a.tobytes() for a in ours.params.as_dict().values()] == [
                a.tobytes() for a in theirs.params.as_dict().values()]

    def test_a_text_form_file_names_the_file(self, tmp_path):
        corpus = self.embedding_corpus(tmp_path)
        frames = featurize(corpus.samples("train")[2], FRONTEND).frames
        for i in (0, 2):  # D from the first file's header, or from expected_dim
            path = corpus.samples("train")[i].embedding_ref
            original = path.read_bytes()
            # The former text form, `sample_id dim t v...` per frame, has no SQE1 tag.
            path.write_text("".join(f"b{i} {DIM} {t} " + " ".join(map(repr, r)) + "\n" for t, r in enumerate(frames)))
            for config in (FRONTEND, FrontendConfig(kind="precomputed")):
                with pytest.raises(ValidationError, match=re.escape(f"{path}: not an SQE1 embedding file")):
                    prepare_train_data(corpus, config)
            path.write_bytes(original)

    def test_each_embedding_file_is_opened_once(self, tmp_path, monkeypatch):
        corpus = make_corpus(tmp_path, "opens", n_train=5, n_dev=3, seed=14)
        paths = {str(s.embedding_ref) for split in ("train", "dev") for s in corpus.samples(split)}
        opened = collections.Counter()
        real_open = os.open

        def counted_open(path, *args, **kwargs):
            if str(path) in paths:
                opened[str(path)] += 1
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", counted_open)
        for config in (FRONTEND, FrontendConfig(kind="precomputed")):
            opened.clear()
            prepare_train_data(corpus, config)
            assert opened == {path: 1 for path in paths}

    @pytest.mark.parametrize("change, message", [
        ("grown", "overlong embedding file"),
        ("shrunk", "truncated embedding file"),
        ("one more row", f"features are 4 x {DIM}, its size gave 3 x {DIM}"),
        ("one row fewer", f"features are 2 x {DIM}, its size gave 3 x {DIM}"),
    ])
    def test_a_file_resized_between_its_stat_and_its_read(self, tmp_path, monkeypatch, change, message):
        corpus = make_corpus(tmp_path, "resized", n_train=3, n_dev=2, seed=15)
        path = corpus.samples("train")[1].embedding_ref
        real = sqkit.frontend.load_precomputed

        def resize_then_load(file, *args):
            if file == path:  # packed_features has sized its rows from the file's size
                data = path.read_bytes()
                n_frames = int.from_bytes(data[4:8], "little")
                row = data[12 : 12 + 4 * DIM]
                path.write_bytes({
                    "grown": data + row,
                    "shrunk": data[: -4 * DIM],
                    "one more row": data[:4] + (n_frames + 1).to_bytes(4, "little") + data[8:] + row,
                    "one row fewer": data[:4] + (n_frames - 1).to_bytes(4, "little") + data[8 : -4 * DIM],
                }[change])
            return real(file, *args)

        monkeypatch.setattr(sqkit.frontend, "load_precomputed", resize_then_load)
        with pytest.raises(ValidationError, match=re.escape(f"{path}: {message}")):
            prepare_train_data(corpus, FRONTEND)

    def test_wav_header_promising_more_audio_than_it_holds(self, tmp_path):
        corpus = self.wav_corpus(tmp_path, [(16000, 4000), (16000, 4000)])
        path = corpus.samples("train")[1].audio_ref
        path.write_bytes(path.read_bytes()[:-800])  # 400 samples short; the header still says 4000
        message = f"{path}: the header promises 8000 bytes of audio, the file holds 7200"
        with pytest.raises(AudioFormatError, match=message):
            prepare_train_data(corpus, FrontendConfig(n_mels=8))

    def test_embedding_header_disagreeing_with_its_rows(self, tmp_path):
        corpus = make_corpus(tmp_path, "hdr", n_train=3, n_dev=2, seed=12)
        path = corpus.samples("train")[2].embedding_ref
        data = bytearray(path.read_bytes())
        data[4:8] = (4).to_bytes(4, "little")  # 3 rows written, 4 declared
        path.write_bytes(bytes(data))
        with pytest.raises(ValidationError, match=str(path)):
            prepare_train_data(corpus, FRONTEND)

    def test_mixed_dimensions_name_the_file(self, tmp_path):
        corpus = make_corpus(tmp_path, "dims", n_train=3, n_dev=2, seed=13)
        path = corpus.samples("train")[1].embedding_ref
        save_precomputed(path, np.ones((3, DIM + 1), dtype=np.float32))
        with pytest.raises(ValidationError, match=f"{path}.*3 x {DIM + 1}"):
            prepare_train_data(corpus, FrontendConfig(kind="precomputed"))


class TestCorpusFeatureStore:
    """A corpus given a feature_store keeps its dsp splits' features there:
    training and scoring featurize each utterance once between them, the
    store travels through subsample, split_random and pool, and a changed
    frontend value builds it again."""

    CONFIG = FrontendConfig(n_mels=8)

    def corpus(self, tmp_path, name):
        spec = SynthSpec(name=name, out_dir=tmp_path / name, n_utterances=8, duration_s=(0.1, 0.2))
        return generate_synthetic_corpus(spec, seed=3)

    def test_training_then_scoring_featurizes_each_utterance_once(self, tmp_path, monkeypatch):
        store = (tmp_path / "store", "fingerprint")
        corpus = dataclasses.replace(split_random(self.corpus(tmp_path, "s"), 0.75, seed=0), feature_store=store)
        calls = counted_featurize(monkeypatch)
        data = prepare_train_data(corpus, self.CONFIG)
        model = (init_head(self.CONFIG.dim, 4, seed=0), data.scaler, None)
        (pairs,) = predict_split(corpus, "dev", self.CONFIG, [model])
        ids = [s.sample_id for split in ("train", "dev") for s in corpus.samples(split)]
        assert calls == dict.fromkeys(ids, 1)
        assert sorted(p.name for p in (tmp_path / "store").iterdir()) == ["dev.features", "train.features"]

        calls.clear()
        assert prepare_train_data(corpus, self.CONFIG).frames.tobytes() == data.frames.tobytes()
        (again,) = predict_split(corpus, "dev", FrontendConfig(n_mels=8, hop_ms=10.0), [model])  # hop_ms's default
        assert again.pred.tobytes() == pairs.pred.tobytes()
        assert calls == {}

    def test_the_store_survives_subsample_split_random_and_pool(self, tmp_path):
        stores = [(tmp_path / name, f"fingerprint of {name}") for name in "ab"]
        a, b = (dataclasses.replace(self.corpus(tmp_path, name), feature_store=store)
                for name, store in zip("ab", stores))
        assert subsample(a, 5, seed=0).feature_store == stores[0]
        assert split_random(a, 0.5, seed=0).feature_store == stores[0]
        pooled = pool([split_random(subsample(a, 6, seed=0), 0.5, seed=0), b])
        assert [m.feature_store for m in pooled.members] == stores
        _frames, lengths = sqkit.frontend.packed_features(pooled, "train", self.CONFIG, featurize)
        assert len(lengths) == 3 + 8
        assert [p.name for p in (tmp_path / "a").glob("*.features")] == ["train.features"]
        assert [p.name for p in (tmp_path / "b").glob("*.features")] == ["train.features"]

    def test_a_changed_frontend_value_rebuilds_the_store(self, tmp_path, monkeypatch):
        corpus = dataclasses.replace(self.corpus(tmp_path, "s"), feature_store=(tmp_path / "store", "fingerprint"))
        path = tmp_path / "store" / "train.features"
        calls = counted_featurize(monkeypatch)
        ids = [s.sample_id for s in corpus.samples("train")]
        for config, built in ((self.CONFIG, True), (self.CONFIG, False), (FrontendConfig(n_mels=8, hop_ms=12.5), True),
                              (FrontendConfig(n_mels=9), True), (self.CONFIG, True)):
            calls.clear()
            key = path.read_bytes()[4:36] if path.exists() else None
            frames, _lengths = sqkit.frontend.packed_features(corpus, "train", config, sqkit.training.featurize)
            assert calls == (dict.fromkeys(ids, 1) if built else {}), config
            assert (path.read_bytes()[4:36] != key) == built, config
            assert frames.shape[1] == config.dim
