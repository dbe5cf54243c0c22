"""Whole-package acceptance gate.

One test per release criterion, each printing a single
``[acceptance] PASS <name>`` or ``[acceptance] FAIL <name>`` line on the
live terminal stream so the verdicts survive pytest's output capture
(``SKIP`` when a test-only oracle such as scipy is not installed).
The gate combines arbitrary-precision metric oracles, central-difference
gradient checks, retrieval convexity properties, exact benchmark algebra,
byte-level CLI determinism, and small seeded synthetic training runs with
wall-clock budgets. Everything runs on CPU; nothing touches the network.
"""

import functools
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from test_cli import BASE_RECIPE, MDF_RECIPE
from test_inference import knn_predictions
from test_metrics import make_pairs, report_with
from test_model import alignnet_arrays, head_arrays, params_equal
from test_training import FRONTEND, make_corpus

from sqkit import (
    AlignNetParams,
    CorpusManifest,
    Datastore,
    FrontendConfig,
    HeadParams,
    KnnConfig,
    Sample,
    SynthSpec,
    TrainConfig,
    UndefinedCorrelationError,
    aggregate,
    alignnet_backward,
    build_datastore,
    generate_synthetic_corpus,
    head_backward,
    knn_weights,
    load_params,
    mse,
    pearson,
    pool,
    predict_split,
    prepare_train_data,
    retrieve_neighbors,
    save_params,
    spearman,
    split_random,
    system_aggregate,
    train,
    write_wav,
)
from sqkit import cli
from sqkit.cli import main

DSP_FRONTEND = FrontendConfig()
GRID = (-2.0, 0.0, 2.0, 5.0)

_CAP = None


@pytest.fixture(autouse=True)
def _acceptance_stream(capfd):
    # Stash the capture fixture so the criterion decorator can write
    # through it onto the real terminal.
    global _CAP
    _CAP = capfd
    yield
    _CAP = None


def _announce(line: str) -> None:
    if _CAP is not None:
        with _CAP.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
        sys.stdout.flush()


def criterion(name):
    """Print one PASS/FAIL (or SKIP) line for the wrapped check, then re-raise."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except pytest.skip.Exception:
                _announce(f"[acceptance] SKIP {name}")
                raise
            except BaseException:
                _announce(f"[acceptance] FAIL {name}")
                raise
            _announce(f"[acceptance] PASS {name}")
            return out

        return wrapper

    return deco


def _sum_sq_dev(values: np.ndarray) -> float:
    centered = values - values.mean()
    return float(centered @ centered)


@criterion("metric-oracles")
def test_metrics_match_arbitrary_precision_oracles():
    """Pearson/Spearman agree with rational brute force on 1,000 vectors."""
    rankdata = pytest.importorskip("scipy.stats").rankdata
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    defined = undefined = 0
    for i in range(1000):
        n = int(rng.integers(2, 51))
        true = rng.normal(size=n)
        pred = 0.6 * true + 0.8 * rng.normal(size=n)
        if rng.uniform() < 0.2:
            # Coarse quantization forces ties (and the odd constant vector).
            true = np.round(true, 1)
            pred = np.round(pred, 1)
        if i % 125 == 0:
            # Dyadic constant: its float mean is exact, so the float path
            # sees zero variance just like the rational oracle does.
            pred = np.full(n, 3.25)
        pairs = make_pairs(true, pred)
        try:
            expected = oracles.pearson_oracle(true, pred)
        except ZeroDivisionError:
            # Rational variance is zero only for a truly constant vector,
            # whose ranks are constant too: spearman must refuse.
            with pytest.raises(UndefinedCorrelationError):
                spearman(pairs)
            if _sum_sq_dev(true) == 0.0 or _sum_sq_dev(pred) == 0.0:
                with pytest.raises(UndefinedCorrelationError):
                    pearson(pairs)
            # Otherwise the constant is non-dyadic and float rounding leaves
            # a denominator of pure noise; there is no reference value.
            undefined += 1
            continue
        assert abs(pearson(pairs) - expected) <= 1e-12
        assert abs(mse(pairs) - oracles.mse_oracle(true, pred)) <= 1e-12
        assert list(rankdata(true, method="average")) == oracles.average_ranks_oracle(true)
        assert list(rankdata(pred, method="average")) == oracles.average_ranks_oracle(pred)
        assert abs(spearman(pairs) - oracles.spearman_oracle(true, pred)) <= 1e-12
        defined += 1
    elapsed = time.perf_counter() - start
    assert defined + undefined == 1000 and defined >= 900
    assert elapsed < 10.0


@criterion("gradient-checks")
def test_analytic_gradients_match_central_differences():
    """100 random (params, input) draws per model, worst relative error < 1e-4."""
    start = time.perf_counter()
    rng = np.random.default_rng(2002)

    for _ in range(100):
        dim = int(rng.integers(5, 9))
        hidden = int(rng.integers(4, 7))
        t = int(rng.integers(3, 7))

        def draw():
            return head_arrays(rng, dim, hidden), rng.normal(size=(t, dim))

        def preacts(candidate):
            arrays, frames = candidate
            return [frames @ arrays["w1"] + arrays["b1"]]

        arrays, frames = oracles.draw_clear_of_kinks(draw, preacts)
        _, grads = head_backward(HeadParams(**arrays), frames)
        rel = oracles.check_gradients(
            lambda a: oracles.head_raw_reference(HeadParams(**a), frames), arrays, grads
        )
        assert rel < 1e-4

    ids = ("a", "b", "c")
    for _ in range(100):
        dim = int(rng.integers(5, 9))
        hidden = int(rng.integers(4, 7))
        t = int(rng.integers(3, 6))
        target = ids[int(rng.integers(0, 3))]

        def draw():
            return alignnet_arrays(rng, dim, hidden, 3, 4, 3), rng.normal(size=(t, dim))

        def preacts(candidate):
            arrays, frames = candidate
            params = AlignNetParams(**arrays, dataset_ids=ids)
            row = arrays["table"][params.row_index(target)]
            pre1 = frames @ arrays["w1"] + arrays["b1"]
            trunk = np.maximum(pre1, 0.0)
            fused = np.concatenate([trunk, np.tile(row, (t, 1))], axis=1)
            return [pre1, fused @ arrays["v1"] + arrays["c1"]]

        arrays, frames = oracles.draw_clear_of_kinks(draw, preacts)
        params = AlignNetParams(**arrays, dataset_ids=ids)
        _, grads = alignnet_backward(params, frames, target)
        rel = oracles.check_gradients(
            lambda a: oracles.alignnet_raw_reference(AlignNetParams(**a, dataset_ids=ids), frames, target),
            arrays,
            grads,
        )
        assert rel < 1e-4

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


@criterion("knn-properties")
def test_knn_convexity_normalization_and_limits(monkeypatch):
    """1,000 random datastores: convex predictions, normalized weights,
    and the tiny-temperature limit collapsing onto the nearest neighbor."""
    rng = np.random.default_rng(3003)
    tiny_checked = 0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        d = int(rng.integers(1, 5))
        # Cosine distance over 1-d vectors is degenerate (only 0 or 2), so
        # keep it to d >= 2 where exact ties have measure zero.
        kind = "cosine" if d >= 2 and rng.uniform() < 0.5 else "euclidean"
        ds = Datastore(
            rng.normal(size=(n, d)),
            rng.uniform(1.0, 5.0, size=n),
            tuple(f"c{i % 3}" for i in range(n)),
            distance_kind=kind,
        )
        query = rng.normal(size=(1, d))
        k = int(rng.integers(1, n + 1))
        temperature = float(rng.uniform(0.05, 3.0))

        neighbors = retrieve_neighbors(ds, query, k)
        weights = knn_weights(neighbors.distances[0], temperature)
        assert abs(float(weights.sum()) - 1.0) <= 1e-9
        assert np.all(weights >= 0.0)
        literal = knn_weights(neighbors.distances[0], temperature, paper_literal=True)
        assert abs(float(literal.sum()) - 1.0) <= 1e-9

        (pred,) = knn_predictions(monkeypatch, ds, query, KnnConfig(k=k, temperature=temperature))
        lo = float(neighbors.scores.min())
        hi = float(neighbors.scores.max())
        assert lo - 1e-12 <= pred <= hi + 1e-12

        # The tiny-temperature limit needs a separated nearest neighbor;
        # with a near-tie the softmax legitimately splits the weight.
        if n >= 2:
            two = retrieve_neighbors(ds, query, 2)
            separated = float(two.distances[0, 1] - two.distances[0, 0]) > 1e-3
        else:
            separated = True
        if separated:
            (tiny,) = knn_predictions(monkeypatch, ds, query, KnnConfig(k=k, temperature=1e-6))
            (one,) = knn_predictions(monkeypatch, ds, query, KnnConfig(k=1, temperature=1.0))
            assert abs(tiny - one) <= 1e-6
            tiny_checked += 1
    assert tiny_checked >= 900


@criterion("best-score-algebra")
def test_best_score_matrix_algebra():
    """Within-family minima on random matrices plus an exact 3x2 spreadsheet."""
    rng = np.random.default_rng(4004)
    for _ in range(50):
        models = [f"m{i}" for i in range(int(rng.integers(2, 6)))]
        tests = [f"t{i}" for i in range(int(rng.integers(1, 5)))]
        domains = {t: ("synthetic" if rng.uniform() < 0.5 else "non-synthetic") for t in tests}
        reports = {
            (m, t): report_with(
                utt_mse=float(rng.uniform(0.05, 2.0)),
                utt_lcc=float(rng.uniform(0.1, 0.95)),
                sys_mse=float(rng.uniform(0.05, 2.0)),
                sys_srcc=float(rng.uniform(0.1, 0.95)),
            )
            for m in models
            for t in tests
        }
        matrix = aggregate(reports, domains)
        for t in tests:
            diffs = [matrix.cells[m, t].difference for m in models]
            ratios = [matrix.cells[m, t].ratio for m in models]
            assert min(diffs) == 0.0
            assert all(d >= 0.0 for d in diffs)
            # 100 * x / x is one rounding away from 100 for some floats.
            assert max(ratios) == pytest.approx(100.0, rel=1e-12)

    reports = {
        ("m1", "t1"): report_with(sys_mse=0.50, sys_lcc=0.9, sys_srcc=0.90),
        ("m2", "t1"): report_with(sys_mse=0.30, sys_lcc=0.6, sys_srcc=0.60),
        ("m3", "t1"): report_with(sys_mse=0.80, sys_lcc=0.75, sys_srcc=0.75),
        ("m1", "t2"): report_with(utt_mse=1.00, utt_lcc=0.40),
        ("m2", "t2"): report_with(utt_mse=0.25, utt_lcc=0.80),
        ("m3", "t2"): report_with(utt_mse=0.50, utt_lcc=0.50),
    }
    matrix = aggregate(reports, {"t1": "synthetic", "t2": "non-synthetic"})

    # Expected values mirror the implementation's own float expressions,
    # so equality is exact, not approximate.
    d = {
        ("m1", "t1"): 0.50 - 0.30,
        ("m2", "t1"): 0.0,
        ("m3", "t1"): 0.80 - 0.30,
        ("m1", "t2"): 1.00 - 0.25,
        ("m2", "t2"): 0.0,
        ("m3", "t2"): 0.50 - 0.25,
    }
    r = {
        ("m1", "t1"): 100.0 * 0.90 / 0.90,
        ("m2", "t1"): 100.0 * 0.60 / 0.90,
        ("m3", "t1"): 100.0 * 0.75 / 0.90,
        ("m1", "t2"): 100.0 * 0.40 / 0.80,
        ("m2", "t2"): 100.0 * 0.80 / 0.80,
        ("m3", "t2"): 100.0 * 0.50 / 0.80,
    }
    for key, expected in d.items():
        assert matrix.cells[key].difference == expected
    for key, expected in r.items():
        assert matrix.cells[key].ratio == expected
    for m in ("m1", "m2", "m3"):
        assert matrix.averages[m]["synthetic"] == (d[m, "t1"], r[m, "t1"])
        assert matrix.averages[m]["non-synthetic"] == (d[m, "t2"], r[m, "t2"])
        assert matrix.averages[m]["average"] == (
            float(np.mean([d[m, "t1"], d[m, "t2"]])),
            float(np.mean([r[m, "t1"], r[m, "t2"]])),
        )


@criterion("single-dataset-end-to-end")
def test_single_dataset_training_reaches_dev_lcc(tmp_path):
    """Deterministic SNR-to-score mapping is learnable to dev LCC >= 0.9."""
    start = time.perf_counter()
    synth = SynthSpec(
        name="e2e",
        out_dir=tmp_path / "e2e",
        n_utterances=96,
        snr_grid_db=GRID,
        mos_intercept=3.0,
        mos_slope=0.4,
        sigma=0.0,
        duration_s=(0.3, 0.6),
    )
    corpus = split_random(generate_synthetic_corpus(synth, seed=0), 0.75, seed=0)
    cfg = TrainConfig(
        batch_size=16,
        lr=0.01,
        max_steps=5000,
        patience_steps=1500,
        selection="utt_lcc",
        seed=0,
        eval_interval=100,
    )
    result = train("head", prepare_train_data(corpus, DSP_FRONTEND), cfg)
    (pairs,) = predict_split(corpus, "dev", DSP_FRONTEND, [(result.params, result.scaler, None)])
    elapsed = time.perf_counter() - start
    assert result.steps_run <= 5000
    assert pearson(pairs) >= 0.9
    assert elapsed < 300.0


def synth_wave(rng, tone_hz, duration, snr_db):
    amp = 0.25
    n = int(round(duration * 16000))
    t = np.arange(n) / 16000.0
    tone = amp * np.sin(2 * np.pi * tone_hz * t + rng.uniform(0, 2 * np.pi))
    noise = rng.normal(0.0, (amp / np.sqrt(2)) * 10 ** (-snr_db / 20), size=n)
    return np.clip(tone + noise, -1, 1)


def sibling_corpus(wav_root, name, delta, seed, n_train=40, n_dev=12):
    """Corpus whose dev items reuse train (tone, duration, SNR) conditions.

    Corpora built this way differ only by the additive score shift delta,
    so a pooled model cannot attribute the shift from the audio alone.
    """
    rng = np.random.default_rng(seed)
    wav_dir = Path(wav_root) / name
    wav_dir.mkdir(parents=True)
    conditions = []
    train_rows, dev_rows = [], []
    for i in range(n_train):
        snr = GRID[i % len(GRID)]
        cond = (rng.uniform(200, 1400), rng.uniform(0.25, 0.5), snr)
        conditions.append(cond)
        mos = float(np.clip(3.0 + 0.25 * snr + delta, 1, 5))
        path = wav_dir / f"tr{i}.wav"
        write_wav(path, synth_wave(rng, *cond), 16000)
        train_rows.append(
            Sample(sample_id=f"{name}-tr{i}", audio_ref=path, embedding_ref=None,
                   dataset_id=name, system_id=f"snr{snr:+g}", mos=mos)
        )
    for j in range(n_dev):
        tone, duration, snr = conditions[j]
        mos = float(np.clip(3.0 + 0.25 * snr + delta, 1, 5))
        path = wav_dir / f"dv{j}.wav"
        write_wav(path, synth_wave(rng, tone, duration, snr), 16000)
        dev_rows.append(
            Sample(sample_id=f"{name}-dv{j}", audio_ref=path, embedding_ref=None,
                   dataset_id=name, system_id=f"snr{snr:+g}", mos=mos)
        )
    corpus = CorpusManifest(
        name=name,
        domain_tag="synthetic",
        splits={"train": tuple(train_rows), "dev": tuple(dev_rows)},
    )
    corpus.validate()
    return corpus


@criterion("corpus-effect")
def test_domain_retrieval_beats_pooled_head_on_shifted_corpora(tmp_path):
    """Three statistically identical corpora with score shifts -0.5/0/+0.5:
    the dataset-aware model with nearest-neighbor domain selection should
    reach lower dev MSE on the shifted corpora than a pooled plain head in
    at least 2 of 3 seeds."""
    low = sibling_corpus(tmp_path, "low", -0.5, 100)
    mid = sibling_corpus(tmp_path, "mid", 0.0, 200)
    high = sibling_corpus(tmp_path, "high", +0.5, 300)
    pooled = pool([low, mid, high])
    data = prepare_train_data(pooled, DSP_FRONTEND)  # shared by every seed and both models

    wins = 0
    for seed in (0, 1, 2):
        cfg = TrainConfig(
            batch_size=16,
            lr=0.01,
            max_steps=1200,
            patience_steps=1200,
            selection="utt_lcc",
            seed=seed,
            eval_interval=100,
        )
        align = train("alignnet", data, cfg, hidden=32, embed_dim=8, decoder_hidden=16)
        plain = train("head", data, cfg, hidden=32)
        ds = build_datastore(DSP_FRONTEND, pooled, scaler=align.scaler)
        align_mse = plain_mse = 0.0
        for corpus in (low, high):
            (align_pairs,) = predict_split(corpus, "dev", DSP_FRONTEND, [(align.params, align.scaler, ds)],
                                           mode="domain-retrieval")
            (plain_pairs,) = predict_split(corpus, "dev", DSP_FRONTEND, [(plain.params, plain.scaler, None)])
            align_mse += mse(align_pairs)
            plain_mse += mse(plain_pairs)
        wins += align_mse <= plain_mse
    assert wins >= 2


@criterion("mdf-contract")
def test_mdf_phase_handoff_is_bit_exact(tmp_path):
    # Phase 2 starts from the phase-1 best checkpoint bit for bit: fine-tuning
    # by hand from mdf_phase1/params.ckpt gives the seed's params.ckpt.
    config = tmp_path / "mdf.cfg"
    config.write_text(MDF_RECIPE.replace("model.kind = head", "model.kind = alignnet"), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    seed_dir = out / "train" / "seed0"
    recipe = cli.Recipe(cli.parse_recipe(config), tmp_path)
    _phase1, phase2 = cli.prepare_training(recipe, cli.get_corpora(recipe, out, cli._train_names(recipe)))
    _config1, config2 = cli._train_configs(recipe, 0, phase2.corpus)
    start = load_params(seed_dir / "mdf_phase1" / "params.ckpt")
    assert start.dataset_ids == ("synth", "other")  # phase 1 already holds the pool's table
    save_params(train("alignnet", phase2, config2, init_params=start).params, tmp_path / "by_hand.ckpt")
    assert (tmp_path / "by_hand.ckpt").read_bytes() == (seed_dir / "params.ckpt").read_bytes()
    assert (seed_dir / "scaler.bin").read_bytes() == (seed_dir / "mdf_phase1" / "scaler.bin").read_bytes()

    # Without fine-tuning steps the model is the phase-1 model.
    frozen = tmp_path / "frozen.cfg"
    frozen.write_text(MDF_RECIPE.replace("train.mdf_max_steps = 20", "train.mdf_max_steps = 0"), encoding="utf-8")
    assert main(["train", "--config", str(frozen), "--out", str(tmp_path / "frozen")]) == 0
    frozen_dir = tmp_path / "frozen" / "train" / "seed0"
    assert (frozen_dir / "params.ckpt").read_bytes() == (frozen_dir / "mdf_phase1" / "params.ckpt").read_bytes()


@criterion("benchmark-determinism")
def test_benchmark_runs_are_byte_identical(tmp_path):
    config = tmp_path / "recipe.cfg"
    config.write_text(BASE_RECIPE, encoding="utf-8")
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    for out in (out_a, out_b):
        assert main(["benchmark", "--config", str(config), "--out", str(out), "--seed", "0,1"]) == 0
        assert main(["infer", "--config", str(config), "--out", str(out), "--seed", "0,1", "--inference", "knn"]) == 0
    # The whole output tree, not only the records: corpora, checkpoints,
    # scalers, datastores, ledgers, logs, meta files, kNN predictions and
    # per-system means must all repeat to the byte.
    tree_a = {p.relative_to(out_a).as_posix(): p for p in out_a.rglob("*") if p.is_file()}
    tree_b = {p.relative_to(out_b).as_posix(): p for p in out_b.rglob("*") if p.is_file()}
    assert sorted(tree_a) == sorted(tree_b)
    assert {
        "records.csv",
        "records_mean.csv",
        "train/seed0/params.ckpt",
        "train/seed0/scaler.bin",
        "train/seed0/datastore.bin",
        "train/seed1/datastore.bin",
        "infer/seed1/predictions.csv",
        "infer/seed1/systems.csv",
    } <= set(tree_a)
    assert not any(name.startswith("infer/") and name.endswith("datastore.bin") for name in tree_a)
    for name, path in sorted(tree_a.items()):
        assert path.read_bytes() == tree_b[name].read_bytes(), name


@criterion("miscalibration-pattern")
def test_miscalibrated_predictor_ranks_well_but_fails_mse(tmp_path):
    """A head trained on scores compressed into [4.3, 4.8] stays inside
    [4, 5] on a wide-range test whose true scores span [1, 5]: ranking
    stays strong while MSE exposes the miscalibration."""
    compressed = split_random(
        generate_synthetic_corpus(
            SynthSpec(
                name="compressed",
                out_dir=tmp_path / "compressed",
                n_utterances=64,
                snr_grid_db=GRID,
                mos_intercept=4.45,
                mos_slope=0.07,
                sigma=0.0,
                tone_hz=(400.0, 600.0),
                duration_s=(0.3, 0.6),
            ),
            seed=0,
        ),
        0.75,
        seed=0,
    )
    # Intercept and slope map the SNR grid endpoints -2 and 5 onto 1 and 5.
    wide = generate_synthetic_corpus(
        SynthSpec(
            name="wide",
            out_dir=tmp_path / "wide",
            n_utterances=48,
            snr_grid_db=GRID,
            mos_intercept=2.0 + 1.0 / 7.0,
            mos_slope=4.0 / 7.0,
            sigma=0.0,
            tone_hz=(400.0, 600.0),
            duration_s=(0.3, 0.6),
        ),
        seed=1,
    )
    cfg = TrainConfig(
        batch_size=16,
        lr=0.01,
        max_steps=2500,
        patience_steps=2500,
        selection="sys_srcc",
        seed=0,
        eval_interval=100,
        loss_tau=0.0,
    )
    result = train("head", prepare_train_data(compressed, DSP_FRONTEND), cfg, hidden=32)
    (pairs,) = predict_split(wide, "train", DSP_FRONTEND, [(result.params, result.scaler, None)])

    assert float(pairs.true.min()) == pytest.approx(1.0, abs=1e-9)
    assert float(pairs.true.max()) == pytest.approx(5.0, abs=1e-9)
    assert float(pairs.pred.min()) >= 4.0
    assert float(pairs.pred.max()) <= 5.0
    assert mse(pairs) > 1.0
    assert spearman(system_aggregate(pairs)) > 0.6
