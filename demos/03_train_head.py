"""
Training the frame-level regression head
========================================

Trains the plain head on a synthetic corpus with SGD momentum, watches
the checkpoint ledger and early stopping do their work, then scores the
held-out split.
"""

import tempfile
from pathlib import Path

from sqkit import (
    FrontendConfig,
    SynthSpec,
    TrainConfig,
    generate_synthetic_corpus,
    mse,
    pearson,
    predict_split,
    prepare_train_data,
    spearman,
    split_random,
    system_aggregate,
    train,
)

with tempfile.TemporaryDirectory(prefix="sqkit-demo-") as tmp:
    work = Path(tmp)
    spec = SynthSpec(
        name="demo",
        out_dir=work / "wav",
        n_utterances=64,
        snr_grid_db=(-2.0, 0.0, 2.0, 5.0),
        mos_intercept=3.0,
        mos_slope=0.4,
        sigma=0.0,
        duration_s=(0.3, 0.5),
    )
    corpus = split_random(generate_synthetic_corpus(spec, seed=0), 0.75, seed=0)

    cfg = TrainConfig(
        batch_size=16,
        lr=0.01,
        max_steps=2000,
        eval_interval=100,     # dev evaluation cadence
        patience_steps=600,    # stop after this many steps without a new best
        top_k=3,               # checkpoints kept
        selection="utt_lcc",   # dev criterion steering the ledger
        seed=0,
    )
    result = train("head", prepare_train_data(corpus, FrontendConfig()), cfg, out_dir=work / "ckpt")

    print("ran", result.steps_run, "steps, selected by", result.criterion)
    print("ledger (best first):")
    for entry in result.ledger.entries:
        print(f"  step {entry.step:4d}  dev {result.criterion} {entry.value:.4f}  ckpt_step{entry.step}.bin")

    # the training log keeps one record per step; dev values appear on the cadence
    evals = [r for r in result.log if r.dev_criterion is not None]
    print("first eval", evals[0], "\nlast eval ", evals[-1])

    # score the held-out split with the best checkpoint
    (pairs,) = predict_split(corpus, "dev", FrontendConfig(), [(result.params, result.scaler, None)])
    print(f"dev: mse {mse(pairs):.4f}  lcc {pearson(pairs):.4f}")

    # system-level view: average true/pred per system, then correlate
    sys_pairs = system_aggregate(pairs)
    print(f"system-level srcc over {len(sys_pairs.true)} systems: {spearman(sys_pairs):.4f}")
