"""
Recipe-driven runs from the command line
========================================

Everything in the library is also reachable through the sqkit CLI and a
flat key = value recipe file. This demo writes a recipe, then walks the
usual sequence: prepare, train, benchmark, aggregate.
"""

import csv
import tempfile
from pathlib import Path

from sqkit.cli import main

RECIPE = """
# one synthetic corpus, a small head, a short training run
corpus.synth.kind = synthetic
corpus.synth.n = 24
corpus.synth.seed = 7
corpus.synth.duration_lo = 0.2
corpus.synth.duration_hi = 0.3
corpus.synth.split_ratio = 0.75

frontend.n_mels = 8

model.kind = head
model.hidden = 8

train.corpus = synth
train.batch_size = 8
train.lr = 0.01
train.max_steps = 80
train.eval_interval = 10
train.patience_steps = 1000
train.loss_tau = 0.0

infer.corpus = synth
benchmark.tests = synth
seeds = 0,1
"""

with tempfile.TemporaryDirectory(prefix="sqkit-demo-") as tmp:
    work = Path(tmp)
    config = work / "recipe.cfg"
    config.write_text(RECIPE, encoding="utf-8")
    out = work / "out"

    # materialize corpora to disk (wav files plus manifests)
    assert main(["prepare", "--config", str(config), "--out", str(out)]) == 0
    print("prepared:", sorted(p.name for p in (out / "corpora" / "synth").iterdir()))

    # one model directory per seed: params, scaler, meta, log
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    print("trained:", sorted(p.name for p in (out / "train" / "seed0").iterdir()))

    # per-seed metric records plus the across-seed mean table
    assert main(["benchmark", "--config", str(config), "--out", str(out)]) == 0
    with open(out / "records_mean.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            print(f"  {row['model']}  {row['test']}  {row['metric']:>8}  {row['value']}")

    # best-score differences and ratios across benchmark outputs;
    # aggregate reads its input dirs from its own recipe key
    agg_config = work / "agg.cfg"
    agg_config.write_text(f"aggregate.inputs = {out}\n", encoding="utf-8")
    summary = work / "summary"
    assert main(["aggregate", "--config", str(agg_config), "--out", str(summary)]) == 0
    with open(summary / "aggregate.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            print(f"  {row['model']}  {row['test']}  difference {row['difference']}  ratio {row['ratio']}")
