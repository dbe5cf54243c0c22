"""
Building a synthetic listening-test corpus
==========================================

Generates a small tone-plus-noise corpus whose score follows a linear
SNR rule, splits it into train/dev, and round-trips it through the
on-disk directory layout.
"""

import tempfile
from pathlib import Path

from sqkit import (
    SynthSpec,
    generate_synthetic_corpus,
    load_corpus_dir,
    save_corpus_dir,
    split_random,
)

with tempfile.TemporaryDirectory(prefix="sqkit-demo-") as tmp:
    work = Path(tmp)
    # Each SNR level acts as one "system"; the score is intercept + slope * snr,
    # clamped to the 1..5 scale, plus optional listener noise (sigma).
    spec = SynthSpec(
        name="demo",
        out_dir=work / "wav",
        n_utterances=24,
        snr_grid_db=(-2.0, 0.0, 2.0, 5.0),
        mos_intercept=3.0,
        mos_slope=0.4,
        sigma=0.1,
        duration_s=(0.3, 0.5),
    )
    corpus = generate_synthetic_corpus(spec, seed=0)
    print("generated", corpus.size("train"), "utterances in", corpus.name)

    # 75/25 split; the split is deterministic in the seed
    corpus = split_random(corpus, 0.75, seed=0)
    print("train", corpus.size("train"), "dev", corpus.size("dev"))

    for sample in corpus.samples("train")[:4]:
        print(f"  {sample.sample_id}  system={sample.system_id}  mos={sample.mos:.2f}")

    # corpus.json plus one manifest CSV per split
    out = work / "corpus"
    save_corpus_dir(corpus, out)
    print("saved:", sorted(p.name for p in out.iterdir()))

    again = load_corpus_dir(out)
    assert again.size("train") == corpus.size("train")
    assert again.samples("dev")[0].mos == corpus.samples("dev")[0].mos
    print("reloaded", again.name, "ok")
