"""
Dataset-aware scoring across shifted corpora
============================================

The same audio can earn different scores in different listening tests.
This demo builds three corpora that differ only by an additive score
shift, trains the dataset-aware model on the pool, and shows how its
learned per-dataset embedding absorbs the shift. At inference time on
unlabeled audio, the dataset embedding comes from the nearest training
neighbor (domain embedding retrieval).
"""

import tempfile
from pathlib import Path

from sqkit import (
    FrontendConfig,
    SynthSpec,
    TrainConfig,
    alignnet_raw,
    build_datastore,
    clip_score,
    featurize,
    generate_synthetic_corpus,
    mse,
    pool,
    predict_split,
    prepare_train_data,
    retrieve_neighbors,
    split_random,
    train,
)

with tempfile.TemporaryDirectory(prefix="sqkit-demo-") as tmp:
    work = Path(tmp)
    frontend = FrontendConfig()


    def shifted(name: str, delta: float, seed: int):
        # identical tone/noise statistics; only the score scale moves
        spec = SynthSpec(
            name=name,
            out_dir=work / name,
            n_utterances=40,
            snr_grid_db=(-2.0, 0.0, 2.0, 5.0),
            mos_intercept=3.0,
            mos_slope=0.25,
            delta=delta,
            sigma=0.0,
            duration_s=(0.25, 0.5),
        )
        return split_random(generate_synthetic_corpus(spec, seed=seed), 0.75, seed=0)


    low = shifted("low", -0.5, 100)
    mid = shifted("mid", 0.0, 200)
    high = shifted("high", +0.5, 300)
    pooled = pool([low, mid, high])
    print("pooled members:", [c.name for c in pooled.members])

    cfg = TrainConfig(batch_size=16, lr=0.01, max_steps=1200, patience_steps=1200,
                      selection="utt_lcc", seed=0, eval_interval=100)
    model = train("alignnet", prepare_train_data(pooled, frontend), cfg, hidden=32, embed_dim=8, decoder_hidden=16)
    print("trained alignnet over datasets", model.params.dataset_ids)

    # one utterance, three dataset rows: the embedding table moves the score
    sample = mid.samples("dev")[0]
    frames = featurize(sample, frontend, model.scaler).frames
    for name in model.params.dataset_ids:
        pred = clip_score(alignnet_raw(model.params, frames, name))
        print(f"  scored as {name:>4}: {pred:.3f}")

    # with no dataset label, borrow the nearest training neighbor's
    ds = build_datastore(frontend, pooled, scaler=model.scaler)
    (guessed,), = retrieve_neighbors(ds, frames.mean(axis=0)[None], k=1).dataset_ids
    print(f"nearest neighbor says {sample.sample_id} came from {guessed!r} (truth {sample.dataset_id!r})")

    # corpus-shift effect on the shifted corpora's dev sets
    for corpus in (low, high):
        (pairs,) = predict_split(corpus, "dev", frontend, [(model.params, model.scaler, ds)],
                                 mode="domain-retrieval")
        print(f"{corpus.name:>4} dev mse with domain retrieval: {mse(pairs):.4f}")
