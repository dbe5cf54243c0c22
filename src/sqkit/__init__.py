"""sqkit: train, run, and benchmark subjective speech-quality predictors.

The pieces compose in pipeline order: corpora (manifests, splits, pooling,
synthetic fixtures) feed the frontend (audio to frame features), models
score feature matrices, training fits them, inference runs them in
parametric or retrieval modes, and metrics/aggregation compare everything
across test sets. The `sqkit` command drives the same functions from
recipe config files.
"""

from .corpus import (
    CorpusManifest,
    PooledCorpus,
    Sample,
    SynthSpec,
    generate_synthetic_corpus,
    load_corpus_dir,
    load_manifest,
    pool,
    save_corpus_dir,
    save_manifest,
    split_random,
    subsample,
)
from .errors import (
    AudioFormatError,
    CheckpointError,
    ManifestError,
    SqkitError,
    UndefinedCorrelationError,
    UndefinedRatioError,
    ValidationError,
)
from .export import (
    EmbeddingDump,
    export_embeddings,
    pca_2d,
    select_samples,
)
from .frontend import (
    EmbeddingMatrix,
    FeatureScaler,
    FrontendConfig,
    extract_dsp,
    featurize,
    load_audio,
    load_precomputed,
    load_scaler,
    mel_center_frequencies,
    mel_filterbank,
    resample_to_16k,
    save_precomputed,
    save_scaler,
    write_wav,
)
from .inference import (
    Datastore,
    KnnConfig,
    NeighborSet,
    build_datastore,
    knn_weights,
    load_datastore,
    predict_split,
    retrieve_neighbors,
    save_datastore,
)
from .metrics import (
    DEFAULT_METRIC_KEYS,
    BenchCell,
    BenchMatrix,
    EvalPairs,
    aggregate,
    best_score_difference,
    best_score_ratio,
    best_values,
    mse,
    pearson,
    spearman,
    system_aggregate,
)
from .model import (
    AlignNetParams,
    HeadParams,
    Workspace,
    alignnet_backward,
    alignnet_raw,
    clip_score,
    copy_params,
    head_backward,
    head_raw,
    init_alignnet,
    init_head,
    load_params,
    save_params,
    zero_grads,
)
from .seeding import named_rng
from .training import (
    CheckpointLedger,
    TrainConfig,
    TrainData,
    TrainResult,
    clipped_mse,
    prepare_mdf_data,
    prepare_train_data,
    select_criterion,
    train,
)

__version__ = "0.1.0"
