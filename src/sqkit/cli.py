"""Recipe-style command line: prepare, train, infer, benchmark, aggregate,
export-embeddings.

A recipe is a flat key=value config file; KEYS declares every key it may set.
Every command is deterministic given (config, seeds): corpora are
materialized from seeded generators, training consumes named seed
streams, and all emitted CSV floats use repr so reruns are byte-identical.
Exit codes: 0 success, 1 bad input (config, data or an artifact on disk),
2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
import json
import logging
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .codec import atomic_dir, atomic_open, open_text, read_csv_rows, write_csv
from .corpus import (CorpusManifest, PooledCorpus, SynthSpec, generate_synthetic_corpus, load_corpus_dir, load_manifest,
                     pool, save_corpus_dir, split_random, subsample)
from .errors import (AudioFormatError, CheckpointError, ManifestError, SqkitError, UndefinedCorrelationError,
                     UndefinedRatioError, ValidationError)
from .export import export_embeddings, pca_2d
from .frontend import FeatureScaler, FrontendConfig, load_scaler, save_scaler
# build_datastore is unused here: perfbench's tracer wraps this name on
# this module, and a site that stops resolving fails its run.
from .inference import (DISTANCE_KINDS, INFERENCE_MODES, KnnConfig, build_datastore, check_table_rows, load_datastore,
                        predict_split, save_datastore)
from .metrics import EvalPairs, aggregate, best_values, mse, pearson, spearman, system_aggregate
from .model import ModelParams, load_params, save_params
from .training import (SELECTION_CRITERIA, TrainConfig, TrainData, TrainResult, prepare_mdf_data, prepare_train_data,
                       select_criterion, train)

logger = logging.getLogger(__name__)

LOCK_NAME = ".sqkit.lock"
LOG_LEVELS = ("debug", "info", "warning", "error")
MODEL_SECTIONS = ("corpus.", "frontend.", "model.", "train.")


# ---------------------------------------------------------------- recipes


REQUIRED = object()  # the default of a key that the command reading it needs set
CORPUS_KINDS = ("synthetic", "manifest", "dir")
BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
# value type -> (its parser, which raises ValueError or KeyError on a bad value;
# what a value of the type looks like)
VALUE_TYPES = {
    "str": (str, "text"),
    "path": (Path, "path"),
    "int": (int, "integer"),
    "float": (float, "number"),
    "bool": (lambda text: BOOLS[text.lower()], "true/false"),
    "floats": (lambda text: tuple(float(v) for v in text.split(",") if v.strip()), "comma-separated numbers"),
}


class Key(NamedTuple):
    """A declared recipe key: a VALUE_TYPES name, the default, a one-line
    doc, the values it allows (any when empty) and, for a corpus.X.* key,
    the corpus kinds that read it (every kind when empty)."""

    type: str
    default: object
    doc: str
    choices: tuple[str, ...] = ()
    kinds: tuple[str, ...] = ()


def _arg(fn, name: str):
    return inspect.signature(fn).parameters[name].default


# Every recipe key, declared once; corpus.X.* stands for each corpus.<name>.*
# block. A default the library already holds is read from it.
KEYS: dict[str, Key] = {
    "seeds": Key("str", "0", "comma-separated seed list; --seed overrides it"),
    "out": Key("str", None, "output dir; --out overrides it, and one of the two is needed"),
    "corpus.X.kind": Key("str", None, "synthetic, manifest (a CSV) or dir (a corpus directory); every block needs one"),
    "corpus.X.seed": Key("int", 0, "seed of the generator, the subsample and the split"),
    "corpus.X.subsample": Key("int", None, "keep n train samples, drawn before the split"),
    "corpus.X.split_ratio": Key("float", None, "split a train-only corpus into train/dev at this train share"),
    "corpus.X.n": Key("int", SynthSpec.n_utterances, "utterances", kinds=("synthetic",)),
    "corpus.X.snr_grid": Key("floats", SynthSpec.snr_grid_db, "SNR levels in dB, one per system", kinds=("synthetic",)),
    "corpus.X.mos_intercept": Key("float", SynthSpec.mos_intercept, "score at 0 dB SNR", kinds=("synthetic",)),
    "corpus.X.mos_slope": Key("float", SynthSpec.mos_slope, "score per dB of SNR", kinds=("synthetic",)),
    "corpus.X.delta": Key("float", SynthSpec.delta, "score shift of the whole corpus", kinds=("synthetic",)),
    "corpus.X.sigma": Key("float", SynthSpec.sigma, "std of the per-utterance score noise", kinds=("synthetic",)),
    "corpus.X.tone_lo": Key("float", SynthSpec.tone_hz[0], "lowest tone in Hz", kinds=("synthetic",)),
    "corpus.X.tone_hi": Key("float", SynthSpec.tone_hz[1], "highest tone in Hz", kinds=("synthetic",)),
    "corpus.X.amplitude": Key("float", SynthSpec.tone_amplitude, "tone amplitude", kinds=("synthetic",)),
    "corpus.X.duration_lo": Key("float", SynthSpec.duration_s[0], "shortest utterance in s", kinds=("synthetic",)),
    "corpus.X.duration_hi": Key("float", SynthSpec.duration_s[1], "longest utterance in s", kinds=("synthetic",)),
    "corpus.X.rate": Key("int", SynthSpec.rate_hz, "sample rate of the audio in Hz", kinds=("synthetic",)),
    "corpus.X.path": Key("path", REQUIRED, "the manifest CSV or the corpus directory", kinds=("manifest", "dir")),
    "corpus.X.domain": Key("str", _arg(load_manifest, "domain_tag"), "domain tag", kinds=("manifest",)),
    "frontend.kind": Key("str", FrontendConfig.kind, "dsp (log-mel from audio) or precomputed (embedding files)"),
    "frontend.n_mels": Key("int", FrontendConfig.n_mels, "mel bands of the dsp frontend"),
    "frontend.window_ms": Key("float", FrontendConfig.window_ms, "dsp window length in ms"),
    "frontend.hop_ms": Key("float", FrontendConfig.hop_ms, "dsp hop in ms"),
    "frontend.expected_dim": Key("int", FrontendConfig.expected_dim, "feature dim a precomputed frontend enforces"),
    "model.kind": Key("str", "head", "head or alignnet"),
    "model.hidden": Key("int", _arg(train, "hidden"), "hidden width"),
    "model.embed_dim": Key("int", _arg(train, "embed_dim"), "alignnet dataset-embedding width"),
    "model.decoder_hidden": Key("int", _arg(train, "decoder_hidden"), "alignnet decoder width"),
    "model.label": Key("str", None, "model name in the records (default kind[-mdf]-mode)"),
    "train.corpus": Key("str", REQUIRED, "corpus name, or a pool like a+b+c"),
    "train.batch_size": Key("int", TrainConfig.batch_size, "samples per SGD step"),
    "train.lr": Key("float", TrainConfig.lr, "learning rate"),
    "train.momentum": Key("float", TrainConfig.momentum, "SGD momentum"),
    "train.max_steps": Key("int", TrainConfig.max_steps, "step budget"),
    "train.patience_steps": Key("int", TrainConfig.patience_steps, "steps without a better dev score before a stop"),
    "train.top_k": Key("int", TrainConfig.top_k, "checkpoints the ledger keeps"),
    "train.loss_tau": Key("float", TrainConfig.loss_tau, "clipped-MSE margin"),
    "train.selection": Key("str", "auto", "dev criterion, auto: by corpus domain", ("auto", *SELECTION_CRITERIA)),
    "train.eval_interval": Key("int", TrainConfig.eval_interval, "steps between dev evaluations"),
    "train.mdf_pretrain": Key("str", None, "pre-train corpus; setting it turns on two-phase MDF fine-tuning"),
    "train.mdf_max_steps": Key("int", None, "fine-tune steps (default train.max_steps)"),
    "infer.corpus": Key("str", REQUIRED, "corpus to predict"),
    "infer.split": Key("str", None, "split to predict (default test, else dev, else train)"),
    "infer.mode": Key("str", "parametric", "inference mode; --inference overrides it", INFERENCE_MODES),
    "infer.distance": Key("str", _arg(load_datastore, "distance_kind"), "retrieval distance", DISTANCE_KINDS),
    "infer.knn_k": Key("int", KnnConfig.k, "neighbours of the knn mode"),
    "infer.knn_temperature": Key("float", KnnConfig.temperature, "softmax temperature of the knn weights"),
    "infer.knn_paper_literal": Key("bool", KnnConfig.paper_literal, "weight by exp(+d/T), as the published formula"),
    "benchmark.tests": Key("str", REQUIRED, "comma-separated test corpora"),
    "benchmark.split": Key("str", None, "split to score, as infer.split"),
    "aggregate.inputs": Key("str", REQUIRED, "comma-separated benchmark output dirs"),
    "aggregate.best": Key("str", "within-family", "where the best values come from", ("within-family", "external")),
    "aggregate.reference": Key("path", REQUIRED, "benchmark dir whose models give the best values under external"),
    "export.sets": Key("str", REQUIRED, "comma-separated corpus:split list"),
    "export.n_per_set": Key("int", _arg(export_embeddings, "n_per_set"), "samples drawn per set"),
}


def parse_recipe(path: str | Path) -> dict[str, str]:
    """Read a flat key=value config; '#' starts a comment, blanks ignored."""
    config: dict[str, str] = {}
    for lineno, line in enumerate(open_text(path).read().splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ValidationError(f"{path} line {lineno}: expected key = value")
        key, value = (part.strip() for part in text.split("=", 1))
        if not key:
            raise ValidationError(f"{path} line {lineno}: empty key")
        if key in config:
            raise ValidationError(f"{path} line {lineno}: duplicate key {key!r}")
        config[key] = value
    return config


def _declared(key: str) -> tuple[str, str | None]:
    """The KEYS name of a recipe key, and the corpus name of a
    corpus.<name>.<field> key (None for any other key)."""
    section, _, rest = key.partition(".")
    name, _, field = rest.partition(".")
    if section == "corpus" and field:
        return f"corpus.X.{field}", name
    return key, None


@dataclasses.dataclass
class Recipe:
    """A parsed recipe read through KEYS; relative paths resolve against
    the config file's directory."""

    config: dict[str, str]
    base_dir: Path

    def get(self, key: str):
        """The value of a declared key, parsed by its type, else its default.
        An unset REQUIRED key, a value that does not parse and a value
        outside the key's choices raise ValidationError."""
        spec = KEYS[_declared(key)[0]]
        raw = self.config.get(key)
        if raw is None:
            if spec.default is REQUIRED:
                raise ValidationError(f"config key {key!r} is required")
            return spec.default
        parse, what = VALUE_TYPES[spec.type]
        try:
            value = parse(raw)
        except (ValueError, KeyError):
            raise ValidationError(f"config key {key!r}: expected {what}, got {raw!r}")
        if spec.choices and value not in spec.choices:
            raise ValidationError(f"{key} must be {', '.join(spec.choices[:-1])} or {spec.choices[-1]}, got {raw!r}")
        return self.base_dir / value if spec.type == "path" else value  # an absolute value replaces base_dir

    def fields(self, cls, prefix: str) -> dict:
        """The keyword arguments of dataclass cls that keys prefix<field> declare."""
        return {f.name: self.get(prefix + f.name) for f in dataclasses.fields(cls) if prefix + f.name in KEYS}


def check_keys(recipe: Recipe) -> None:
    """Reject a key that KEYS does not declare, naming the nearest declared
    one, a corpus key that its block's kind does not read, and a value that
    is not of its key's type or not among its choices, whether or not the
    command reads the key."""
    for key in sorted(recipe.config):
        declared, name = _declared(key)
        spec = KEYS.get(declared)
        if spec is None:
            import difflib  # only a recipe with an unknown key pays for this import

            nearest = difflib.get_close_matches(declared, KEYS, n=1, cutoff=0.0)[0]
            nearest = nearest.replace("corpus.X.", f"corpus.{name}.")
            raise ValidationError(f"unknown config key {key!r}; did you mean {nearest!r}?")
        kind = recipe.config.get(f"corpus.{name}.kind") if spec.kinds else None
        if kind in CORPUS_KINDS and kind not in spec.kinds:  # an unknown kind fails where its corpus is made
            kinds = " and ".join(spec.kinds)
            raise ValidationError(f"config key {key!r} is read by {kinds} corpora, not by {kind} ones")
        recipe.get(key)


# ---------------------------------------------------------------- corpora


def _corpus_names(recipe: Recipe) -> list[str]:
    return sorted({key.split(".")[1] for key in recipe.config if key.startswith("corpus.")})


def corpus_fingerprint(recipe: Recipe, name: str, loaded: CorpusManifest | None = None) -> str:
    """sha256 of the raw lines of one corpus block (corpus.<name>.*), by the
    raw-string rule of recipe_hash, plus a line with the sha256 of the bytes
    of each file the block is read from: a manifest block's source CSV, a
    dir block's corpus.json and each split CSV it names, wherever that sits.
    The same block and bytes fingerprint the same in any out dir. loaded
    is a dir block's corpus as load_corpus_dir read it (None for the other
    kinds)."""
    prefix = f"corpus.{name}."
    kind = recipe.get(prefix + "kind")
    sources = [recipe.get(prefix + "path")] if kind in ("manifest", "dir") else []
    if kind == "dir":
        sources = [sources[0] / "corpus.json", *loaded.splits.paths.values()]
    extra = [f"source sha256 = {hashlib.sha256(source.read_bytes()).hexdigest()}" for source in sources]
    return _raw_lines_hash(recipe, (prefix,), *extra)


def _transformed(recipe: Recipe, prefix: str, corpus: CorpusManifest, seed: int) -> CorpusManifest:
    """Apply the block's subsample, then split a train-only corpus at split_ratio."""
    n_sub = recipe.get(prefix + "subsample")
    if n_sub is not None:
        corpus = subsample(corpus, n_sub, seed)
    ratio = recipe.get(prefix + "split_ratio")
    if ratio is not None and set(corpus.splits) == {"train"}:
        corpus = split_random(corpus, ratio, seed)
    return corpus


def _prepared_corpus(recipe: Recipe, name: str, kind: str, seed: int, target: Path, fingerprint: str) -> CorpusManifest:
    """The prepared corpus in target while its corpus.json records the
    block's fingerprint and a manifest's resolved source path (its split
    CSVs name the source's files by absolute path). Otherwise make it,
    subsample and split it, move the finished dir into place (corpus.json
    written last) and return the corpus as made, not read back."""
    prefix = f"corpus.{name}."
    path = recipe.get(prefix + "path") if kind == "manifest" else None
    source = None if path is None else str(path.resolve())
    try:
        corpus = load_corpus_dir(target, fingerprint, source)
        logger.info("loaded prepared corpus %r from %s", name, target)
        return corpus
    except (ManifestError, ValidationError, OSError, ValueError) as exc:
        reason = exc

    def get(field: str):
        return recipe.get(prefix + field)

    with atomic_dir(target) as tmp:
        if path is not None:
            made = load_manifest(path, name=name, domain_tag=get("domain"))
        else:
            made = generate_synthetic_corpus(SynthSpec(
                name=name, out_dir=tmp, n_utterances=get("n"), snr_grid_db=get("snr_grid"),
                mos_intercept=get("mos_intercept"), mos_slope=get("mos_slope"), delta=get("delta"), sigma=get("sigma"),
                tone_hz=(get("tone_lo"), get("tone_hi")), tone_amplitude=get("amplitude"),
                duration_s=(get("duration_lo"), get("duration_hi")), rate_hz=get("rate"),
            ), seed)
        corpus = _transformed(recipe, prefix, made, seed)
        save_corpus_dir(corpus, tmp, fingerprint, source)
    logger.info("generated corpus %r into %s (%s)", name, target, reason)
    if path is not None:  # a manifest names its source's files; generated WAVs moved with tmp into target
        return corpus
    moved = {split: tuple(dataclasses.replace(s, audio_ref=target / s.audio_ref.relative_to(tmp)) for s in samples)
             for split, samples in corpus.splits.items()}
    return dataclasses.replace(corpus, splits=moved)


def materialize_corpus(recipe: Recipe, name: str, out_base: Path) -> CorpusManifest:
    """Build one corpus from its config block.

    kinds: synthetic and manifest (one CSV, a train split) are made once
    under <out>/corpora/<name> and loaded from there while corpus.json
    matches the block (and a manifest's source bytes and resolved path);
    dir (a corpus directory) is loaded from its path. A loaded split is
    read when first used. A train-only corpus with split_ratio set is
    partitioned into train/dev, after subsample trims the train split.
    Every kind's feature_store is <out>/corpora/<name> and the block's
    fingerprint, so a store is the same bytes in any out dir.
    """
    prefix = f"corpus.{name}."
    kind = recipe.get(prefix + "kind")
    if kind is None:
        raise ValidationError(f"corpus {name!r}: missing {prefix}kind")
    seed, target = recipe.get(prefix + "seed"), out_base / "corpora" / name
    loaded = load_corpus_dir(recipe.get(prefix + "path")) if kind == "dir" else None
    fingerprint = corpus_fingerprint(recipe, name, loaded)
    if kind in ("synthetic", "manifest"):
        corpus = _prepared_corpus(recipe, name, kind, seed, target, fingerprint)
    elif kind == "dir":
        corpus = _transformed(recipe, prefix, loaded, seed)
    else:
        raise ValidationError(f"corpus {name!r}: unknown kind {kind!r}")
    return dataclasses.replace(corpus, feature_store=(target, fingerprint))


def get_corpora(recipe: Recipe, out_base: Path, names: list[str]) -> dict[str, CorpusManifest]:
    """Materialize the named corpora, in sorted order: each command passes
    the names it reads, so it neither generates nor validates the others.
    A name the recipe does not declare is not loaded; _corpus rejects it
    where the command looks it up."""
    declared = _corpus_names(recipe)
    if not declared:
        raise ValidationError("config declares no corpora (corpus.<name>.kind keys)")
    return {name: materialize_corpus(recipe, name, out_base) for name in sorted(set(names) & set(declared))}


def _corpus(corpora: dict[str, CorpusManifest], key: str, name: str) -> CorpusManifest:
    if name not in corpora:
        raise ValidationError(f"{key} references unknown corpus {name!r}")
    return corpora[name]


def _train_names(recipe: Recipe) -> list[str]:
    """train.corpus is one name or a +-joined pool like a+b+c."""
    return [n.strip() for n in recipe.get("train.corpus").split("+")]


def resolve_train_corpus(recipe: Recipe, corpora: dict[str, CorpusManifest]) -> CorpusManifest | PooledCorpus:
    """The train.corpus block, or the pool of its blocks, whose corpora
    must have distinct names: pool members and alignnet table rows are
    keyed by corpus name, not block."""
    blocks = _train_names(recipe)
    members = [_corpus(corpora, "train.corpus", name) for name in blocks]
    holders: dict[str, str] = {}
    for block, member in zip(blocks, members):
        first = holders.setdefault(member.name, block)
        if first != block:
            raise ValidationError(f"train.corpus blocks {first!r} and {block!r} both hold corpus {member.name!r}; "
                                  "pool members and alignnet table rows are keyed by corpus name")
    return members[0] if len(members) == 1 else pool(members)


def _target(
    recipe: Recipe, corpora: dict[str, CorpusManifest], key: str, name: str | None = None
) -> tuple[str, CorpusManifest, str]:
    """The corpus named by `key` (or `name`, one entry of its list) and the
    split to score: <section>.split, else test, dev or train."""
    name = recipe.get(key) if name is None else name
    corpus = _corpus(corpora, key, name)
    preferred = recipe.get(key.split(".")[0] + ".split")
    if preferred and not corpus.samples(preferred):
        raise ValidationError(f"corpus {corpus.name!r} has no samples in split {preferred!r}")
    for split in [preferred] if preferred else ["test", "dev", "train"]:
        if corpus.samples(split):
            return name, corpus, split
    raise ValidationError(f"corpus {corpus.name!r} is empty")


# ---------------------------------------------------------------- training


def build_frontend(recipe: Recipe) -> FrontendConfig:
    return FrontendConfig(**recipe.fields(FrontendConfig, "frontend."))


def save_model_dir(directory: Path, result: TrainResult, frontend_config: FrontendConfig, extra: dict) -> None:
    """Persist one trained model: params, scaler, datastore, eval log and
    metadata."""
    directory.mkdir(parents=True, exist_ok=True)
    save_params(result.params, directory / "params.ckpt")
    save_scaler(directory / "scaler.bin", result.scaler)
    save_datastore(directory / "datastore.bin", result.datastore)
    log = ({"step": r.step, "train_loss": r.train_loss, "dev_criterion": r.dev_criterion} for r in result.log)
    write_text(directory / "log.jsonl", "".join(json.dumps(record) + "\n" for record in log))
    meta = {
        "model_kind": result.model_kind,
        "criterion": result.criterion,
        "steps_run": result.steps_run,
        "stop_reason": result.stop_reason,
        "best_step": None if result.ledger.best is None else result.ledger.best.step,
        "best_value": None if result.ledger.best is None else result.ledger.best.value,
        "frontend": dataclasses.asdict(frontend_config),
        **extra,
    }
    write_text(directory / "meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _model_meta(seed_dir: Path) -> dict | None:
    """The meta.json of a finished model dir; None when it is missing or
    is not a JSON object."""
    try:
        meta = json.loads((seed_dir / "meta.json").read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError):
        return None
    return meta if isinstance(meta, dict) else None


def _is_trained(seed_dir: Path, digest: str) -> bool:
    """A finished model dir trained under the recipe whose recipe_hash is
    digest; a dir without a datastore was trained before train wrote one."""
    return (_model_meta(seed_dir) or {}).get("recipe_hash") == digest and (seed_dir / "datastore.bin").is_file()


def load_model_dir(directory: Path, digest: str) -> tuple[ModelParams, FeatureScaler]:
    """Load a trained model dir, which must also hold its datastore; warn
    when it was trained under a recipe whose recipe_hash is not digest."""
    meta = _model_meta(directory)
    if meta is None and (directory / "meta.json").exists():
        raise CheckpointError(f"{directory / 'meta.json'}: not a JSON object (truncated or corrupt); rerun train")
    if meta is None:
        raise ValidationError(f"no trained model in {directory} (run the train command first)")
    datastore = directory / "datastore.bin"
    if not datastore.is_file():
        raise ValidationError(f"{datastore} is missing (an older sqkit did not write it); rerun train")
    if meta.get("recipe_hash") != digest:
        logger.warning("%s was trained under another recipe (its recipe_hash differs); rerun train", directory)
    return load_params(directory / "params.ckpt"), load_scaler(directory / "scaler.bin")


def _raw_lines_hash(recipe: Recipe, prefixes: tuple[str, ...], *extra: str) -> str:
    """sha256 of the sorted raw `key = value` lines whose key starts with one
    of prefixes, then the extra lines."""
    lines = sorted(f"{key} = {value}" for key, value in recipe.config.items() if key.startswith(prefixes))
    return hashlib.sha256("\n".join([*lines, *extra]).encode("utf-8")).hexdigest()


def recipe_hash(recipe: Recipe) -> str:
    """sha256 of the raw recipe lines that decide a trained model (the
    corpus, frontend, model and train keys). Raw strings, not resolved
    paths: the same recipe hashes the same in any out dir. The last line
    repeats the train.mdf_pretrain value, so the digests that existing
    meta.json files record still match."""
    return _raw_lines_hash(recipe, MODEL_SECTIONS, f"mdf_pretrain = {recipe.get('train.mdf_pretrain') or ''}")


def prepare_training(recipe: Recipe, corpora: dict[str, CorpusManifest]) -> tuple[tuple[TrainData, TrainConfig], ...]:
    """The (data, config) pair of each training phase under the recipe: one,
    or two under MDF, where the second runs train.mdf_max_steps when that is
    set. The data is featurized once for every seed through each corpus's
    feature store, and each config holds seed 0, which train_one_seed
    replaces. The train keys are checked before any sample is read."""
    train_corpus = resolve_train_corpus(recipe, corpora)
    values = recipe.fields(TrainConfig, "train.")
    if values["selection"] == "auto":
        values["selection"] = select_criterion(train_corpus.domain_tag)
    config = TrainConfig(**values)
    mdf_pretrain = recipe.get("train.mdf_pretrain")
    if not mdf_pretrain:
        return ((prepare_train_data(train_corpus, build_frontend(recipe)), config),)
    if not isinstance(train_corpus, PooledCorpus):
        raise ValidationError("MDF needs a pooled train.corpus (a+b+...)")
    phase2_steps = recipe.get("train.mdf_max_steps")
    configs = (config, config if phase2_steps is None else dataclasses.replace(config, max_steps=phase2_steps))
    return tuple(zip(prepare_mdf_data(mdf_pretrain, train_corpus, build_frontend(recipe)), configs))


def train_one_seed(recipe: Recipe, phases: tuple[tuple[TrainData, TrainConfig], ...], seed: int,
                   out_dir: Path) -> TrainResult:
    """Train every prepared (data, config) phase under the seed and write the
    seed dir whole. Each phase after the first starts from the previous phase's
    best params, and the alignnet table covers the last phase's corpus.
    Under MDF each earlier phase is saved to mdf_phase<i>/ and its
    checkpoints go to ledger/phase<i>/."""
    frontend_config = build_frontend(recipe)
    model_kind = recipe.get("model.kind")
    sizes = {name: recipe.get("model." + name) for name in ("hidden", "embed_dim", "decoder_hidden")}
    extra = {"recipe_hash": recipe_hash(recipe)}
    mdf = len(phases) > 1
    result = None
    with atomic_dir(out_dir / "train" / f"seed{seed}") as seed_dir:
        for phase, (data, config) in enumerate(phases, start=1):
            result = train(
                model_kind,
                data,
                dataclasses.replace(config, seed=seed),
                **sizes,
                init_params=None if result is None else result.params,
                dataset_ids=phases[-1][0].corpus.dataset_ids,
                out_dir=seed_dir / "ledger" / f"phase{phase}" if mdf else seed_dir / "ledger",
            )
            model_dir = seed_dir if phase == len(phases) else seed_dir / f"mdf_phase{phase}"
            meta = {**extra, "mdf_pretrain": recipe.get("train.mdf_pretrain"), "phase": phase} if mdf else extra
            save_model_dir(model_dir, result, frontend_config, meta)
    logger.info("seed %d: trained %s for %d steps", seed, model_kind, result.steps_run)
    return result


# ---------------------------------------------------------------- writers


def write_text(path: Path, text: str) -> None:
    """Write a UTF-8 text file whole or not at all (temp file plus rename)."""
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def metric_values(pairs: EvalPairs) -> dict[str, float | str]:
    """All six metrics; an undefined correlation becomes the string
    "undefined" so records stay machine-readable without inventing zeros."""
    levels = [("utt", pairs)] + ([("sys", system_aggregate(pairs))] if pairs.has_systems else [])
    values: dict[str, float | str] = {}
    for level, level_pairs in levels:
        values[f"{level}_mse"] = mse(level_pairs)
        for name, fn in (("lcc", pearson), ("srcc", spearman)):
            try:
                values[f"{level}_{name}"] = fn(level_pairs)
            except UndefinedCorrelationError:
                values[f"{level}_{name}"] = "undefined"
    return values


def _fmt(value: float | str) -> str:
    return value if isinstance(value, str) else repr(float(value))


def write_records(path: Path, rows: list[tuple]) -> None:
    """model,test,seed,metric,value rows in sorted order (byte-stable)."""
    out = ([row[0], row[1], str(row[2]), row[3], _fmt(row[4])] for row in sorted(rows))
    write_csv(path, ["model", "test", "seed", "metric", "value"], out)


def write_records_mean(path: Path, rows: list[tuple]) -> None:
    """Seed-averaged records: model,test,metric,value."""
    grouped: dict[tuple[str, str, str], list] = {}
    for model, test, _seed, metric, value in rows:
        grouped.setdefault((model, test, metric), []).append(value)
    out = []
    for (model, test, metric), values in sorted(grouped.items()):
        undefined = any(isinstance(v, str) for v in values)
        out.append([model, test, metric, "undefined" if undefined else repr(float(np.mean(values)))])
    write_csv(path, ["model", "test", "metric", "value"], out)


# ---------------------------------------------------------------- commands


def cmd_prepare(recipe: Recipe, args: argparse.Namespace, out: Path) -> int:
    """Materialize every synthetic and manifest corpus under
    <out>/corpora/, and read every split of every configured corpus."""
    for name, corpus in get_corpora(recipe, out, _corpus_names(recipe)).items():
        sizes = {split: corpus.size(split) for split in corpus.splits}
        print(f"prepared corpus {name}: {sizes}")
    return 0


def _seed_list(recipe: Recipe, args: argparse.Namespace) -> list[int]:
    text = args.seed or recipe.get("seeds")
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ValidationError(f"bad seed list {text!r}")
    if not seeds:
        raise ValidationError("seed list is empty")
    repeated = sorted({seed for seed in seeds if seeds.count(seed) > 1})
    if repeated:
        raise ValidationError(f"seed list {text!r} repeats seed {', '.join(map(str, repeated))}")
    return seeds


def cmd_train(recipe: Recipe, args: argparse.Namespace, out: Path) -> int:
    seeds = _seed_list(recipe, args)
    corpora = get_corpora(recipe, out, _train_names(recipe))
    phases = prepare_training(recipe, corpora)
    for seed in seeds:
        result = train_one_seed(recipe, phases, seed, out)
        best = result.ledger.best
        value = "n/a" if best is None else f"{best.value:.4f}@{best.step}"
        print(f"trained seed {seed}: {result.model_kind}, {result.steps_run} steps, best {result.criterion} {value}")
    return 0


def _inference_settings(recipe: Recipe, args: argparse.Namespace) -> tuple[str, KnnConfig | None, str | None]:
    """The inference mode, the KnnConfig of the knn mode and the datastore
    distance of the retrieval modes, checked against the recipe's model
    kind. Commands call this before they make any corpus."""
    mode = args.inference or recipe.get("infer.mode")
    model_kind = recipe.get("model.kind")
    if mode == "domain-retrieval" and model_kind != "alignnet":
        raise ValidationError(f"domain-retrieval needs model.kind = alignnet, not {model_kind!r}")
    knn_config = KnnConfig(**recipe.fields(KnnConfig, "infer.knn_")) if mode == "knn" else None
    return mode, knn_config, None if mode == "parametric" else recipe.get("infer.distance")


def _load_models(recipe: Recipe, out: Path, seeds: list[int], mode: str, distance_kind: str | None) -> list[tuple]:
    """Each seed's trained (params, scaler, datastore) triple, the datastore
    loaded for the retrieval modes only, queried under distance_kind."""
    digest = recipe_hash(recipe)
    models = []
    for seed in seeds:
        seed_dir = out / "train" / f"seed{seed}"
        params, scaler = load_model_dir(seed_dir, digest)
        datastore = None if mode == "parametric" else load_datastore(seed_dir / "datastore.bin", distance_kind)
        models.append((params, scaler, datastore))
    return models


def cmd_infer(recipe: Recipe, args: argparse.Namespace, out: Path) -> int:
    """Predict one corpus split with a trained model, one file per seed,
    plus the per-system means when every sample has a system id."""
    seeds = _seed_list(recipe, args)
    mode, knn_config, distance_kind = _inference_settings(recipe, args)
    name = recipe.get("infer.corpus")
    models = _load_models(recipe, out, seeds, mode, distance_kind)  # before any corpus is made
    corpora = get_corpora(recipe, out, [name])
    _name, corpus, split = _target(recipe, corpora, "infer.corpus")
    # All seeds at once, so each sample is featurized once; predict_split checks each model's table rows first.
    all_pairs = predict_split(corpus, split, build_frontend(recipe), models, mode, knn_config)
    for seed, pairs in zip(seeds, all_pairs):
        with atomic_dir(out / "infer" / f"seed{seed}") as seed_dir:
            systems = (system or "" for system in pairs.system_ids)
            rows = zip(pairs.sample_ids, systems, map(_fmt, pairs.true), map(_fmt, pairs.pred))
            write_csv(seed_dir / "predictions.csv", ["sample_id", "system_id", "true", "pred"], rows)
            if pairs.has_systems:
                means = system_aggregate(pairs)
                rows = zip(means.system_ids, map(_fmt, means.true), map(_fmt, means.pred))
                write_csv(seed_dir / "systems.csv", ["system_id", "true_mean", "pred_mean"], rows)
        print(f"infer seed {seed}: {mode} on {name}/{split}, {len(pairs)} predictions")
    return 0


def cmd_benchmark(recipe: Recipe, args: argparse.Namespace, out: Path) -> int:
    """Train (unless this out dir holds a finished model trained under the
    same recipe) and evaluate every configured test set per seed, then write
    record files."""
    names = [t.strip() for t in recipe.get("benchmark.tests").split(",") if t.strip()]
    digest = recipe_hash(recipe)
    seeds = _seed_list(recipe, args)
    mode, knn_config, distance_kind = _inference_settings(recipe, args)
    untrained = [seed for seed in seeds if not _is_trained(out / "train" / f"seed{seed}", digest)]
    corpora = get_corpora(recipe, out, names + (_train_names(recipe) if untrained else []))
    targets = [_target(recipe, corpora, "benchmark.tests", name) for name in names]
    if untrained:
        if mode == "parametric" and recipe.get("model.kind") == "alignnet":  # fail before training, not after
            table_ids = resolve_train_corpus(recipe, corpora).dataset_ids
            for _name, corpus, split in targets:
                check_table_rows(table_ids, corpus.samples(split), split)
        phases = prepare_training(recipe, corpora)
        for seed in untrained:
            train_one_seed(recipe, phases, seed, out)
        del phases  # the train matrix is not needed for scoring
    models = _load_models(recipe, out, seeds, mode, distance_kind)
    frontend_config = build_frontend(recipe)
    by_target = [predict_split(corpus, split, frontend_config, models, mode, knn_config) for _, corpus, split in targets]

    model_label = recipe.get("model.label")
    if model_label is None:
        mdf = "-mdf" if recipe.get("train.mdf_pretrain") else ""
        model_label = f"{recipe.get('model.kind')}{mdf}-{mode}"
    rows: list[tuple] = []
    tests: dict[str, list[str]] = {}
    for seed, *all_pairs in zip(seeds, *by_target):
        for (name, corpus, _split), pairs in zip(targets, all_pairs):
            tests[name] = [name, corpus.domain_tag, str(len(pairs))]
            for metric, value in metric_values(pairs).items():
                rows.append((model_label, name, seed, metric, value))
        print(f"benchmark seed {seed}: {model_label} on {len(targets)} test sets")

    write_records(out / "records.csv", rows)
    write_records_mean(out / "records_mean.csv", rows)
    write_csv(out / "tests.csv", ["test", "domain_tag", "n"], (tests[name] for name in sorted(tests)))
    print(f"wrote {out / 'records.csv'} ({len(rows)} rows)")
    return 0


def _read_records_mean(run_dir: Path) -> tuple[dict[tuple[str, str], dict[str, float]], dict[str, str]]:
    """Read records_mean.csv + tests.csv from one benchmark output dir."""
    records_path = run_dir / "records_mean.csv"
    tests_path = run_dir / "tests.csv"
    if not records_path.exists() or not tests_path.exists():
        raise ValidationError(f"{run_dir} has no records_mean.csv/tests.csv (run benchmark first)")
    by_cell: dict[tuple[str, str], dict[str, float]] = {}
    for row in read_csv_rows(records_path, ("model", "test", "metric", "value")):
        try:
            value = float(row["value"])  # "undefined" is not a number either
        except ValueError:
            raise ValidationError(f"{records_path}: metric {row['metric']} for ({row['model']}, {row['test']}) is "
                                  f"{row['value']}; aggregate needs defined metrics") from None
        by_cell.setdefault((row["model"], row["test"]), {})[row["metric"]] = value
    domains = {row["test"]: row["domain_tag"] for row in read_csv_rows(tests_path, ("test", "domain_tag"))}
    return by_cell, domains


def cmd_aggregate(recipe: Recipe, args: argparse.Namespace, out: Path) -> int:
    """Merge benchmark outputs into a best-score difference/ratio matrix.

    aggregate.inputs lists benchmark output dirs; the within-family best
    is taken over all merged models, or aggregate.reference names another
    benchmark dir whose models define the best values externally.
    """
    input_dirs = [p.strip() for p in recipe.get("aggregate.inputs").split(",") if p.strip()]
    merged: dict[tuple[str, str], dict[str, float]] = {}
    domains: dict[str, str] = {}
    for text in input_dirs:
        by_cell, run_domains = _read_records_mean(recipe.base_dir / text)
        for cell in by_cell:
            if cell in merged:
                raise ValidationError(f"duplicate (model, test) {cell} across aggregate inputs")
        merged.update(by_cell)
        domains.update(run_domains)

    best = None
    if recipe.get("aggregate.best") == "external":
        ref_cells, ref_domains = _read_records_mean(recipe.get("aggregate.reference"))
        for test, domain in sorted(domains.items()):
            if test not in ref_domains:
                raise ValidationError(f"aggregate.reference has no test set {test!r}")
            if ref_domains[test] != domain:
                raise ValidationError(f"aggregate.reference tags test set {test!r} {ref_domains[test]!r}, not {domain!r}")
        best = best_values(ref_cells, ref_domains)

    matrix = aggregate(merged, domains, best)
    out.mkdir(parents=True, exist_ok=True)
    cells = ((model, test, matrix.cells[model, test]) for model in matrix.model_ids for test in matrix.test_ids)
    rows = ([m, t, repr(c.mse), repr(c.corr), repr(c.difference), repr(c.ratio)] for m, t, c in cells)
    write_csv(out / "aggregate.csv", ["model", "test", "mse", "corr", "difference", "ratio"], rows)
    averages = ((model, *item) for model in matrix.model_ids for item in sorted(matrix.averages[model].items()))
    rows = ([model, domain, repr(diff), repr(ratio)] for model, domain, (diff, ratio) in averages)
    write_csv(out / "aggregate_summary.csv", ["model", "domain", "mean_difference", "mean_ratio"], rows)
    print(f"aggregated {len(matrix.model_ids)} models x {len(matrix.test_ids)} tests -> {out / 'aggregate.csv'}")
    return 0


def cmd_export_embeddings(recipe: Recipe, args: argparse.Namespace, out: Path) -> int:
    """Dump pooled embeddings plus a 2-D PCA projection for chosen sets.

    export.sets is a comma list of corpus:split entries; the trained
    scaler of the first seed is used when present so the dump lives in
    the model's feature space (raw features otherwise).
    """
    entries = [e.strip() for e in recipe.get("export.sets").split(",") if e.strip()]
    for entry in entries:
        if ":" not in entry:
            raise ValidationError(f"export.sets entry {entry!r} must be corpus:split")
    pairs = [entry.split(":", 1) for entry in entries]
    seeds = _seed_list(recipe, args)
    scaler = None
    scaler_note = "raw frontend features (no trained scaler found)"
    model_dir = out / "train" / f"seed{seeds[0]}"
    if (model_dir / "meta.json").exists():  # loaded before any corpus is made
        _params, scaler = load_model_dir(model_dir, recipe_hash(recipe))
        scaler_note = f"scaler from {model_dir}"

    corpora = get_corpora(recipe, out, [name for name, _split in pairs])
    frontend_config = build_frontend(recipe)
    sets = [
        (f"{name}:{split}", _corpus(corpora, "export.sets", name), split, "train" if split == "train" else "test")
        for name, split in pairs
    ]

    dump = export_embeddings(sets, frontend_config, scaler, n_per_set=recipe.get("export.n_per_set"), seed=seeds[0])
    proj, _components, _mean = pca_2d(dump.embeddings)
    labels = list(zip(dump.set_labels, dump.sample_ids, dump.roles))
    notes = [f"features: {scaler_note}"]
    if dump.truncated_sets:
        notes.append("sets smaller than n_per_set (taken whole): " + ", ".join(dump.truncated_sets))
    export_dir = out / "export"
    with atomic_dir(export_dir) as tmp:
        header = ["set_label", "sample_id", "role"]
        rows = ([*label, *(repr(float(v)) for v in row)] for label, row in zip(labels, dump.embeddings))
        write_csv(tmp / "embeddings.csv", header + [f"e{i}" for i in range(dump.embeddings.shape[1])], rows)
        rows = ([*label, repr(float(x)), repr(float(y))] for label, (x, y) in zip(labels, proj))
        write_csv(tmp / "pca.csv", header + ["x", "y"], rows)
        write_text(tmp / "summary.txt", "\n".join(notes) + "\n")
    print(f"exported {len(dump.sample_ids)} embeddings -> {export_dir}")
    return 0


# ---------------------------------------------------------------- main


COMMANDS = {"prepare": cmd_prepare, "train": cmd_train, "infer": cmd_infer, "benchmark": cmd_benchmark,
            "aggregate": cmd_aggregate, "export-embeddings": cmd_export_embeddings}


class _Parser(argparse.ArgumentParser):
    # Argument mistakes are validation errors: exit 1, not argparse's 2.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sqkit", description="Train, run, and benchmark speech-quality predictors.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__, description=fn.__doc__)
        p.add_argument("--config", required=True, help="recipe config file (flat key=value)")
        p.add_argument("--seed", help="comma-separated seed list, overrides config 'seeds'")
        p.add_argument("--out", help="output directory, overrides config 'out'")
        p.add_argument("--inference", choices=INFERENCE_MODES, help="inference mode, overrides config 'infer.mode'")
        p.add_argument("--log-level", choices=LOG_LEVELS, default="warning", help="sqkit log level (default warning)")
        p.add_argument("-v", dest="log_level", action="store_const", const="info", help="same as --log-level info")
    return parser


def _acquire_lock(out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    lock = out / LOCK_NAME
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        try:
            holder = lock.read_text(encoding="utf-8", errors="replace").strip()
        except FileNotFoundError:  # the holder finished between open and read
            holder = ""  # unreached: no test can time the holder's exit into that gap
        raise RuntimeError(f"output dir {out} is locked by pid {holder or '?'} ({lock}); remove it if that run is gone")
    with os.fdopen(fd, "w") as fh:
        fh.write(str(os.getpid()) + "\n")
    return lock


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for name in ("sqkit", logger.name):  # logger.name is __main__ under `python -m sqkit.cli`
        logging.getLogger(name).setLevel(args.log_level.upper())

    lock = None
    try:
        config_path = Path(args.config)
        recipe = Recipe(parse_recipe(config_path), config_path.resolve().parent)
        out_text = args.out or recipe.get("out")
        if out_text is None:
            raise ValidationError("no output dir: pass --out or set 'out' in the config")
        out = Path(out_text)
        check_keys(recipe)
        lock = _acquire_lock(out)
        return COMMANDS[args.command](recipe, args, out)
    except (ValidationError, ManifestError, CheckpointError, AudioFormatError, UndefinedRatioError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SqkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit 2
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if lock is not None:
            lock.unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())  # unreached: tests call main() in-process
