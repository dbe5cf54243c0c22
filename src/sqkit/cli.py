"""Recipe-style command line: prepare, train, infer, benchmark, aggregate,
export-embeddings, distribution-data.

A recipe is a flat key=value config file; command-line flags override it.
Every command is deterministic given (config, seeds): corpora are
materialized from seeded generators, training consumes named seed
streams, and all emitted CSV floats use repr so reruns are byte-identical.
Exit codes: 0 success, 1 validation/config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import os
import shutil
import sys
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .codec import atomic_open
from .corpus import (
    CorpusManifest,
    PooledCorpus,
    SynthSpec,
    generate_synthetic_corpus,
    load_corpus_dir,
    load_manifest,
    pool,
    save_corpus_dir,
    split_random,
    subsample,
)
from .errors import (
    ManifestError,
    SqkitError,
    UndefinedCorrelationError,
    ValidationError,
)
from .export import distribution_data, export_embeddings, pca_2d
from .frontend import FeatureScaler, FrontendConfig, load_scaler, save_scaler
from .inference import Datastore, KnnConfig, build_datastore, predict_split, save_datastore
from .metrics import DEFAULT_METRIC_KEYS, EvalPairs, MetricReport, aggregate, mse, pearson, spearman, system_aggregate
from .model import ModelParams, load_params, save_params
from .training import MdfResult, TrainConfig, TrainResult, select_criterion, train, train_mdf

logger = logging.getLogger(__name__)

LOCK_NAME = ".sqkit.lock"
MODEL_SECTIONS = ("corpus.", "frontend.", "model.", "train.")
INFERENCE_MODES = ("parametric", "knn", "domain-retrieval")


# ---------------------------------------------------------------- recipes


def parse_recipe(path: str | Path) -> dict[str, str]:
    """Read a flat key=value config; '#' starts a comment, blanks ignored."""
    config: dict[str, str] = {}
    path = Path(path)
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
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


class Recipe:
    """Config access with typed getters; relative paths resolve against
    the config file's directory."""

    def __init__(self, config: dict[str, str], base_dir: Path):
        self.config = config
        self.base_dir = base_dir

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.config.get(key, default)

    def require(self, key: str) -> str:
        if key not in self.config:
            raise ValidationError(f"config key {key!r} is required")
        return self.config[key]

    def _number(self, key: str, default, kind: type):
        raw = self.config.get(key)
        try:
            return default if raw is None else kind(raw)
        except ValueError:
            what = "integer" if kind is int else "number"
            raise ValidationError(f"config key {key!r}: expected {what}, got {raw!r}")

    def get_int(self, key: str, default: int | None) -> int | None:
        return self._number(key, default, int)

    def get_float(self, key: str, default: float | None) -> float | None:
        return self._number(key, default, float)

    def get_bool(self, key: str, default: bool) -> bool:
        raw = self.config.get(key)
        if raw is None:
            return default
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValidationError(f"config key {key!r}: expected true/false, got {raw!r}")

    def path(self, key: str) -> Path:
        return self.base_dir / self.require(key)  # an absolute value replaces base_dir


# ---------------------------------------------------------------- corpora


def _corpus_names(recipe: Recipe) -> list[str]:
    names = {key.split(".")[1] for key in recipe.config if key.startswith("corpus.")}
    return sorted(names)


def _floats_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def materialize_corpus(recipe: Recipe, name: str, out_base: Path) -> CorpusManifest:
    """Build one corpus from its config block.

    kinds: synthetic (generated under <out>/corpora/<name>), manifest
    (one CSV loaded as a train split), dir (corpus directory with
    corpus.json). A train-only corpus with split_ratio set is partitioned
    into train/dev; subsample trims the train split first.
    """
    prefix = f"corpus.{name}."
    kind = recipe.get(prefix + "kind")
    if kind is None:
        raise ValidationError(f"corpus {name!r}: missing {prefix}kind")
    seed = recipe.get_int(prefix + "seed", 0)
    if kind == "synthetic":
        spec = SynthSpec(
            name=name,
            out_dir=out_base / "corpora" / name,
            n_utterances=recipe.get_int(prefix + "n", 120),
            snr_grid_db=_floats_list(recipe.get(prefix + "snr_grid", "-2,0,2,5")),
            mos_intercept=recipe.get_float(prefix + "mos_intercept", 3.0),
            mos_slope=recipe.get_float(prefix + "mos_slope", 0.4),
            delta=recipe.get_float(prefix + "delta", 0.0),
            sigma=recipe.get_float(prefix + "sigma", 0.0),
            tone_hz=(
                recipe.get_float(prefix + "tone_lo", 200.0),
                recipe.get_float(prefix + "tone_hi", 600.0),
            ),
            tone_amplitude=recipe.get_float(prefix + "amplitude", 0.25),
            duration_s=(
                recipe.get_float(prefix + "duration_lo", 1.0),
                recipe.get_float(prefix + "duration_hi", 3.0),
            ),
            rate_hz=recipe.get_int(prefix + "rate", 16000),
        )
        corpus = generate_synthetic_corpus(spec, seed)
    elif kind == "manifest":
        corpus = load_manifest(
            recipe.path(prefix + "path"),
            name=name,
            domain_tag=recipe.get(prefix + "domain", "non-synthetic"),
            language=recipe.get(prefix + "language", "und"),
            native_rate_hz=recipe.get_int(prefix + "rate", 16000),
        )
    elif kind == "dir":
        corpus = load_corpus_dir(recipe.path(prefix + "path"))
    else:
        raise ValidationError(f"corpus {name!r}: unknown kind {kind!r}")

    n_sub = recipe.get_int(prefix + "subsample", None)
    if n_sub is not None:
        corpus = subsample(corpus, n_sub, seed)
    ratio = recipe.get_float(prefix + "split_ratio", None)
    if ratio is not None and set(corpus.splits) == {"train"}:
        corpus = split_random(corpus, ratio, seed)
    return corpus


def get_corpora(recipe: Recipe, out_base: Path) -> dict[str, CorpusManifest]:
    names = _corpus_names(recipe)
    if not names:
        raise ValidationError("config declares no corpora (corpus.<name>.kind keys)")
    return {name: materialize_corpus(recipe, name, out_base) for name in names}


def _corpus(corpora: dict[str, CorpusManifest], key: str, name: str) -> CorpusManifest:
    if name not in corpora:
        raise ValidationError(f"{key} references unknown corpus {name!r}")
    return corpora[name]


def resolve_train_corpus(recipe: Recipe, corpora: dict[str, CorpusManifest]) -> CorpusManifest | PooledCorpus:
    """train.corpus is one name or a +-joined pool like a+b+c."""
    members = [_corpus(corpora, "train.corpus", n.strip()) for n in recipe.require("train.corpus").split("+")]
    return members[0] if len(members) == 1 else pool(members)


def eval_split_for(corpus: CorpusManifest, preferred: str | None) -> str:
    """Pick the evaluation split: the configured one, else test, else dev."""
    if preferred:
        if corpus.samples(preferred):
            return preferred
        raise ValidationError(f"corpus {corpus.name!r} has no samples in split {preferred!r}")
    for split in ("test", "dev", "train"):
        if corpus.samples(split):
            return split
    raise ValidationError(f"corpus {corpus.name!r} is empty")


def _target(
    recipe: Recipe, corpora: dict[str, CorpusManifest], key: str, name: str | None = None
) -> tuple[str, CorpusManifest, str]:
    """The corpus named by `key` (or `name`, one entry of its list) and the
    split to score: <section>.split, else test, dev or train."""
    name = recipe.require(key) if name is None else name
    corpus = _corpus(corpora, key, name)
    return name, corpus, eval_split_for(corpus, recipe.get(key.split(".")[0] + ".split"))


# ---------------------------------------------------------------- training


def build_frontend(recipe: Recipe) -> FrontendConfig:
    return FrontendConfig(
        kind=recipe.get("frontend.kind", "dsp"),
        n_mels=recipe.get_int("frontend.n_mels", 40),
        window_ms=recipe.get_float("frontend.window_ms", 25.0),
        hop_ms=recipe.get_float("frontend.hop_ms", 10.0),
        expected_dim=recipe.get_int("frontend.expected_dim", None),
    )


def build_train_config(recipe: Recipe, seed: int, domain_tag: str, max_steps: int | None = None) -> TrainConfig:
    selection = recipe.get("train.selection", "auto")
    if selection == "auto":
        selection = select_criterion(domain_tag)
    return TrainConfig(
        batch_size=recipe.get_int("train.batch_size", 16),
        lr=recipe.get_float("train.lr", 0.001),
        momentum=recipe.get_float("train.momentum", 0.9),
        max_steps=recipe.get_int("train.max_steps", 100_000) if max_steps is None else max_steps,
        patience_steps=recipe.get_int("train.patience_steps", 2000),
        top_k=recipe.get_int("train.top_k", 5),
        loss_tau=recipe.get_float("train.loss_tau", 0.25),
        selection=selection,
        seed=seed,
        eval_interval=recipe.get_int("train.eval_interval", 250),
    )


def save_model_dir(directory: Path, result: TrainResult, frontend_config: FrontendConfig, extra: dict | None = None) -> None:
    """Persist one trained model: params, scaler, eval log, then metadata.

    meta.json marks a finished model dir (benchmark skips training when its
    recipe_hash matches), so it is removed first and written last.
    """
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "meta.json").unlink(missing_ok=True)
    save_params(result.params, directory / "params.ckpt")
    save_scaler(directory / "scaler.bin", result.scaler)
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
    }
    if extra:
        meta.update(extra)
    write_text(directory / "meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_model_dir(directory: Path) -> tuple[ModelParams, FeatureScaler, dict]:
    meta_path = directory / "meta.json"
    if not meta_path.exists():
        raise ValidationError(f"no trained model in {directory} (run the train command first)")
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    return load_params(directory / "params.ckpt"), load_scaler(directory / "scaler.bin"), meta


def recipe_hash(recipe: Recipe, mdf_pretrain: str | None) -> str:
    """sha256 of the raw recipe lines that decide a trained model (the
    corpus, frontend, model and train keys) and the effective MDF pretrain
    corpus. Raw strings, not resolved paths: the same recipe hashes the
    same in any out dir."""
    lines = sorted(f"{key} = {value}" for key, value in recipe.config.items() if key.startswith(MODEL_SECTIONS))
    lines.append(f"mdf_pretrain = {mdf_pretrain or ''}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _trained_under(seed_dir: Path, digest: str) -> bool:
    """Whether seed_dir holds a finished model trained under recipe hash digest."""
    try:
        meta = json.loads((seed_dir / "meta.json").read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError):
        return False
    return isinstance(meta, dict) and meta.get("recipe_hash") == digest


def train_one_seed(
    recipe: Recipe,
    corpora: dict[str, CorpusManifest],
    seed: int,
    out_dir: Path,
    mdf_pretrain: str | None,
) -> TrainResult:
    """Train (plain or MDF) for one seed and persist the artifacts."""
    frontend_config = build_frontend(recipe)
    train_corpus = resolve_train_corpus(recipe, corpora)
    model_kind = recipe.get("model.kind", "head")
    sizes = {
        "hidden": recipe.get_int("model.hidden", 64),
        "embed_dim": recipe.get_int("model.embed_dim", 16),
        "decoder_hidden": recipe.get_int("model.decoder_hidden", 32),
    }
    config = build_train_config(recipe, seed, train_corpus.domain_tag)
    seed_dir = out_dir / "train" / f"seed{seed}"
    for stale in ("ledger", "mdf_phase1"):  # nothing of an earlier run survives a retrain
        shutil.rmtree(seed_dir / stale, ignore_errors=True)
    extra = {"recipe_hash": recipe_hash(recipe, mdf_pretrain)}

    if mdf_pretrain:
        if not isinstance(train_corpus, PooledCorpus):
            raise ValidationError("MDF needs a pooled train.corpus (a+b+...)")
        phase2_steps = recipe.get_int("train.mdf_max_steps", config.max_steps)
        phase2_config = build_train_config(recipe, seed, train_corpus.domain_tag, max_steps=phase2_steps)
        mdf: MdfResult = train_mdf(
            model_kind,
            mdf_pretrain,
            train_corpus,
            frontend_config,
            config,
            phase2_config,
            **sizes,
            out_dir=seed_dir / "ledger",
        )
        save_model_dir(
            seed_dir / "mdf_phase1",
            mdf.phase1,
            frontend_config,
            extra={**extra, "mdf_pretrain": mdf_pretrain, "phase": 1},
        )
        result = mdf.phase2
        save_model_dir(seed_dir, result, frontend_config, extra={**extra, "mdf_pretrain": mdf_pretrain, "phase": 2})
    else:
        result = train(
            model_kind,
            train_corpus,
            frontend_config,
            config,
            **sizes,
            out_dir=seed_dir / "ledger",
        )
        save_model_dir(seed_dir, result, frontend_config, extra=extra)
    logger.info("seed %d: trained %s for %d steps", seed, model_kind, result.steps_run)
    return result


# ---------------------------------------------------------------- writers


def write_text(path: Path, text: str) -> None:
    """Write a UTF-8 text file whole or not at all (temp file plus rename)."""
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_csv(path: Path, header: list[str], rows: Iterable[list[str]]) -> None:
    """Write a CSV file whole or not at all (temp file plus rename)."""
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
    """Materialize every configured corpus under <out>/corpora/."""
    corpora = get_corpora(recipe, out)
    for name, corpus in corpora.items():
        save_corpus_dir(corpus, out / "corpora" / name)
        sizes = {split: corpus.size(split) for split in corpus.splits}
        print(f"prepared corpus {name}: {sizes}")
    return 0


def _seed_list(recipe: Recipe, args: argparse.Namespace) -> list[int]:
    text = args.seed or recipe.get("seeds", "0")
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ValidationError(f"bad seed list {text!r}")
    if not seeds:
        raise ValidationError("seed list is empty")
    return seeds


def cmd_train(recipe: Recipe, args: argparse.Namespace, out: Path) -> int:
    corpora = get_corpora(recipe, out)
    mdf_pretrain = args.mdf_pretrain or recipe.get("train.mdf_pretrain")
    for seed in _seed_list(recipe, args):
        result = train_one_seed(recipe, corpora, seed, out, mdf_pretrain)
        best = result.ledger.best
        value = "n/a" if best is None else f"{best.value:.4f}@{best.step}"
        print(f"trained seed {seed}: {result.model_kind}, {result.steps_run} steps, best {result.criterion} {value}")
    return 0


def _predict_seeds(
    recipe: Recipe,
    args: argparse.Namespace,
    out: Path,
    corpora: dict[str, CorpusManifest],
    targets: list[tuple[str, CorpusManifest, str]],
) -> Iterator[tuple[int, str, Datastore | None, list[EvalPairs]]]:
    """Per seed: load the trained model, build the datastore its inference
    mode needs and predict every (name, corpus, split) target.

    Yields (seed, mode, datastore, one EvalPairs per target).
    """
    mode = args.inference or recipe.get("infer.mode", "parametric")
    if mode not in INFERENCE_MODES:
        raise ValidationError(f"unknown inference mode {mode!r}")
    frontend_config = build_frontend(recipe)
    distance_kind = recipe.get("infer.distance", "euclidean")
    knn_config = None
    if mode == "knn":
        knn_config = KnnConfig(
            k=args.knn_k if args.knn_k is not None else recipe.get_int("infer.knn_k", 5),
            temperature=(
                args.knn_temperature
                if args.knn_temperature is not None
                else recipe.get_float("infer.knn_temperature", 1.0)
            ),
            distance_kind=distance_kind,
            paper_literal=args.paper_literal_knn or recipe.get_bool("infer.knn_paper_literal", False),
        )
    train_corpus = None if mode == "parametric" else resolve_train_corpus(recipe, corpora)
    for seed in _seed_list(recipe, args):
        params, scaler, _meta = load_model_dir(out / "train" / f"seed{seed}")
        datastore = None
        if train_corpus is not None:
            datastore = build_datastore(frontend_config, train_corpus, scaler=scaler, distance_kind=distance_kind)
        pairs = [
            predict_split(corpus, split, frontend_config, scaler, params, mode, knn_config, datastore)
            for _name, corpus, split in targets
        ]
        yield seed, mode, datastore, pairs


def _write_pairs(path: Path, pairs: EvalPairs) -> None:
    rows = zip(pairs.sample_ids, pairs.system_ids, pairs.true, pairs.pred)
    write_csv(
        path,
        ["sample_id", "system_id", "true", "pred"],
        ([sid, system or "", repr(float(t)), repr(float(p))] for sid, system, t, p in rows),
    )


def cmd_infer(recipe: Recipe, args: argparse.Namespace, out: Path) -> int:
    """Predict one corpus split with a trained model, one file per seed."""
    corpora = get_corpora(recipe, out)
    target = _target(recipe, corpora, "infer.corpus")
    for seed, mode, datastore, (pairs,) in _predict_seeds(recipe, args, out, corpora, [target]):
        seed_dir = out / "infer" / f"seed{seed}"
        seed_dir.mkdir(parents=True, exist_ok=True)
        _write_pairs(seed_dir / "predictions.csv", pairs)
        if datastore is not None:
            save_datastore(seed_dir / "datastore.bin", datastore)
        print(f"infer seed {seed}: {mode} on {target[0]}/{target[2]}, {len(pairs)} predictions")
    return 0


def cmd_benchmark(recipe: Recipe, args: argparse.Namespace, out: Path) -> int:
    """Train (unless this out dir holds a model trained under the same
    recipe) and evaluate every configured test set per seed, then write
    record files."""
    corpora = get_corpora(recipe, out)
    names = [t.strip() for t in recipe.require("benchmark.tests").split(",") if t.strip()]
    targets = [_target(recipe, corpora, "benchmark.tests", name) for name in names]
    mdf_pretrain = args.mdf_pretrain or recipe.get("train.mdf_pretrain")
    digest = recipe_hash(recipe, mdf_pretrain)
    for seed in _seed_list(recipe, args):
        if not _trained_under(out / "train" / f"seed{seed}", digest):
            train_one_seed(recipe, corpora, seed, out, mdf_pretrain)

    model_kind = recipe.get("model.kind", "head") + ("-mdf" if mdf_pretrain else "")
    rows: list[tuple] = []
    tests: dict[str, list[str]] = {}
    for seed, mode, _datastore, all_pairs in _predict_seeds(recipe, args, out, corpora, targets):
        model_label = recipe.get("model.label", f"{model_kind}-{mode}")
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
    with open(records_path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["value"] == "undefined":
                raise ValidationError(
                    f"{records_path}: metric {row['metric']} for ({row['model']}, {row['test']}) is undefined; "
                    "aggregate needs defined metrics"
                )
            by_cell.setdefault((row["model"], row["test"]), {})[row["metric"]] = float(row["value"])
    domains: dict[str, str] = {}
    with open(tests_path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            domains[row["test"]] = row["domain_tag"]
    return by_cell, domains


def _reports_from_cells(by_cell: dict[tuple[str, str], dict[str, float]]) -> dict[tuple[str, str], MetricReport]:
    reports = {}
    for cell, values in by_cell.items():
        for needed in ("utt_mse", "utt_lcc", "utt_srcc"):
            if needed not in values:
                raise ValidationError(f"records for {cell} lack {needed}")
        reports[cell] = MetricReport(**{f.name: values.get(f.name) for f in dataclasses.fields(MetricReport)})
    return reports


def cmd_aggregate(recipe: Recipe, args: argparse.Namespace, out: Path) -> int:
    """Merge benchmark outputs into a best-score difference/ratio matrix.

    aggregate.inputs lists benchmark output dirs; the within-family best
    is taken over all merged models, or aggregate.reference names another
    benchmark dir whose models define the best values externally.
    """
    input_dirs = [p.strip() for p in recipe.require("aggregate.inputs").split(",") if p.strip()]
    merged: dict[tuple[str, str], dict[str, float]] = {}
    domains: dict[str, str] = {}
    for text in input_dirs:
        by_cell, run_domains = _read_records_mean(recipe.base_dir / text)
        for cell in by_cell:
            if cell in merged:
                raise ValidationError(f"duplicate (model, test) {cell} across aggregate inputs")
        merged.update(by_cell)
        domains.update(run_domains)
    reports = _reports_from_cells(merged)

    policy = recipe.get("aggregate.best", "within-family")
    if policy == "within-family":
        best: str | dict = "within-family"
    elif policy == "external":
        ref_dir = recipe.path("aggregate.reference")
        ref_cells, ref_domains = _read_records_mean(ref_dir)
        ref_reports = _reports_from_cells(ref_cells)
        best = {}
        for test in {t for _, t in ref_reports}:
            mse_key, corr_key = DEFAULT_METRIC_KEYS[ref_domains[test]]
            family = [r for (m, t), r in ref_reports.items() if t == test]
            best[test] = (min(r.get(mse_key) for r in family), max(r.get(corr_key) for r in family))
    else:
        raise ValidationError(f"aggregate.best must be within-family or external, got {policy!r}")

    matrix = aggregate(reports, domains, best=best)
    out.mkdir(parents=True, exist_ok=True)
    cells = ((model, test, matrix.cells[model, test]) for model in matrix.model_ids for test in matrix.test_ids)
    write_csv(
        out / "aggregate.csv",
        ["model", "test", "mse", "corr", "difference", "ratio"],
        ([m, t, repr(c.mse), repr(c.corr), repr(c.difference), repr(c.ratio)] for m, t, c in cells),
    )
    write_csv(
        out / "aggregate_summary.csv",
        ["model", "domain", "mean_difference", "mean_ratio"],
        (
            [model, domain, repr(diff), repr(ratio)]
            for model in matrix.model_ids
            for domain, (diff, ratio) in sorted(matrix.averages[model].items())
        ),
    )
    print(f"aggregated {len(matrix.model_ids)} models x {len(matrix.test_ids)} tests -> {out / 'aggregate.csv'}")
    return 0


def cmd_export_embeddings(recipe: Recipe, args: argparse.Namespace, out: Path) -> int:
    """Dump pooled embeddings plus a 2-D PCA projection for chosen sets.

    export.sets is a comma list of corpus:split entries; the trained
    scaler of the first seed is used when present so the dump lives in
    the model's feature space (raw features otherwise).
    """
    corpora = get_corpora(recipe, out)
    frontend_config = build_frontend(recipe)
    seeds = _seed_list(recipe, args)
    entries = [e.strip() for e in recipe.require("export.sets").split(",") if e.strip()]
    sets = []
    for entry in entries:
        if ":" not in entry:
            raise ValidationError(f"export.sets entry {entry!r} must be corpus:split")
        name, split = entry.split(":", 1)
        role = "train" if split == "train" else "test"
        sets.append((f"{name}:{split}", _corpus(corpora, "export.sets", name), split, role))

    scaler = None
    scaler_note = "raw frontend features (no trained scaler found)"
    model_dir = out / "train" / f"seed{seeds[0]}"
    if (model_dir / "meta.json").exists():
        _params, scaler, _meta = load_model_dir(model_dir)
        scaler_note = f"scaler from {model_dir}"

    dump = export_embeddings(
        sets,
        frontend_config,
        scaler,
        n_per_set=recipe.get_int("export.n_per_set", 100),
        seed=seeds[0],
    )
    proj, _components, _mean = pca_2d(dump.embeddings)
    export_dir = out / "export"
    export_dir.mkdir(parents=True, exist_ok=True)
    labels = list(zip(dump.set_labels, dump.sample_ids, dump.roles))
    write_csv(
        export_dir / "embeddings.csv",
        ["set_label", "sample_id", "role"] + [f"e{i}" for i in range(dump.embeddings.shape[1])],
        ([*label, *(repr(float(v)) for v in row)] for label, row in zip(labels, dump.embeddings)),
    )
    write_csv(
        export_dir / "pca.csv",
        ["set_label", "sample_id", "role", "x", "y"],
        ([*label, repr(float(x)), repr(float(y))] for label, (x, y) in zip(labels, proj)),
    )
    notes = [f"features: {scaler_note}"]
    if dump.truncated_sets:
        notes.append("sets smaller than n_per_set (taken whole): " + ", ".join(dump.truncated_sets))
    write_text(export_dir / "summary.txt", "\n".join(notes) + "\n")
    print(f"exported {len(dump.sample_ids)} embeddings -> {export_dir}")
    return 0


def cmd_distribution_data(recipe: Recipe, args: argparse.Namespace, out: Path) -> int:
    """Emit true-vs-predicted scatter data for one test set, per seed."""
    corpora = get_corpora(recipe, out)
    target = _target(recipe, corpora, "distribution.corpus")
    for seed, _mode, _datastore, (pairs,) in _predict_seeds(recipe, args, out, corpora, [target]):
        data = distribution_data(pairs)
        seed_dir = out / "distribution" / f"seed{seed}"
        seed_dir.mkdir(parents=True, exist_ok=True)
        _write_pairs(seed_dir / "utterances.csv", data.utterances)
        if data.systems is not None:
            systems = zip(data.systems.system_ids, data.systems.true, data.systems.pred)
            write_csv(
                seed_dir / "systems.csv",
                ["system_id", "true_mean", "pred_mean"],
                ([sid, repr(float(t)), repr(float(p))] for sid, t, p in systems),
            )
        print(f"distribution seed {seed}: {len(pairs)} utterances on {target[0]}/{target[2]}")
    return 0


# ---------------------------------------------------------------- main


COMMANDS = {
    "prepare": cmd_prepare,
    "train": cmd_train,
    "infer": cmd_infer,
    "benchmark": cmd_benchmark,
    "aggregate": cmd_aggregate,
    "export-embeddings": cmd_export_embeddings,
    "distribution-data": cmd_distribution_data,
}


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
        p.add_argument("--inference", choices=INFERENCE_MODES, help="inference mode override")
        p.add_argument("--knn-k", type=int, help="kNN neighbor count override")
        p.add_argument("--knn-temperature", type=float, help="kNN softmax temperature override")
        p.add_argument("--paper-literal-knn", action="store_true", help="weight neighbors by exp(+d/T) as published")
        p.add_argument("--mdf-pretrain", help="corpus name for two-phase pre-train + pooled fine-tune")
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
            holder = ""
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

    lock = None
    try:
        config_path = Path(args.config)
        recipe = Recipe(parse_recipe(config_path), config_path.resolve().parent)
        out_text = args.out or recipe.get("out")
        if out_text is None:
            raise ValidationError("no output dir: pass --out or set 'out' in the config")
        out = Path(out_text)
        lock = _acquire_lock(out)
        return COMMANDS[args.command](recipe, args, out)
    except (ValidationError, ManifestError, FileNotFoundError, ValueError) as exc:
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
    sys.exit(main())
