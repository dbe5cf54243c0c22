"""Rated-speech corpora: manifest I/O, splits, pooling, synthetic fixtures.

A corpus is a named set of rated utterances partitioned into train/dev/test
splits. Manifests are plain CSV files (see :func:`load_manifest` for the
row format); corpora are immutable once loaded, and every operation that
involves randomness takes an explicit seed.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import logging
import math
import os
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .codec import atomic_open, open_text, write_csv
from .errors import ManifestError, ValidationError
from .seeding import named_rng

logger = logging.getLogger(__name__)

MANIFEST_HEADER = [
    "sample_id",
    "audio_path",
    "embedding_path",
    "dataset",
    "system_id",
    "mos",
    "listener_id",
    "listener_score",
]

SPLIT_NAMES = ("train", "dev", "test")

SIDECAR_COLUMNS = ("sample_id", "snr_db", "delta", "epsilon")

DOMAIN_TAGS = ("synthetic", "non-synthetic")


@dataclass(frozen=True)
class Sample:
    """One rated utterance.

    Exactly one of ``audio_ref``/``embedding_ref`` is set; ``mos`` is the
    authoritative score, and must equal the mean of ``listener_scores``
    when those are present.
    """

    sample_id: str
    audio_ref: Path | None
    embedding_ref: Path | None
    dataset_id: str
    system_id: str | None
    mos: float
    listener_scores: tuple[tuple[str, int], ...] = ()

    def validate(self) -> None:
        if (self.audio_ref is None) == (self.embedding_ref is None):
            raise ValidationError(
                f"sample {self.sample_id!r}: exactly one of audio_path/embedding_path must be set"
            )
        if not 1.0 <= self.mos <= 5.0:
            raise ValidationError(f"sample {self.sample_id!r}: mos {self.mos} outside [1, 5]")
        for listener_id, score in self.listener_scores:
            if not 1 <= score <= 5:
                raise ValidationError(
                    f"sample {self.sample_id!r}: listener {listener_id!r} score {score} outside [1, 5]"
                )
        if self.listener_scores:
            mean = sum(s for _, s in self.listener_scores) / len(self.listener_scores)
            if abs(mean - self.mos) > 1e-6:
                raise ValidationError(
                    f"sample {self.sample_id!r}: mos {self.mos} != listener mean {mean}"
                )


@dataclass(frozen=True)
class CorpusManifest:
    """A named dataset with train/dev/test splits."""

    name: str
    domain_tag: str
    splits: Mapping[str, tuple[Sample, ...]] = field(default_factory=dict)
    feature_store: tuple[Path, str] | None = None  # the directory and fingerprint of its dsp feature store

    def validate(self) -> None:
        if self.domain_tag not in DOMAIN_TAGS:
            raise ValidationError(f"unknown domain tag {self.domain_tag!r}")
        seen: set[str] = set()
        for split, samples in self.splits.items():
            if split not in SPLIT_NAMES:
                raise ValidationError(f"unknown split name {split!r}")
            for sample in samples:
                sample.validate()
                if sample.sample_id in seen:
                    raise ValidationError(f"duplicate sample_id {sample.sample_id!r}")
                seen.add(sample.sample_id)

    @property
    def dataset_ids(self) -> tuple[str, ...]:
        """The alignnet table rows train gives the corpus: its name, as a pool's are its members' names."""
        return (self.name,)

    def samples(self, split: str) -> tuple[Sample, ...]:
        return self.splits.get(split, ())

    def size(self, split: str) -> int:
        return len(self.samples(split))


@dataclass(frozen=True)
class PooledCorpus:
    """Several corpora merged; samples keep their originating dataset_id."""

    members: tuple[CorpusManifest, ...]

    @property
    def name(self) -> str:
        return "+".join(m.name for m in self.members)

    @property
    def domain_tag(self) -> str:
        return "pooled"

    @property
    def dataset_ids(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.members)

    def samples(self, split: str) -> tuple[Sample, ...]:
        out: list[Sample] = []
        for member in self.members:
            out.extend(member.samples(split))
        return tuple(out)

    def size(self, split: str) -> int:
        return len(self.samples(split))


def load_manifest(
    path: str | Path,
    name: str | None = None,
    domain_tag: str = "non-synthetic",
    split: str = "train",
) -> CorpusManifest:
    """Load one manifest CSV into a corpus with a single split.

    Format: UTF-8 CSV with header
    ``sample_id,audio_path,embedding_path,dataset,system_id,mos,listener_id,listener_score``.
    When a sample has per-listener scores there is one row per
    (sample, listener) and the non-listener columns must agree across its
    rows; otherwise one row per sample with the listener columns empty.
    Relative audio/embedding paths are resolved against the CSV location;
    existence is not checked here (missing files fail at feature time).
    """
    path = Path(path)
    base_dir = str(path.parent)
    error = functools.partial(ManifestError, path=path)
    rows: dict[str, tuple[tuple, list]] = {}  # sample_id -> (fields, listener scores), in first-row order
    with open_text(path, ManifestError) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise error("empty manifest", line=1)
        if header != MANIFEST_HEADER:
            raise error(f"bad header {header!r}", line=1)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(MANIFEST_HEADER):
                if not row:
                    continue
                raise error(f"expected {len(MANIFEST_HEADER)} fields, got {len(row)}", line=lineno)
            sid, audio, emb, dataset, system, mos_text, lid, lscore = map(str.strip, row)
            if not sid:
                raise error("empty sample_id", line=lineno)
            try:
                mos = float(mos_text)
            except ValueError:
                raise error(f"unparseable mos {mos_text!r}", line=lineno)
            fields = (audio, emb, dataset, system, mos)
            entry = rows.get(sid)
            if entry is None:
                entry = rows[sid] = (fields, [])
            else:
                if entry[0] != fields:
                    raise error(f"conflicting rows for sample {sid!r}", line=lineno)
                if not entry[1] or lid == "":
                    # Repeats are only legal as one-row-per-listener fan-out (a bare row adds no score).
                    raise error(f"duplicate rows for sample {sid!r}", line=lineno)
            if (lid == "") != (lscore == ""):
                raise error("listener_id and listener_score must both be set or both empty", line=lineno)
            if lid:
                try:
                    entry[1].append((lid, int(lscore)))
                except ValueError:
                    raise error(f"unparseable listener_score {lscore!r}", line=lineno)

    # A ref is Path(os.path.join(base_dir, text)), built as one child join
    # onto its directory's Path, parsed once per text up to its last "/".
    parents: dict[str, Path] = {}

    def ref(text: str) -> Path | None:
        if not text:
            return None
        head, slash, name = text.rpartition("/")
        parent = parents.get(head + slash)
        if parent is None:
            parent = parents[head + slash] = Path(os.path.join(base_dir, head + slash))
        return parent / name

    samples = tuple(
        Sample(sid, ref(audio), ref(emb), dataset, system or None, mos, tuple(listeners))
        for sid, ((audio, emb, dataset, system, mos), listeners) in rows.items()
    )
    if name is None:
        name = samples[0].dataset_id if samples else path.stem
    corpus = CorpusManifest(name=name, domain_tag=domain_tag, splits={split: samples})
    try:
        datasets = {s.dataset_id for s in samples}
        if len(datasets) > 1:
            raise ValidationError(f"manifest mixes datasets {sorted(datasets)}")
        corpus.validate()
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    logger.info("loaded %d samples from %s", len(samples), path)
    return corpus


def save_manifest(samples: tuple[Sample, ...] | list[Sample], path: str | Path) -> None:
    """Write samples as a manifest CSV, whole or not at all.

    A path whose real path (``Path.resolve()``) lies under the real path of
    the CSV's directory is written relative to it, POSIX-style (the
    directory itself as ``.``); any other path is written as given. Each
    distinct parent directory is resolved once, so a row costs one
    ``lstat`` of its file name, not one per path component; only a file
    name that is a symlink (or empty, ``.`` or ``..``) takes a full
    ``resolve()``.
    """
    path = Path(path)
    base = str(path.parent.resolve())
    prefix = base if base.endswith("/") else base + "/"
    real_heads: dict[str, str] = {}

    def fmt(p: Path | None) -> str:
        if p is None:
            return ""
        text = os.fspath(p)
        head, name = os.path.split(text)
        real_head = real_heads.get(head)
        if real_head is None:
            real_head = real_heads[head] = str(Path(head).resolve())
        real = os.path.join(real_head, name)
        if name in ("", ".", "..") or os.path.islink(real):
            real = str(Path(text).resolve())
        if real == base:
            return "."
        return real[len(prefix) :] if real.startswith(prefix) else text

    rows = (
        [s.sample_id, fmt(s.audio_ref), fmt(s.embedding_ref), s.dataset_id, s.system_id or "", repr(s.mos), lid, str(score)]
        for s in samples
        for lid, score in s.listener_scores or (("", ""),)  # one row per listener, or one bare row
    )
    write_csv(path, MANIFEST_HEADER, rows)


class _SplitFiles(Mapping):
    """Split name -> samples of a corpus dir, parsed with every load_manifest
    check when first read. Given digests (a prepared dir), the ids must hash to
    the split's; else the first read checks no id is also in another split."""

    def __init__(self, directory: Path, paths: dict[str, Path], digests: dict | None = None):
        self.directory, self.paths, self.digests, self.read = directory, paths, digests, {}

    def __getitem__(self, split: str) -> tuple[Sample, ...]:
        if split not in self.read:
            samples = load_manifest(self.paths[split], split=split).samples(split)
            if self.digests is not None:
                if _ids_digest(samples) != self.digests[split]:
                    raise ManifestError(f"{self.paths[split]}: sample ids do not match corpus.json's digest")
            elif not self.read:
                seen: dict[str, str] = {}
                for other, path in self.paths.items():
                    for sid in [s.sample_id for s in samples] if other == split else _sample_ids(path):
                        if seen.setdefault(sid, other) != other:
                            raise ValidationError(
                                f"{self.directory}: duplicate sample_id {sid!r} (splits {seen[sid]} and {other})")
            self.read[split] = samples
        return self.read[split]

    def __iter__(self):
        return iter(self.paths)

    def __len__(self) -> int:
        return len(self.paths)


def _sample_ids(path: Path) -> dict[str, None]:
    """The sample_id column of a manifest CSV, each value once, in order."""
    with open_text(path, ManifestError) as fh:
        return dict.fromkeys(row[0].strip() for row in list(csv.reader(fh))[1:] if row)


def _ids_digest(samples: tuple[Sample, ...]) -> str:
    """sha256 of the samples' ids, in order, as a JSON list."""
    return hashlib.sha256(json.dumps([s.sample_id for s in samples]).encode("utf-8")).hexdigest()


def load_corpus_dir(directory: str | Path, fingerprint: str | None = None, source: str | None = None) -> CorpusManifest:
    """Load a corpus directory: ``corpus.json`` now, and a split's CSV when
    the split is first read (a split corpus.json does not list is empty).
    With ``fingerprint`` or ``source`` set, a corpus.json that records
    another one, or none, raises ManifestError: the dir was made from
    another recipe or source CSV (or by an older sqkit) and is not trusted,
    as is one with a fingerprint but no sample id digest for each split.
    """
    directory = Path(directory)
    meta_path = directory / "corpus.json"
    try:
        meta = json.load(open_text(meta_path, ManifestError))
    except FileNotFoundError:
        raise ManifestError(f"no corpus.json in {directory}") from None
    except (OSError, ValueError) as exc:
        raise ManifestError(f"{meta_path}: unreadable ({exc})") from None
    if not isinstance(meta, dict):
        raise ManifestError(f"{meta_path}: not a JSON object")
    for key, want in (("fingerprint", fingerprint), ("source", source)):
        if want is not None and meta.get(key) != want:
            raise ManifestError(f"{meta_path}: {key} {meta.get(key) or '(none)'} does not match the recipe's {want}")
    try:
        info = dict(name=meta["name"], domain_tag=meta["domain_tag"])
        paths = {split: directory / csv_name for split, csv_name in dict(meta["splits"]).items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"{meta_path}: bad corpus metadata ({exc!r})") from None
    digests = meta.get("sample_ids_sha256")
    if fingerprint is not None and not (isinstance(digests, dict) and digests.keys() == paths.keys()):
        raise ManifestError(f"{meta_path}: no sample id digest for each split (written by an older sqkit)")
    try:
        CorpusManifest(splits=dict.fromkeys(paths, ()), **info).validate()  # the domain tag and split names
    except ValidationError as exc:
        raise ManifestError(f"{meta_path}: {exc}") from None
    return CorpusManifest(splits=_SplitFiles(directory, paths, None if fingerprint is None else digests), **info)


def save_corpus_dir(corpus: CorpusManifest, directory: str | Path, fingerprint: str | None = None,
                    source: str | None = None) -> None:
    """Validate a corpus, write one CSV per split, then corpus.json with each
    split's sample id digest (and ``fingerprint`` and ``source`` when given);
    each file is written whole or not at all."""
    corpus.validate()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "name": corpus.name,
        "domain_tag": corpus.domain_tag,
        "splits": {split: f"{split}.csv" for split in corpus.splits},
        "sample_ids_sha256": {split: _ids_digest(samples) for split, samples in corpus.splits.items()},
    }
    meta.update((key, value) for key, value in (("fingerprint", fingerprint), ("source", source)) if value is not None)
    for split, samples in corpus.splits.items():
        save_manifest(samples, directory / f"{split}.csv")
    with atomic_open(directory / "corpus.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, indent=2) + "\n")


def split_random(corpus: CorpusManifest, ratio: float, seed: int) -> CorpusManifest:
    """Partition a train-only corpus into train/dev at the given ratio.

    Train gets ``floor(n * ratio)`` samples (the remainder goes to dev);
    the partition is a pure function of (corpus, seed) and both sides keep
    the original manifest order.
    """
    if set(corpus.splits) != {"train"}:
        raise ValidationError("split_random requires a corpus with only a train split")
    if not 0.0 < ratio < 1.0:
        raise ValidationError(f"ratio must be in (0, 1), got {ratio}")
    samples = corpus.samples("train")
    n = len(samples)
    n_train = math.floor(n * ratio)
    perm = named_rng(seed, f"split/{corpus.name}").permutation(n)
    train_idx = sorted(perm[:n_train].tolist())
    dev_idx = sorted(perm[n_train:].tolist())
    return replace(
        corpus,
        splits={
            "train": tuple(samples[i] for i in train_idx),
            "dev": tuple(samples[i] for i in dev_idx),
        },
    )


def subsample(corpus: CorpusManifest, n: int, seed: int) -> CorpusManifest:
    """Keep a uniform random subset of n train samples (other splits intact)."""
    samples = corpus.samples("train")
    if not 0 <= n <= len(samples):
        raise ValidationError(f"cannot subsample {n} from {len(samples)} train samples")
    perm = named_rng(seed, f"subsample/{corpus.name}").permutation(len(samples))
    keep = sorted(perm[:n].tolist())
    splits = dict(corpus.splits)
    splits["train"] = tuple(samples[i] for i in keep)
    return replace(corpus, splits=splits)


def pool(corpora: list[CorpusManifest] | tuple[CorpusManifest, ...]) -> PooledCorpus:
    """Merge corpora into one training pool; corpus names must be unique."""
    if not corpora:
        raise ValidationError("pool requires at least one corpus")
    names = [c.name for c in corpora]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate corpus names in pool: {names}")
    return PooledCorpus(members=tuple(corpora))


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic (tone + white noise) fixture corpus.

    Utterances are sine tones mixed with white noise at SNR levels drawn
    round-robin from ``snr_grid_db``; each SNR level acts as one "system".
    The score is ``clamp(mos_intercept + mos_slope * snr + delta + eps, 1, 5)``
    with ``eps ~ N(0, sigma^2)``; ``delta`` is a per-dataset additive shift
    emulating scale offsets between listening tests.
    """

    name: str
    out_dir: Path
    n_utterances: int = 120
    snr_grid_db: tuple[float, ...] = (-2.0, 0.0, 2.0, 5.0)
    mos_intercept: float = 3.0
    mos_slope: float = 0.4
    delta: float = 0.0
    sigma: float = 0.0
    tone_hz: tuple[float, float] = (200.0, 600.0)
    tone_amplitude: float = 0.25
    duration_s: tuple[float, float] = (1.0, 3.0)
    rate_hz: int = 16000

    def mos_of_snr(self, snr_db: float) -> float:
        return self.mos_intercept + self.mos_slope * snr_db


def generate_synthetic_corpus(spec: SynthSpec, seed: int) -> CorpusManifest:
    """Generate the WAVs of a synthetic corpus; returns it as one train split.

    Writes under ``spec.out_dir`` only ``wav/*.wav`` and ``sidecar.csv``,
    the ground-truth ``snr_db,delta,epsilon`` per sample for oracle tests;
    ``save_corpus_dir`` writes the manifests of the (split) corpus. Audio
    content depends only on (spec-sans-delta, seed): shifting ``delta``
    changes scores, never waveforms. Files are written in place; the CLI
    generates into a ``codec.atomic_dir`` so a killed run leaves no torn
    corpus dir. The waveform, noise, time and PCM arrays are allocated once,
    at the longest clip's length, and reused for every utterance.
    """
    from . import frontend
    from .model import Workspace

    if spec.mos_slope <= 0:
        raise ValidationError("mos_slope must be positive (monotone SNR->MOS map)")
    if spec.n_utterances < 1:
        raise ValidationError("n_utterances must be >= 1")
    if not spec.snr_grid_db:
        raise ValidationError(f"synthetic corpus {spec.name!r}: snr_grid_db is empty")
    if not 0 <= spec.duration_s[0] <= spec.duration_s[1]:
        raise ValidationError(f"synthetic corpus {spec.name!r}: duration_s {spec.duration_s} is not 0 <= low <= high")
    if not spec.tone_hz[0] <= spec.tone_hz[1]:
        raise ValidationError(f"synthetic corpus {spec.name!r}: tone_hz {spec.tone_hz} is not low <= high")
    if spec.rate_hz < frontend.MIN_RATE_HZ:
        raise ValidationError(f"synthetic corpus {spec.name!r}: rate_hz {spec.rate_hz} is below {frontend.MIN_RATE_HZ}")
    out_dir = Path(spec.out_dir)
    wav_dir = out_dir / "wav"
    wav_dir.mkdir(parents=True, exist_ok=True)

    rng = named_rng(seed, f"synth/{spec.name}")
    work = Workspace(rows=int(round(spec.duration_s[1] * spec.rate_hz)))
    ramp = np.arange(work.rows, dtype=np.float64)  # ramp[:n] / rate is np.arange(n) / rate
    samples: list[Sample] = []
    sidecar_rows: list[list[str]] = []
    for i in range(spec.n_utterances):
        snr_db = float(spec.snr_grid_db[i % len(spec.snr_grid_db)])
        duration = rng.uniform(*spec.duration_s)
        tone_hz = rng.uniform(*spec.tone_hz)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        n_samples = int(round(duration * spec.rate_hz))
        # amplitude * sin(2 pi f t + phase) + N(0, noise_std), in place: the
        # products commute, and standard_normal draws what normal(0.0, s)
        # draws, whose 0.0 + s z is s z up to a zero's sign.
        wave = np.divide(ramp[:n_samples], spec.rate_hz, out=work.take("wave", n_samples))
        wave *= 2.0 * np.pi * tone_hz
        wave += phase
        np.sin(wave, out=wave)
        wave *= spec.tone_amplitude
        noise_std = (spec.tone_amplitude / np.sqrt(2.0)) * 10.0 ** (-snr_db / 20.0)
        noise = rng.standard_normal(out=work.take("noise", n_samples))
        noise *= noise_std
        wave += noise
        np.clip(wave, -1.0, 1.0, out=wave)

        eps = float(rng.normal(0.0, spec.sigma)) if spec.sigma > 0 else 0.0
        mos = float(np.clip(spec.mos_of_snr(snr_db) + spec.delta + eps, 1.0, 5.0))

        sample_id = f"{spec.name}-{i:05d}"
        wav_path = wav_dir / f"{sample_id}.wav"
        frontend.write_wav(wav_path, wave, spec.rate_hz, work)
        samples.append(
            Sample(
                sample_id=sample_id,
                audio_ref=wav_path,
                embedding_ref=None,
                dataset_id=spec.name,
                system_id=f"snr{snr_db:+g}",
                mos=mos,
            )
        )
        sidecar_rows.append([sample_id, repr(snr_db), repr(spec.delta), repr(eps)])

    corpus = CorpusManifest(name=spec.name, domain_tag="synthetic", splits={"train": tuple(samples)})
    corpus.validate()
    write_csv(out_dir / "sidecar.csv", SIDECAR_COLUMNS, sidecar_rows)
    logger.info("generated synthetic corpus %r: %d utterances in %s", spec.name, len(samples), out_dir)
    return corpus

