"""Manifest parsing, splits, pooling, and the synthetic corpus generator."""

import csv
import dataclasses
import io
import json
import os
import wave as wave_mod
from pathlib import Path

import numpy as np
import pytest

import sqkit.corpus
from sqkit import (
    CorpusManifest,
    ManifestError,
    Sample,
    SynthSpec,
    ValidationError,
    generate_synthetic_corpus,
    load_audio,
    load_corpus_dir,
    load_manifest,
    named_rng,
    pool,
    save_corpus_dir,
    save_manifest,
    spearman,
    split_random,
    subsample,
)
from sqkit.codec import read_csv_rows
from sqkit.corpus import MANIFEST_HEADER, SIDECAR_COLUMNS
from sqkit.metrics import EvalPairs

HEADER = ",".join(MANIFEST_HEADER)


def load_sidecar(directory):
    """Read a synthetic corpus sidecar: sample_id -> (snr_db, delta, epsilon);
    a missing column raises ValidationError."""
    rows = read_csv_rows(Path(directory) / "sidecar.csv", SIDECAR_COLUMNS)
    return {row["sample_id"]: (float(row["snr_db"]), float(row["delta"]), float(row["epsilon"])) for row in rows}


def write_manifest(path: Path, rows: list[str]) -> Path:
    path.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8")
    return path


def make_samples(n: int, dataset: str = "demo") -> list[Sample]:
    return [
        Sample(
            sample_id=f"{dataset}-{i:03d}",
            audio_ref=Path(f"/audio/{i}.wav"),
            embedding_ref=None,
            dataset_id=dataset,
            system_id=f"sys{i % 3}",
            mos=1.0 + (i % 9) * 0.5,
        )
        for i in range(n)
    ]


def corpus_of(samples, name="demo", split="train") -> CorpusManifest:
    return CorpusManifest(
        name=name,
        domain_tag="non-synthetic",
        splits={split: tuple(samples)},
    )


class TestManifestParsing:
    def test_simple_rows(self, tmp_path):
        path = write_manifest(
            tmp_path / "m.csv",
            [
                "u1,wav/u1.wav,,demo,sysA,3.5,,",
                "u2,wav/u2.wav,,demo,sysB,2.0,,",
            ],
        )
        corpus = load_manifest(path)
        assert corpus.name == "demo"
        assert corpus.size("train") == 2
        sample = corpus.samples("train")[0]
        assert sample.mos == 3.5
        assert sample.audio_ref == tmp_path / "wav/u1.wav"
        assert sample.embedding_ref is None

    def test_a_blank_row_is_skipped(self, tmp_path):
        path = write_manifest(tmp_path / "m.csv", ["u1,a.wav,,demo,,3.0,,", "", "u2,b.wav,,demo,,4.0,,"])
        assert [s.sample_id for s in load_manifest(path).samples("train")] == ["u1", "u2"]

    def test_listener_fanout_rows(self, tmp_path):
        path = write_manifest(
            tmp_path / "m.csv",
            [
                "u1,a.wav,,demo,sysA,3.0,L1,2",
                "u1,a.wav,,demo,sysA,3.0,L2,4",
                "u1,a.wav,,demo,sysA,3.0,L3,3",
            ],
        )
        corpus = load_manifest(path)
        (sample,) = corpus.samples("train")
        assert sample.listener_scores == (("L1", 2), ("L2", 4), ("L3", 3))

    def test_interleaved_listener_rows_load_as_adjacent_ones(self, tmp_path):
        rows = {
            "u1 L1": "u1,a.wav,,demo,sysA,2.5,L1,2",
            "u1 L2": "u1,a.wav,,demo,sysA,2.5,L2,3",
            "u2 L1": "u2,b.wav,,demo,sysB,4.0,L1,4",
        }
        interleaved = load_manifest(write_manifest(tmp_path / "i.csv", [rows[k] for k in ("u1 L1", "u2 L1", "u1 L2")]))
        adjacent = load_manifest(write_manifest(tmp_path / "a.csv", [rows[k] for k in ("u1 L1", "u1 L2", "u2 L1")]))
        assert interleaved == adjacent
        first, second = interleaved.samples("train")
        assert (first.sample_id, second.sample_id) == ("u1", "u2")  # in the order of each id's first row
        assert first.listener_scores == (("L1", 2), ("L2", 3)) and second.listener_scores == (("L1", 4),)

    def test_listener_mean_mismatch_rejected(self, tmp_path):
        path = write_manifest(
            tmp_path / "m.csv",
            ["u1,a.wav,,demo,sysA,3.5,L1,2", "u1,a.wav,,demo,sysA,3.5,L2,4"],
        )
        with pytest.raises(ValidationError, match="listener mean"):
            load_manifest(path)

    def test_bad_header_reports_line_one(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("sample,audio\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="line 1"):
            load_manifest(path)

    def test_unparseable_mos_reports_its_line(self, tmp_path):
        path = write_manifest(
            tmp_path / "m.csv",
            ["u1,a.wav,,demo,sysA,3.0,,", "u2,b.wav,,demo,sysA,abc,,"],
        )
        with pytest.raises(ManifestError, match="line 3"):
            load_manifest(path)

    def test_conflicting_duplicate_rows_rejected(self, tmp_path):
        path = write_manifest(
            tmp_path / "m.csv",
            ["u1,a.wav,,demo,sysA,3.0,L1,3", "u1,a.wav,,demo,sysA,4.0,L2,3"],
        )
        with pytest.raises(ManifestError, match="conflicting"):
            load_manifest(path)

    def test_bare_duplicate_rows_rejected(self, tmp_path):
        path = write_manifest(
            tmp_path / "m.csv",
            ["u1,a.wav,,demo,sysA,3.0,,", "u1,a.wav,,demo,sysA,3.0,,"],
        )
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(path)

    @pytest.mark.parametrize("rows, message", [
        (None, "line 1: empty manifest"),
        ([" ,a.wav,,demo,sysA,3.0,,"], "line 2: empty sample_id"),
        (["u1,a.wav,,demo,sysA,3.0,L1,"], "line 2: listener_id and listener_score must both be set or both empty"),
        (["u1,a.wav,,demo,sysA,3.0,,3"], "line 2: listener_id and listener_score must both be set or both empty"),
        (["u1,a.wav,,demo,sysA,3.0,L1,3.5"], "line 2: unparseable listener_score '3.5'"),
    ])
    def test_a_malformed_file_or_row_names_the_file_and_line(self, tmp_path, rows, message):
        path = tmp_path / "m.csv"
        if rows is None:
            path.write_text("", encoding="utf-8")
        else:
            write_manifest(path, rows)
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert str(info.value) == f"{path} {message}"

    def test_a_listener_score_outside_1_to_5_is_validation_error(self, tmp_path):
        # The mean, 3.0, matches the mos: only the range check refuses these scores.
        path = write_manifest(tmp_path / "m.csv", ["u1,a.wav,,demo,sysA,3.0,L1,6", "u1,a.wav,,demo,sysA,3.0,L2,0"])
        with pytest.raises(ValidationError) as info:
            load_manifest(path)
        assert str(info.value) == f"{path}: sample 'u1': listener 'L1' score 6 outside [1, 5]"

    def test_mos_out_of_range_is_validation_error(self, tmp_path):
        path = write_manifest(tmp_path / "m.csv", ["u1,a.wav,,demo,sysA,5.5,,"])
        with pytest.raises(ValidationError, match="outside"):
            load_manifest(path)

    def test_both_refs_set_rejected(self, tmp_path):
        path = write_manifest(tmp_path / "m.csv", ["u1,a.wav,e.emb,demo,sysA,3.0,,"])
        with pytest.raises(ValidationError, match="exactly one"):
            load_manifest(path)

    def test_neither_ref_set_rejected(self, tmp_path):
        path = write_manifest(tmp_path / "m.csv", ["u1,,,demo,sysA,3.0,,"])
        with pytest.raises(ValidationError, match="exactly one"):
            load_manifest(path)

    def test_mixed_datasets_rejected(self, tmp_path):
        path = write_manifest(
            tmp_path / "m.csv",
            ["u1,a.wav,,demoA,sysA,3.0,,", "u2,b.wav,,demoB,sysA,3.0,,"],
        )
        with pytest.raises(ValidationError, match="mixes datasets"):
            load_manifest(path)

    def test_embedding_only_rows(self, tmp_path):
        path = write_manifest(tmp_path / "m.csv", ["u1,,emb/u1.bin,demo,,3.0,,"])
        (sample,) = load_manifest(path).samples("train")
        assert sample.audio_ref is None
        assert sample.embedding_ref == tmp_path / "emb/u1.bin"
        assert sample.system_id is None


class TestManifestRoundTrip:
    def test_save_load_is_stable(self, tmp_path):
        samples = make_samples(7)
        # A mos value with a long binary expansion must survive the trip.
        samples[0] = Sample(
            sample_id="demo-000",
            audio_ref=tmp_path / "x.wav",
            embedding_ref=None,
            dataset_id="demo",
            system_id="sys0",
            mos=3.0000000000000004,
        )
        path = tmp_path / "m.csv"
        save_manifest(samples, path)
        loaded = load_manifest(path).samples("train")
        assert [s.mos for s in loaded] == [s.mos for s in samples]
        assert [s.sample_id for s in loaded] == [s.sample_id for s in samples]

    def test_corpus_dir_round_trip(self, tmp_path):
        corpus = CorpusManifest(
            name="demo",
            domain_tag="non-synthetic",
            splits={"train":
                    tuple(make_samples(5)), "dev": tuple(make_samples(3, dataset="demo")[:2])},
        )
        # dev reuses ids from train in make_samples; rename to keep them unique
        dev = tuple(
            Sample(
                sample_id=f"dev-{i}",
                audio_ref=s.audio_ref,
                embedding_ref=None,
                dataset_id=s.dataset_id,
                system_id=s.system_id,
                mos=s.mos,
            )
            for i, s in enumerate(corpus.splits["dev"])
        )
        corpus = CorpusManifest(
            name="demo", domain_tag="non-synthetic",
            splits={"train": corpus.splits["train"], "dev": dev},
        )
        save_corpus_dir(corpus, tmp_path / "c")
        loaded = load_corpus_dir(tmp_path / "c")
        assert loaded.name == "demo"
        assert loaded.size("train") == 5 and loaded.size("dev") == 2

    @pytest.mark.parametrize("through_symlink", [False, True], ids=["real-dir", "symlinked-dir"])
    def test_save_writes_what_resolving_every_path_gives(self, tmp_path, monkeypatch, through_symlink):
        base, outside = tmp_path / "corpus", tmp_path / "outside"
        (base / "wav").mkdir(parents=True)
        outside.mkdir()
        (base / "wav" / "a.wav").write_bytes(b"")
        (outside / "b.wav").write_bytes(b"")
        (base / "out.wav").symlink_to(outside / "b.wav")
        (outside / "in.wav").symlink_to(base / "wav" / "a.wav")
        (base / "outdir").symlink_to(outside, target_is_directory=True)
        (outside / "indir").symlink_to(base / "wav", target_is_directory=True)
        manifest_dir = base
        if through_symlink:
            manifest_dir = tmp_path / "corpus-link"
            manifest_dir.symlink_to(base, target_is_directory=True)
        monkeypatch.chdir(tmp_path)
        paths = [
            base / "wav" / "a.wav",  # a file inside
            base / "out.wav",  # a symlink inside that points outside
            outside / "in.wav",  # a symlink outside that points in
            base / "outdir" / "b.wav",  # a symlinked dir inside that points outside
            outside / "indir" / "a.wav",  # a symlinked dir outside that points in
            base / "wav" / ".." / "wav" / "a.wav",
            outside / ".." / "corpus" / "wav" / "a.wav",
            base / "outdir" / ".." / "corpus" / "wav" / "a.wav",  # ".." after a symlink
            base / "outdir" / ".." / "x.wav",
            base / "wav" / "..",
            base / "missing.wav",
            base / "nodir" / "missing.wav",
            outside / "missing.wav",
            base,  # the base dir itself
            tmp_path,
            Path("/"),
            Path("corpus/wav/a.wav"),  # relative to the working dir
            Path("outside/b.wav"),
            Path("a.wav"),
            Path("."),
        ]
        samples = [dataclasses.replace(make_samples(1)[0], sample_id=f"s{i}", audio_ref=p) for i, p in enumerate(paths)]
        save_manifest(samples, manifest_dir / "m.csv")

        def one_resolve_per_row(p: Path) -> str:
            try:
                return p.resolve().relative_to(manifest_dir.resolve()).as_posix()
            except ValueError:
                return str(p)

        with open(manifest_dir / "m.csv", encoding="utf-8", newline="") as fh:
            written = [row["audio_path"] for row in csv.DictReader(fh)]
        assert written == [one_resolve_per_row(p) for p in paths]
        assert {"wav/a.wav", ".", "missing.wav", "nodir/missing.wav", str(base / "out.wav")} <= set(written)

    @pytest.mark.parametrize(
        "text",
        [
            "a.wav", "./a.wav", "wav//a.wav", "wav/./a.wav", "wav/../a.wav", "/abs/a.wav", "//abs/a.wav",
            "emb/x.sqe", "./emb/x.sqe", "emb//x.sqe", "../up/x.wav", "emb/", "emb/.", "emb/..",
        ],
    )
    @pytest.mark.parametrize("manifest", ["m.csv", "sub/m.csv", "sub//./m.csv", "absolute"])
    def test_load_joins_each_path_to_the_manifest_dir(self, tmp_path, monkeypatch, text, manifest):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "sub" / "m.csv" if manifest == "absolute" else Path(manifest)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_manifest(path, [f"u1,{text},,demo,,3.0,,", f"u2,,{text},demo,,3.0,,"])
        audio, embedding = load_manifest(path).samples("train")
        # The rule: a ref is Path(os.path.join(<the manifest's parent as text>, <its field>)).
        expected = Path(os.path.join(str(path.parent), text))
        assert str(expected) == str(path.parent / Path(text))
        assert audio.audio_ref == expected and str(audio.audio_ref) == str(expected)
        assert embedding.embedding_ref == expected and str(embedding.embedding_ref) == str(expected)

    def test_an_id_in_two_splits_is_rejected(self):
        samples = make_samples(3)
        corpus = CorpusManifest("demo", "non-synthetic", {"train": tuple(samples[:2]), "dev": tuple(samples[1:])})
        with pytest.raises(ValidationError, match="duplicate sample_id 'demo-001'"):
            corpus.validate()

    def test_missing_corpus_json(self, tmp_path):
        with pytest.raises(ManifestError, match="corpus.json"):
            load_corpus_dir(tmp_path)

    def test_fingerprint_must_match_when_asked_for(self, tmp_path):
        corpus = corpus_of(make_samples(4))
        save_corpus_dir(corpus, tmp_path / "old")  # as an older sqkit wrote it: no fingerprint
        save_corpus_dir(corpus, tmp_path / "new", fingerprint="abc")
        assert load_corpus_dir(tmp_path / "old") == load_corpus_dir(tmp_path / "new")
        assert load_corpus_dir(tmp_path / "new", fingerprint="abc").size("train") == 4
        for directory, fingerprint in (("old", "abc"), ("new", "abd")):
            with pytest.raises(ManifestError, match="fingerprint"):
                load_corpus_dir(tmp_path / directory, fingerprint=fingerprint)

    def test_a_split_of_a_fingerprinted_dir_is_checked_by_its_id_digest_alone(self, tmp_path, monkeypatch):
        samples = make_samples(4)
        corpus = CorpusManifest("demo", "non-synthetic", {"train": tuple(samples[:3]), "dev": tuple(samples[3:])})
        save_corpus_dir(corpus, tmp_path, fingerprint="abc")
        monkeypatch.setattr(sqkit.corpus, "_sample_ids", None)  # train.csv's ids are never read
        assert load_corpus_dir(tmp_path, fingerprint="abc").samples("dev") == corpus.samples("dev")
        dev = tmp_path / "dev.csv"
        dev.write_text(dev.read_text(encoding="utf-8").replace("demo-003,", "demo-000,"), encoding="utf-8")
        with pytest.raises(ManifestError) as info:
            load_corpus_dir(tmp_path, fingerprint="abc").samples("dev")
        assert str(info.value) == f"{dev}: sample ids do not match corpus.json's digest"

    def test_save_refuses_an_id_in_two_splits(self, tmp_path):
        samples = make_samples(3)
        corpus = CorpusManifest("demo", "non-synthetic", {"train": tuple(samples[:2]), "dev": tuple(samples[1:])})
        with pytest.raises(ValidationError, match="duplicate sample_id 'demo-001'"):
            save_corpus_dir(corpus, tmp_path)
        assert not (tmp_path / "corpus.json").exists()

    def test_a_fingerprinted_corpus_json_without_id_digests_is_not_trusted(self, tmp_path):
        save_corpus_dir(corpus_of(make_samples(4)), tmp_path, fingerprint="abc")
        meta = json.loads((tmp_path / "corpus.json").read_text(encoding="utf-8"))
        del meta["sample_ids_sha256"]
        (tmp_path / "corpus.json").write_text(json.dumps(meta), encoding="utf-8")
        assert load_corpus_dir(tmp_path).size("train") == 4  # a dir read without a fingerprint needs none
        with pytest.raises(ManifestError, match="no sample id digest for each split"):
            load_corpus_dir(tmp_path, fingerprint="abc")

    def test_a_corpus_json_that_is_not_utf8_names_the_byte(self, tmp_path):
        (tmp_path / "corpus.json").write_bytes(b'{"name": "\xff"}')
        with pytest.raises(ManifestError) as info:
            load_corpus_dir(tmp_path)
        assert str(info.value) == f"{tmp_path / 'corpus.json'}: not UTF-8 text (byte 10)"

    def test_listener_rows_of_an_unread_split_are_not_duplicates_across_splits(self, tmp_path):
        rated = tuple(dataclasses.replace(s, listener_scores=(("L1", 2), ("L2", 4)), mos=3.0) for s in make_samples(2))
        corpus = CorpusManifest("demo", "non-synthetic", {"train": rated, "dev": tuple(make_samples(4)[2:])})
        save_corpus_dir(corpus, tmp_path)
        assert (tmp_path / "train.csv").read_text(encoding="utf-8").count("demo-000,") == 2  # one row per listener
        loaded = load_corpus_dir(tmp_path)
        assert loaded.samples("dev") == corpus.samples("dev")  # the first read: train.csv's ids are only scanned
        assert loaded.samples("train") == rated

    @pytest.mark.parametrize("text", ["", "{\"name\": ", "[1, 2]", "{\"name\": \"demo\"}", "\udcff"])
    def test_unreadable_corpus_json_is_a_manifest_error(self, tmp_path, text):
        (tmp_path / "corpus.json").write_text(text, encoding="utf-8", errors="surrogateescape")
        with pytest.raises(ManifestError, match="corpus.json"):
            load_corpus_dir(tmp_path)


class TestSplits:
    def test_floor_rule_and_partition(self):
        corpus = corpus_of(make_samples(11))
        out = split_random(corpus, 0.9, seed=5)
        assert out.size("train") == 9  # floor(11 * 0.9)
        assert out.size("dev") == 2
        train_ids = {s.sample_id for s in out.samples("train")}
        dev_ids = {s.sample_id for s in out.samples("dev")}
        assert train_ids.isdisjoint(dev_ids)
        assert train_ids | dev_ids == {s.sample_id for s in corpus.samples("train")}

    def test_deterministic_per_seed(self):
        corpus = corpus_of(make_samples(20))
        a = split_random(corpus, 0.8, seed=7)
        b = split_random(corpus, 0.8, seed=7)
        c = split_random(corpus, 0.8, seed=8)
        assert [s.sample_id for s in a.samples("dev")] == [s.sample_id for s in b.samples("dev")]
        assert [s.sample_id for s in a.samples("dev")] != [s.sample_id for s in c.samples("dev")]

    def test_requires_train_only(self):
        corpus = corpus_of(make_samples(10))
        once = split_random(corpus, 0.5, seed=1)
        with pytest.raises(ValidationError):
            split_random(once, 0.5, seed=1)

    def test_ratio_bounds(self):
        corpus = corpus_of(make_samples(10))
        for ratio in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                split_random(corpus, ratio, seed=1)

    def test_subsample(self):
        corpus = corpus_of(make_samples(30))
        small = subsample(corpus, 12, seed=3)
        assert small.size("train") == 12
        again = subsample(corpus, 12, seed=3)
        assert [s.sample_id for s in small.samples("train")] == [
            s.sample_id for s in again.samples("train")
        ]
        with pytest.raises(ValidationError):
            subsample(corpus, 31, seed=3)
        with pytest.raises(ValidationError, match="cannot subsample -1 from 30 train samples"):
            subsample(corpus, -1, seed=3)  # perm[:-1] would keep all but one sample
        assert subsample(corpus, 0, seed=3).size("train") == 0


class TestPool:
    def test_concatenation_order_and_ids(self):
        a = corpus_of(make_samples(3, "a"), name="a")
        b = corpus_of(make_samples(2, "b"), name="b")
        pooled = pool([a, b])
        assert pooled.dataset_ids == ("a", "b")
        assert pooled.domain_tag == "pooled"
        assert [s.dataset_id for s in pooled.samples("train")] == ["a"] * 3 + ["b"] * 2
        assert pooled.size("train") == 5

    def test_name_joins_the_member_names(self):
        pooled = pool([corpus_of(make_samples(1, "a"), name="a"), corpus_of(make_samples(1, "b"), name="b")])
        assert pooled.name == "a+b"

    def test_duplicate_names_rejected(self):
        a = corpus_of(make_samples(3, "a"), name="a")
        with pytest.raises(ValidationError):
            pool([a, a])

    def test_empty_pool_rejected(self):
        with pytest.raises(ValidationError):
            pool([])


def synth_spec(tmp_path, name="tones", **overrides) -> SynthSpec:
    defaults = dict(
        name=name,
        out_dir=tmp_path / name,
        n_utterances=8,
        snr_grid_db=(-2.0, 0.0, 2.0, 5.0),
        mos_intercept=3.0,
        mos_slope=0.25,
        duration_s=(0.2, 0.3),
    )
    defaults.update(overrides)
    return SynthSpec(**defaults)


def reference_wav_bytes(spec: SynthSpec, seed: int) -> list[bytes]:
    """The WAV file of each utterance by the generator's formula, computed
    with a fresh array at every step and quantized as round(32767 x)."""
    rng = named_rng(seed, f"synth/{spec.name}")
    files = []
    for i in range(spec.n_utterances):
        snr_db = float(spec.snr_grid_db[i % len(spec.snr_grid_db)])
        duration = rng.uniform(*spec.duration_s)
        tone_hz = rng.uniform(*spec.tone_hz)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        n_samples = int(round(duration * spec.rate_hz))
        t = np.arange(n_samples) / spec.rate_hz
        tone = spec.tone_amplitude * np.sin(2.0 * np.pi * tone_hz * t + phase)
        noise_std = (spec.tone_amplitude / np.sqrt(2.0)) * 10.0 ** (-snr_db / 20.0)
        wave = np.clip(tone + rng.normal(0.0, noise_std, size=n_samples), -1.0, 1.0)
        if spec.sigma > 0:
            rng.normal(0.0, spec.sigma)  # the score noise, drawn after the audio
        buf = io.BytesIO()
        with wave_mod.open(buf, "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(spec.rate_hz)
            wf.writeframes(np.round(wave * 32767.0).astype("<i2").tobytes())
        files.append(buf.getvalue())
    return files


class TestSyntheticCorpus:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(rate_hz=8000),
            dict(rate_hz=16000, sigma=0.4),
            dict(rate_hz=22050, duration_s=(0.05, 0.4)),
            # Every clip is exactly the longest length the buffers are sized to.
            dict(rate_hz=22050, duration_s=(0.3, 0.3)),
            # -30 dB: the noise clips at full scale.
            dict(rate_hz=16000, snr_grid_db=(-30.0, 40.0), tone_amplitude=0.9),
        ],
        ids=["8k", "16k-sigma", "22k", "22k-longest", "16k-clipping"],
    )
    def test_wav_bytes_match_the_per_utterance_formula(self, tmp_path, overrides):
        spec = synth_spec(tmp_path, n_utterances=6, **overrides)
        corpus = generate_synthetic_corpus(spec, seed=5)
        written = [s.audio_ref.read_bytes() for s in corpus.samples("train")]
        assert written == reference_wav_bytes(spec, seed=5)

    def test_basic_shape(self, tmp_path):
        corpus = generate_synthetic_corpus(synth_spec(tmp_path), seed=11)
        samples = corpus.samples("train")
        assert len(samples) == 8
        assert corpus.domain_tag == "synthetic"
        assert {s.system_id for s in samples} == {"snr-2", "snr+0", "snr+2", "snr+5"}
        for s in samples:
            assert 1.0 <= s.mos <= 5.0
            assert s.audio_ref.exists()
        # The generator writes audio and the sidecar; manifests are the caller's.
        assert sorted(p.name for p in (tmp_path / "tones").iterdir()) == ["sidecar.csv", "wav"]
        save_corpus_dir(corpus, tmp_path / "tones")
        reloaded = load_corpus_dir(tmp_path / "tones")
        assert [s.sample_id for s in reloaded.samples("train")] == [s.sample_id for s in samples]

    def test_sidecar_without_a_column_is_a_validation_error(self, tmp_path):
        generate_synthetic_corpus(synth_spec(tmp_path), seed=11)
        (tmp_path / "tones" / "sidecar.csv").write_text("sample_id,delta,epsilon\ntones-00000,0.0,0.0\n")
        with pytest.raises(ValidationError, match=r"lacks column\(s\) snr_db"):
            load_sidecar(tmp_path / "tones")

    def test_deterministic_audio_and_scores(self, tmp_path):
        c1 = generate_synthetic_corpus(synth_spec(tmp_path, name="x1"), seed=4)
        c2 = generate_synthetic_corpus(synth_spec(tmp_path, name="x1", out_dir=tmp_path / "other"), seed=4)
        for s1, s2 in zip(c1.samples("train"), c2.samples("train")):
            assert s1.mos == s2.mos
            assert s1.audio_ref.read_bytes() == s2.audio_ref.read_bytes()

    def test_delta_shifts_scores_not_audio(self, tmp_path):
        base = generate_synthetic_corpus(synth_spec(tmp_path, name="b", delta=0.0), seed=9)
        shifted = generate_synthetic_corpus(
            synth_spec(tmp_path, name="b", out_dir=tmp_path / "b2", delta=0.5), seed=9
        )
        side_base = load_sidecar(tmp_path / "b")
        side_shift = load_sidecar(tmp_path / "b2")
        for s_b, s_s in zip(base.samples("train"), shifted.samples("train")):
            assert s_b.audio_ref.read_bytes() == s_s.audio_ref.read_bytes()
            snr_b, delta_b, eps_b = side_base[s_b.sample_id]
            snr_s, delta_s, eps_s = side_shift[s_s.sample_id]
            assert (snr_b, eps_b) == (snr_s, eps_s)
            # Pre-clamp scores differ by exactly the delta shift.
            pre_b = 3.0 + 0.25 * snr_b + delta_b + eps_b
            pre_s = 3.0 + 0.25 * snr_s + delta_s + eps_s
            assert pre_s - pre_b == pytest.approx(0.5, abs=1e-12)

    def test_monotone_map_gives_perfect_rank_correlation(self, tmp_path):
        # sigma = 0 and a map inside [1, 5]: MOS is a strictly monotone
        # function of SNR, so rank correlation with the sidecar SNR is 1.
        corpus = generate_synthetic_corpus(
            synth_spec(tmp_path, name="mono", n_utterances=16, sigma=0.0), seed=2
        )
        sidecar = load_sidecar(tmp_path / "mono")
        samples = corpus.samples("train")
        pairs = EvalPairs(
            sample_ids=tuple(s.sample_id for s in samples),
            system_ids=(None,) * len(samples),
            true=np.array([sidecar[s.sample_id][0] for s in samples]),
            pred=np.array([s.mos for s in samples]),
        )
        assert spearman(pairs) == pytest.approx(1.0, abs=1e-12)

    def test_noise_level_tracks_snr(self, tmp_path):
        corpus = generate_synthetic_corpus(
            synth_spec(tmp_path, name="snrcheck", n_utterances=8, duration_s=(0.5, 0.5)), seed=21
        )
        sidecar = load_sidecar(tmp_path / "snrcheck")
        # Total power = tone power + noise power; low SNR means more power.
        powers = {}
        for s in corpus.samples("train"):
            wave, rate = load_audio(s.audio_ref)
            assert rate == 16000
            powers.setdefault(sidecar[s.sample_id][0], []).append(float(np.mean(wave**2)))
        by_snr = {snr: np.mean(vals) for snr, vals in powers.items()}
        ordered = [by_snr[snr] for snr in sorted(by_snr)]
        assert all(a > b for a, b in zip(ordered, ordered[1:]))

    def test_non_monotone_map_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="mos_slope"):
            generate_synthetic_corpus(synth_spec(tmp_path, name="bad", mos_slope=0.0), seed=0)
