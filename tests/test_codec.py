"""The binary artifact formats: exact layouts and corrupt-input handling.

Every loader must either read a file back into an object that re-saves to
exactly the same bytes, or raise its own typed error (CheckpointError for
checkpoints, ValidationError for scalers, datastores and embeddings). A
struct.error, IndexError, UnicodeDecodeError or bare ValueError escaping a
loader, or a silently malformed object, fails these tests. A feature store
(SQF1) is not loaded but read: any variant that fails a check is built
again, to the same bytes and the same features.
"""

import re
import struct
from pathlib import Path

import numpy as np
import pytest

import sqkit.frontend
import sqkit.training
from sqkit import (
    CheckpointError,
    CorpusManifest,
    Datastore,
    FeatureScaler,
    KnnConfig,
    Sample,
    ValidationError,
    build_datastore,
    init_alignnet,
    init_head,
    load_datastore,
    load_params,
    load_precomputed,
    load_scaler,
    predict_split,
    prepare_train_data,
    save_datastore,
    save_params,
    save_precomputed,
    save_scaler,
    write_wav,
)
from sqkit.codec import atomic_dir, write_artifact
from sqkit.frontend import FrontendConfig, packed_features, split_features
from test_training import FRONTEND, make_corpus


def small_datastore():
    rng = np.random.default_rng(40)
    return Datastore(
        embeddings=rng.normal(size=(4, 3)).astype(np.float32),
        scores=rng.uniform(1, 5, 4).astype(np.float32),
        dataset_ids=("tmhint", "bvcc", "tmhint", "é-set"),
        distance_kind="cosine",
    )


def small_scaler():
    return FeatureScaler(mean=np.array([0.5, -1.25, 3.0]), std=np.array([1.0, 0.25, 2.5]))


def small_embedding():
    return np.random.default_rng(41).normal(size=(3, 2)).astype(np.float32)


# kind -> (error type, make object, save(path, obj), load(path))
ARTIFACTS = {
    "checkpoint": (
        CheckpointError,
        lambda: init_alignnet(3, ("bvcc", "nisqa-é"), seed=42, hidden=2, embed_dim=2, decoder_hidden=2),
        lambda path, obj: save_params(obj, path),
        load_params,
    ),
    "scaler": (ValidationError, small_scaler, save_scaler, load_scaler),
    "datastore": (ValidationError, small_datastore, save_datastore, load_datastore),
    "embedding": (ValidationError, small_embedding, save_precomputed, load_precomputed),
}


def f8(arr):
    return b"".join(struct.pack("<d", v) for v in np.ravel(arr))


def f4(arr):
    return b"".join(struct.pack("<f", v) for v in np.ravel(arr))


def id_table(ids):
    return b"".join(struct.pack("<H", len(i.encode("utf-8"))) + i.encode("utf-8") for i in ids)


@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
def test_corrupt_files_round_trip_exactly_or_raise_typed_error(kind, tmp_path):
    error, make, save, load = ARTIFACTS[kind]
    original = tmp_path / "original.bin"
    save(original, make())
    data = original.read_bytes()
    mutated = tmp_path / "mutated.bin"
    resaved = tmp_path / "resaved.bin"

    variants = [("intact", data), ("one extra byte", data + b"\x00")]
    variants += [(f"truncated to {n}", data[:n]) for n in range(len(data))]
    for offset in range(len(data)):
        for mask in (0x01, 0x80, 0xFF):
            flipped = bytearray(data)
            flipped[offset] ^= mask
            variants.append((f"byte {offset} ^ {mask:#04x}", bytes(flipped)))

    outcomes = {"loaded": 0, "raised": 0}
    for label, blob in variants:
        mutated.write_bytes(blob)
        try:
            obj = load(mutated)
        except error:
            outcomes["raised"] += 1
            continue
        save(resaved, obj)
        assert resaved.read_bytes() == blob, f"{kind}, {label}: loaded but does not re-save to the same bytes"
        outcomes["loaded"] += 1
    assert outcomes["raised"] > len(data)  # at least every truncation and the extra byte
    assert outcomes["loaded"] >= 1


def sqe1_corruptions(data):
    """(label, bytes) of corrupt variants of one SQE1 file: every
    truncation, extra bytes, three bit flips of each header byte, and each
    payload value's exponent bits all set (NaN, or inf where the mantissa
    is 0) plus one value set to -inf."""
    yield from ((f"truncated to {n}", data[:n]) for n in range(len(data)))
    yield "one extra byte", data + b"\x00"
    yield "one extra value", data + struct.pack("<f", 1.0)
    for offset in range(12):
        for mask in (0x01, 0x80, 0xFF):
            flipped = bytearray(data)
            flipped[offset] ^= mask
            yield f"header byte {offset} ^ {mask:#04x}", bytes(flipped)
    for offset in range(12, len(data), 4):
        flipped = bytearray(data)
        flipped[offset + 2] |= 0x80  # little-endian float32: the exponent is bits 7 of byte 2 to 6 of byte 3
        flipped[offset + 3] |= 0x7F
        yield f"value at byte {offset} non-finite", bytes(flipped)
    yield "a value -inf", data[:20] + struct.pack("<f", -np.inf) + data[24:]


class TestEmbeddingDecodeSweep:
    """Every corrupt variant of one SQE1 file raises ValidationError naming
    the file, through train's decode into the packed matrix and through
    infer's decode into a workspace buffer; no numpy error surfaces, and the
    packed rows meant for the file hold none of its values."""

    def test_train_packed_decode(self, tmp_path, monkeypatch):
        corpus = make_corpus(tmp_path, "sweep", n_train=4, n_dev=2, seed=50)
        path = corpus.samples("train")[2].embedding_ref
        given_rows = []
        real = sqkit.frontend.load_precomputed

        def load_precomputed(file, expected_dim=None, out=None):
            if out is not None:
                out.fill(7.0)  # a marker: a failed decode must leave it
                given_rows.append((file, out))
            return real(file, expected_dim, out)

        monkeypatch.setattr(sqkit.frontend, "load_precomputed", load_precomputed)
        for label, blob in sqe1_corruptions(path.read_bytes()):
            path.write_bytes(blob)
            given_rows.clear()
            with pytest.raises(ValidationError, match=re.escape(str(path))):
                prepare_train_data(corpus, FRONTEND)
            # Samples 0 to 2 were given rows sized from their files; sample 2 failed.
            assert [file for file, _ in given_rows] == [s.embedding_ref for s in corpus.samples("train")[:3]], label
            assert np.all(given_rows[-1][1] == 7.0), label

    def test_infer_per_sample_decode(self, tmp_path):
        corpus = make_corpus(tmp_path, "sweepq", n_train=4, n_dev=3, seed=51)
        ds = build_datastore(FRONTEND, corpus)
        path = corpus.samples("dev")[1].embedding_ref
        for label, blob in sqe1_corruptions(path.read_bytes()):
            path.write_bytes(blob)
            with pytest.raises(ValidationError, match=re.escape(str(path))):
                predict_split(corpus, "dev", FRONTEND, [(None, None, ds)], "knn", KnnConfig(k=1))


class TestFeatureStoreSweep:
    """Every truncation, extra byte and bit flip (0x01, 0x80 and 0xFF at
    each byte) of an SQF1 feature store fails one of its checks: reading the
    split again featurizes every utterance, rewrites the store to the same
    bytes and returns the same features, through both the packed read and
    the per-utterance one."""

    CONFIG = FrontendConfig(n_mels=1)

    def test_every_corrupt_variant_is_rebuilt_to_the_same_bytes(self, tmp_path):
        rng = np.random.default_rng(52)
        samples = []
        for i, n in enumerate((400, 560)):  # 1 and 2 frames
            write_wav(tmp_path / f"u{i}.wav", 0.3 * rng.uniform(-1.0, 1.0, n), 16000)
            samples.append(Sample(f"u{i}", tmp_path / f"u{i}.wav", None, "sweep", None, 3.0))
        store = (tmp_path / "store" / "sweep", "key")
        corpus = CorpusManifest("sweep", "non-synthetic", "en", 16000, {"train": tuple(samples)}, store)
        calls = []

        def featurize(sample, *args):
            calls.append(sample.sample_id)
            return sqkit.frontend.featurize(sample, *args)

        def read_both():
            packed, lengths = packed_features(corpus, "train", self.CONFIG, featurize)
            one_by_one = [m.copy() for m in split_features(corpus, "train", self.CONFIG, featurize)]
            return packed, lengths.tolist(), one_by_one

        packed, lengths, one_by_one = read_both()
        assert lengths == [1, 2] and calls == ["u0", "u1"]
        assert np.concatenate(one_by_one).tobytes() == packed.tobytes()
        reference = [sqkit.frontend.featurize(s, self.CONFIG).frames for s in samples]
        assert packed.tobytes() == np.concatenate(reference).tobytes()  # featurize's bits
        path = tmp_path / "store" / "sweep" / "train.features"
        data = path.read_bytes()
        assert len(data) == 4 + 44 + 8 * 2 + 8 * 2 * 3

        variants = [(f"truncated to {n}", data[:n]) for n in range(len(data))] + [("one extra byte", data + b"\0")]
        for offset in range(len(data)):
            for mask in (0x01, 0x80, 0xFF):
                flipped = bytearray(data)
                flipped[offset] ^= mask
                variants.append((f"byte {offset} ^ {mask:#04x}", bytes(flipped)))
        for label, blob in variants:
            for read in (0, 1):  # the packed read, then the per-utterance one
                path.write_bytes(blob)
                calls.clear()
                if read == 0:
                    got, got_lengths = packed_features(corpus, "train", self.CONFIG, featurize)
                    assert (got.tobytes(), got_lengths.tolist()) == (packed.tobytes(), lengths), label
                else:
                    got = [m.tobytes() for m in split_features(corpus, "train", self.CONFIG, featurize)]
                    assert got == [f.tobytes() for f in one_by_one], label
                assert calls == ["u0", "u1"], label
                assert path.read_bytes() == data, label
        calls.clear()
        assert read_both()[1] == lengths and calls == []  # the intact store is read, not built


class TestFeatureStoreContract:
    """A missing store is built whole before the first row is returned,
    whatever the reader then takes; a failed build is not retried; and no
    read, build or rebuild leaves a file descriptor open."""

    CONFIG = FrontendConfig(n_mels=1)

    def split(self, tmp_path):
        rng = np.random.default_rng(53)
        samples = []
        for i, n in enumerate((400, 560, 720)):  # 1, 2 and 3 frames
            write_wav(tmp_path / f"u{i}.wav", 0.3 * rng.uniform(-1.0, 1.0, n), 16000)
            samples.append(Sample(f"u{i}", tmp_path / f"u{i}.wav", None, "contract", None, 3.0))
        store = (tmp_path / "store", "key")
        corpus = CorpusManifest("contract", "non-synthetic", "en", 16000, {"train": tuple(samples)}, store)
        calls = []

        def featurize(sample, *args):
            calls.append(sample.sample_id)
            return sqkit.frontend.featurize(sample, *args)

        return corpus, featurize, calls

    def test_a_reader_that_stops_early_leaves_a_whole_store(self, tmp_path):
        corpus, featurize, calls = self.split(tmp_path)
        reading = split_features(corpus, "train", self.CONFIG, featurize)
        first = next(reading).copy()
        reading.close()
        assert calls == ["u0", "u1", "u2"]
        assert (tmp_path / "store" / "train.features").exists()
        calls.clear()
        rows = [m.copy() for m in split_features(corpus, "train", self.CONFIG, featurize)]
        assert calls == [] and [len(m) for m in rows] == [1, 2, 3]
        assert rows[0].tobytes() == first.tobytes()

    def test_no_read_build_or_rebuild_leaves_a_descriptor_open(self, tmp_path):
        fd_dir = Path("/proc/self/fd")
        if not fd_dir.is_dir():
            pytest.skip("no /proc/self/fd to count open descriptors")
        corpus, featurize, calls = self.split(tmp_path)
        path = tmp_path / "store" / "train.features"

        def broken(sample, *args):
            if sample.sample_id == "u1":
                raise ValidationError(f"{sample.audio_ref}: broken")
            return featurize(sample, *args)

        def packed():
            packed_features(corpus, "train", self.CONFIG, featurize)

        def early_stop():
            reading = split_features(corpus, "train", self.CONFIG, featurize)
            next(reading)
            reading.close()

        def rebuild_after_a_bit_flip():
            data = bytearray(path.read_bytes())
            data[-1] ^= 0x01  # the last utterance's last row
            path.write_bytes(bytes(data))
            assert [len(m) for m in split_features(corpus, "train", self.CONFIG, featurize)] == [1, 2, 3]

        def failed_build():
            path.unlink()
            with pytest.raises(ValidationError, match="broken"):
                packed_features(corpus, "train", self.CONFIG, broken)

        packed()  # builds the store
        cases = ((packed, []), (early_stop, []), (rebuild_after_a_bit_flip, ["u0", "u1", "u2"]),
                 (failed_build, ["u0"]))  # featurized once: a failed build is not retried
        for case, featurized in cases:
            calls.clear()
            before = len(list(fd_dir.iterdir()))
            case()
            assert len(list(fd_dir.iterdir())) == before, case.__name__
            assert calls == featurized, case.__name__
        assert list(path.parent.iterdir()) == []  # the failed build left no temp file


class TestReportedDefects:
    def test_truncated_scaler_is_rejected(self, tmp_path):
        path = tmp_path / "scaler.bin"
        save_scaler(path, FeatureScaler(mean=np.arange(4.0), std=np.ones(4)))
        path.write_bytes(path.read_bytes()[: 8 + 8 * 4])  # mean present, std missing
        with pytest.raises(ValidationError, match="truncated"):
            load_scaler(path)

    def test_truncated_checkpoint_header_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "params.ckpt"
        save_params(init_head(4, 3, seed=0), path)
        path.write_bytes(path.read_bytes()[:7])
        with pytest.raises(CheckpointError, match="truncated"):
            load_params(path)

    def test_truncated_datastore_is_validation_error(self, tmp_path):
        path = tmp_path / "datastore.bin"
        save_datastore(path, small_datastore())
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ValidationError, match="truncated"):
            load_datastore(path)

    def test_older_sqds_datastore_is_validation_error(self, tmp_path):
        # The float32 layout with a distance byte, as sqkit wrote it before SQD2.
        path = tmp_path / "datastore.bin"
        header = b"SQDS" + struct.pack("<BIII", 0, 1, 2, 1) + id_table(["a"])
        path.write_bytes(header + f4([0.5, -1.0]) + struct.pack("<fI", 3.0, 0))
        with pytest.raises(ValidationError, match="not a datastore file"):
            load_datastore(path)

    def test_bad_record_id_index(self, tmp_path):
        path = tmp_path / "datastore.bin"
        ds = small_datastore()
        save_datastore(path, ds)
        data = bytearray(path.read_bytes())
        # The last record's uint32 id index is the file's last four bytes.
        data[-4:] = struct.pack("<I", 9)
        path.write_bytes(bytes(data))
        with pytest.raises(ValidationError, match="dataset-id"):
            load_datastore(path)

    def test_trailing_bytes_after_datastore(self, tmp_path):
        path = tmp_path / "datastore.bin"
        save_datastore(path, small_datastore())
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ValidationError, match="trailing"):
            load_datastore(path)

    def test_flipped_embedding_magic_is_validation_error(self, tmp_path):
        path = tmp_path / "e.bin"
        save_precomputed(path, small_embedding())
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ValidationError, match=re.escape(f"{path}: not an SQE1 embedding file")):
            load_precomputed(path)

    def test_text_form_file_is_validation_error_naming_it(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("u 2 0 1.0 2.0\nu 2 1 1.0 3.0\n", encoding="utf-8")  # the former text form, well formed
        with pytest.raises(ValidationError, match=re.escape(f"{path}: not an SQE1 embedding file")):
            load_precomputed(path)


class TestLayouts:
    """Each writer's bytes against a struct.pack reference built by hand."""

    def test_head_checkpoint(self, tmp_path):
        params = init_head(3, 2, seed=1)
        path = tmp_path / "head.ckpt"
        save_params(params, path)
        expected = b"SQPM" + struct.pack("<BBII", 1, 1, 3, 2)
        expected += f8(params.w1) + f8(params.b1) + f8(params.w2) + f8(params.b2)
        assert path.read_bytes() == expected

    def test_alignnet_checkpoint(self, tmp_path):
        ids = ("bvcc", "nisqa-é")
        params = init_alignnet(3, ids, seed=2, hidden=2, embed_dim=2, decoder_hidden=4)
        path = tmp_path / "align.ckpt"
        save_params(params, path)
        expected = b"SQPM" + struct.pack("<BBIIIII", 1, 2, 3, 2, 2, 2, 4) + id_table(ids)
        for name in ("w1", "b1", "table", "v1", "c1", "v2", "c2"):
            expected += f8(params.as_dict()[name])
        assert path.read_bytes() == expected

    def test_scaler(self, tmp_path):
        scaler = small_scaler()
        path = tmp_path / "scaler.bin"
        save_scaler(path, scaler)
        assert path.read_bytes() == b"SQSC" + struct.pack("<I", 3) + f8(scaler.mean) + f8(scaler.std)

    def test_datastore(self, tmp_path):
        ds = small_datastore()
        path = tmp_path / "datastore.bin"
        save_datastore(path, ds)
        table = sorted(set(ds.dataset_ids))
        expected = b"SQD2" + struct.pack("<III", 4, 3, len(table)) + id_table(table)
        expected += f8(ds.embeddings) + f8(ds.scores)
        expected += b"".join(struct.pack("<I", table.index(dataset_id)) for dataset_id in ds.dataset_ids)
        assert path.read_bytes() == expected

    def test_embedding(self, tmp_path):
        frames = small_embedding()
        path = tmp_path / "e.bin"
        save_precomputed(path, frames)
        assert path.read_bytes() == b"SQE1" + struct.pack("<II", 3, 2) + f4(frames)


def test_failed_write_leaves_the_previous_file_or_none(tmp_path):
    """A write that fails midway (here the second payload chunk is not
    bytes) leaves the old file or none, never a truncated one, and no
    temp file beside it."""
    old, new = tmp_path / "scaler.bin", tmp_path / "new.bin"
    save_scaler(old, small_scaler())
    before = old.read_bytes()
    for path in (old, new):
        with pytest.raises(TypeError):
            write_artifact(path, b"SQSC", "<I", (3,), b"first chunk", "not bytes")
    assert [p.name for p in tmp_path.iterdir()] == ["scaler.bin"]
    assert old.read_bytes() == before


def test_atomic_dir_replaces_the_old_dir_whole_or_not_at_all(tmp_path):
    target = tmp_path / "corpus"
    target.mkdir()
    (target / "old.txt").write_text("old")
    with pytest.raises(OSError):
        with atomic_dir(target) as tmp:
            (tmp / "new.txt").write_text("half")
            raise OSError("killed mid-build")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus"]
    assert [p.name for p in target.iterdir()] == ["old.txt"]
    with atomic_dir(target) as tmp:
        assert tmp.parent == tmp_path and not list(tmp.iterdir())
        (tmp / "new.txt").write_text("whole")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus"]
    assert [p.name for p in target.iterdir()] == ["new.txt"]
