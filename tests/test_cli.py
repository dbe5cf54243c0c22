"""End-to-end command-line runs on a tiny synthetic recipe."""

import collections
import csv
import dataclasses
import hashlib
import json
import logging
import shutil
import struct
import wave
import zlib
from pathlib import Path

import numpy as np
import pytest

import sqkit.codec
import sqkit.corpus
import sqkit.export
import sqkit.frontend
import sqkit.inference
import sqkit.training
from sqkit import (
    FrontendConfig,
    KnnConfig,
    SqkitError,
    SynthSpec,
    ValidationError,
    build_datastore,
    cli,
    generate_synthetic_corpus,
    load_corpus_dir,
    load_datastore,
    load_params,
    load_scaler,
    predict_split,
    save_datastore,
    save_manifest,
    save_params,
    save_precomputed,
    split_random,
)
from sqkit.cli import main, parse_recipe, write_csv, write_records, write_records_mean
from sqkit.corpus import MANIFEST_HEADER
from sqkit.training import LogRecord
from test_frontend import float32_wav_bytes

BASE_RECIPE = """
# tiny end-to-end setup
corpus.synth.kind = synthetic
corpus.synth.n = 16
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
train.max_steps = 60
train.eval_interval = 10
train.patience_steps = 1000
train.loss_tau = 0.0

infer.corpus = synth
benchmark.tests = synth
export.sets = synth:train, synth:dev
export.n_per_set = 5
seeds = 0
"""


# A second synthetic corpus, for recipes that score outside train.corpus.
OTHER_CORPUS = """
corpus.other.kind = synthetic
corpus.other.n = 8
corpus.other.seed = 8
corpus.other.duration_lo = 0.2
corpus.other.duration_hi = 0.3
corpus.other.split_ratio = 0.5
"""


# MDF: pre-train on synth, then fine-tune on the synth+other pool.
MDF_RECIPE = (
    BASE_RECIPE.replace("train.corpus = synth", "train.corpus = synth+other")
    + OTHER_CORPUS
    + "train.mdf_pretrain = synth\ntrain.mdf_max_steps = 20\n"
)


# Two manifest corpora of precomputed embeddings pooled for training, and
# a query corpus drawn from both. A pipeline writes into the out dir
# precomputed, its one aggregate input.
PRECOMPUTED_RECIPE = """
corpus.pa.kind = manifest
corpus.pa.path = pa.csv
corpus.pa.split_ratio = 0.75
corpus.pb.kind = manifest
corpus.pb.path = pb.csv
corpus.pb.split_ratio = 0.75
corpus.pq.kind = manifest
corpus.pq.path = pq.csv

frontend.kind = precomputed
frontend.expected_dim = 6

model.kind = alignnet
model.hidden = 8
model.embed_dim = 4
model.decoder_hidden = 8

train.corpus = pa+pb
train.batch_size = 8
train.lr = 0.01
train.max_steps = 40
train.eval_interval = 10
train.patience_steps = 1000
train.loss_tau = 0.0

infer.corpus = pq
infer.mode = knn
infer.knn_k = 3
benchmark.tests = pa,pb
benchmark.split = dev
export.sets = pa:train, pq:train
export.n_per_set = 5
aggregate.inputs = precomputed
seeds = 0
"""


def write_recipe(tmp_path, text=BASE_RECIPE, name="recipe.cfg"):
    path = Path(tmp_path) / name
    path.write_text(text, encoding="utf-8")
    return path


def write_precomputed_corpora(root: Path) -> None:
    """PRECOMPUTED_RECIPE's manifests and SQE1 files: 2 to 6 frames of 6
    dims per utterance around a mean that sets its MOS. The queries are
    labelled pa, so that the parametric mode has a table row for them, and
    half sit where pb's utterances do."""
    rng = np.random.default_rng(19)
    (root / "emb").mkdir()
    for name, n, offset in (("pa", 16, -0.5), ("pb", 16, 0.5), ("pq", 8, None)):
        lines = ["sample_id,audio_path,embedding_path,dataset,system_id,mos,listener_id,listener_score"]
        for i in range(n):
            dataset, shift = (name, offset) if name != "pq" else ("pa", (-0.5, 0.5)[i % 2])
            center = rng.normal(size=6) + shift
            mos = float(np.clip(3.0 + center[0], 1.0, 5.0))
            frames = (center + 0.3 * rng.normal(size=(int(rng.integers(2, 7)), 6))).astype("<f4")
            ref = f"emb/{name}{i}.sqe"
            save_precomputed(root / ref, frames)
            lines.append(f"{name}{i},,{ref},{dataset},sys{i % 3},{mos!r},,")
        (root / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def warnings_logged(caplog):
    return [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]


def counted_featurize(monkeypatch):
    """sample_id -> featurize calls, through the two lookups train, infer and
    benchmark featurize by."""
    calls = collections.Counter()
    for module in (sqkit.training, sqkit.inference):
        def counted(sample, *args, _real=module.featurize, **kwargs):
            calls[sample.sample_id] += 1
            return _real(sample, *args, **kwargs)

        monkeypatch.setattr(module, "featurize", counted)
    return calls


class TestParseRecipe:
    def test_comments_and_blanks_ignored(self, tmp_path):
        path = write_recipe(tmp_path, "# note\n\na = 1 # trailing\nb = x=y\n")
        assert parse_recipe(path) == {"a": "1", "b": "x=y"}

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_recipe(tmp_path, "a = 1\na = 2\n")
        with pytest.raises(ValidationError, match="duplicate key"):
            parse_recipe(path)

    def test_line_without_equals_rejected(self, tmp_path):
        path = write_recipe(tmp_path, "just words\n")
        with pytest.raises(ValidationError, match="key = value"):
            parse_recipe(path)

    def test_empty_key_rejected(self, tmp_path):
        path = write_recipe(tmp_path, "= 3\n")
        with pytest.raises(ValidationError, match="empty key"):
            parse_recipe(path)


# A manifest corpus that no command but prepare reads.
MANIFEST_CORPUS = "corpus.man.kind = manifest\ncorpus.man.path = man.csv\n"
README = Path(__file__).resolve().parents[1] / "README.md"


def readme_default(default):
    """A declared default as the README's key table writes it."""
    if default is cli.REQUIRED:
        return "required"
    if default is None:
        return "unset"
    if isinstance(default, bool):
        return str(default).lower()
    if isinstance(default, tuple):
        return ",".join(f"{v:g}" for v in default)
    return f"{default:g}" if isinstance(default, float) else str(default)


# One misspelled key per section, and a key of another corpus kind: each
# recipe line and what stderr must name.
MISSPELLED = [
    ("seed = 0", "unknown config key 'seed'; did you mean 'seeds'?"),
    ("corpus.synth.durations_lo = 0.2", "'corpus.synth.durations_lo'; did you mean 'corpus.synth.duration_lo'?"),
    ("corpus.man.domian = studio", "'corpus.man.domian'; did you mean 'corpus.man.domain'?"),
    ("corpus.man.n = 8", "'corpus.man.n' is read by synthetic corpora, not by manifest ones"),
    ("frontend.nmels = 8", "'frontend.nmels'; did you mean 'frontend.n_mels'?"),
    ("model.hiden = 8", "'model.hiden'; did you mean 'model.hidden'?"),
    ("train.max_step = 60", "'train.max_step'; did you mean 'train.max_steps'?"),
    ("infer.knn_kk = 3", "'infer.knn_kk'; did you mean 'infer.knn_k'?"),
    ("benchmark.test = synth", "'benchmark.test'; did you mean 'benchmark.tests'?"),
    ("aggregate.input = runs", "'aggregate.input'; did you mean 'aggregate.inputs'?"),
    ("export.set = synth:train", "'export.set'; did you mean 'export.sets'?"),
]


class TestRecipeKeys:
    @pytest.mark.parametrize("line, named", MISSPELLED, ids=[line.split(" = ")[0] for line, _named in MISSPELLED])
    def test_a_misspelled_key_is_exit_1_before_any_file_is_written(self, tmp_path, capsys, line, named):
        config = write_recipe(tmp_path, BASE_RECIPE + MANIFEST_CORPUS + line + "\n")
        out = tmp_path / "out"
        assert main(["benchmark", "--config", str(config), "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()  # so no corpora/ either
        # Without the misspelled line the recipe passes the check.
        clean = write_recipe(tmp_path, BASE_RECIPE + MANIFEST_CORPUS, name="clean.cfg")
        cli.check_keys(cli.Recipe(parse_recipe(clean), tmp_path))

    @pytest.mark.parametrize(
        "command, line, named",
        [
            ("infer", "infer.distance = cosin", "infer.distance must be euclidean or cosine, got 'cosin'"),
            ("train", "infer.knn_k = five", "config key 'infer.knn_k': expected integer, got 'five'"),
            ("benchmark", "aggregate.best = best", "aggregate.best must be within-family or external, got 'best'"),
            ("prepare", "corpus.synth.sigma = loud", "config key 'corpus.synth.sigma': expected number, got 'loud'"),
        ],
        ids=["choices", "int", "aggregate-choices", "float"],
    )
    def test_a_bad_value_the_command_does_not_read_is_exit_1_before_any_file_is_written(
        self, tmp_path, capsys, command, line, named
    ):
        config = write_recipe(tmp_path, BASE_RECIPE + line + "\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_digests_keep_the_raw_line_rule(self, tmp_path):
        # sha256 of recipe text: these values were computed before the key
        # table existed, and model dirs and corpus dirs on disk record them.
        expected = {
            "base": ("f56b7fd868a54b7fbb1695a4ab17d9af7f943059d7f0505536101198e562176d", ["synth"]),
            "mdf": ("b0d41190365413e6d416c1b36d95f772b1ee7dc87093e18f9f4ca53a938abaa5", ["other", "synth"]),
        }
        fingerprints = {
            "synth": "c805616955fe12e81b910443a6e0d0df7477d50fb789c06d6a07d0d6ac6ab844",
            "other": "b0b598b2fb98878e2851f1d2e473b4e6495e15f2ccc18e7581f91530d87b63b8",
        }
        for name, text in (("base", BASE_RECIPE), ("mdf", MDF_RECIPE)):
            recipe = cli.Recipe(parse_recipe(write_recipe(tmp_path, text)), tmp_path)
            digest, corpora = expected[name]
            assert cli.recipe_hash(recipe) == digest
            assert cli._corpus_names(recipe) == corpora
            for corpus in corpora:
                assert cli.corpus_fingerprint(recipe, corpus) == fingerprints[corpus]

    def test_the_readme_table_lists_every_declared_key(self):
        text = README.read_text(encoding="utf-8").split("### Recipe keys", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1:-1] for line in text.splitlines() if line.startswith("| `")]
        table = {key.strip().strip("`"): (kind.strip().strip("`"), default.strip().strip("`")) for key, kind, default, _ in rows}
        assert len(table) == len(rows)
        assert table == {key: (spec.type, readme_default(spec.default)) for key, spec in cli.KEYS.items()}

    @pytest.mark.parametrize("line, named", [
        ("corpus.man.rate = 22050", "'corpus.man.rate' is read by synthetic corpora, not by manifest ones"),
        ("corpus.man.language = en", "unknown config key 'corpus.man.language'"),
    ], ids=["rate", "language"])
    def test_a_manifest_block_sets_no_rate_or_language(self, tmp_path, capsys, line, named):
        # load_audio reads each WAV's rate from its header, and no reader took a language.
        config = write_recipe(tmp_path, BASE_RECIPE + MANIFEST_CORPUS + line + "\n")
        assert main(["prepare", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert named in capsys.readouterr().err


class TestPrepare:
    def test_writes_corpus_dirs(self, tmp_path):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        assert main(["prepare", "--config", str(config), "--out", str(out)]) == 0
        corpus_dir = out / "corpora" / "synth"
        assert (corpus_dir / "corpus.json").exists()
        assert (corpus_dir / "train.csv").exists()
        assert (corpus_dir / "dev.csv").exists()
        assert not (out / ".sqkit.lock").exists()

    def test_no_corpora_config_fails(self, tmp_path):
        config = write_recipe(tmp_path, "train.corpus = x\n")
        assert main(["prepare", "--config", str(config), "--out", str(tmp_path / "o")]) == 1


class TestTrain:
    def test_writes_model_dir(self, tmp_path):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        seed_dir = out / "train" / "seed0"
        for name in ("params.ckpt", "scaler.bin", "datastore.bin", "meta.json", "log.jsonl"):
            assert (seed_dir / name).exists()
        meta = json.loads((seed_dir / "meta.json").read_text())
        assert meta["model_kind"] == "head"
        assert meta["steps_run"] == 60
        assert meta["stop_reason"] == "max_steps"
        assert list((seed_dir / "ledger").glob("ckpt_step*.bin"))

    @pytest.mark.parametrize("text", [BASE_RECIPE, MDF_RECIPE], ids=["base", "mdf"])
    def test_the_result_names_no_path_that_is_gone(self, tmp_path, text):
        # The seed dir is built in a temp dir and renamed into place; a path
        # into the temp dir would dangle once train_one_seed returns.
        recipe = cli.Recipe(parse_recipe(write_recipe(tmp_path, text)), tmp_path)
        out = tmp_path / "out"
        phases = cli.prepare_training(recipe, cli.get_corpora(recipe, out, cli._train_names(recipe)))
        result = cli.train_one_seed(recipe, phases, 0, out)
        assert result.ledger.entries
        # Walk every object reachable through containers and instance attributes.
        paths, stack, seen = [], [result], set()
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, Path):
                paths.append(obj)
            elif isinstance(obj, dict):
                stack.extend([*obj.keys(), *obj.values()])
            elif isinstance(obj, (list, tuple, set, frozenset)):
                stack.extend(obj)
            elif isinstance(obj, np.ndarray):
                assert obj.dtype != object  # no Path can hide in an array
            elif hasattr(obj, "__dict__") and not isinstance(obj, type):
                stack.extend(vars(obj).values())
        assert [p for p in paths if not p.exists()] == []

    def test_seed_flag_overrides_config(self, tmp_path):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out), "--seed", "1,2"]) == 0
        assert (out / "train" / "seed1" / "meta.json").exists()
        assert (out / "train" / "seed2" / "meta.json").exists()
        assert not (out / "train" / "seed0").exists()


    def test_subsample_trims_the_corpus_before_its_split(self, tmp_path, monkeypatch):
        config = write_recipe(tmp_path, BASE_RECIPE + "corpus.synth.subsample = 8\n")
        sizes = []
        real_train = cli.train

        def train(model_kind, data, *args, **kwargs):
            sizes.append((data.corpus.size("train"), data.corpus.size("dev")))
            return real_train(model_kind, data, *args, **kwargs)

        monkeypatch.setattr(cli, "train", train)
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert sizes == [(6, 2)]  # 16 generated, 8 kept, then split at 0.75

    def test_mdf_on_a_single_train_corpus_is_exit_1(self, tmp_path, capsys):
        config = write_recipe(tmp_path, BASE_RECIPE + "train.mdf_pretrain = synth\n")
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert "MDF needs a pooled train.corpus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "recipe",
        [BASE_RECIPE, BASE_RECIPE.replace("model.kind = head", "model.kind = alignnet"), MDF_RECIPE],
        ids=["head", "alignnet", "mdf"],
    )
    def test_datastore_equals_build_datastore_bit_for_bit(self, tmp_path, recipe):
        config = write_recipe(tmp_path, recipe)
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        seed_dir = out / "train" / "seed0"
        parsed = cli.Recipe(parse_recipe(config), tmp_path)
        corpora = cli.get_corpora(parsed, out, cli._corpus_names(parsed))
        frontend = cli.build_frontend(parsed)
        dirs = [(seed_dir, cli.resolve_train_corpus(parsed, corpora))]
        if "mdf_pretrain" in recipe:  # phase 2 pools with the phase-1 scaler, phase 1 saw synth alone
            dirs.append((seed_dir / "mdf_phase1", corpora["synth"]))
        for model_dir, corpus in dirs:
            built = build_datastore(frontend, corpus, scaler=load_scaler(model_dir / "scaler.bin"))
            save_datastore(tmp_path / "built.bin", built)
            assert (model_dir / "datastore.bin").read_bytes() == (tmp_path / "built.bin").read_bytes()
            loaded = load_datastore(model_dir / "datastore.bin")
            assert loaded.embeddings.tobytes() == built.embeddings.tobytes()
            assert loaded.scores.tobytes() == built.scores.tobytes()
            assert loaded.dataset_ids == built.dataset_ids


class TestInfer:
    def test_needs_a_trained_model(self, tmp_path, capsys):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        assert main(["infer", "--config", str(config), "--out", str(out)]) == 1
        assert "train command first" in capsys.readouterr().err

    def test_a_missing_model_is_exit_1_before_any_corpus_is_made(self, tmp_path, capsys):
        config, out = write_recipe(tmp_path), tmp_path / "out"
        assert main(["infer", "--config", str(config), "--out", str(out)]) == 1
        assert f"no trained model in {out / 'train' / 'seed0'}" in capsys.readouterr().err
        assert not (out / "corpora").exists()

    def test_writes_predictions(self, tmp_path):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        main(["train", "--config", str(config), "--out", str(out)])
        assert main(["infer", "--config", str(config), "--out", str(out)]) == 0
        rows = read_csv(out / "infer" / "seed0" / "predictions.csv")
        assert len(rows) == 4  # 16 utterances, 0.75 split -> 4 dev
        assert set(rows[0]) == {"sample_id", "system_id", "true", "pred"}
        for row in rows:
            assert 1.0 <= float(row["pred"]) <= 5.0

    def test_knn_mode_reads_the_trained_datastore(self, tmp_path, monkeypatch):
        config = write_recipe(tmp_path, BASE_RECIPE + "infer.knn_k = 3\n")
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        featurized = []
        real = sqkit.inference.featurize

        def featurize(sample, *args, **kwargs):
            featurized.append(sample.sample_id)
            return real(sample, *args, **kwargs)

        monkeypatch.setattr(sqkit.inference, "featurize", featurize)
        assert main(["infer", "--config", str(config), "--out", str(out), "--inference", "knn"]) == 0
        assert featurized == []  # the dev queries come from the store train wrote; the train split is not read
        assert sorted(p.name for p in (out / "infer" / "seed0").iterdir()) == ["predictions.csv", "systems.csv"]

    def test_distance_is_applied_when_the_datastore_is_loaded(self, tmp_path):
        """infer.distance picks the distance of the stored datastore: the
        predictions equal those over a datastore built afresh under it."""
        config = write_recipe(tmp_path, BASE_RECIPE + "infer.knn_k = 3\ninfer.distance = cosine\n")
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        assert main(["infer", "--config", str(config), "--out", str(out), "--inference", "knn"]) == 0
        preds = [float(row["pred"]) for row in read_csv(out / "infer" / "seed0" / "predictions.csv")]

        recipe = cli.Recipe(parse_recipe(config), tmp_path)
        corpus = cli.get_corpora(recipe, out, ["synth"])["synth"]
        _params, scaler = cli.load_model_dir(out / "train" / "seed0", cli.recipe_hash(recipe))
        frontend = cli.build_frontend(recipe)
        expected = {
            kind: predict_split(
                corpus, "dev", frontend,
                [(None, scaler, build_datastore(frontend, corpus, scaler=scaler, distance_kind=kind))],
                "knn", KnnConfig(k=3),
            )[0].pred.tolist()
            for kind in ("euclidean", "cosine")
        }
        assert preds == expected["cosine"]
        assert preds != expected["euclidean"]  # so the setting, not the default, decided

    def test_a_model_dir_without_a_datastore_is_exit_1(self, tmp_path, capsys):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        datastore = out / "train" / "seed0" / "datastore.bin"
        datastore.unlink()
        assert main(["infer", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(datastore) in err and "rerun train" in err

    def test_knn_settings_come_from_the_recipe_only(self, tmp_path):
        config = write_recipe(tmp_path, BASE_RECIPE + "infer.knn_k = 3\n")
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        assert main(["infer", "--config", str(config), "--out", str(out), "--inference", "knn"]) == 0
        preds = [float(row["pred"]) for row in read_csv(out / "infer" / "seed0" / "predictions.csv")]

        recipe = cli.Recipe(parse_recipe(config), tmp_path)
        corpus = cli.get_corpora(recipe, out, ["synth"])["synth"]
        _params, scaler = cli.load_model_dir(out / "train" / "seed0", cli.recipe_hash(recipe))
        frontend = cli.build_frontend(recipe)
        ds = build_datastore(frontend, corpus, scaler=scaler)
        expected = {k: predict_split(corpus, "dev", frontend, [(None, scaler, ds)], "knn", KnnConfig(k=k))[0] for k in (3, 5)}
        assert preds == expected[3].pred.tolist()
        assert preds != expected[5].pred.tolist()  # so the recipe key, not the default, decided k

    @pytest.mark.parametrize("command", ["infer", "export-embeddings"])
    def test_model_trained_under_another_recipe_warns(self, tmp_path, caplog, command):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        assert warnings_logged(caplog) == []

        config = write_recipe(tmp_path, BASE_RECIPE.replace("corpus.synth.n = 16", "corpus.synth.n = 20"))
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        (warning,) = warnings_logged(caplog)
        assert str(out / "train" / "seed0") in warning and "rerun train" in warning

    def test_split_with_no_samples_is_exit_1(self, tmp_path, capsys):
        config = write_recipe(tmp_path, BASE_RECIPE + "infer.split = test\n")
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 0  # infer loads it first
        assert main(["infer", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert "has no samples in split 'test'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["infer", "benchmark"])
    @pytest.mark.parametrize(
        "settings, named",
        [
            ("infer.mode = bogus\n", "infer.mode must be parametric, knn or domain-retrieval, got 'bogus'"),
            ("infer.mode = knn\ninfer.distance = manhattan\n", "infer.distance must be euclidean or cosine"),
        ],
        ids=["unknown-mode", "unknown-distance"],
    )
    def test_bad_inference_settings_make_no_corpus(self, tmp_path, capsys, command, settings, named):
        config = write_recipe(tmp_path, BASE_RECIPE + settings)
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 1
        assert not (out / "corpora").exists()
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["knn", "domain-retrieval"])
    def test_unknown_distance_is_exit_1_before_any_featurizing(self, tmp_path, monkeypatch, capsys, mode):
        recipe = BASE_RECIPE.replace("model.kind = head", "model.kind = alignnet")
        out = tmp_path / "out"
        assert main(["train", "--config", str(write_recipe(tmp_path, recipe)), "--out", str(out)]) == 0
        # train rejects the bad value too, so the model is trained without it.
        config = write_recipe(tmp_path, recipe + "infer.distance = manhattan\n")

        def featurize(*_args, **_kwargs):
            raise AssertionError("featurized with an unknown distance")

        monkeypatch.setattr(sqkit.inference, "featurize", featurize)
        assert main(["infer", "--config", str(config), "--out", str(out), "--inference", mode]) == 1
        assert "infer.distance" in capsys.readouterr().err


class TestDistributionData:
    """infer writes the scatter data of the distribution figure: one row per utterance, one per system."""

    def test_writes_scatter_files(self, tmp_path):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        main(["train", "--config", str(config), "--out", str(out)])
        assert main(["infer", "--config", str(config), "--out", str(out)]) == 0
        seed_dir = out / "infer" / "seed0"
        assert len(read_csv(seed_dir / "predictions.csv")) == 4
        systems = read_csv(seed_dir / "systems.csv")
        assert set(systems[0]) == {"system_id", "true_mean", "pred_mean"}

    def test_systems_file_holds_per_system_means(self, tmp_path):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        assert main(["infer", "--config", str(config), "--out", str(out)]) == 0
        seed_dir = out / "infer" / "seed0"
        predictions = read_csv(seed_dir / "predictions.csv")
        systems = read_csv(seed_dir / "systems.csv")
        # One row per system, in id order, holding its utterances' means.
        by_system = {}
        for row in predictions:
            by_system.setdefault(row["system_id"], []).append(row)
        assert [r["system_id"] for r in systems] == sorted(by_system)
        for row in systems:
            members = by_system[row["system_id"]]
            for column, mean in (("true", "true_mean"), ("pred", "pred_mean")):
                expected = sum(float(m[column]) for m in members) / len(members)
                assert float(row[mean]) == pytest.approx(expected, rel=1e-12)

    def plain_recipe(self, tmp_path, out):
        """A recipe whose infer.corpus is synth without system ids, and its sample count."""
        config = write_recipe(tmp_path)
        assert main(["prepare", "--config", str(config), "--out", str(out)]) == 0
        synth = load_corpus_dir(out / "corpora" / "synth")
        samples = [dataclasses.replace(s, system_id=None) for split in synth.splits for s in synth.samples(split)]
        save_manifest(samples, tmp_path / "plain.csv")
        recipe = BASE_RECIPE.replace("infer.corpus = synth", "infer.corpus = plain") + (
            f"corpus.plain.kind = manifest\ncorpus.plain.path = {tmp_path / 'plain.csv'}\n"
        )
        return write_recipe(tmp_path, recipe, name="plain.cfg"), len(samples)

    def test_no_systems_file_without_system_ids(self, tmp_path):
        out = tmp_path / "out"
        config, n_samples = self.plain_recipe(tmp_path, out)
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        assert main(["infer", "--config", str(config), "--out", str(out)]) == 0
        seed_dir = out / "infer" / "seed0"
        predictions = read_csv(seed_dir / "predictions.csv")
        assert len(predictions) == n_samples and {r["system_id"] for r in predictions} == {""}
        assert not (seed_dir / "systems.csv").exists()

    def test_a_rerun_replaces_the_whole_seed_dir(self, tmp_path):
        # An earlier infer on synth wrote systems.csv; scoring a corpus
        # without system ids into the same out dir must not leave it behind.
        out = tmp_path / "out"
        config, n_samples = self.plain_recipe(tmp_path, out)
        synth_config = write_recipe(tmp_path)
        assert main(["train", "--config", str(synth_config), "--out", str(out)]) == 0
        assert main(["infer", "--config", str(synth_config), "--out", str(out)]) == 0
        seed_dir = out / "infer" / "seed0"
        assert (seed_dir / "systems.csv").exists()
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        assert main(["infer", "--config", str(config), "--out", str(out)]) == 0
        assert len(read_csv(seed_dir / "predictions.csv")) == n_samples
        assert sorted(p.name for p in seed_dir.iterdir()) == ["predictions.csv"]
        assert sorted(p.name for p in (out / "infer").iterdir()) == ["seed0"]


class TestBenchmark:
    def run_benchmark(self, tmp_path, out_name, seeds="0,1"):
        config = write_recipe(tmp_path)
        out = tmp_path / out_name
        code = main(["benchmark", "--config", str(config), "--out", str(out), "--seed", seeds])
        assert code == 0
        return out

    def test_records_layout(self, tmp_path):
        out = self.run_benchmark(tmp_path, "out")
        rows = read_csv(out / "records.csv")
        # 2 seeds x 6 metrics (system ids exist on synthetic corpora)
        assert len(rows) == 12
        assert {r["metric"] for r in rows} == {
            "utt_mse", "utt_lcc", "utt_srcc", "sys_mse", "sys_lcc", "sys_srcc",
        }
        assert {r["model"] for r in rows} == {"head-parametric"}
        assert {r["seed"] for r in rows} == {"0", "1"}

        mean_rows = read_csv(out / "records_mean.csv")
        assert len(mean_rows) == 6

        tests_rows = read_csv(out / "tests.csv")
        assert tests_rows == [{"test": "synth", "domain_tag": "synthetic", "n": "4"}]

    def test_training_and_scoring_featurize_each_utterance_once(self, tmp_path, monkeypatch):
        # 16 utterances: train and dev for model selection, then the dev
        # split that is scored is read back from the feature store.
        calls = counted_featurize(monkeypatch)
        self.run_benchmark(tmp_path, "out")
        assert sum(calls.values()) == 16 and len(calls) == 16

    def test_two_out_dirs_are_byte_identical(self, tmp_path):
        out_a = self.run_benchmark(tmp_path, "out_a", seeds="0")
        out_b = self.run_benchmark(tmp_path, "out_b", seeds="0")
        assert (out_a / "records.csv").read_bytes() == (out_b / "records.csv").read_bytes()
        assert (out_a / "records_mean.csv").read_bytes() == (out_b / "records_mean.csv").read_bytes()

    def test_reuses_already_trained_seeds(self, tmp_path, monkeypatch):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        main(["train", "--config", str(config), "--out", str(out)])
        before = (out / "train" / "seed0" / "params.ckpt").read_bytes()
        monkeypatch.setattr(cli, "train_one_seed", None)  # a retrain would fail the run
        assert main(["benchmark", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "train" / "seed0" / "params.ckpt").read_bytes() == before

    def test_retrains_a_seed_trained_under_another_recipe(self, tmp_path):
        out = tmp_path / "out"
        head = write_recipe(tmp_path, name="head.cfg")
        main(["train", "--config", str(head), "--out", str(out)])
        ledger = out / "train" / "seed0" / "ledger"
        (ledger / "ckpt_step999.bin").write_bytes(b"stale")
        (out / "train" / "seed0" / "mdf_phase1").mkdir()
        alignnet = write_recipe(tmp_path, BASE_RECIPE.replace("model.kind = head", "model.kind = alignnet"))
        assert main(["benchmark", "--config", str(alignnet), "--out", str(out)]) == 0
        meta = json.loads((out / "train" / "seed0" / "meta.json").read_text())
        assert meta["model_kind"] == "alignnet"
        assert meta["recipe_hash"] == cli.recipe_hash(cli.Recipe(parse_recipe(alignnet), tmp_path))
        assert {r["model"] for r in read_csv(out / "records.csv")} == {"alignnet-parametric"}
        assert not (ledger / "ckpt_step999.bin").exists()
        assert not (out / "train" / "seed0" / "mdf_phase1").exists()

    @pytest.mark.parametrize(
        "recipe, named",
        [
            (BASE_RECIPE + "infer.mode = knnn\n", "infer.mode must be parametric, knn or domain-retrieval, got 'knnn'"),
            (BASE_RECIPE + "infer.mode = knn\ninfer.distance = manhattan\n", "infer.distance"),
            (BASE_RECIPE + "infer.mode = knn\ninfer.knn_k = 0\n", "k must be >= 1"),
            (BASE_RECIPE + "infer.mode = domain-retrieval\n", "domain-retrieval needs model.kind = alignnet"),
            (
                BASE_RECIPE.replace("model.kind = head", "model.kind = alignnet").replace(
                    "benchmark.tests = synth", "benchmark.tests = synth,other"
                )
                + OTHER_CORPUS,
                "dataset id(s) ['other'] of split 'dev' have no row",
            ),
        ],
        ids=["unknown-mode", "unknown-distance", "zero-k", "head-domain-retrieval", "alignnet-outside-its-table"],
    )
    def test_bad_inference_settings_are_exit_1_before_any_seed_is_trained(
        self, tmp_path, monkeypatch, capsys, recipe, named
    ):
        config = write_recipe(tmp_path, recipe)
        out = tmp_path / "out"
        trained = []
        monkeypatch.setattr(cli, "train_one_seed", lambda *args: trained.append(args))
        assert main(["benchmark", "--config", str(config), "--out", str(out), "--seed", "0,1"]) == 1
        assert named in capsys.readouterr().err
        assert trained == []
        assert not (out / "train").exists()

    def test_split_key_picks_the_scored_split(self, tmp_path):
        config = write_recipe(tmp_path, BASE_RECIPE + "benchmark.split = train\n")
        out = tmp_path / "out"
        assert main(["benchmark", "--config", str(config), "--out", str(out)]) == 0
        # 16 utterances at split ratio 0.75: 12 in train, 4 in dev.
        assert read_csv(out / "tests.csv") == [{"test": "synth", "domain_tag": "synthetic", "n": "12"}]

    def test_one_mos_level_gives_undefined_correlations_that_aggregate_refuses(self, tmp_path, capsys):
        # One SNR level: every MOS is 5.0, so no correlation is defined.
        config = write_recipe(tmp_path, BASE_RECIPE + "corpus.synth.snr_grid = 5\n")
        out = tmp_path / "out"
        assert main(["benchmark", "--config", str(config), "--out", str(out)]) == 0
        records = {r["metric"]: r["value"] for r in read_csv(out / "records.csv")}
        assert {r["metric"]: r["value"] for r in read_csv(out / "records_mean.csv")} == records
        for metric in ("utt_lcc", "utt_srcc", "sys_lcc", "sys_srcc"):
            assert records.pop(metric) == "undefined"
        assert sorted(records) == ["sys_mse", "utt_mse"]
        assert all(float(value) >= 0.0 for value in records.values())  # errors stay defined

        agg_config = write_recipe(tmp_path, f"aggregate.inputs = {out}\n", name="agg.cfg")
        assert main(["aggregate", "--config", str(agg_config), "--out", str(tmp_path / "agg")]) == 1
        err = capsys.readouterr().err
        assert "metric sys_lcc for (head-parametric, synth) is undefined" in err
        assert not (tmp_path / "agg" / "aggregate.csv").exists()

    def test_unknown_test_corpus_fails(self, tmp_path, capsys):
        config = write_recipe(tmp_path, BASE_RECIPE.replace("benchmark.tests = synth", "benchmark.tests = ghost"))
        assert main(["benchmark", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert "benchmark.tests references unknown corpus 'ghost'" in capsys.readouterr().err

    def test_alignnet_parametric_on_a_corpus_outside_its_table_is_exit_1(self, tmp_path, capsys):
        # The alignnet has no embedding row for corpus "other": parametric
        # scoring is a recipe error, named before any test audio is read.
        recipe = BASE_RECIPE.replace("model.kind = head", "model.kind = alignnet").replace(
            "benchmark.tests = synth", "benchmark.tests = other"
        ) + OTHER_CORPUS
        config = write_recipe(tmp_path, recipe)
        out = tmp_path / "out"
        assert main(["benchmark", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "['other']" in err and "--inference domain-retrieval" in err
        assert not (out / "records.csv").exists()

    def test_retrains_a_seed_without_a_datastore(self, tmp_path, monkeypatch):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        seed_dir = out / "train" / "seed0"
        trained = tree_bytes(seed_dir)
        (seed_dir / "datastore.bin").unlink()
        retrained = []
        real = cli.train_one_seed

        def train_one_seed(recipe, data, seed, out_dir):
            retrained.append(seed)
            return real(recipe, data, seed, out_dir)

        monkeypatch.setattr(cli, "train_one_seed", train_one_seed)
        assert main(["benchmark", "--config", str(config), "--out", str(out)]) == 0
        assert retrained == [0]
        assert tree_bytes(seed_dir) == trained

    def test_mdf_pretrain_comes_from_the_recipe(self, tmp_path, monkeypatch):
        recipe = MDF_RECIPE
        config = write_recipe(tmp_path, recipe)
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        seed_dir = out / "train" / "seed0"
        meta = json.loads((seed_dir / "meta.json").read_text())
        assert (meta["mdf_pretrain"], meta["phase"], meta["steps_run"]) == ("synth", 2, 20)
        assert json.loads((seed_dir / "mdf_phase1" / "meta.json").read_text())["phase"] == 1
        # The hashed text: the model-deciding lines, then the pretrain name
        # once more, as model dirs have always recorded it.
        lines = sorted(line for line in recipe.splitlines() if line.startswith(cli.MODEL_SECTIONS))
        expected = hashlib.sha256("\n".join([*lines, "mdf_pretrain = synth"]).encode("utf-8")).hexdigest()
        assert meta["recipe_hash"] == expected
        monkeypatch.setattr(cli, "train_one_seed", None)  # benchmark must reuse the MDF model
        assert main(["benchmark", "--config", str(config), "--out", str(out)]) == 0
        assert {r["model"] for r in read_csv(out / "records.csv")} == {"head-mdf-parametric"}


def write_bench_dir(path, cells, domains):
    """A benchmark output dir holding only what aggregate reads:
    cells maps (model, test) to {metric: value}, domains test to its tag."""
    path.mkdir()
    rows = ([m, t, metric, repr(v)] for (m, t), values in sorted(cells.items()) for metric, v in sorted(values.items()))
    write_csv(path / "records_mean.csv", ["model", "test", "metric", "value"], rows)
    write_csv(path / "tests.csv", ["test", "domain_tag", "n"], ([t, d, "4"] for t, d in sorted(domains.items())))


class TestAggregate:
    @pytest.fixture(scope="class")
    def bench_out(self, tmp_path_factory):
        """One benchmark run of the tiny recipe: model head-parametric, test synth."""
        tmp_path = tmp_path_factory.mktemp("bench")
        config = write_recipe(tmp_path)
        assert main(["benchmark", "--config", str(config), "--out", str(tmp_path / "bench"), "--seed", "0"]) == 0
        return tmp_path / "bench"

    def external(self, tmp_path, bench_out, cells, domains):
        """Aggregate bench_out against a reference dir of the given cells."""
        write_bench_dir(tmp_path / "ref", cells, domains)
        agg_config = write_recipe(
            tmp_path,
            f"aggregate.inputs = {bench_out}\naggregate.best = external\naggregate.reference = ref\n",
            name="agg.cfg",
        )
        return main(["aggregate", "--config", str(agg_config), "--out", str(tmp_path / "agg")])

    # Two reference models: r1 has the lower sys_mse, r2 the higher sys_srcc.
    REFERENCE = {
        ("r1", "synth"): {"utt_mse": 0.5, "utt_lcc": 0.5, "utt_srcc": 0.5, "sys_mse": 0.0125, "sys_srcc": 0.75},
        ("r2", "synth"): {"utt_mse": 0.5, "utt_lcc": 0.5, "utt_srcc": 0.5, "sys_mse": 0.25, "sys_srcc": 0.8},
    }

    def test_external_reference_best_values(self, tmp_path, bench_out):
        assert self.external(tmp_path, bench_out, self.REFERENCE, {"synth": "synthetic"}) == 0
        # By hand: synth is synthetic, so a cell reads sys_mse and sys_srcc;
        # the best error and the best correlation are taken over the reference.
        mine = {r["metric"]: float(r["value"]) for r in read_csv(bench_out / "records_mean.csv")}
        ref = read_csv(tmp_path / "ref" / "records_mean.csv")
        best_mse = min(float(r["value"]) for r in ref if r["metric"] == "sys_mse")
        best_corr = max(float(r["value"]) for r in ref if r["metric"] == "sys_srcc")
        (row,) = read_csv(tmp_path / "agg" / "aggregate.csv")
        assert (row["model"], row["test"]) == ("head-parametric", "synth")
        assert (best_mse, best_corr) == (0.0125, 0.8)
        assert float(row["difference"]) == mine["sys_mse"] - best_mse
        assert float(row["ratio"]) == 100.0 * mine["sys_srcc"] / best_corr

    def test_reference_without_an_input_test_is_exit_1(self, tmp_path, bench_out, capsys):
        cells = {("r1", "other"): self.REFERENCE["r1", "synth"]}
        assert self.external(tmp_path, bench_out, cells, {"other": "synthetic"}) == 1
        assert "aggregate.reference has no test set 'synth'" in capsys.readouterr().err
        assert not (tmp_path / "agg" / "aggregate.csv").exists()

    def test_reference_with_another_domain_tag_is_exit_1(self, tmp_path, bench_out, capsys):
        assert self.external(tmp_path, bench_out, self.REFERENCE, {"synth": "non-synthetic"}) == 1
        err = capsys.readouterr().err
        assert "'synth'" in err and "'non-synthetic'" in err
        assert not (tmp_path / "agg" / "aggregate.csv").exists()

    def test_unknown_domain_tag_is_exit_1(self, tmp_path, capsys):
        write_bench_dir(tmp_path / "in", self.REFERENCE, {"synth": "studio"})
        agg_config = write_recipe(tmp_path, "aggregate.inputs = in\n", name="agg.cfg")
        assert main(["aggregate", "--config", str(agg_config), "--out", str(tmp_path / "agg")]) == 1
        assert "test set 'synth' has domain tag 'studio'" in capsys.readouterr().err

    def test_single_model_is_its_own_best(self, tmp_path, bench_out):
        agg_config = write_recipe(
            tmp_path,
            f"aggregate.inputs = {bench_out}\n",
            name="agg.cfg",
        )
        agg_out = tmp_path / "agg"
        assert main(["aggregate", "--config", str(agg_config), "--out", str(agg_out)]) == 0
        rows = read_csv(agg_out / "aggregate.csv")
        assert len(rows) == 1
        assert float(rows[0]["difference"]) == 0.0
        assert float(rows[0]["ratio"]) == 100.0
        summary = read_csv(agg_out / "aggregate_summary.csv")
        domains = {r["domain"] for r in summary}
        assert domains == {"average", "synthetic"}

    @pytest.mark.parametrize(
        "name, text, named",
        [
            ("records_mean.csv", "model,test,metric,val\nm,synth,utt_mse,0.5\n", "lacks column(s) value"),
            ("records_mean.csv", "model,test,metric,value\nm,synth,utt_mse\n", "line 2: fewer fields"),
            ("tests.csv", "test,tag,n\nsynth,synthetic,4\n", "lacks column(s) domain_tag"),
            ("tests.csv", "test,domain_tag,n\nsynth\n", "line 2: fewer fields"),
            ("records_mean.csv", "model,test,metric,value\nm,synth,utt_mse,0.5x\n", "utt_mse for (m, synth) is 0.5x"),
        ],
        ids=["records-header", "records-short-row", "tests-header", "tests-short-row", "records-not-a-number"],
    )
    def test_malformed_record_files_are_exit_1(self, tmp_path, capsys, name, text, named):
        write_bench_dir(tmp_path / "in", self.REFERENCE, {"synth": "synthetic"})
        (tmp_path / "in" / name).write_text(text, encoding="utf-8")
        agg_config = write_recipe(tmp_path, "aggregate.inputs = in\n", name="agg.cfg")
        assert main(["aggregate", "--config", str(agg_config), "--out", str(tmp_path / "agg")]) == 1
        err = capsys.readouterr().err
        assert str(tmp_path / "in" / name) in err and named in err

    def test_record_without_the_metric_its_domain_needs_is_exit_1(self, tmp_path, capsys):
        # synth is synthetic, so its cells are scored on sys_mse, which r1 lacks.
        cells = dict(self.REFERENCE)
        cells["r1", "synth"] = {k: v for k, v in cells["r1", "synth"].items() if k != "sys_mse"}
        write_bench_dir(tmp_path / "in", cells, {"synth": "synthetic"})
        agg_config = write_recipe(tmp_path, "aggregate.inputs = in\n", name="agg.cfg")
        assert main(["aggregate", "--config", str(agg_config), "--out", str(tmp_path / "agg")]) == 1
        assert "records for (r1, synth) lack sys_mse" in capsys.readouterr().err
        assert not (tmp_path / "agg" / "aggregate.csv").exists()

    def test_duplicate_cell_across_inputs_is_exit_1(self, tmp_path, capsys):
        for name in ("a", "b"):
            write_bench_dir(tmp_path / name, self.REFERENCE, {"synth": "synthetic"})
        agg_config = write_recipe(tmp_path, "aggregate.inputs = a, b\n", name="agg.cfg")
        assert main(["aggregate", "--config", str(agg_config), "--out", str(tmp_path / "agg")]) == 1
        assert "duplicate (model, test) ('r1', 'synth')" in capsys.readouterr().err

    def test_unknown_best_policy_is_exit_1(self, tmp_path, capsys):
        write_bench_dir(tmp_path / "in", self.REFERENCE, {"synth": "synthetic"})
        agg_config = write_recipe(tmp_path, "aggregate.inputs = in\naggregate.best = oracle\n", name="agg.cfg")
        assert main(["aggregate", "--config", str(agg_config), "--out", str(tmp_path / "agg")]) == 1
        assert "aggregate.best must be within-family or external, got 'oracle'" in capsys.readouterr().err

    def test_undefined_ratio_is_exit_1(self, tmp_path, capsys):
        # real is non-synthetic, so its cells are scored on utt_lcc, whose best is -0.2.
        run = tmp_path / "in"
        run.mkdir()
        (run / "records_mean.csv").write_text(
            "model,test,metric,value\n"
            "m1,real,utt_lcc,-0.2\nm1,real,utt_mse,0.5\n"
            "m2,real,utt_lcc,-0.5\nm2,real,utt_mse,0.75\n",
            encoding="utf-8",
        )
        (run / "tests.csv").write_text("test,domain_tag,n\nreal,non-synthetic,4\n", encoding="utf-8")
        agg_config = write_recipe(tmp_path, "aggregate.inputs = in\n", name="agg.cfg")
        assert main(["aggregate", "--config", str(agg_config), "--out", str(tmp_path / "agg")]) == 1
        assert "best correlation -0.2 is not positive" in capsys.readouterr().err
        assert not (tmp_path / "agg" / "aggregate.csv").exists()

    def test_missing_records_fail(self, tmp_path):
        agg_config = write_recipe(tmp_path, f"aggregate.inputs = {tmp_path / 'nowhere'}\n")
        assert main(["aggregate", "--config", str(agg_config), "--out", str(tmp_path / "agg")]) == 1


class TestExportEmbeddings:
    def test_writes_dump_and_projection(self, tmp_path):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        assert main(["export-embeddings", "--config", str(config), "--out", str(out)]) == 0
        export_dir = out / "export"
        emb_rows = read_csv(export_dir / "embeddings.csv")
        assert len(emb_rows) == 5 + 4  # train capped at 5, dev has only 4
        pca_rows = read_csv(export_dir / "pca.csv")
        assert len(pca_rows) == len(emb_rows)
        assert {"x", "y"} <= set(pca_rows[0])
        summary = (export_dir / "summary.txt").read_text()
        assert "synth:dev" in summary  # truncation note


    def test_set_without_a_split_is_exit_1(self, tmp_path, capsys):
        config = write_recipe(tmp_path, BASE_RECIPE.replace("export.sets = synth:train, synth:dev", "export.sets = synth"))
        assert main(["export-embeddings", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert "export.sets entry 'synth' must be corpus:split" in capsys.readouterr().err

    def test_a_corrupt_meta_json_is_exit_1_before_any_corpus_is_made(self, tmp_path, capsys):
        config, out = write_recipe(tmp_path), tmp_path / "out"
        path = out / "train" / "seed0" / "meta.json"
        path.parent.mkdir(parents=True)
        path.write_text("[]\n")
        assert main(["export-embeddings", "--config", str(config), "--out", str(out)]) == 1
        assert f"error: {path}: not a JSON object" in capsys.readouterr().err
        assert not (out / "corpora").exists()


class TestExitCodes:
    def test_unknown_flag_is_exit_1(self, tmp_path):
        assert main(["train", "--config", "x", "--bogus"]) == 1

    def test_an_unset_required_key_is_exit_1_naming_it(self, tmp_path, capsys):
        config = write_recipe(tmp_path, BASE_RECIPE.replace("infer.corpus = synth\n", ""))
        assert main(["infer", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: config key 'infer.corpus' is required\n"

    def test_a_corpus_with_no_samples_in_any_split_is_exit_1(self, tmp_path, capsys):
        (tmp_path / "empty.csv").write_text(",".join(MANIFEST_HEADER) + "\n", encoding="utf-8")
        text = BASE_RECIPE.replace("infer.corpus = synth", "infer.corpus = empty")
        config = write_recipe(tmp_path, text + "corpus.empty.kind = manifest\ncorpus.empty.path = empty.csv\n")
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 0  # infer loads it first
        capsys.readouterr()
        assert main(["infer", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: corpus 'empty' is empty\n"

    @pytest.mark.parametrize("tests, extra, named", [
        ("synth", "benchmark.split = test\n", "error: corpus 'synth' has no samples in split 'test'\n"),
        ("empty", "corpus.empty.kind = manifest\ncorpus.empty.path = empty.csv\n", "error: corpus 'empty' is empty\n"),
    ], ids=["split", "corpus"])
    def test_benchmark_refuses_a_test_set_with_no_samples_before_training(self, tmp_path, capsys, tests, extra, named):
        # The target checks infer makes only after loading a trained model, with no model in reach.
        (tmp_path / "empty.csv").write_text(",".join(MANIFEST_HEADER) + "\n", encoding="utf-8")
        text = BASE_RECIPE.replace("benchmark.tests = synth", f"benchmark.tests = {tests}") + extra
        config, out = write_recipe(tmp_path, text), tmp_path / "out"
        assert main(["benchmark", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == named
        assert not (out / "train").exists()

    @pytest.mark.parametrize(
        "flag", [["--knn-k", "3"], ["--knn-temperature", "0.5"], ["--paper-literal-knn"], ["--mdf-pretrain", "synth"]]
    )
    def test_flags_that_shadowed_recipe_keys_are_exit_1(self, tmp_path, capsys, flag):
        config = write_recipe(tmp_path)
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "o"), *flag]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_an_unexpected_numpy_value_error_is_exit_2(self, tmp_path, monkeypatch, capsys):
        # A ValueError that numpy raises inside a command is a runtime failure, not bad input.
        def broken(preds, targets, tau):
            return np.add(np.ones(2), np.ones(3))

        monkeypatch.setattr(sqkit.training, "clipped_mse", broken)
        assert main(["train", "--config", str(write_recipe(tmp_path)), "--out", str(tmp_path / "out")]) == 2
        assert "runtime error: ValueError: operands could not be broadcast together" in capsys.readouterr().err

    def test_a_sqkit_error_of_no_input_kind_is_exit_2(self, tmp_path, monkeypatch, capsys):
        def broken(recipe, args, out):
            raise SqkitError("a fault of no documented input kind")

        monkeypatch.setitem(cli.COMMANDS, "prepare", broken)
        assert main(["prepare", "--config", str(write_recipe(tmp_path)), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: a fault of no documented input kind\n"

    def test_a_synthetic_corpus_of_no_utterances_is_exit_1(self, tmp_path, capsys):
        config = write_recipe(tmp_path, BASE_RECIPE.replace("corpus.synth.n = 16", "corpus.synth.n = 0"))
        out = tmp_path / "out"
        assert main(["prepare", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: n_utterances must be >= 1\n"
        assert not (out / "corpora" / "synth").exists()

    @pytest.mark.parametrize("field, value, named", [
        ("domain_tag", "studio", "unknown domain tag 'studio'"),
        ("splits", {"holdout": "train.csv"}, "unknown split name 'holdout'"),
    ], ids=["domain-tag", "split-name"])
    def test_a_bad_dir_corpus_json_is_exit_1_naming_it(self, tmp_path, capsys, field, value, named):
        made = tmp_path / "made"
        assert main(["prepare", "--config", str(write_recipe(tmp_path)), "--out", str(made)]) == 0
        path = made / "corpora" / "synth" / "corpus.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
        body = [line for line in BASE_RECIPE.splitlines() if not line.startswith("corpus.synth.")]
        dir_block = f"\ncorpus.synth.kind = dir\ncorpus.synth.path = {path.parent}\n"
        config = write_recipe(tmp_path, "\n".join(body) + dir_block, name="dir.cfg")
        capsys.readouterr()
        assert main(["prepare", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {path}: {named}\n"

    @pytest.mark.parametrize("fault, message", [
        ("mos", "sample 'pq0': mos 7.0 outside [1, 5]"),
        ("dataset", "manifest mixes datasets ['other', 'pa']"),
        ("two-splits", "duplicate sample_id 'pq4' (splits train and dev)"),
    ], ids=["mos", "dataset", "two-splits"])
    def test_a_validation_fault_is_exit_1_naming_its_file(self, tmp_path, capsys, fault, message):
        write_precomputed_corpora(tmp_path)
        recipe = PRECOMPUTED_RECIPE
        named = tmp_path.resolve() / "pq.csv"  # a recipe path is read from the config's real dir
        header, *rows = named.read_text(encoding="utf-8").splitlines()
        if fault == "mos":
            rows[0] = rows[0].rsplit(",", 3)[0] + ",7.0,,"
        elif fault == "dataset":
            rows[1] = rows[1].replace(",pa,", ",other,")
        else:  # a dir corpus whose train and dev CSVs both hold pq4
            named = named.with_name("pqdir")
            named.mkdir()
            (named / "corpus.json").write_text(json.dumps({
                "name": "pq", "domain_tag": "non-synthetic", "splits": {"train": "train.csv", "dev": "dev.csv"}}))
            (named / "train.csv").write_text("\n".join([header, *rows[:5]]) + "\n", encoding="utf-8")
            (named / "dev.csv").write_text("\n".join([header, *rows[4:]]) + "\n", encoding="utf-8")
            recipe = recipe.replace("corpus.pq.kind = manifest\ncorpus.pq.path = pq.csv",
                                    "corpus.pq.kind = dir\ncorpus.pq.path = pqdir")
        if fault != "two-splits":
            named.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        config = write_recipe(tmp_path, recipe)
        assert main(["prepare", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {named}: {message}\n"

    @pytest.mark.parametrize("name", ["recipe.cfg", "pa.csv"])
    def test_a_byte_that_is_not_utf8_is_exit_1_naming_its_file(self, tmp_path, capsys, name):
        write_precomputed_corpora(tmp_path)
        config = write_recipe(tmp_path, PRECOMPUTED_RECIPE)
        path = tmp_path / name
        text = path.read_bytes()
        path.write_bytes(text.replace(b"\n", b"\n#\xff\n" if name == "recipe.cfg" else b"\xff\n", 2))
        assert main(["prepare", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert f"{path}: not UTF-8 text (byte " in capsys.readouterr().err

    def test_unknown_command_is_exit_1(self):
        assert main(["paint"]) == 1

    def test_missing_config_file_is_exit_1(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path)]) == 1

    def test_no_out_dir_is_exit_1(self, tmp_path, capsys):
        config = write_recipe(tmp_path, "a = 1\n")
        assert main(["train", "--config", str(config)]) == 1
        assert "output dir" in capsys.readouterr().err

    def test_unknown_train_corpus_is_exit_1(self, tmp_path):
        config = write_recipe(tmp_path, BASE_RECIPE.replace("train.corpus = synth", "train.corpus = ghost"))
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "kind_line, named",
        [("", "corpus 'synth': missing corpus.synth.kind"), ("corpus.synth.kind = studio\n", "unknown kind 'studio'")],
        ids=["missing", "unknown"],
    )
    def test_missing_or_unknown_corpus_kind_is_exit_1(self, tmp_path, capsys, kind_line, named):
        config = write_recipe(tmp_path, BASE_RECIPE.replace("corpus.synth.kind = synthetic\n", kind_line))
        assert main(["prepare", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "seeds, named", [("0,x", "bad seed list '0,x'"), (",", "seed list is empty")], ids=["bad", "empty"]
    )
    def test_bad_or_empty_seed_list_is_exit_1(self, tmp_path, capsys, seeds, named):
        config = write_recipe(tmp_path)
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "out"), "--seed", seeds]) == 1
        assert named in capsys.readouterr().err

    def test_a_repeated_seed_is_exit_1(self, tmp_path, capsys):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out), "--seed", "0,1"]) == 0
        before = tree_bytes(out)
        repeats = write_recipe(tmp_path, BASE_RECIPE.replace("seeds = 0", "seeds = 1,0,1"), name="repeats.cfg")
        runs = [(config, ["--seed", "0,0"], "seed list '0,0' repeats seed 0"), (repeats, [], "'1,0,1' repeats seed 1")]
        capsys.readouterr()
        for command in ("train", "infer", "benchmark"):
            for recipe, flags, named in runs:
                assert main([command, "--config", str(recipe), "--out", str(out), *flags]) == 1, (command, flags)
                assert named in capsys.readouterr().err
        assert tree_bytes(out) == before

    @pytest.mark.parametrize("command", ["infer", "export-embeddings"])
    def test_a_repeated_seed_makes_no_corpus(self, tmp_path, capsys, command):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out), "--seed", "0,0"]) == 1
        assert "seed list '0,0' repeats seed 0" in capsys.readouterr().err
        assert not (out / "corpora").exists()

    @pytest.mark.parametrize("name", ["params.ckpt", "scaler.bin", "datastore.bin"])
    def test_truncated_train_artifact_is_exit_1(self, tmp_path, capsys, name):
        # A corrupt artifact on disk is bad input, whichever loader reads it.
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        path = out / "train" / "seed0" / name
        path.write_bytes(path.read_bytes()[:-1])
        assert main(["infer", "--config", str(config), "--out", str(out), "--inference", "knn"]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "truncated" in err

    def test_a_nan_parameter_is_exit_1_naming_params_ckpt(self, tmp_path, capsys):
        # Unchecked, a NaN parameter would score every utterance 1.0 and exit 0.
        config, out = write_recipe(tmp_path), tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        path = out / "train" / "seed0" / "params.ckpt"
        save_params(load_params(path).with_arrays({"b2": np.asarray(np.nan)}), path)
        capsys.readouterr()
        assert main(["infer", "--config", str(config), "--out", str(out)]) == 1
        assert f"{path}: non-finite values in b2" in capsys.readouterr().err
        assert not (out / "infer").exists()

    @pytest.mark.parametrize("mode", ["parametric", "knn"])
    def test_a_nan_scaler_mean_is_exit_1_naming_scaler_bin(self, tmp_path, capsys, mode):
        # Unchecked, the NaN surfaced as a NaN score or a non-finite query, naming no file.
        config, out = write_recipe(tmp_path), tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        path = out / "train" / "seed0" / "scaler.bin"
        data = bytearray(path.read_bytes())
        data[8:16] = struct.pack("<d", np.nan)  # mean[0], after the magic and the dim
        path.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["infer", "--config", str(config), "--out", str(out), "--inference", mode]) == 1
        assert f"{path}: scaler mean or std is not finite" in capsys.readouterr().err
        assert not (out / "infer").exists()

    def test_pooling_two_dir_blocks_of_one_corpus_name_is_exit_1_naming_both(self, tmp_path, capsys):
        made = tmp_path / "made"
        assert main(["prepare", "--config", str(write_recipe(tmp_path)), "--out", str(made)]) == 0
        body = [line for line in BASE_RECIPE.splitlines()
                if not line.startswith(("corpus.synth.", "train.corpus", "infer.corpus", "benchmark.tests"))]
        blocks = "".join(f"corpus.{b}.kind = dir\ncorpus.{b}.path = {made / 'corpora' / 'synth'}\n" for b in "ab")
        text = "\n".join(body) + "\n" + blocks + "train.corpus = a+b\ninfer.corpus = a\nbenchmark.tests = a\n"
        config = write_recipe(tmp_path, text, name="pool.cfg")
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "train.corpus blocks 'a' and 'b' both hold corpus 'synth'" in err
        assert not (tmp_path / "out" / "train").exists()

    @pytest.mark.parametrize("bounds, field", [
        ({"snr_grid": ""}, "snr_grid_db"),
        ({"duration_lo": "1.5", "duration_hi": "0.5"}, "duration_s"),
        ({"duration_lo": "-0.5", "duration_hi": "0.5"}, "duration_s"),
        ({"tone_lo": "900", "tone_hi": "100"}, "tone_hz"),
    ])
    def test_impossible_synthetic_bounds_are_exit_1_naming_the_field(self, tmp_path, capsys, bounds, field):
        lines = [line for line in BASE_RECIPE.splitlines()
                 if line.split(" = ")[0].removeprefix("corpus.synth.") not in bounds]
        lines += [f"corpus.synth.{key} = {value}".rstrip() for key, value in bounds.items()]
        config, out = write_recipe(tmp_path, "\n".join(lines) + "\n"), tmp_path / "out"
        assert main(["prepare", "--config", str(config), "--out", str(out)]) == 1
        assert f"error: synthetic corpus 'synth': {field} " in capsys.readouterr().err
        assert not (out / "corpora" / "synth").exists()

    @pytest.mark.parametrize("meta", ["truncated", "a list"])
    def test_a_meta_json_that_is_no_json_object_is_exit_1_naming_it(self, tmp_path, capsys, meta):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        path = out / "train" / "seed0" / "meta.json"
        text = path.read_text()
        path.write_text(text[: len(text) // 2] if meta == "truncated" else "[]\n")
        capsys.readouterr()
        assert main(["infer", "--config", str(config), "--out", str(out), "--inference", "knn"]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: not a JSON object" in err and "no trained model" not in err
        # benchmark still takes the seed for untrained: it trains it again.
        assert main(["benchmark", "--config", str(config), "--out", str(out), "--inference", "knn"]) == 0
        assert path.read_text() == text

    @pytest.mark.parametrize("bad", ["not-a-wav", "stereo", "float32"])
    def test_a_bad_audio_file_is_exit_1_naming_it(self, tmp_path, capsys, bad):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        assert main(["prepare", "--config", str(config), "--out", str(out)]) == 0
        path = load_corpus_dir(out / "corpora" / "synth").samples("train")[0].audio_ref
        if bad == "stereo":
            with wave.open(str(path), "wb") as wf:
                wf.setnchannels(2)
                wf.setsampwidth(2)
                wf.setframerate(16000)
                wf.writeframes(bytes(4 * 4000))
        elif bad == "float32":
            path.write_bytes(float32_wav_bytes(4000))
        else:
            path.write_bytes(b"not audio at all")
        assert main(["train", "--config", str(config), "--out", str(out)]) == 1
        assert str(path) in capsys.readouterr().err

    def test_a_wav_cut_short_is_exit_1_naming_it_in_infer_and_benchmark(self, tmp_path, capsys):
        recipe = BASE_RECIPE.replace("infer.corpus = synth", "infer.corpus = other")
        recipe = recipe.replace("benchmark.tests = synth", "benchmark.tests = other") + OTHER_CORPUS
        config, out = write_recipe(tmp_path, recipe), tmp_path / "out"
        for command in ("prepare", "train"):
            assert main([command, "--config", str(config), "--out", str(out)]) == 0
        path = load_corpus_dir(out / "corpora" / "other").samples("dev")[0].audio_ref  # a sample both commands score
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[: size - 100])
        capsys.readouterr()
        for command in ("infer", "benchmark"):
            assert main([command, "--config", str(config), "--out", str(out)]) == 1, command
            message = f"{path}: the header promises {size - 44} bytes of audio, the file holds {size - 144}"
            assert message in capsys.readouterr().err, command
        assert not (out / "corpora" / "other" / "dev.features").exists()

    def test_locked_out_dir_is_exit_2(self, tmp_path, capsys):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / ".sqkit.lock").write_text("12345\n")
        assert main(["prepare", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "locked" in err
        assert "12345" in err
        # The foreign lock must survive the failed run.
        assert (out / ".sqkit.lock").exists()


class TestRecordWriters:
    def test_rows_come_out_sorted(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(
            path,
            [("m2", "t", 0, "utt_mse", 0.5), ("m1", "t", 1, "utt_mse", 0.25), ("m1", "t", 0, "utt_mse", 0.75)],
        )
        rows = read_csv(path)
        assert [(r["model"], r["seed"]) for r in rows] == [("m1", "0"), ("m1", "1"), ("m2", "0")]
        assert rows[0]["value"] == "0.75"

    def test_mean_propagates_undefined(self, tmp_path):
        path = tmp_path / "mean.csv"
        write_records_mean(
            path,
            [
                ("m", "t", 0, "utt_lcc", 0.5),
                ("m", "t", 1, "utt_lcc", "undefined"),
                ("m", "t", 0, "utt_mse", 0.5),
                ("m", "t", 1, "utt_mse", 0.25),
            ],
        )
        rows = {r["metric"]: r["value"] for r in read_csv(path)}
        assert rows["utt_lcc"] == "undefined"
        assert rows["utt_mse"] == "0.375"


class TestKillSafety:
    def test_failed_log_write_leaves_no_meta_so_benchmark_retrains(self, tmp_path, monkeypatch):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        seed_dir = out / "train" / "seed0"
        real_train = cli.train

        def train_with_unwritable_log(*args, **kwargs):
            result = real_train(*args, **kwargs)
            bad = LogRecord(step=-1, train_loss=object(), dev_criterion=None)  # not JSON-serializable
            return dataclasses.replace(result, log=result.log + (bad,))

        monkeypatch.setattr(cli, "train", train_with_unwritable_log)
        assert main(["train", "--config", str(config), "--out", str(out)]) == 2
        assert list((out / "train").iterdir()) == []  # the seed dir is written whole or not at all

        monkeypatch.undo()
        assert main(["benchmark", "--config", str(config), "--out", str(out)]) == 0
        assert json.loads((seed_dir / "meta.json").read_text())["steps_run"] == 60
        log = [json.loads(line) for line in (seed_dir / "log.jsonl").read_text().splitlines()]
        assert log and all(row["step"] >= 0 for row in log)

    def test_write_csv_failing_midway_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a"], [["1"]])

        def rows():
            yield ["2"]
            raise RuntimeError("killed mid-write")

        with pytest.raises(RuntimeError):
            write_csv(path, ["a"], rows())
        assert path.read_bytes() == b"a\r\n1\r\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def tree_bytes(root):
    """relative path -> bytes of every file under root."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(Path(root).rglob("*")) if p.is_file()}


def counted_generate(monkeypatch):
    """Count cli.generate_synthetic_corpus calls by corpus name."""
    calls = []
    real = cli.generate_synthetic_corpus

    def generate(spec, seed):
        calls.append(spec.name)
        return real(spec, seed)

    monkeypatch.setattr(cli, "generate_synthetic_corpus", generate)
    return calls


class TestPreparedCorpora:
    """A synthetic corpus is generated once per out dir and loaded from
    corpora/<name>/ while its fingerprint matches the recipe."""

    def test_prepare_then_train_keeps_the_dev_split(self, tmp_path, monkeypatch):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        assert main(["prepare", "--config", str(config), "--out", str(out)]) == 0
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        corpus_dir = out / "corpora" / "synth"
        meta = json.loads((corpus_dir / "corpus.json").read_text())
        assert meta["splits"] == {"train": "train.csv", "dev": "dev.csv"}
        block_lines = sorted(line for line in BASE_RECIPE.splitlines() if line.startswith("corpus.synth."))
        assert meta["fingerprint"] == hashlib.sha256("\n".join(block_lines).encode("utf-8")).hexdigest()
        assert len(read_csv(corpus_dir / "train.csv")) == 12
        assert len(read_csv(corpus_dir / "dev.csv")) == 4

        trained_on = []
        real_train = cli.train

        def train(model_kind, data, *args, **kwargs):
            trained_on.append(data.corpus.size("train"))
            return real_train(model_kind, data, *args, **kwargs)

        monkeypatch.setattr(cli, "train", train)
        block = [line for line in BASE_RECIPE.splitlines() if not line.startswith("corpus.synth.")]
        dir_recipe = "\n".join(block) + f"\ncorpus.synth.kind = dir\ncorpus.synth.path = {corpus_dir}\n"
        dir_config = write_recipe(tmp_path, dir_recipe, name="dir.cfg")
        assert main(["train", "--config", str(dir_config), "--out", str(tmp_path / "out_dir")]) == 0
        assert trained_on == [12]

    def test_prepare_of_a_dir_corpus_in_place_keeps_its_audio(self, tmp_path):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        assert main(["prepare", "--config", str(config), "--out", str(out)]) == 0
        corpus_dir = out / "corpora" / "synth"
        block = [line for line in BASE_RECIPE.splitlines() if not line.startswith("corpus.synth.")]
        dir_recipe = "\n".join(block) + f"\ncorpus.synth.kind = dir\ncorpus.synth.path = {corpus_dir}\n"
        dir_config = write_recipe(tmp_path, dir_recipe, name="dir.cfg")
        assert main(["prepare", "--config", str(dir_config), "--out", str(out)]) == 0
        corpus = load_corpus_dir(corpus_dir)
        assert corpus.size("train") == 12 and corpus.size("dev") == 4
        assert all(s.audio_ref.exists() for split in corpus.splits for s in corpus.samples(split))

    def test_loaded_corpus_equals_the_generated_one(self, tmp_path):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        recipe = cli.Recipe(parse_recipe(config), tmp_path)
        first = cli.get_corpora(recipe, out, ["synth"])["synth"]  # generates
        again = cli.get_corpora(recipe, out, ["synth"])["synth"]  # loads
        assert again == first
        assert all(s.audio_ref.parent == out / "corpora" / "synth" / "wav" for s in first.samples("train"))

        spec = SynthSpec(name="synth", out_dir=tmp_path / "direct", n_utterances=16, duration_s=(0.2, 0.3))
        direct = split_random(generate_synthetic_corpus(spec, seed=7), 0.75, seed=7)
        assert list(again.splits) == list(direct.splits) == ["train", "dev"]
        for split in direct.splits:
            for loaded, made in zip(again.samples(split), direct.samples(split), strict=True):
                assert dataclasses.replace(loaded, audio_ref=None) == dataclasses.replace(made, audio_ref=None)
                assert loaded.audio_ref.name == made.audio_ref.name
                assert loaded.audio_ref.read_bytes() == made.audio_ref.read_bytes()
        assert {k: v for k, v in vars(again).items() if k not in ("splits", "feature_store")} == {
            k: v for k, v in vars(direct).items() if k not in ("splits", "feature_store")
        }
        fingerprint = cli.corpus_fingerprint(recipe, "synth")
        assert again.feature_store == first.feature_store == (out / "corpora" / "synth", fingerprint)
        assert direct.feature_store is None

    def test_editing_one_corpus_block_regenerates_that_corpus_only(self, tmp_path, monkeypatch):
        config = write_recipe(tmp_path, BASE_RECIPE + OTHER_CORPUS)
        out = tmp_path / "out"
        assert main(["prepare", "--config", str(config), "--out", str(out)]) == 0
        synth_before = tree_bytes(out / "corpora" / "synth")
        calls = counted_generate(monkeypatch)
        config = write_recipe(tmp_path, BASE_RECIPE + OTHER_CORPUS.replace("corpus.other.n = 8", "corpus.other.n = 10"))
        assert main(["prepare", "--config", str(config), "--out", str(out)]) == 0
        assert calls == ["other"]
        assert tree_bytes(out / "corpora" / "synth") == synth_before
        assert len(read_csv(out / "corpora" / "other" / "train.csv")) == 5

    def test_train_infer_benchmark_without_prepare_generate_each_corpus_once(self, tmp_path, monkeypatch):
        config = write_recipe(
            tmp_path, BASE_RECIPE.replace("benchmark.tests = synth", "benchmark.tests = synth, other") + OTHER_CORPUS
        )
        out = tmp_path / "out"
        calls = counted_generate(monkeypatch)
        for command in ("train", "infer", "benchmark"):
            assert main([command, "--config", str(config), "--out", str(out)]) == 0
        assert sorted(calls) == ["other", "synth"]

    def test_failed_generation_leaves_no_corpus_dir_and_a_rerun_matches_a_clean_run(self, tmp_path, monkeypatch):
        config = write_recipe(tmp_path)
        clean, out = tmp_path / "clean", tmp_path / "out"
        assert main(["benchmark", "--config", str(config), "--out", str(clean)]) == 0

        writes = []
        real_write_wav = sqkit.frontend.write_wav

        def write_wav(*args):
            writes.append(args[0])
            if len(writes) == 5:
                raise OSError("disk full")
            real_write_wav(*args)

        monkeypatch.setattr(sqkit.frontend, "write_wav", write_wav)
        assert main(["prepare", "--config", str(config), "--out", str(out)]) == 2
        assert list((out / "corpora").iterdir()) == []  # neither a torn synth/ nor the temp dir
        monkeypatch.undo()

        # A temp dir a SIGKILL left behind, holding a plausible corpus.json, is never read.
        stale = out / "corpora" / ".synth.99999999.tmp"
        (stale / "wav").mkdir(parents=True)
        (stale / "corpus.json").write_text((clean / "corpora" / "synth" / "corpus.json").read_text())
        (stale / "train.csv").write_text("garbage\n")
        assert main(["benchmark", "--config", str(config), "--out", str(out)]) == 0
        assert sorted(p.name for p in (out / "corpora").iterdir()) == [".synth.99999999.tmp", "synth"]
        for tree in ("corpora/synth", "train"):
            assert tree_bytes(out / tree) == tree_bytes(clean / tree), tree
        for name in ("records.csv", "records_mean.csv", "tests.csv"):
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name

    def test_failed_regeneration_keeps_the_old_whole_dir(self, tmp_path, monkeypatch):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        assert main(["prepare", "--config", str(config), "--out", str(out)]) == 0
        before = tree_bytes(out / "corpora")

        def write_wav(*args):
            raise OSError("disk full")

        monkeypatch.setattr(sqkit.frontend, "write_wav", write_wav)
        config = write_recipe(tmp_path, BASE_RECIPE.replace("corpus.synth.n = 16", "corpus.synth.n = 20"))
        assert main(["train", "--config", str(config), "--out", str(out)]) == 2
        assert tree_bytes(out / "corpora") == before
        monkeypatch.undo()
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        assert len(read_csv(out / "corpora" / "synth" / "train.csv")) == 15

    def test_verbose_flag_says_whether_each_corpus_was_generated_or_loaded(self, tmp_path, caplog):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        assert main(["prepare", "--config", str(config), "--out", str(out)]) == 0
        assert caplog.records == []
        assert main(["train", "--config", str(config), "--out", str(out), "-v"]) == 0
        assert f"loaded prepared corpus 'synth' from {out / 'corpora' / 'synth'}" in caplog.messages
        assert "seed 0: trained head for 60 steps" in caplog.messages
        caplog.clear()
        assert main(["prepare", "--config", str(config), "--out", str(tmp_path / "fresh"), "--log-level", "info"]) == 0
        assert any(m.startswith("generated corpus 'synth'") for m in caplog.messages)


# Three corpora, each read by its own commands: synth is trained on, other
# is scored and exported, and only prepare reads extra.
READS_RECIPE = (
    BASE_RECIPE.replace("infer.corpus = synth", "infer.corpus = other")
    .replace("benchmark.tests = synth", "benchmark.tests = other")
    .replace("export.sets = synth:train, synth:dev", "export.sets = other:dev")
    + OTHER_CORPUS
    + OTHER_CORPUS.replace("other", "extra")
)


def recorded_materialize(monkeypatch):
    """Record the corpus name of each cli.materialize_corpus call."""
    calls = []
    real = cli.materialize_corpus

    def materialize_corpus(recipe, name, out_base):
        calls.append(name)
        return real(recipe, name, out_base)

    monkeypatch.setattr(cli, "materialize_corpus", materialize_corpus)
    return calls


class TestEachCommandReadsOnlyItsCorpora:
    """prepare materializes every declared corpus; train, infer, benchmark
    and export-embeddings materialize only the corpora they read, in sorted
    order."""

    def run(self, calls, config, out, command, *flags):
        calls.clear()
        assert main([command, "--config", str(config), "--out", str(out), *flags]) == 0
        return list(calls)

    def test_each_command_reads_exactly_its_corpora(self, tmp_path, monkeypatch):
        config = write_recipe(tmp_path, READS_RECIPE)
        out = tmp_path / "out"
        calls = recorded_materialize(monkeypatch)
        assert self.run(calls, config, out, "prepare") == ["extra", "other", "synth"]
        assert self.run(calls, config, out, "train") == ["synth"]
        assert self.run(calls, config, out, "infer") == ["other"]
        assert self.run(calls, config, out, "infer", "--inference", "knn") == ["other"]
        assert self.run(calls, config, out, "benchmark") == ["other"]
        assert self.run(calls, config, out, "export-embeddings") == ["other"]

    def test_trained_parametric_alignnet_checks_its_table_without_the_train_members(self, tmp_path, monkeypatch,
                                                                                     capsys):
        recipe = READS_RECIPE.replace("model.kind = head", "model.kind = alignnet").replace(
            "train.corpus = synth", "train.corpus = synth+other"
        )
        config = write_recipe(tmp_path, recipe)
        out = tmp_path / "out"
        calls = recorded_materialize(monkeypatch)
        assert self.run(calls, config, out, "train") == ["other", "synth"]
        assert self.run(calls, config, out, "infer", "--inference", "knn") == ["other"]
        assert self.run(calls, config, out, "infer") == ["other"]
        assert self.run(calls, config, out, "benchmark", "--inference", "knn") == ["other"]
        assert self.run(calls, config, out, "benchmark") == ["other"]
        # The trained params hold the table: a target outside it is refused without reading the members.
        calls.clear()
        capsys.readouterr()
        outside = write_recipe(tmp_path, recipe.replace("infer.corpus = other", "infer.corpus = extra"), name="x.cfg")
        assert main(["infer", "--config", str(outside), "--out", str(out)]) == 1
        assert calls == ["extra"]
        assert "have no row in the alignnet embedding table ('synth', 'other')" in capsys.readouterr().err

    def test_benchmark_reads_the_train_corpus_only_when_a_seed_is_stale(self, tmp_path, monkeypatch):
        config = write_recipe(tmp_path, READS_RECIPE)
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out), "--seed", "0,1"]) == 0
        calls = recorded_materialize(monkeypatch)
        trained = []
        real = cli.train_one_seed

        def train_one_seed(recipe, data, seed, out_dir):
            trained.append(seed)
            return real(recipe, data, seed, out_dir)

        monkeypatch.setattr(cli, "train_one_seed", train_one_seed)
        assert self.run(calls, config, out, "benchmark", "--seed", "0,1") == ["other"]
        assert trained == []

        meta_path = out / "train" / "seed1" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta_path.write_text(json.dumps({**meta, "recipe_hash": "another recipe"}))
        assert self.run(calls, config, out, "benchmark", "--seed", "0,1") == ["other", "synth"]
        assert trained == [1]

    def test_an_unread_corpus_is_never_generated(self, tmp_path):
        config = write_recipe(tmp_path, READS_RECIPE)
        out = tmp_path / "out"
        for command in ("train", "infer", "benchmark"):
            assert main([command, "--config", str(config), "--out", str(out)]) == 0
        assert not (out / "corpora" / "extra").exists()
        assert sorted(p.name for p in (out / "corpora").iterdir()) == ["other", "synth"]

    def test_a_broken_block_no_command_reads_fails_prepare_only(self, tmp_path, capsys):
        config = write_recipe(tmp_path, BASE_RECIPE + "corpus.junk.kind = studio\n")
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["prepare", "--config", str(config), "--out", str(out)]) == 1
        assert "unknown kind 'studio'" in capsys.readouterr().err


def recorded_reads(monkeypatch):
    """Record (corpus name, split, samples) for each split a load_manifest
    call builds, whether cli reads a source CSV or corpus a prepared one."""
    calls = []

    def wrap(module):
        real = module.load_manifest

        def load_manifest(*args, **kwargs):
            corpus = real(*args, **kwargs)
            name = kwargs.get("name") or Path(args[0]).parent.name  # a prepared split is read without its name
            calls.extend((name, split, len(samples)) for split, samples in corpus.splits.items())
            return corpus

        monkeypatch.setattr(module, "load_manifest", load_manifest)

    wrap(cli)
    wrap(sqkit.corpus)
    return calls


class TestPreparedManifestCorpora:
    """A manifest corpus is split once into corpora/<name>/ and read from
    there while corpus.json matches its block, its source CSV's bytes and
    that CSV's resolved path; a command builds only the splits it uses."""

    def prepared(self, root, *commands, out=None):
        write_precomputed_corpora(root)
        config, out = write_recipe(root, PRECOMPUTED_RECIPE), out or root / "out"
        for command in ("prepare", *commands):
            assert main([command, "--config", str(config), "--out", str(out)]) == 0, command
        return config, out

    def test_a_corpus_loaded_from_its_dir_equals_the_one_built_from_the_source(self, tmp_path, monkeypatch):
        write_precomputed_corpora(tmp_path)
        recipe = cli.Recipe(parse_recipe(write_recipe(tmp_path, PRECOMPUTED_RECIPE)), tmp_path)
        direct = {
            "pa": split_random(sqkit.corpus.load_manifest(tmp_path / "pa.csv", name="pa"), 0.75, seed=0),
            "pq": sqkit.corpus.load_manifest(tmp_path / "pq.csv", name="pq"),
        }
        reads = recorded_reads(monkeypatch)
        built = cli.get_corpora(recipe, tmp_path / "out", ["pa", "pq"])
        assert sorted(reads) == [("pa", "train", 16), ("pq", "train", 8)]  # the two sources, once each
        reads.clear()
        loaded = cli.get_corpora(recipe, tmp_path / "out", ["pa", "pq"])
        assert reads == []  # corpus.json only, until a split is asked for
        for name, corpus in direct.items():
            for field in dataclasses.fields(corpus):
                if field.name not in ("splits", "feature_store"):
                    values = (getattr(c, field.name) for c in (loaded[name], built[name], corpus))
                    assert len(set(values)) == 1, field.name
            store = (tmp_path / "out" / "corpora" / name, cli.corpus_fingerprint(recipe, name))
            assert loaded[name].feature_store == built[name].feature_store == store
            assert list(loaded[name].splits) == list(built[name].splits) == list(corpus.splits)
            for split in corpus.splits:
                samples = loaded[name].samples(split)
                assert samples == built[name].samples(split) == corpus.samples(split)
                assert all(s.audio_ref is None and isinstance(s.embedding_ref, Path) for s in samples)
        assert sorted(reads) == [("pa", "dev", 4), ("pa", "train", 12), ("pq", "train", 8)]

    def test_a_changed_source_byte_or_moved_inputs_rebuild_the_corpus(self, tmp_path, monkeypatch):
        root = tmp_path / "inputs"
        root.mkdir()
        config, out = self.prepared(root, out=tmp_path / "out")
        reads = recorded_reads(monkeypatch)
        assert main(["prepare", "--config", str(config), "--out", str(out)]) == 0
        assert {(name, split) for name, split, _ in reads} == {("pa", "train"), ("pa", "dev"), ("pb", "train"),
                                                                ("pb", "dev"), ("pq", "train")}  # read, not rebuilt
        source = (root / "pa.csv").read_bytes()
        assert source.count(b",sys1,") > 1
        (root / "pa.csv").write_bytes(source.replace(b",sys1,", b",sys7,", 1))  # one byte
        reads.clear()
        pb_before = tree_bytes(out / "corpora" / "pb")
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        assert ("pa", "train", 16) in reads and ("pb", "train", 16) not in reads  # pa from its source only
        rows = [row for split in ("train", "dev") for row in read_csv(out / "corpora" / "pa" / f"{split}.csv")]
        assert sum(row["system_id"] == "sys7" for row in rows) == 1
        assert tree_bytes(out / "corpora" / "pb") == pb_before

        moved = tmp_path / "moved"
        root.rename(moved)  # the same bytes, in another dir
        reads.clear()
        assert main(["infer", "--config", str(moved / "recipe.cfg"), "--out", str(out)]) == 0
        assert reads == [("pq", "train", 8)]  # built from the moved source
        meta = json.loads((out / "corpora" / "pq" / "corpus.json").read_text())
        assert meta["source"] == str((moved / "pq.csv").resolve())
        rows = read_csv(out / "corpora" / "pq" / "train.csv")
        assert all(row["embedding_path"].startswith(str(moved / "emb") + "/") for row in rows)

    def test_a_benchmark_of_the_dev_split_builds_no_train_sample(self, tmp_path, monkeypatch):
        config, out = self.prepared(tmp_path, "train")
        reads = recorded_reads(monkeypatch)
        assert main(["benchmark", "--config", str(config), "--out", str(out), "--inference", "knn"]) == 0
        assert sorted(reads) == [("pa", "dev", 4), ("pb", "dev", 4)]

    def test_a_bad_row_is_exit_1_naming_its_file_and_line(self, tmp_path, capsys):
        write_precomputed_corpora(tmp_path)
        config, out = write_recipe(tmp_path, PRECOMPUTED_RECIPE), tmp_path / "out"
        source = tmp_path / "pq.csv"
        for path, command in ((source, "prepare"), (out / "corpora" / "pa" / "dev.csv", "benchmark")):
            text = path.read_text(encoding="utf-8")
            lines = text.splitlines()
            lines[2] += ",9"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            capsys.readouterr()
            assert main([command, "--config", str(config), "--out", str(out)]) == 1, command
            named = path.resolve() if path == source else path  # a recipe path is read from the config's real dir
            assert f"error: {named} line 3: expected 8 fields, got 9\n" in capsys.readouterr().err, command
            path.write_text(text, encoding="utf-8")
            assert main(["prepare", "--config", str(config), "--out", str(out)]) == 0

    def test_a_sample_id_in_two_prepared_splits_is_exit_1_naming_it(self, tmp_path, capsys):
        config, out = self.prepared(tmp_path, "train")
        corpus_dir = out / "corpora" / "pb"
        copied = (corpus_dir / "train.csv").read_text(encoding="utf-8").splitlines()[2]
        with open(corpus_dir / "dev.csv", "a", encoding="utf-8") as fh:
            fh.write(copied + "\n")
        capsys.readouterr()
        assert main(["benchmark", "--config", str(config), "--out", str(out), "--inference", "knn"]) == 1
        assert f"duplicate sample_id {copied.split(',')[0]!r}" in capsys.readouterr().err

    def test_every_split_a_command_uses_is_read_before_its_first_write(self, tmp_path, monkeypatch):
        config, out = self.prepared(tmp_path)
        events = []
        real_replace = sqkit.codec.os.replace

        def replace(src, dst):
            events.append("write")
            real_replace(src, dst)

        monkeypatch.setattr(sqkit.codec.os, "replace", replace)  # codec renames every file sqkit writes into place

        def reading(real):
            def load_manifest(*args, **kwargs):
                events.append("read")
                return real(*args, **kwargs)

            return load_manifest

        for module in (cli, sqkit.corpus):
            monkeypatch.setattr(module, "load_manifest", reading(module.load_manifest))
        # benchmark first, so that it also trains
        for command in ("benchmark", "train", "infer", "benchmark", "export-embeddings"):
            events.clear()
            assert main([command, "--config", str(config), "--out", str(out)]) == 0, command
            assert "read" in events and "write" in events, command
            assert "read" not in events[events.index("write"):], command


class TestSeedsShareOneFeaturization:
    """train, infer and benchmark featurize each sample once per out dir for
    all seeds and commands, and what a seed writes does not depend on the
    other seeds of the run. Every recipe runs once with --seed 0,1 and once
    per seed alone, in class-scoped runs the tests share."""

    # recipe id -> (recipe, infer modes, benchmark mode)
    RECIPES = {
        "head": (BASE_RECIPE, ("parametric", "knn"), "parametric"),
        "alignnet": (
            BASE_RECIPE.replace("model.kind = head", "model.kind = alignnet"),
            ("parametric", "knn"),
            "domain-retrieval",
        ),
        "mdf": (MDF_RECIPE, ("parametric", "knn"), "parametric"),
    }
    SEED_RUNS = ("0,1", "0", "1")

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """(recipe id, seed list) -> {(seed, output): bytes}, and (recipe id,
        command) -> featurize calls per (sample, frontend config) during
        that command of the 0,1 run."""
        outputs, featurized = {}, {}
        for rid, (recipe, infer_modes, bench_mode) in self.RECIPES.items():
            config = write_recipe(tmp_path_factory.mktemp(rid), recipe)
            for seeds in self.SEED_RUNS:
                out = config.parent / f"out{seeds}"
                base = ["--config", str(config), "--out", str(out), "--seed", seeds]
                commands = [("train", ["train", *base])]
                commands += [(f"infer {mode}", ["infer", *base, "--inference", mode]) for mode in infer_modes]
                commands.append(("benchmark", ["benchmark", *base, "--inference", bench_mode]))
                got = outputs[rid, seeds] = {}
                for label, argv in commands:
                    calls = collections.Counter()
                    with pytest.MonkeyPatch.context() as mp:
                        for module in (sqkit.training, sqkit.inference):
                            def counted(sample, config, *args, _real=module.featurize, **kwargs):
                                calls[sample.sample_id, config] += 1
                                return _real(sample, config, *args, **kwargs)

                            mp.setattr(module, "featurize", counted)
                        assert main(argv) == 0, (rid, seeds, label)
                    if seeds == "0,1":
                        featurized[rid, label] = calls
                    for seed in seeds.split(","):
                        if label == "train":
                            for name, data in tree_bytes(out / "train" / f"seed{seed}").items():
                                got[seed, f"train/{name}"] = data
                        elif label == "benchmark":
                            lines = (out / "records.csv").read_text(encoding="utf-8").splitlines()
                            got[seed, "records.csv"] = [line for line in lines if line.split(",")[2] == seed]
                        else:
                            for name in ("predictions.csv", "systems.csv"):
                                got[seed, f"{label}/{name}"] = (out / "infer" / f"seed{seed}" / name).read_bytes()
        return outputs, featurized

    @pytest.mark.parametrize("rid", RECIPES)
    def test_each_sample_is_featurized_once_per_out_dir(self, runs, rid):
        _outputs, featurized = runs
        # 16 utterances at split ratio 0.75: train featurizes 12 + 4 into
        # the feature store, and infer and benchmark read the 4 dev
        # utterances they score from it. MDF trains on the pool with
        # other's 4 + 4 for both phases.
        labels = ("train", "infer parametric", "infer knn", "benchmark")
        calls = sum((featurized[rid, label] for label in labels), collections.Counter())
        assert len(calls) == (24 if rid == "mdf" else 16)
        assert set(calls.values()) == {1}
        assert calls == featurized[rid, "train"]

    @pytest.mark.parametrize("rid", RECIPES)
    def test_a_seed_writes_the_same_bytes_with_or_without_other_seeds(self, runs, rid):
        outputs, _featurized = runs
        joint = outputs[rid, "0,1"]
        alone = {**outputs[rid, "0"], **outputs[rid, "1"]}
        assert sorted(joint) == sorted(alone)
        assert {name for _seed, name in joint} >= {
            "train/params.ckpt", "train/scaler.bin", "train/datastore.bin", "train/log.jsonl", "train/meta.json",
            "infer parametric/predictions.csv", "infer knn/systems.csv", "records.csv",
        }
        assert [key for key in joint if joint[key] != alone[key]] == []
        assert all(alone[seed, "records.csv"] for seed in "01")


class TestNonFiniteEmbeddings:
    """A NaN in an SQE1 embedding file, or a file in the former text form
    (no SQE1 tag), is exit 1, and stderr names the file, wherever the file
    is read."""

    # benchmark scores the query corpus, as infer does.
    RECIPE = PRECOMPUTED_RECIPE.replace(
        "benchmark.tests = pa,pb\nbenchmark.split = dev", "benchmark.tests = pq\nbenchmark.split = train"
    )

    @staticmethod
    def poison(path, form):
        """Rewrite an embedding file in the given form and return the error
        it must raise: an SQE1 file with a NaN, or its finite values in the
        text form, `sample_id dim t v...` per frame."""
        frames = sqkit.frontend.load_precomputed(path).astype("<f4")
        if form == "sqe1":
            frames[1, 2] = np.nan
            path.write_bytes(b"SQE1" + frames.shape[0].to_bytes(4, "little") + (6).to_bytes(4, "little") + frames.tobytes())
            return "embedding contains non-finite values"
        lines = (f"u 6 {t} " + " ".join(repr(float(v)) for v in row) for t, row in enumerate(frames))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return "not an SQE1 embedding file"

    @pytest.mark.parametrize("form", ["sqe1", "text"])
    @pytest.mark.parametrize("split", ["train", "query"])
    def test_exit_1_names_the_file(self, tmp_path, capsys, form, split):
        write_precomputed_corpora(tmp_path)
        config, out = write_recipe(tmp_path, self.RECIPE), tmp_path / "out"
        assert main(["prepare", "--config", str(config), "--out", str(out)]) == 0
        if split == "train":
            path = Path(read_csv(out / "corpora" / "pa" / "train.csv")[1]["embedding_path"])
            commands = ("train", "benchmark")
        else:
            assert main(["train", "--config", str(config), "--out", str(out)]) == 0
            path = tmp_path / "emb" / "pq2.sqe"
            commands = ("infer", "benchmark")
        message = self.poison(path, form)
        capsys.readouterr()
        for command in commands:
            assert main([command, "--config", str(config), "--out", str(out)]) == 1, command
            assert f"{path}: {message}" in capsys.readouterr().err, command


def stored_rows(path):
    """The key and each utterance's float64 rows of an SQF1 store file,
    parsed by hand from the layout in README.md."""
    data = path.read_bytes()
    assert data[:4] == b"SQF1"
    key, n, dim, table_crc = struct.unpack_from("<32sIII", data, 4)
    table = struct.unpack_from(f"<{2 * n}I", data, 48)
    assert zlib.crc32(data[48 : 48 + 8 * n]) == table_crc
    rows, at = [], 48 + 8 * n
    for frames, crc in zip(table[0::2], table[1::2]):
        rows.append(data[at : at + 8 * frames * dim])
        assert zlib.crc32(rows[-1]) == crc
        at += 8 * frames * dim
    assert at == len(data)
    return key, rows


class TestFeatureStore:
    """The first command that featurizes a dsp split writes its raw features
    to corpora/<name>/<split>.features; later commands read them from there
    while the store's key and checks hold, and build the store again when
    they do not."""

    def trained(self, tmp_path, text=BASE_RECIPE, out_name="out"):
        config, out = write_recipe(tmp_path, text), tmp_path / out_name
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        return config, out

    def test_stored_rows_are_featurize_bits_and_the_same_bytes_in_any_out_dir(self, tmp_path):
        _config, out = self.trained(tmp_path)
        _config, other = self.trained(tmp_path, out_name="other")
        corpus_dir = out / "corpora" / "synth"
        assert sorted(p.name for p in corpus_dir.glob("*.features")) == ["dev.features", "train.features"]
        for split in ("train", "dev"):
            data = (corpus_dir / f"{split}.features").read_bytes()
            assert data == (other / "corpora" / "synth" / f"{split}.features").read_bytes(), split
            _key, rows = stored_rows(corpus_dir / f"{split}.features")
            samples = load_corpus_dir(corpus_dir).samples(split)
            assert rows == [sqkit.frontend.featurize(s, FrontendConfig(n_mels=8)).frames.tobytes() for s in samples]
        config = write_recipe(tmp_path)
        assert main(["prepare", "--config", str(config), "--out", str(tmp_path / "prepared")]) == 0
        assert not list((tmp_path / "prepared").rglob("*.features"))  # prepare writes no store

    def test_a_changed_frontend_key_rebuilds_the_store_and_an_unchanged_one_reads_it(
        self, tmp_path, monkeypatch, caplog
    ):
        config, out = self.trained(tmp_path)
        store = out / "corpora" / "synth" / "dev.features"
        key, rows = stored_rows(store)
        calls = counted_featurize(monkeypatch)
        for command in ("train", "infer", "benchmark"):
            assert main([command, "--config", str(config), "--out", str(out)]) == 0, command
        assert calls == {}
        hop = write_recipe(tmp_path, BASE_RECIPE + "frontend.hop_ms = 12.5\n", name="hop.cfg")
        assert main(["infer", "--config", str(hop), "--out", str(out), "-v"]) == 0
        dev = [s.sample_id for s in load_corpus_dir(out / "corpora" / "synth").samples("dev")]
        assert calls == dict.fromkeys(dev, 1)
        assert any(f"building feature store {store}" in r.getMessage() and "stored for another" in r.getMessage()
                   for r in caplog.records if r.levelno == logging.INFO)
        new_key, new_rows = stored_rows(store)
        assert new_key != key and len(b"".join(new_rows)) < len(b"".join(rows))  # a longer hop, fewer frames

    def test_a_changed_split_csv_of_a_dir_corpus_rebuilds_its_store(self, tmp_path, monkeypatch):
        config = write_recipe(tmp_path)
        assert main(["prepare", "--config", str(config), "--out", str(tmp_path / "made")]) == 0
        corpus_dir = tmp_path / "made" / "corpora" / "synth"
        block = [line for line in BASE_RECIPE.splitlines() if not line.startswith("corpus.synth.")]
        dir_block = f"\ncorpus.synth.kind = dir\ncorpus.synth.path = {corpus_dir}\n"
        dir_config = write_recipe(tmp_path, "\n".join(block) + dir_block, name="dir.cfg")
        out = tmp_path / "out"
        assert main(["prepare", "--config", str(dir_config), "--out", str(out)]) == 0
        assert not (out / "corpora").exists()  # a dir corpus is read where it is, not copied
        assert main(["train", "--config", str(dir_config), "--out", str(out)]) == 0
        assert sorted(p.name for p in (out / "corpora" / "synth").iterdir()) == ["dev.features", "train.features"]
        calls = counted_featurize(monkeypatch)
        assert main(["infer", "--config", str(dir_config), "--out", str(out)]) == 0
        before = read_csv(out / "infer" / "seed0" / "predictions.csv")
        assert calls == {}

        # The same sample ids in the same order, with the first two clips swapped.
        rows = read_csv(corpus_dir / "dev.csv")
        rows[0]["audio_path"], rows[1]["audio_path"] = rows[1]["audio_path"], rows[0]["audio_path"]
        write_csv(corpus_dir / "dev.csv", list(rows[0]), [list(row.values()) for row in rows])
        assert main(["infer", "--config", str(dir_config), "--out", str(out)]) == 0
        after = read_csv(out / "infer" / "seed0" / "predictions.csv")
        assert calls == dict.fromkeys((row["sample_id"] for row in rows), 1)
        swapped = [before[1]["pred"], before[0]["pred"]] + [row["pred"] for row in before[2:]]
        assert [row["pred"] for row in after] == swapped

    def test_infer_parses_a_dir_corpus_json_once(self, tmp_path, monkeypatch):
        config = write_recipe(tmp_path)
        assert main(["prepare", "--config", str(config), "--out", str(tmp_path / "made")]) == 0
        corpus_dir = tmp_path / "made" / "corpora" / "synth"
        block = [line for line in BASE_RECIPE.splitlines() if not line.startswith("corpus.synth.")]
        dir_block = f"\ncorpus.synth.kind = dir\ncorpus.synth.path = {corpus_dir}\n"
        dir_config = write_recipe(tmp_path, "\n".join(block) + dir_block, name="dir.cfg")
        out = tmp_path / "out"
        assert main(["train", "--config", str(dir_config), "--out", str(out)]) == 0
        loads = []

        def counted(directory, *args, _real=cli.load_corpus_dir):
            loads.append(Path(directory))
            return _real(directory, *args)

        monkeypatch.setattr(cli, "load_corpus_dir", counted)
        assert main(["infer", "--config", str(dir_config), "--out", str(out)]) == 0
        assert loads == [corpus_dir]  # the fingerprint hashes the split CSVs of the corpus already loaded

    def test_a_changed_split_csv_in_a_subdirectory_of_a_dir_corpus_rebuilds_its_store(self, tmp_path, monkeypatch):
        config = write_recipe(tmp_path)
        assert main(["prepare", "--config", str(config), "--out", str(tmp_path / "made")]) == 0
        corpus_dir = tmp_path / "made" / "corpora" / "synth"
        meta = json.loads((corpus_dir / "corpus.json").read_text())
        (corpus_dir / "splits").mkdir()
        for split in meta["splits"]:  # corpus.json names splits/<split>.csv; no CSV is left at the top
            save_manifest(load_corpus_dir(corpus_dir).samples(split), corpus_dir / "splits" / f"{split}.csv")
        for split in meta["splits"]:
            (corpus_dir / f"{split}.csv").unlink()
            meta["splits"][split] = f"splits/{split}.csv"
        (corpus_dir / "corpus.json").write_text(json.dumps(meta))
        block = [line for line in BASE_RECIPE.splitlines() if not line.startswith("corpus.synth.")]
        dir_block = f"\ncorpus.synth.kind = dir\ncorpus.synth.path = {corpus_dir}\n"
        dir_config = write_recipe(tmp_path, "\n".join(block) + dir_block, name="dir.cfg")
        out = tmp_path / "out"
        assert main(["train", "--config", str(dir_config), "--out", str(out)]) == 0
        calls = counted_featurize(monkeypatch)
        assert main(["infer", "--config", str(dir_config), "--out", str(out)]) == 0
        before = read_csv(out / "infer" / "seed0" / "predictions.csv")
        assert calls == {}

        # The first dev row now points at the second one's clip.
        dev_csv = corpus_dir / "splits" / "dev.csv"
        rows = read_csv(dev_csv)
        rows[0]["audio_path"] = rows[1]["audio_path"]
        write_csv(dev_csv, list(rows[0]), [list(row.values()) for row in rows])
        assert main(["infer", "--config", str(dir_config), "--out", str(out)]) == 0
        after = read_csv(out / "infer" / "seed0" / "predictions.csv")
        assert calls == dict.fromkeys((row["sample_id"] for row in rows), 1)
        assert [row["pred"] for row in after] == [before[1]["pred"]] + [row["pred"] for row in before[1:]]

    def test_a_truncated_or_bit_flipped_store_never_changes_a_prediction(self, tmp_path, caplog):
        config, out = self.trained(tmp_path)
        infer = ["infer", "--config", str(config), "--out", str(out), "-v"]
        assert main(infer) == 0
        predictions = (out / "infer" / "seed0" / "predictions.csv").read_bytes()
        store = out / "corpora" / "synth" / "dev.features"
        data = store.read_bytes()
        rows_at = 48 + 8 * 4
        cuts = (0, 3, 20, 47, 48, rows_at - 1, rows_at, rows_at + 1, len(data) // 2, len(data) - 1)
        variants = [data[:n] for n in cuts] + [data + b"\0"]
        for offset in (0, 4, 35, 36, 40, 44, 48, 52, 60, rows_at, rows_at + 7, len(data) // 2, len(data) - 1):
            flipped = bytearray(data)
            flipped[offset] ^= 0x01
            variants.append(bytes(flipped))
        for i, blob in enumerate(variants):
            store.write_bytes(blob)
            caplog.clear()
            assert main(infer) == 0, i
            assert (out / "infer" / "seed0" / "predictions.csv").read_bytes() == predictions, i
            assert store.read_bytes() == data, i
            assert any(f"building feature store {store}" in r.getMessage() for r in caplog.records), i

    def test_two_dir_blocks_of_one_corpus_name_keep_apart_stores(self, tmp_path, monkeypatch):
        # Two corpus dirs whose corpus.json both say "synth", with the same sample ids and splits
        # but louder tones in b: each block keeps its own stores, under its own name and key.
        made = {}
        for block, amplitude in (("a", 0.3), ("b", 0.6)):
            text = BASE_RECIPE + f"corpus.synth.amplitude = {amplitude}\n"
            config = write_recipe(tmp_path, text, name=f"{block}.cfg")
            assert main(["prepare", "--config", str(config), "--out", str(tmp_path / f"made_{block}")]) == 0
            made[block] = tmp_path / f"made_{block}" / "corpora" / "synth"
        ids = [[s.sample_id for s in load_corpus_dir(made[block]).samples("dev")] for block in "ab"]
        assert ids[0] == ids[1]
        body = [line for line in BASE_RECIPE.splitlines()
                if not line.startswith(("corpus.synth.", "train.corpus", "infer.corpus", "benchmark.tests"))]
        blocks = "".join(f"corpus.{block}.kind = dir\ncorpus.{block}.path = {made[block]}\n" for block in "ab")
        text = "\n".join(body) + "\n" + blocks + "train.corpus = a\ninfer.corpus = b\nbenchmark.tests = a, b\n"
        config = write_recipe(tmp_path, text, name="two.cfg")
        out = tmp_path / "out"
        for command in ("train", "infer", "benchmark"):
            assert main([command, "--config", str(config), "--out", str(out)]) == 0, command
        assert sorted(p.relative_to(out / "corpora").as_posix() for p in (out / "corpora").rglob("*.features")) == [
            "a/dev.features", "a/train.features", "b/dev.features"]
        dev_rows = [stored_rows(out / "corpora" / block / "dev.features")[1] for block in "ab"]
        assert dev_rows[0] != dev_rows[1]

        # A fresh out dir with the trained model and no store scores each block alone the same way.
        records = read_csv(out / "records.csv")
        for block in "ab":
            alone = write_recipe(tmp_path, text.replace("tests = a, b", f"tests = {block}"), name=f"{block}-alone.cfg")
            fresh = tmp_path / f"fresh_{block}"
            shutil.copytree(out / "train", fresh / "train")
            calls = counted_featurize(monkeypatch)
            assert main(["benchmark", "--config", str(alone), "--out", str(fresh)]) == 0, block
            assert read_csv(fresh / "records.csv") == [row for row in records if row["test"] == block], block
            assert calls == dict.fromkeys(ids[0], 1), block

    def test_export_of_a_subset_builds_each_split_store_whole_once(self, tmp_path, monkeypatch):
        config = write_recipe(tmp_path)
        out, trained = tmp_path / "out", tmp_path / "trained"
        calls = collections.Counter()

        def counted(sample, *args, _real=sqkit.export.featurize, **kwargs):
            calls[sample.sample_id] += 1
            return _real(sample, *args, **kwargs)

        monkeypatch.setattr(sqkit.export, "featurize", counted)
        export = ["export-embeddings", "--config", str(config), "--out", str(out)]
        assert main(export) == 0
        assert sum(calls.values()) == 12 + 4 and set(calls.values()) == {1}  # 5 of 12 train clips picked, 4 dev
        exported = (out / "export" / "embeddings.csv").read_bytes()
        calls.clear()
        assert main(export) == 0
        assert calls == {}  # read from the stores the first export built
        assert (out / "export" / "embeddings.csv").read_bytes() == exported
        assert main(["train", "--config", str(config), "--out", str(trained)]) == 0
        for split in ("train", "dev"):  # the stores train writes, byte for byte
            store = Path("corpora", "synth", f"{split}.features")
            assert (trained / store).read_bytes() == (out / store).read_bytes(), split
        (trained / "train").rename(tmp_path / "model")  # raw features, as in out: no trained scaler
        assert main(["export-embeddings", "--config", str(config), "--out", str(trained)]) == 0
        assert calls == {}  # read from the stores train wrote
        assert (trained / "export" / "embeddings.csv").read_bytes() == exported
