"""End-to-end command-line runs on a tiny synthetic recipe."""

import csv
import dataclasses
import json
from pathlib import Path

import pytest

from sqkit import ValidationError, cli
from sqkit.cli import main, parse_recipe, write_csv, write_records, write_records_mean
from sqkit.training import LogRecord

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
distribution.corpus = synth
export.sets = synth:train, synth:dev
export.n_per_set = 5
seeds = 0
"""


def write_recipe(tmp_path, text=BASE_RECIPE, name="recipe.cfg"):
    path = Path(tmp_path) / name
    path.write_text(text, encoding="utf-8")
    return path


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


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
        for name in ("params.ckpt", "scaler.bin", "meta.json", "log.jsonl"):
            assert (seed_dir / name).exists()
        meta = json.loads((seed_dir / "meta.json").read_text())
        assert meta["model_kind"] == "head"
        assert meta["steps_run"] == 60
        assert meta["stop_reason"] == "max_steps"
        assert list((seed_dir / "ledger").glob("ckpt_step*.bin"))

    def test_seed_flag_overrides_config(self, tmp_path):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out), "--seed", "1,2"]) == 0
        assert (out / "train" / "seed1" / "meta.json").exists()
        assert (out / "train" / "seed2" / "meta.json").exists()
        assert not (out / "train" / "seed0").exists()


class TestInfer:
    def test_needs_a_trained_model(self, tmp_path, capsys):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        assert main(["infer", "--config", str(config), "--out", str(out)]) == 1
        assert "train command first" in capsys.readouterr().err

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

    def test_knn_mode_writes_datastore(self, tmp_path):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        main(["train", "--config", str(config), "--out", str(out)])
        code = main(
            ["infer", "--config", str(config), "--out", str(out), "--inference", "knn", "--knn-k", "3"]
        )
        assert code == 0
        assert (out / "infer" / "seed0" / "datastore.bin").exists()


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
        assert meta["recipe_hash"] == cli.recipe_hash(cli.Recipe(parse_recipe(alignnet), tmp_path), None)
        assert {r["model"] for r in read_csv(out / "records.csv")} == {"alignnet-parametric"}
        assert not (ledger / "ckpt_step999.bin").exists()
        assert not (out / "train" / "seed0" / "mdf_phase1").exists()

    def test_unknown_test_corpus_fails(self, tmp_path):
        config = write_recipe(tmp_path, BASE_RECIPE.replace("benchmark.tests = synth", "benchmark.tests = ghost"))
        assert main(["benchmark", "--config", str(config), "--out", str(tmp_path / "o")]) == 1


class TestAggregate:
    def test_single_model_is_its_own_best(self, tmp_path):
        config = write_recipe(tmp_path)
        bench_out = tmp_path / "bench"
        main(["benchmark", "--config", str(config), "--out", str(bench_out), "--seed", "0"])
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


class TestDistributionData:
    def test_writes_scatter_files(self, tmp_path):
        config = write_recipe(tmp_path)
        out = tmp_path / "out"
        main(["train", "--config", str(config), "--out", str(out)])
        assert main(["distribution-data", "--config", str(config), "--out", str(out)]) == 0
        seed_dir = out / "distribution" / "seed0"
        assert len(read_csv(seed_dir / "utterances.csv")) == 4
        systems = read_csv(seed_dir / "systems.csv")
        assert set(systems[0]) == {"system_id", "true_mean", "pred_mean"}


class TestExitCodes:
    def test_unknown_flag_is_exit_1(self, tmp_path):
        assert main(["train", "--config", "x", "--bogus"]) == 1

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
        assert sorted(p.name for p in seed_dir.iterdir()) == ["ledger", "params.ckpt", "scaler.bin"]

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
