"""Identities between the CLI's own outputs, over the golden pipelines.

Each layer has an oracle of its own; these tie the layers together. A
model's train utterances are its datastore's records, so scoring them
must give back what training stored:

- ``knn`` with k = 1 on the train split returns each utterance's MOS;
- ``domain-retrieval`` on the train split retrieves each utterance's own
  record, so it scores with the utterance's own table row, as
  ``parametric`` does;
- ``export-embeddings`` pools a train utterance into its datastore record.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from sqkit import load_corpus_dir, load_datastore
from sqkit.cli import main
from test_cli import BASE_RECIPE, MDF_RECIPE, PRECOMPUTED_RECIPE, write_precomputed_corpora, write_recipe

# label -> (recipe, the corpus whose train split is scored, the train.corpus members in pool order)
PIPELINES = {
    "head": (BASE_RECIPE, "synth", ("synth",)),
    "alignnet-mdf": (MDF_RECIPE.replace("model.kind = head", "model.kind = alignnet"), "synth", ("synth", "other")),
    "precomputed": (PRECOMPUTED_RECIPE, "pa", ("pa", "pb")),
}


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def trained(tmp_path: Path, label: str, *extra: str) -> tuple[Path, Path]:
    """Train the pipeline's model; the recipe scores its scored corpus's
    train split, with the extra lines in place of the keys they set."""
    text, scored, _members = PIPELINES[label]
    lines = [line for line in text.splitlines() if not line.startswith(("infer.corpus", "infer.knn_k"))]
    text = "\n".join([*lines, f"infer.corpus = {scored}", "infer.split = train", *extra]) + "\n"
    if label == "precomputed":
        write_precomputed_corpora(tmp_path)
    config, out = write_recipe(tmp_path, text), tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    return config, out


def infer(config: Path, out: Path, mode: str) -> list[dict[str, str]]:
    assert main(["infer", "--config", str(config), "--out", str(out), "--inference", mode]) == 0
    return read_rows(out / "infer" / "seed0" / "predictions.csv")


@pytest.mark.parametrize("label", ["head", "precomputed"])
def test_knn_with_one_neighbour_returns_each_train_mos_exactly(tmp_path, label):
    config, out = trained(tmp_path, label, "infer.knn_k = 1")
    rows = infer(config, out, "knn")
    assert len(rows) == load_corpus_dir(out / "corpora" / PIPELINES[label][1]).size("train")
    assert [row["pred"] for row in rows] == [row["true"] for row in rows]


@pytest.mark.parametrize("label", ["alignnet-mdf", "precomputed"])
def test_domain_retrieval_on_the_train_split_is_parametric_bit_for_bit(tmp_path, label):
    config, out = trained(tmp_path, label)
    parametric = (infer(config, out, "parametric"), (out / "infer" / "seed0" / "predictions.csv").read_bytes())
    retrieved = (infer(config, out, "domain-retrieval"), (out / "infer" / "seed0" / "predictions.csv").read_bytes())
    assert len(parametric[0]) == load_corpus_dir(out / "corpora" / PIPELINES[label][1]).size("train")
    assert retrieved == parametric


@pytest.mark.parametrize("label", ["head", "precomputed"])
def test_exported_train_rows_are_their_datastore_records_bit_for_bit(tmp_path, label):
    _text, scored, members = PIPELINES[label]
    config, out = trained(tmp_path, label)
    assert main(["export-embeddings", "--config", str(config), "--out", str(out)]) == 0
    store = load_datastore(out / "train" / "seed0" / "datastore.bin")
    train = [s for name in members for s in load_corpus_dir(out / "corpora" / name).samples("train")]
    record = {s.sample_id: i for i, s in enumerate(train)}  # records follow the pooled train split
    assert len(record) == len(store.embeddings)
    rows = [row for row in read_rows(out / "export" / "embeddings.csv") if row["set_label"] == f"{scored}:train"]
    assert len(rows) == 5  # export.n_per_set
    for row in rows:
        i = record[row["sample_id"]]
        exported = np.array([float(row[f"e{d}"]) for d in range(store.embeddings.shape[1])])
        assert exported.tobytes() == store.embeddings[i].tobytes(), row["sample_id"]
        assert store.scores[i] == train[i].mos
