"""Golden bytes: the sha256 of every file three fixed CLI pipelines write.

Tier-1's other determinism checks compare a run with a rerun in the same
environment, so a change that moves the bits the same way every time
passes them. This test compares with a committed table instead. A planned
move of the digests edits ``golden_digests.json`` in the same change, and
CHANGES.md gives the reason.

float64 results may differ between numpy major versions, so the table
holds one set of digests per major version. On a major with no set the
test skips and prints the set it computed, to be reviewed and committed.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from sqkit.cli import main
from test_cli import BASE_RECIPE, MDF_RECIPE, PRECOMPUTED_RECIPE, write_precomputed_corpora, write_recipe

GOLDEN = Path(__file__).with_name("golden_digests.json")

FOUR_COMMANDS = ("prepare", "train", "infer", "benchmark")

# label -> (recipe, the commands run in order, the infer mode run after them)
PIPELINES = {
    "head": (BASE_RECIPE, FOUR_COMMANDS, "knn"),
    "alignnet-mdf": (
        MDF_RECIPE.replace("model.kind = head", "model.kind = alignnet"), FOUR_COMMANDS, "domain-retrieval"
    ),
    "precomputed": (
        PRECOMPUTED_RECIPE,
        ("prepare", "train", "infer", "benchmark --inference domain-retrieval", "export-embeddings", "aggregate"),
        "parametric",
    ),
}


def output_digests(tmp_path: Path) -> dict[str, str]:
    """label/relative path -> sha256 of each file the pipelines write: the
    whole out dir after the pipeline's commands, then the infer dir again
    after an infer in the pipeline's other mode. Out dirs are given
    relative to tmp_path, the working dir, as export-embeddings writes its
    scaler's dir into summary.txt; a prepared manifest corpus names its
    files by absolute path, so tmp_path is hashed as "<tmp>"."""
    digests = {}
    tmp = str(tmp_path.resolve()).encode("utf-8")

    def record(label: str, root: Path) -> None:
        for path in sorted(root.rglob("*")):
            if path.is_file():
                data = path.read_bytes().replace(tmp, b"<tmp>")
                digests[f"{label}/{path.relative_to(root).as_posix()}"] = hashlib.sha256(data).hexdigest()

    write_precomputed_corpora(tmp_path)
    for label, (text, commands, mode) in PIPELINES.items():
        config, out = write_recipe(tmp_path, text, name=f"{label}.cfg"), Path(label)
        for command in commands:
            assert main([*command.split(), "--config", str(config), "--out", str(out)]) == 0, command
        record(label, out)
        assert main(["infer", "--config", str(config), "--out", str(out), "--inference", mode]) == 0, mode
        record(f"{label} infer {mode}", out / "infer")
    return digests


def test_every_output_file_matches_the_golden_table(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = output_digests(tmp_path)
    major = f"numpy {np.__version__.split('.')[0]}"
    tables = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if major not in tables:
        with capsys.disabled():
            print(f"\n{json.dumps({major: got}, indent=1, sort_keys=True)}")
        pytest.skip(f"golden_digests.json has no table for {major}; the table this run computed is printed above")
    want = tables[major]
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not moved, f"{len(moved)} of {len(want)} files moved:\n" + "\n".join(moved)
