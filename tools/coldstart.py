"""Cold start as a shell user pays it: each command in its own interpreter.

    python tools/coldstart.py --tree parent=../sqkit-parent --tree change=. \\
        --recipe tier1 --recipe score-many --runs 5 --json coldstart.json

Per recipe and run, each tree (taking turns to go first) times ``import
sqkit.cli`` in a fresh interpreter, then prepare, train, infer and benchmark
on a fresh out dir, each run as ``python -m sqkit.cli`` runs it. It records
wall seconds, each process's own peak RSS (Linux VmHWM; ``<command>_peak_rss_mb``
and their maximum, ``pipeline_peak_rss_mb``), its minor page faults (from
the child's rusage) and the output tree's sha256, and reports per tree the
median and quartiles. ``tier1`` is
tests/test_cli.py's BASE_RECIPE; other names are perfbench workloads at full
size, seed 1. Only PYTHONPATH differs between trees.
"""

import argparse
import ast
import collections
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import COMMANDS, WORKLOADS, write_knn_inputs  # noqa: E402

# Prefix of every child's code: at exit, write its peak RSS in kB to argv[1].
# ru_maxrss would not do: across exec it keeps the peak of the spawning process.
PEAK = """import atexit, runpy, sys
def peak(path=sys.argv[1]):
    with open("/proc/self/status") as fh, open(path, "w") as out:
        out.write(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
atexit.register(peak)
"""


def recipe_for(name: str, work: Path) -> tuple[str, dict]:
    """Recipe text and per-command flags; writes any inputs it needs under work."""
    if name == "tier1":
        tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
        assigns = (n for n in tree.body if isinstance(n, ast.Assign) and isinstance(n.targets[0], ast.Name))
        return ast.literal_eval(next(n.value for n in assigns if n.targets[0].id == "BASE_RECIPE")), {}
    workload = WORKLOADS[name](1, "full")
    if workload.knn_inputs is not None:
        write_knn_inputs(work / "inputs", **workload.knn_inputs)
    return workload.recipe, workload.command_args


def run(tree: Path, code: str, cwd: Path) -> tuple[float, float, int]:
    """Wall seconds, peak RSS (MB) and minor page faults of code in a fresh
    interpreter on tree's src."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    # Children are run one at a time, so the waited-for children's fault
    # count grows by exactly this child's own.
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", PEAK + code, "peak_kb"], cwd=cwd, env=env, stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    if proc.returncode:
        raise SystemExit(f"{code!r} on {tree} exited {proc.returncode}")
    return elapsed, int((cwd / "peak_kb").read_text()) / 1024, faults


def tree_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(f"{path.relative_to(out)}\0{path.stat().st_size}\0".encode() + path.read_bytes())
    return digest.hexdigest()


def stats(runs: list[float]) -> dict:
    q1, median, q3 = (round(float(q), 4) for q in np.percentile(runs, [25, 50, 75]))
    return {"median": median, "q1": q1, "q3": q3, "runs": [round(r, 4) for r in runs]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True, help="label=checkout, repeatable")
    parser.add_argument("--recipe", action="append", required=True, help="tier1 or a perfbench workload")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--json", type=Path, required=True)
    args = parser.parse_args()
    trees = {label: Path(path).resolve() for label, path in (t.split("=", 1) for t in args.tree)}
    result = {"python": sys.version.split()[0], "nproc": os.cpu_count(), "runs": args.runs, "recipes": {}}
    for name in args.recipe:
        samples = {label: collections.defaultdict(list) for label in trees}
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            text, flags = recipe_for(name, work)
            (work / "recipe.cfg").write_text(text, encoding="utf-8")
            for i in range(args.runs):
                for label in list(trees)[:: 1 if i % 2 == 0 else -1]:
                    got, tree = samples[label], trees[label]
                    imported = run(tree, "import sqkit.cli", work)
                    for key, value in zip(("import_s", "import_peak_rss_mb", "import_minflt"), imported):
                        got[key].append(value)
                    shutil.rmtree(work / "out", ignore_errors=True)
                    for command in COMMANDS:
                        argv = ["sqkit", command, "--config", "recipe.cfg", "--out", "out", *flags.get(command, ())]
                        code = f"sys.argv[:] = {argv!r}\nrunpy.run_module('sqkit.cli', run_name='__main__', alter_sys=True)"
                        seconds, rss, faults = run(tree, code, work)
                        got[f"{command}_s"].append(seconds)
                        got[f"{command}_minflt"].append(faults)
                        got[f"{command}_peak_rss_mb"].append(rss)
                    got["pipeline_s"].append(sum(got[f"{command}_s"][-1] for command in COMMANDS))
                    got["pipeline_peak_rss_mb"].append(max(got[f"{command}_peak_rss_mb"][-1] for command in COMMANDS))
                    got["digests"].append(tree_digest(work / "out"))
        result["recipes"][name] = {
            label: {key: sorted(set(v)) if key == "digests" else stats(v) for key, v in got.items()}
            for label, got in samples.items()
        }
    args.json.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
