"""sqkit benchmark: the CLI pipeline timed end to end, traced per layer.

    python3 perfbench/run.py --workload train-alignnet --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src. Each
repetition runs ``prepare``, ``train``, ``infer`` and ``benchmark`` in a
fresh child process (forked by pipeline.py) on a fresh output directory,
one command after the other. Repetitions continue while another fits in
``--seconds``. End-to-end times are medians over repetitions of each
command's wall time normalized to nominal host speed (see
pipeline.SpeedProbe). ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones plus
the tracing overhead. Every repetition's outputs are checked (exit codes,
utt_lcc floor, output digest, kNN reference, exact counts).

The last stdout line is one JSON object: correct, attempted, failed,
metrics. Exit status is 0 when that line was printed, 2 when the
benchmark could not run at all.
"""

from __future__ import annotations

import os

# Cap BLAS threads at the usable cores before numpy loads; children
# inherit the cap.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = NPROC
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import COMMANDS, KNN_K, KNN_TEMPERATURE, KNN_SHIFTS, WORKLOADS, write_knn_inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

# name -> (unit, better); ops_failed_ratio is printed but carried in the
# result line by attempted/failed, since it is 0 on a healthy run.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_s": ("s", "lower"),
    "train_steps_per_s": ("steps/s", "higher"),
    "infer_s": ("s", "lower"),
    "infer_utts_per_s": ("utts/s", "higher"),
    "benchmark_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "utt_lcc": ("corr", "higher"),
}

PER_LAYER = {**tracer.LAYER_METRICS, "trace.overhead_ratio": ("ratio", "lower")}

# An untraced repetition is two fresh children of the repetition server:
# one runs the pipeline once, the other times a set-up into a scratch
# directory. No command runs twice in one process, so a per-process cache
# a later change adds cannot make a rerun look faster than a user's first
# run. A traced repetition runs only the pipeline.
SETUP_PLAN = ("prepare*",)
CHILD_TIMEOUT_S = 100
KNN_CHECK_QUERIES = 40
KNN_TOLERANCE = 1e-9

# Which layer each workload isolates: the spans behind a per-layer metric
# and the command whose wall time they should dominate. Every traced run
# reports all three shares, so a workload's control role shows too.
ISOLATION = {
    "train-alignnet": ("model.backward_s", ("model.head_backward", "model.alignnet_backward"), "train"),
    "score-many": ("frontend.featurize_s", ("frontend.featurize",), "benchmark"),
    "knn-retrieval": ("inference.retrieve_s", ("inference.retrieve_neighbors",), "infer"),
}


class Ledger:
    """Counts operations attempted and failed, keeping failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def code_hash() -> str:
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(args, workload: str) -> dict:
    def git(*cmd: str) -> str | None:
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True, text=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    # A checkout that is not itself a git work tree records no commit, even
    # when it sits inside another repository.
    top = git("rev-parse", "--show-toplevel")
    commit = git("rev-parse", "HEAD") if top and Path(top).resolve() == ROOT else None
    status = git("status", "--porcelain", "--", "src", HERE.name) if commit else None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": args.seed,
        "size": args.size,
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "code_hash": code_hash(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
    }


class Server:
    """The repetition server (pipeline.py): one process that imports sqkit
    from ./src once and forks a fresh child for every repetition."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "pipeline.py"), str(ROOT / "src")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )

    def request(self, spec_path: Path) -> str:
        self.proc.stdin.write(f"{spec_path}\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().strip()
        if not reply:
            raise RuntimeError(f"repetition server exited {self.proc.wait()}")
        return reply

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_process(server: Server, workload, rep_dir: Path, recipe: Path, plan: tuple[str, ...],
                traced: bool) -> dict:
    """Run ``plan`` in one fresh child; returns its result record."""
    rep_dir.mkdir(parents=True, exist_ok=True)
    spec = {
        "recipe": str(recipe),
        "out": str(rep_dir / "out"),
        "plan": list(plan),
        "command_args": workload.command_args,
        "trace": traced,
        "trace_file": str(rep_dir / "trace.json"),
        "result": str(rep_dir / "result.json"),
        "log": str(rep_dir / "child.log"),
        "timeout_s": CHILD_TIMEOUT_S,
    }
    (rep_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    start = time.perf_counter()
    status = server.request(rep_dir / "spec.json")
    wall = time.perf_counter() - start
    if status != "0":
        tail = (rep_dir / "child.log").read_text(encoding="utf-8")[-2000:]
        raise RuntimeError(f"repetition process exited {status}:\n{tail}")
    result = json.loads((rep_dir / "result.json").read_text(encoding="utf-8"))
    result["wall"] = wall
    if traced:
        result["spans"] = json.loads((rep_dir / "trace.json").read_text(encoding="utf-8"))
    return result


def check_repetition(workload, rep_dir: Path, result: dict, ledger: Ledger) -> dict:
    """Checks on one repetition's outputs; returns its derived values."""
    out = rep_dir / "out"
    for command, code in result["exit_codes"].items():
        ledger.check(code == 0, f"{command} exited {code}")
    if any(code != 0 for code in result["exit_codes"].values()):
        return {}
    digest, missing = checks.output_digest(out)
    ledger.check(not missing, f"outputs missing: {missing}")
    lcc = checks.mean_utt_lcc(out)
    ledger.check(lcc is not None, "utt_lcc is undefined")
    if workload.lcc_floor is not None:
        ledger.check(lcc is not None and lcc >= workload.lcc_floor,
                     f"utt_lcc {lcc} below the workload floor {workload.lcc_floor}")
    return {
        "digest": digest,
        "utt_lcc": lcc,
        "steps": checks.steps_run(out),
        "rows": checks.prediction_rows(out),
    }


def run_workload(name: str, args) -> dict:
    workload = WORKLOADS[name](args.seed, args.size)
    ledger = Ledger()
    work = WORK / f"run-{os.getpid()}-{name}"
    WORK.mkdir(parents=True, exist_ok=True)
    remove_tree(work)
    work.mkdir()
    try:
        if workload.knn_inputs is not None:
            write_knn_inputs(work / "inputs", **workload.knn_inputs)
        recipe = work / "recipe.cfg"
        recipe.write_text(workload.recipe + "\n", encoding="utf-8")
        server = Server()
        try:
            return measure(server, workload, work, recipe, args, ledger)
        finally:
            server.close()
    finally:
        remove_tree(work)


def remove_tree(path: Path) -> None:
    """Delete ``path`` and commit the deletion before returning.

    On the reference machine's file system (ext4 mounted with
    ``discard``), deleted files slow later writes several times over, for
    seconds, until the journal commits; a corpus written then would time
    the file system, not sqkit. The fsync of the parent directory commits
    the journal now, before the next timed command writes. Each
    repetition's outputs are deleted once checked, so they never pile up
    into the kernel's background writeback either.
    """
    shutil.rmtree(path, ignore_errors=True)
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def measure(server: Server, workload, work: Path, recipe: Path, args, ledger: Ledger) -> dict:
    plain: list[dict] = []
    traced: list[dict] = []
    digests: set[str] = set()
    counts: dict | None = None
    knn_checked = None
    min_reps = 2 if args.trace or args.size == "full" else 1
    start = time.perf_counter()
    rep = 0
    while True:
        done_reps = len(plain) + len(traced)
        if done_reps >= min_reps:
            typical = statistics.median(r["wall"] for r in plain + traced)
            if time.perf_counter() - start + typical > args.seconds:
                break
        trace_this = bool(args.trace) and rep % 2 == 1
        rep_dir = work / f"rep{rep}"
        try:
            result = run_process(server, workload, rep_dir, recipe, COMMANDS, trace_this)
            if not trace_this:
                setup = run_process(server, workload, rep_dir, recipe, SETUP_PLAN, False)
                result["times"]["prepare"] += setup["times"]["prepare"]
                result["speeds"]["prepare"] += setup["speeds"]["prepare"]
                result["exit_codes"].update({f"setup {k}": v for k, v in setup["exit_codes"].items()})
                result["wall"] += setup["wall"]
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            ledger.check(False, f"repetition {rep}: {exc}")
            break
        values = check_repetition(workload, rep_dir, result, ledger)
        if not values:
            break
        result.update(values)
        digests.add(values["digest"])
        ledger.check(len(digests) == 1, f"repetition {rep}: output digest differs from an earlier repetition")
        if workload.knn_inputs is not None and knn_checked is None:
            try:
                knn_checked = checks.knn_reference(
                    work / "inputs", rep_dir / "out", tuple(KNN_SHIFTS), "knnq", KNN_K, KNN_TEMPERATURE,
                    KNN_CHECK_QUERIES, args.seed)
                ledger.check(knn_checked[1] <= KNN_TOLERANCE,
                             f"kNN reference differs from predictions.csv by {knn_checked[1]!r}")
            except (OSError, KeyError, ValueError) as exc:
                ledger.check(False, f"kNN reference could not run: {exc!r}")
        if trace_this:
            result["layers"] = tracer.layer_metrics(result["spans"], workload.corpora)
            result["isolation"] = isolation_shares(result)
            del result["spans"]
            exact = {k: result["layers"][k] for k in tracer.EXACT_METRICS}
            if counts is None:
                counts = exact
            ledger.check(exact == counts, f"repetition {rep}: counts differ from the first traced repetition")
            ledger.check(not result["trace_missing"], f"trace sites missing: {result['trace_missing']}")
            traced.append(result)
        else:
            plain.append(result)
        remove_tree(rep_dir)
        rep += 1
    return {"plain": plain, "traced": traced, "digest": next(iter(digests)) if len(digests) == 1 else None,
            "counts": counts, "knn_checked": knn_checked, "ledger": ledger}


def isolation_shares(result: dict) -> dict[str, float]:
    """Share of each ISOLATION command's wall time spent in its spans."""
    shares = {}
    for metric, spans, command in ISOLATION.values():
        seconds = sum(tracer.command_totals(result["spans"], s).get(command, 0.0) for s in spans)
        shares[f"{metric}/{command}_s"] = seconds / result["times"][command][0]
    return shares


def normalized(result: dict, command: str) -> list[float]:
    """A repetition's samples of ``command`` in seconds at nominal host
    speed: wall time times the probed speed (pipeline.SpeedProbe)."""
    return [t * s for t, s in zip(result["times"][command], result["speeds"][command])]


def end_to_end(plain: list[dict]) -> dict[str, float]:
    """Medians over every normalized sample of the untraced repetitions."""

    def med(command: str) -> float:
        return float(statistics.median(t for r in plain for t in normalized(r, command)))

    setup, train, infer, bench = (med(c) for c in COMMANDS)
    first = plain[0]
    metrics = {
        "setup_s": setup,
        "train_s": train,
        "train_steps_per_s": first["steps"] / train,
        "infer_s": infer,
        "infer_utts_per_s": first["rows"] / infer,
        "benchmark_s": bench,
        "pipeline_s": float(statistics.median(sum(normalized(r, c)[0] for c in COMMANDS[1:]) for r in plain)),
        "peak_rss_mb": float(statistics.median(r["peak_rss_mb"] for r in plain)),
        "utt_lcc": first["utt_lcc"],
    }
    # an undefined utt_lcc has already failed its check; it has no value
    return {k: metrics[k] for k in END_TO_END if metrics[k] is not None}


def persistent_check(key: str, digest: str | None, counts: dict | None, ledger: Ledger) -> None:
    """Compare with what earlier invocations of the same code, workload and
    seed recorded in the checkout, then record this one."""
    store_path = WORK / "digests.json"
    try:
        store = json.loads(store_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        store = {}
    entry = store.setdefault(key, {})
    if digest is not None:
        ledger.check(entry.setdefault("digest", digest) == digest,
                     "output digest differs from an earlier invocation with the same code and seed")
    if counts is not None:
        ledger.check(entry.setdefault("counts", counts) == counts,
                     "per-layer counts differ from an earlier invocation with the same code and seed")
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, store_path)


def report(name: str, args, run: dict) -> dict:
    ledger: Ledger = run["ledger"]
    env = environment(args, name)
    persistent_check(f"{name}|{args.size}|{args.seed}|{env['code_hash']}", run["digest"], run["counts"], ledger)
    plain, traced = run["plain"], run["traced"]
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    if plain:
        metrics.update(end_to_end(plain))
        units.update({k: u for k, (u, _) in END_TO_END.items()})
    overhead = None
    if traced:
        for key in tracer.LAYER_METRICS:
            metrics[key] = float(statistics.median(r["layers"][key] for r in traced))
            units[key] = tracer.LAYER_METRICS[key][0]
        if plain:
            def pipeline(reps: list[dict]) -> float:
                return sum(statistics.median(t for r in reps for t in normalized(r, c)) for c in COMMANDS)

            overhead = pipeline(traced) / pipeline(plain) - 1.0
            metrics["trace.overhead_ratio"] = overhead
            units["trace.overhead_ratio"] = "ratio"
    failed = len(ledger.failures)
    attempted = max(ledger.attempted, 1)
    env.update({
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "trace_overhead_ratio": overhead,
        "digest": run["digest"],
    })

    print(f"== {name} (seed {args.seed}, {args.size}) ==")
    for key, value in metrics.items():
        print(f"{key:36s} {value:16.6f} {units[key]}")
    print(f"{'ops_failed_ratio':36s} {failed / attempted:16.6f} ratio")
    for command in COMMANDS if plain else ():
        walls = [t for r in plain for t in r["times"][command]]
        speeds = [s for r in plain for s in r["speeds"][command]]
        print(f"wall {command:10s} median {statistics.median(walls):.3f} s, probed speed median "
              f"{statistics.median(speeds):.3f} ({min(speeds):.3f}-{max(speeds):.3f})")
    if run["knn_checked"] is not None:
        n, worst = run["knn_checked"]
        print(f"knn reference: {n} queries, max |diff| {worst:.3e} (tolerance {KNN_TOLERANCE:g})")
    for ratio in traced[0]["isolation"] if traced else ():
        share = statistics.median(r["isolation"][ratio] for r in traced)
        print(f"share {ratio:40s} {share:8.1%}")
    for message in ledger.failures:
        print(f"FAILED: {message}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "environment": env,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "isolation": [r["isolation"] for r in traced],
        "samples": {"untraced": [r["times"] for r in plain], "traced": [r["times"] for r in traced]},
        "speeds": {"untraced": [r["speeds"] for r in plain], "traced": [r["speeds"] for r in traced]},
        "failures": ledger.failures,
        "attempted": attempted,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}-seed{args.seed}-{args.size}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long run for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sqkit" / "cli.py").is_file():
        print(f"error: no sqkit source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: report(name, args, run_workload(name, args)) for name in names}
    metric_prefix = len(names) > 1
    line = {
        "correct": all(not r["failures"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(len(r["failures"]) for r in results.values()),
        "metrics": {
            (f"{name}.{key}" if metric_prefix else key): value
            for name, r in results.items()
            for key, value in r["metrics"].items()
            if key in (PER_LAYER if args.trace else END_TO_END)
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
