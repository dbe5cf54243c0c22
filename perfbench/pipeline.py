"""Repetitions of a workload: prepare, train, infer, benchmark.

    python3 perfbench/pipeline.py SRC_DIR

Imports sqkit from SRC_DIR once, then serves repetitions. Each line on
stdin names a SPEC.json; the server forks a child for it and answers
with one line, the child's exit status or ``timeout``. The child runs
the plan's commands through ``sqkit.cli.main``, one after the other (a
closed loop with a single client), and writes the result file.

Every child is forked from a process that imported sqkit but never ran a
command. It therefore starts as a fresh process would: no cache of an
earlier repetition and a peak resident memory of its own. It skips the
second-long import of scipy a fresh interpreter would pay, so a run fits
several times more repetitions. The server runs no thread of its own at
a fork: OpenBLAS, the only library that starts threads here, stops its
pool before a fork (pthread_atfork) and each child starts it again.

SPEC.json names the recipe, output directory, extra command flags, the
plan (the commands in order; ``prepare*`` times a set-up into a scratch
directory beside the output directory), whether to trace, the log, and
the result file to write. A child exits 0 when the result file was
written; command failures are reported in it, not through the exit
status.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import select
import signal
import sys
import time
import traceback
from pathlib import Path

import numpy as np

# The speed probe: a fixed burst of small matrix products, the kind of
# numpy call sqkit's per-sample loops make, and of elementwise passes over
# an audio-sized vector, the kind its corpus generator and DSP make.
# PROBE_NOMINAL_S is its median duration on the reference machine (2 vCPUs
# of an Intel Xeon Sapphire Rapids host), so a normalized time reads close
# to a typical wall time there.
PROBE_INTERVAL_S = 0.01
PROBE_NOMINAL_S = 2.0e-4
_PROBE_M = np.linspace(-1.0, 1.0, 1000).reshape(20, 50)
_PROBE_V = np.linspace(0.0, 1.0, 4096)


class SpeedProbe:
    """Samples how fast the host runs this process while a command runs.

    The reference machine's shared host runs a vCPU up to 1.6x slower
    for fractions of a second to minutes at a time. A wall-clock
    timer (SIGALRM) runs the probe every PROBE_INTERVAL_S of wall time,
    between two bytecodes of the command, and once before and after it.
    A command's work at nominal speed is its wall time times the mean of
    PROBE_NOMINAL_S / probe duration: each probe gives the speed of the
    moment it samples. The probes add about 2% to the wall time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def probe(self, *_signal_args) -> None:
        start = time.perf_counter()
        for _ in range(10):
            (_PROBE_M @ _PROBE_M.T).sum()
        np.sin(_PROBE_V).sum()
        np.sqrt(_PROBE_V).sum()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def speed(self) -> float:
        """Mean speed during the command, 1.0 being nominal."""
        return sum(PROBE_NOMINAL_S / t for t in self.samples) / len(self.samples)


def run(spec: dict) -> dict:
    import sqkit.cli

    out = Path(spec["out"])
    config = spec["recipe"]

    def cli(command: str, out_dir: Path) -> int:
        argv = [command, "--config", config, "--out", str(out_dir), *spec["command_args"].get(command, ())]
        return sqkit.cli.main(argv)

    tracer = None
    if spec["trace"]:
        from tracer import Tracer  # this script's directory is on sys.path

        tracer = Tracer()
        tracer.install()

    exit_codes: dict[str, int] = {}
    times: dict[str, list[float]] = {}
    speeds: dict[str, list[float]] = {}
    probe = SpeedProbe()
    for i, command in enumerate(spec["plan"]):
        # "prepare*" is a set-up sample into a scratch directory
        scratch = command.endswith("*")
        command = command.rstrip("*")
        out_dir = out.parent / f"{out.name}-setup{i}" if scratch else out
        gc.collect()
        with probe:
            start = time.perf_counter()
            if tracer is None:
                code = cli(command, out_dir)
            else:
                code = tracer.call("cli.main", cli, (command, out_dir), attrs=lambda a, k, r: {"command": a[0]})
            wall = time.perf_counter() - start
        times.setdefault(command, []).append(wall)
        speeds.setdefault(command, []).append(probe.speed())
        exit_codes[f"{i}:{command}"] = code

    result = {
        "times": times,
        "speeds": speeds,
        "exit_codes": exit_codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace_missing"] = tracer.missing
        with open(spec["trace_file"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return result


def fork_repetition(spec: dict) -> str:
    """Run ``spec`` in a forked child; returns its exit status or "timeout"."""
    log = os.open(spec["log"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.dup2(log, 1)
            os.dup2(log, 2)
            result = run(spec)
            Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
            code = 0
        except BaseException:  # a forked child must never return to the server loop
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(log)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], spec["timeout_s"])
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    finally:
        os.close(pidfd)
    return str(os.waitstatus_to_exitcode(status)) if ready else "timeout"


def serve(src: Path) -> None:
    sys.path.insert(0, str(src))
    import sqkit.cli
    import tracer  # noqa: F401  (imported here so traced children do not pay for it)

    if not Path(sqkit.cli.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"imported sqkit from {sqkit.cli.__file__}, not from {src}")
    for line in sys.stdin:
        spec = json.loads(Path(line.strip()).read_text(encoding="utf-8"))
        print(fork_repetition(spec), flush=True)


if __name__ == "__main__":
    serve(Path(sys.argv[1]).resolve())
