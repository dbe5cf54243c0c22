"""Spans around sqkit's public functions, wrapped at their import sites.

The tracer replaces a module attribute (for example
``sqkit.training.alignnet_backward``, the name ``train`` looks up on each
step) with a wrapper that records one span per call: name, start, end,
parent span and a few attributes such as the frame count. Spans stay in
memory and are written out once the traced run ends. Only traced runs
install it; timed runs call sqkit unwrapped.

``layer_metrics`` turns a span list into the per-layer metrics. A span's
self time is its duration minus the durations of its direct children;
sqkit is single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter
from typing import Callable

import numpy as np

SPAN_NAME, SPAN_START, SPAN_END, SPAN_PARENT, SPAN_ATTRS = range(5)


def _frames(args, kwargs, result):
    return {"frames": int(args[1].shape[0])}


def _featurize(args, kwargs, result):
    sample, config = args[0], args[1]
    ref = sample.audio_ref if sample.audio_ref is not None else sample.embedding_ref
    return {"key": f"{ref}|{config!r}", "frames": int(result.n_frames)}


def _file_size(path_arg: int) -> Callable:
    def attrs(args, kwargs, result):
        return {"bytes": os.path.getsize(args[path_arg])}
    return attrs


def _records(args, kwargs, result):
    return {"records": len(result)}


def _steps(args, kwargs, result):
    return {"steps": int(result.steps_run)}


# (module, attribute, span name, attribute extractor). The span name is the
# defining module and function; the module is where the caller looks it up.
SITES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("sqkit.cli", "get_corpora", "cli.get_corpora", None),
    ("sqkit.cli", "generate_synthetic_corpus", "corpus.generate_synthetic_corpus", None),
    ("sqkit.cli", "load_manifest", "corpus.load_manifest", None),
    ("sqkit.corpus", "load_manifest", "corpus.load_manifest", None),
    ("sqkit.frontend", "write_wav", "frontend.write_wav", _file_size(0)),
    ("sqkit.frontend", "load_audio", "frontend.load_audio", None),
    ("sqkit.frontend", "resample_to_16k", "frontend.resample_to_16k", None),
    ("sqkit.frontend", "extract_dsp", "frontend.extract_dsp", None),
    ("sqkit.frontend", "load_precomputed", "frontend.load_precomputed", None),
    ("sqkit.training", "featurize", "frontend.featurize", _featurize),
    ("sqkit.inference", "featurize", "frontend.featurize", _featurize),
    ("sqkit.cli", "train", "training.train", _steps),
    ("sqkit.training", "predict_clipped", "training.predict_clipped", None),
    ("sqkit.training", "head_backward", "model.head_backward", _frames),
    ("sqkit.training", "alignnet_backward", "model.alignnet_backward", _frames),
    ("sqkit.training", "head_raw", "model.head_raw", None),
    ("sqkit.training", "alignnet_raw", "model.alignnet_raw", None),
    ("sqkit.inference", "head_raw", "model.head_raw", None),
    ("sqkit.inference", "alignnet_raw", "model.alignnet_raw", None),
    ("sqkit.training", "save_params", "model.save_params", None),
    ("sqkit.cli", "save_params", "model.save_params", None),
    ("sqkit.cli", "load_params", "model.load_params", None),
    ("sqkit.cli", "build_datastore", "inference.build_datastore", _records),
    ("sqkit.cli", "predict_split", "inference.predict_split", None),
    ("sqkit.cli", "save_datastore", "inference.save_datastore", _file_size(0)),
    ("sqkit.inference", "retrieve_neighbors", "inference.retrieve_neighbors", None),
    ("sqkit.cli", "mse", "metrics.mse", None),
    ("sqkit.cli", "pearson", "metrics.pearson", None),
    ("sqkit.cli", "spearman", "metrics.spearman", None),
    ("sqkit.cli", "system_aggregate", "metrics.system_aggregate", None),
    ("sqkit.training", "pearson", "metrics.pearson", None),
    ("sqkit.training", "spearman", "metrics.spearman", None),
    ("sqkit.training", "system_aggregate", "metrics.system_aggregate", None),
)

METRIC_SPANS = ("metrics.mse", "metrics.pearson", "metrics.spearman", "metrics.system_aggregate")


class Tracer:
    """Records spans as [name, start, end, parent index, attrs] lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, Callable]] = []

    def call(self, name: str, fn: Callable, args=(), kwargs=None, attrs: Callable | None = None):
        kwargs = kwargs or {}
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(span)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[SPAN_END] = time.perf_counter()
            span[SPAN_START] = start
            self._stack.pop()
        if attrs is not None:
            span[SPAN_ATTRS] = attrs(args, kwargs, result)
        return result

    def install(self, sites=SITES) -> None:
        """Wrap every site; a site that no longer exists is recorded in
        ``missing`` so a renamed function shows up instead of reading 0."""
        for module_name, attr, name, attrs in sites:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue

            def wrapper(*args, _fn=fn, _name=name, _attrs=attrs, **kwargs):
                return self.call(_name, _fn, args, kwargs, _attrs)

            setattr(module, attr, wrapper)
            self._installed.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()


def self_times(spans: list[list]) -> list[float]:
    out = [s[SPAN_END] - s[SPAN_START] for s in spans]
    for s in spans:
        if s[SPAN_PARENT] >= 0:
            out[s[SPAN_PARENT]] -= s[SPAN_END] - s[SPAN_START]
    return out


def _pct_ms(durations: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(durations), q) * 1e3) if durations else 0.0


# Per-layer metric name -> (unit, better). Counts are marked so the
# self-check can require them to repeat exactly.
LAYER_METRICS = {
    "model.backward_calls": ("count", "lower"),
    "model.backward_frames": ("count", "lower"),
    "model.backward_s": ("s", "lower"),
    "model.backward_us_per_frame": ("us/frame", "lower"),
    "model.forward_calls": ("count", "lower"),
    "model.forward_s": ("s", "lower"),
    "model.ckpt_io_s": ("s", "lower"),
    "training.steps": ("count", "higher"),
    "training.train_s": ("s", "lower"),
    "training.self_s": ("s", "lower"),
    "training.dev_eval_s": ("s", "lower"),
    "training.ckpt_writes": ("count", "lower"),
    "frontend.featurize_calls": ("count", "lower"),
    "frontend.featurize_s": ("s", "lower"),
    "frontend.featurize_unique_ratio": ("ratio", "higher"),
    "frontend.load_audio_s": ("s", "lower"),
    "frontend.resample_s": ("s", "lower"),
    "frontend.extract_dsp_s": ("s", "lower"),
    "frontend.extract_dsp_ms_p50": ("ms", "lower"),
    "frontend.extract_dsp_ms_p99": ("ms", "lower"),
    "frontend.frames_out": ("count", "lower"),
    "frontend.load_precomputed_calls": ("count", "lower"),
    "frontend.load_precomputed_s": ("s", "lower"),
    "corpus.generate_calls": ("count", "lower"),
    "corpus.generate_per_corpus": ("ratio", "lower"),
    "corpus.generate_s": ("s", "lower"),
    "corpus.wav_bytes_written": ("bytes", "lower"),
    "corpus.load_manifest_s": ("s", "lower"),
    "inference.build_datastore_calls": ("count", "lower"),
    "inference.build_datastore_s": ("s", "lower"),
    "inference.datastore_records": ("count", "lower"),
    "inference.retrieve_calls": ("count", "lower"),
    "inference.retrieve_s": ("s", "lower"),
    "inference.retrieve_ms_p50": ("ms", "lower"),
    "inference.retrieve_ms_p99": ("ms", "lower"),
    "inference.predict_split_s": ("s", "lower"),
    "inference.save_datastore_s": ("s", "lower"),
    "inference.datastore_bytes": ("bytes", "lower"),
    "metrics.calls": ("count", "lower"),
    "metrics.s": ("s", "lower"),
    "cli.get_corpora_calls": ("count", "lower"),
    "cli.get_corpora_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
}

# Counts and ratios of counts: identical inputs must give identical values.
EXACT_METRICS = tuple(
    name for name, (unit, _) in LAYER_METRICS.items() if unit in ("count", "bytes", "ratio")
)


def layer_metrics(spans: list[list], n_corpora: int) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run."""
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[SPAN_NAME], []).append(i)
    self_s = self_times(spans)

    def idx(*names: str) -> list[int]:
        return [i for n in names for i in by_name.get(n, [])]

    def dur(i: int) -> float:
        return spans[i][SPAN_END] - spans[i][SPAN_START]

    def total(*names: str) -> float:
        return float(sum(dur(i) for i in idx(*names)))

    def attr_sum(key: str, *names: str) -> int:
        return int(sum(spans[i][SPAN_ATTRS][key] for i in idx(*names)))

    def under(i: int, name: str) -> bool:
        parent = spans[i][SPAN_PARENT]
        return parent >= 0 and spans[parent][SPAN_NAME] == name

    backward = ("model.head_backward", "model.alignnet_backward")
    backward_frames = attr_sum("frames", *backward)
    featurize = idx("frontend.featurize")
    dsp = [dur(i) for i in idx("frontend.extract_dsp")]
    retrieve = [dur(i) for i in idx("inference.retrieve_neighbors")]
    metric_calls = idx(*METRIC_SPANS)
    generate_calls = len(idx("corpus.generate_synthetic_corpus"))
    dev_eval = [i for i in idx("training.predict_clipped", *METRIC_SPANS) if under(i, "training.train")]
    out = {
        "model.backward_calls": len(idx(*backward)),
        "model.backward_frames": backward_frames,
        "model.backward_s": total(*backward),
        "model.backward_us_per_frame": total(*backward) / backward_frames * 1e6 if backward_frames else 0.0,
        "model.forward_calls": len(idx("model.head_raw", "model.alignnet_raw")),
        "model.forward_s": total("model.head_raw", "model.alignnet_raw"),
        "model.ckpt_io_s": total("model.save_params", "model.load_params"),
        "training.steps": attr_sum("steps", "training.train"),
        "training.train_s": total("training.train"),
        "training.self_s": float(sum(self_s[i] for i in idx("training.train"))),
        "training.dev_eval_s": float(sum(dur(i) for i in dev_eval)),
        "training.ckpt_writes": sum(1 for i in idx("model.save_params") if under(i, "training.train")),
        "frontend.featurize_calls": len(featurize),
        "frontend.featurize_s": total("frontend.featurize"),
        "frontend.featurize_unique_ratio": (
            len({spans[i][SPAN_ATTRS]["key"] for i in featurize}) / len(featurize) if featurize else 0.0
        ),
        "frontend.load_audio_s": total("frontend.load_audio"),
        "frontend.resample_s": total("frontend.resample_to_16k"),
        "frontend.extract_dsp_s": float(sum(dsp)),
        "frontend.extract_dsp_ms_p50": _pct_ms(dsp, 50),
        "frontend.extract_dsp_ms_p99": _pct_ms(dsp, 99),
        "frontend.frames_out": attr_sum("frames", "frontend.featurize"),
        "frontend.load_precomputed_calls": len(idx("frontend.load_precomputed")),
        "frontend.load_precomputed_s": total("frontend.load_precomputed"),
        "corpus.generate_calls": generate_calls,
        "corpus.generate_per_corpus": generate_calls / n_corpora,
        "corpus.generate_s": total("corpus.generate_synthetic_corpus"),
        "corpus.wav_bytes_written": attr_sum("bytes", "frontend.write_wav"),
        "corpus.load_manifest_s": total("corpus.load_manifest"),
        "inference.build_datastore_calls": len(idx("inference.build_datastore")),
        "inference.build_datastore_s": total("inference.build_datastore"),
        "inference.datastore_records": attr_sum("records", "inference.build_datastore"),
        "inference.retrieve_calls": len(retrieve),
        "inference.retrieve_s": float(sum(retrieve)),
        "inference.retrieve_ms_p50": _pct_ms(retrieve, 50),
        "inference.retrieve_ms_p99": _pct_ms(retrieve, 99),
        "inference.predict_split_s": total("inference.predict_split"),
        "inference.save_datastore_s": total("inference.save_datastore"),
        "inference.datastore_bytes": attr_sum("bytes", "inference.save_datastore"),
        "metrics.calls": len(metric_calls),
        "metrics.s": float(sum(dur(i) for i in metric_calls)),
        "cli.get_corpora_calls": len(idx("cli.get_corpora")),
        "cli.get_corpora_s": total("cli.get_corpora"),
        "cli.self_s": float(sum(self_s[i] for i in idx("cli.main"))),
    }
    assert set(out) == set(LAYER_METRICS)
    return out


def command_totals(spans: list[list], name: str) -> dict[str, float]:
    """Seconds spent in spans called ``name``, per enclosing CLI command."""
    commands: dict[int, str] = {}
    for i, s in enumerate(spans):
        if s[SPAN_NAME] == "cli.main":
            commands[i] = s[SPAN_ATTRS]["command"]
    totals: Counter = Counter()
    for s in spans:
        if s[SPAN_NAME] != name:
            continue
        parent = s[SPAN_PARENT]
        while parent >= 0 and parent not in commands:
            parent = spans[parent][SPAN_PARENT]
        if parent >= 0:
            totals[commands[parent]] += s[SPAN_END] - s[SPAN_START]
    return dict(totals)
