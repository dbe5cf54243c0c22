"""Feature extraction: audio I/O, resampling, DSP features, scaling, and
the feature store that keeps a split's DSP features between commands.

Feature extraction is a pure function of its inputs, so it can be stored
or parallelized freely. The built-in DSP frontend stands in
for heavier learned feature extractors: any (T, D) matrix with a declared
dimensionality works downstream, whether computed here or loaded from a
precomputed-embedding file.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import logging
import os
import struct
import tempfile
import wave as wave_mod
import zlib
from dataclasses import InitVar, asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .codec import Reader, atomic_open, write_artifact
from .corpus import CorpusManifest, PooledCorpus, Sample
from .errors import AudioFormatError, ValidationError
from .model import Workspace

logger = logging.getLogger(__name__)

TARGET_RATE_HZ = 16000
MIN_RATE_HZ = 8000  # the lowest input rate resample_to_16k takes
LOG_FLOOR = 1e-10  # extract_dsp's floor under each energy and share before the log

EMBEDDING_MAGIC = b"SQE1"
SCALER_MAGIC = b"SQSC"
FEATURES_MAGIC = b"SQF1"
FEATURES_HEADER = "<32sIII"  # key, utterances, dim, crc32 of the length table

# Rows per block of FeatureScaler.fit's sum of squares: 4096 x 80 float64
# is 2.6 MB, small beside a packed train matrix and large enough that the
# per-block Python overhead does not show.
_FIT_BLOCK_ROWS = 4096

# np.interp and np.fft.rfft take no out argument, so resample_to_16k and
# extract_dsp call them on blocks whose result stays under 127 KiB: glibc
# serves that from reused heap memory, where 128 KiB or more would be a
# fresh mmap faulted in on every call. Each output element depends only on
# its own input row or time, so the blocks give the whole call's bits.
_HEAP_BLOCK_BYTES = 127 * 1024


@dataclass(frozen=True)
class EmbeddingMatrix:
    """What featurize and extract_dsp return: frame-level features, (T, D)
    float64 rows, checked finite unless their maker has. Everything past
    them passes the plain frames array."""

    frames: np.ndarray
    check_finite: InitVar[bool] = True

    def __post_init__(self, check_finite: bool) -> None:
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 1:
            raise ValidationError(f"embedding must be a non-empty 2-D matrix, got shape {frames.shape}")
        if check_finite and not np.isfinite(frames).all():
            raise ValidationError("embedding contains non-finite values")
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return int(self.frames.shape[0])


@dataclass(frozen=True)
class FrontendConfig:
    """How to turn a sample into features.

    kind "dsp" computes log-mel features from audio; "precomputed" loads
    an embedding file per sample (expected_dim, when set, is enforced so a
    corpus cannot silently mix dimensionalities).
    """

    kind: str = "dsp"
    n_mels: int = 40
    window_ms: float = 25.0
    hop_ms: float = 10.0
    expected_dim: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("dsp", "precomputed"):
            raise ValidationError(f"unknown frontend kind {self.kind!r}")
        if self.kind == "dsp" and (self.n_mels < 1 or self.window_ms <= 0 or self.hop_ms <= 0):
            raise ValidationError("dsp parameters must be positive")
        if self.expected_dim is not None and self.expected_dim < 1:
            raise ValidationError(f"expected_dim must be positive, not {self.expected_dim}")

    @property
    def dim(self) -> int:
        if self.kind == "dsp":
            return 2 * self.n_mels
        if self.expected_dim is None:
            raise ValidationError("precomputed frontend needs expected_dim to state its dimensionality")
        return self.expected_dim


def load_audio(path: str | Path, work: Workspace | None = None) -> tuple[np.ndarray, int]:
    """Read a mono PCM WAV file as float64 samples in [-1, 1] plus its rate.
    A file that is not one, or whose header promises more audio than the
    file holds, raises AudioFormatError naming it.

    With work, the samples are its "audio" buffer, valid until the next
    call that takes it; without, a fresh array."""
    with open(path, "rb") as fh:
        try:
            wf = wave_mod.open(fh, "rb")
        except (wave_mod.Error, EOFError) as exc:
            raise AudioFormatError(f"{path}: not a PCM WAV file ({str(exc) or 'truncated header'})") from None
        if wf.getnchannels() != 1:
            raise AudioFormatError(f"{path}: expected mono, got {wf.getnchannels()} channels")
        width, rate, n_frames = wf.getsampwidth(), wf.getframerate(), wf.getnframes()
        promised, held = n_frames * width, os.fstat(fh.fileno()).st_size - fh.tell()
        if promised > held:  # readframes would return the short clip without a word
            raise AudioFormatError(f"{path}: the header promises {promised} bytes of audio, the file holds {held}")
        raw = wf.readframes(n_frames)
    if width == 2:
        pcm, offset, scale = np.frombuffer(raw, dtype="<i2"), 0.0, 32768.0
    elif width == 1:
        pcm, offset, scale = np.frombuffer(raw, dtype=np.uint8), 128.0, 128.0
    else:
        raise AudioFormatError(f"{path}: unsupported sample width {width} bytes")
    samples = (work or Workspace()).take("audio", len(pcm))
    samples[:] = pcm  # exact: float64 holds every 8- and 16-bit PCM value
    if offset:
        samples -= offset
    samples /= scale
    return samples, rate


def write_wav(path: str | Path, samples: np.ndarray, rate_hz: int, work: Workspace | None = None) -> None:
    """Write float samples in [-1, 1] as a 16-bit mono PCM WAV file; with
    work, the quantized copies are its "pcm_float" and "pcm" buffers."""
    samples = np.asarray(samples, dtype=np.float64)
    work = work or Workspace()
    scaled = np.clip(samples, -1.0, 1.0, out=work.take("pcm_float", len(samples)))
    scaled *= 32767.0
    np.rint(scaled, out=scaled)  # np.round with no decimals is rint
    quantized = work.take("pcm", len(samples), dtype=np.dtype("<i2"))
    quantized[:] = scaled
    with wave_mod.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(rate_hz)
        wf.writeframes(quantized)


def resample_to_16k(samples: np.ndarray, rate_hz: int, work: Workspace | None = None) -> np.ndarray:
    """Resample to 16 kHz by linear interpolation; 16 kHz input passes through.

    Output length is round(len * 16000 / rate). Linear interpolation is a
    deliberate quality tradeoff: deterministic and dependency-free, at the
    cost of imperfect anti-aliasing (fine for fixtures and features). With
    work, the output is its "resampled" buffer; without, a fresh array.
    """
    if rate_hz < MIN_RATE_HZ:
        raise ValidationError(f"sample rate {rate_hz} below supported minimum {MIN_RATE_HZ}")
    if rate_hz == TARGET_RATE_HZ:
        return samples
    samples = np.asarray(samples, dtype=np.float64)
    n_out = int(round(len(samples) * TARGET_RATE_HZ / rate_hz))
    if n_out == 0:
        return np.zeros(0, dtype=np.float64)
    work = work or Workspace()
    block = _HEAP_BLOCK_BYTES // 8  # elements of each 8-byte temporary
    t_in = work.take("t_in", len(samples))  # np.arange(len(samples)) / rate_hz
    for start in range(0, len(samples), block):
        stop = min(start + block, len(samples))
        np.divide(np.arange(start, stop), rate_hz, out=t_in[start:stop])
    out = work.take("resampled", n_out)
    for start in range(0, n_out, block):
        stop = min(start + block, n_out)
        out[start:stop] = np.interp(np.arange(start, stop) / TARGET_RATE_HZ, t_in, samples)
    return out


def hz_to_mel(f_hz: np.ndarray | float) -> np.ndarray | float:
    return 2595.0 * np.log10(1.0 + np.asarray(f_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel: np.ndarray | float) -> np.ndarray | float:
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def _mel_points_hz(rate_hz: int, n_mels: int) -> np.ndarray:
    """n_mels + 2 filter edges (Hz), evenly spaced in mel from 0 Hz to Nyquist."""
    return np.asarray(mel_to_hz(np.linspace(0.0, hz_to_mel(rate_hz / 2.0), n_mels + 2)))


def mel_filterbank(n_fft: int, rate_hz: int, n_mels: int) -> np.ndarray:
    """Triangular mel filterbank over rfft bins spanning 0 Hz to Nyquist,
    shape (n_mels, n_fft//2 + 1)."""
    hz_points = _mel_points_hz(rate_hz, n_mels)
    bin_hz = np.arange(n_fft // 2 + 1) * (rate_hz / n_fft)
    fb = np.zeros((n_mels, len(bin_hz)))
    for m in range(n_mels):
        left, center, right = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        rising = (bin_hz - left) / (center - left)
        falling = (right - bin_hz) / (right - center)
        fb[m] = np.maximum(0.0, np.minimum(rising, falling))
    return fb


def mel_center_frequencies(n_mels: int) -> np.ndarray:
    """Center frequency (Hz) of each mel filter at 16 kHz, for interpreting feature bins."""
    return _mel_points_hz(TARGET_RATE_HZ, n_mels)[1:-1]


@functools.lru_cache(maxsize=16)
def _dsp_tables(win: int, n_fft: int, rate_hz: int, n_mels: int) -> tuple[np.ndarray, np.ndarray]:
    """The Hann window and mel filterbank of one frontend shape, built once
    and shared read-only by every extract_dsp call."""
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / win)
    fb = mel_filterbank(n_fft, rate_hz, n_mels)
    window.flags.writeable = False
    fb.flags.writeable = False
    return window, fb


def extract_dsp(samples: np.ndarray, config: FrontendConfig, work: Workspace | None = None) -> EmbeddingMatrix:
    """Frame-level DSP features for a 16 kHz waveform.

    Per frame (Hann window, FFT sized to the next power of two): the D
    columns are n_mels log-mel energies followed by n_mels log band shares
    (energy fraction per band), each floored at LOG_FLOOR before the log,
    so pure silence maps every entry to log(LOG_FLOOR). Utterances shorter
    than one window are reflection-padded up to a single frame. The power spectra, and a block
    of windowed frames at a time, live in work's "power" and "frames"
    buffers; the returned matrix is always a fresh array.
    """
    samples = np.asarray(samples, dtype=np.float64)
    rate = TARGET_RATE_HZ
    win, hop = int(round(config.window_ms * rate / 1000.0)), int(round(config.hop_ms * rate / 1000.0))
    if len(samples) < win:
        deficit = win - len(samples)
        mode = "reflect" if len(samples) > 1 else "edge"
        samples = np.pad(samples, (0, deficit), mode=mode) if len(samples) else np.zeros(win)

    n_fft = 1
    while n_fft < win:
        n_fft *= 2
    window, fb = _dsp_tables(win, n_fft, rate, config.n_mels)

    work = work or Workspace()
    windows = np.lib.stride_tricks.sliding_window_view(samples, win)[::hop]
    n_bins, n_mels = n_fft // 2 + 1, config.n_mels
    block = max(1, _HEAP_BLOCK_BYTES // (16 * n_bins))  # rows of rfft's complex128 result
    # Windowed frames zero-padded to n_fft, as rfft(n=n_fft) pads them. A
    # call with a shorter window may have left data in the pad columns.
    frames = work.take("frames", min(block, len(windows)), n_fft)
    frames[:, win:] = 0.0
    power = work.take("power", len(windows), n_bins)
    for start in range(0, len(windows), block):
        rows = power[start : start + block]
        padded = frames[: len(rows)]
        np.multiply(windows[start : start + block], window, out=padded[:, :win])
        np.abs(np.fft.rfft(padded, axis=1), out=rows)
        np.square(rows, out=rows)  # what ** 2 computes
    energies = power @ fb.T  # one product: row blocks would round differently
    feats = np.empty((len(windows), 2 * n_mels))
    np.log(np.maximum(energies, LOG_FLOOR), out=feats[:, :n_mels])
    totals = energies.sum(axis=1, keepdims=True)
    shares = np.divide(energies, totals, out=np.zeros_like(energies), where=totals > 0)
    np.log(np.maximum(shares, LOG_FLOOR), out=feats[:, n_mels:])
    return EmbeddingMatrix(frames=feats)


def save_precomputed(path: str | Path, frames: np.ndarray) -> None:
    """Write (T, D) rows as an embedding file: magic SQE1, uint32 T, uint32 D, float32 rows."""
    frames = np.asarray(frames, dtype="<f4")
    write_artifact(path, EMBEDDING_MAGIC, "<II", frames.shape, frames.tobytes())


def load_precomputed(path: str | Path, expected_dim: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """An SQE1 embedding file's (T, D) rows, checked finite before they are
    stored: into out, rows the caller owns of the file's shape and any float
    dtype (its size is then read without asking), else into a fresh float64
    array. A dimensionality other than expected_dim, when given, is a
    validation error: precomputed dims must be consistent across a corpus.
    A file without the SQE1 tag, or whose header, size or values fail a
    check, raises ValidationError naming the path."""
    fd = os.open(path, os.O_RDONLY)  # under half the cost of open() and its read, felt at thousands of files
    try:
        size = os.fstat(fd).st_size if out is None else 12 + 4 * out.size
        data = os.pread(fd, size + 1, 0)  # a byte past the size shows a file grown since it was sized
    finally:
        os.close(fd)
    if data[:4] != EMBEDDING_MAGIC:
        raise ValidationError(f"{path}: not an SQE1 embedding file")
    if len(data) < 12:
        raise ValidationError(f"{path}: truncated SQE1 header ({len(data)} bytes)")
    n_frames, dim = struct.unpack_from("<II", data, 4)
    if expected_dim is not None and dim != expected_dim:
        raise ValidationError(f"{path}: embedding dim {dim} != expected {expected_dim}")
    if n_frames * dim == 0:
        raise ValidationError(f"{path}: embedding must be a non-empty 2-D matrix, got shape ({n_frames}, {dim})")
    if out is not None and out.shape != (n_frames, dim):
        raise ValidationError(f"{path}: features are {n_frames} x {dim}, its size gave {out.shape[0]} x {out.shape[1]}")
    if len(data) != 12 + 4 * n_frames * dim:
        state = "truncated" if len(data) < 12 + 4 * n_frames * dim else "overlong"
        raise ValidationError(f"{path}: {state} embedding file (its header states {n_frames} x {dim} float32 rows)")
    values = np.frombuffer(data, "<f4", offset=12).reshape(n_frames, dim)
    if not np.isfinite(values).all():
        raise ValidationError(f"{path}: embedding contains non-finite values")
    if out is None:
        out = np.empty(values.shape)
    out[...] = values  # exact into float32 or float64 rows
    return out


@dataclass(frozen=True)
class FeatureScaler:
    """Per-dimension standardization fitted on training features.

    The raw DSP features live on a log scale far from zero; training with
    small fixed learning rates needs them standardized. The scaler is part
    of a trained model's persisted state so inference sees the same map.
    """

    mean: np.ndarray
    std: np.ndarray

    @staticmethod
    def fit(frames: np.ndarray) -> "FeatureScaler":
        """Mean and std per dimension of (N, D) training frames of any float
        dtype, in float64: the bits of ``x.mean(axis=0)`` and ``x.std(axis=0)``
        (floored at 1e-8) for ``x = frames.astype(np.float64)``, without x or
        np.std's temporary as large as it."""
        if frames.ndim != 2 or len(frames) == 0:
            raise ValidationError(f"cannot fit scaler on frames of shape {frames.shape}")
        n, dim = frames.shape
        if dim == 1 or not frames.flags.c_contiguous:
            # np.mean and np.std sum one column pairwise, and other layouts in
            # another order: only they give their own bits.
            frames = np.asarray(frames, dtype=np.float64)
            return FeatureScaler(mean=frames.mean(axis=0), std=np.maximum(frames.std(axis=0), 1e-8))
        # Over C-ordered rows with D >= 2, np.mean adds the rows, each cast to
        # the float64 accumulator, and np.std the squared deviations, row after
        # row. Carrying the running sum as each block's first row keeps that
        # order; 0.0 + x is x for x >= 0.
        mean = frames.mean(axis=0, dtype=np.float64)
        block = np.zeros((min(n, _FIT_BLOCK_ROWS) + 1, dim))
        for start in range(0, n, _FIT_BLOCK_ROWS):
            rows = frames[start : start + _FIT_BLOCK_ROWS]
            sq = block[1 : len(rows) + 1]
            if rows.dtype != np.float64:  # an exact cast first: numpy's mixed-dtype loop is slower
                sq[...], rows = rows, sq
            np.subtract(rows, mean, out=sq)
            sq *= sq
            block[0] = np.add.reduce(block[: len(rows) + 1], axis=0)
        return FeatureScaler(mean=mean, std=np.maximum(np.sqrt(block[0] / n), 1e-8))

    def standardize(self, frames: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Standardize (N, D) frames into out (default: in place; float64 for float32 frames) and return it."""
        if frames.shape[1] != len(self.mean):
            raise ValidationError(f"scaler dim {len(self.mean)} != feature dim {frames.shape[1]}")
        if out is not None and out.dtype != frames.dtype:  # an exact cast first: numpy's mixed-dtype loop is slower
            out[...] = frames
            frames = out
        out = np.subtract(frames, self.mean, out=frames if out is None else out)
        out /= self.std
        return out


def save_scaler(path: str | Path, scaler: FeatureScaler) -> None:
    """Write a scaler file: magic SQSC, uint32 D, float64 mean, float64 std."""
    mean = np.asarray(scaler.mean, dtype="<f8")
    std = np.asarray(scaler.std, dtype="<f8")
    write_artifact(path, SCALER_MAGIC, "<I", (len(mean),), mean.tobytes(), std.tobytes())


def load_scaler(path: str | Path) -> FeatureScaler:
    """Load a scaler file; a malformed one, or one whose mean or std is not
    finite or whose std is not positive (fit floors it at 1e-8), raises
    ValidationError naming it."""
    reader = Reader(Path(path).read_bytes(), path, ValidationError, SCALER_MAGIC, "scaler")
    (dim,) = reader.fields("<I")
    mean, std = reader.array("<f8", (2, dim)).copy()
    reader.end()
    if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
        raise ValidationError(f"{path}: scaler mean or std is not finite, or a std is not positive")
    return FeatureScaler(mean=mean, std=std)


def feature_source(sample: Sample, config: FrontendConfig) -> Path:
    """The file featurize reads for a sample: its audio for the dsp
    frontend, its embedding file for the precomputed one."""
    if config.kind == "dsp":
        if sample.audio_ref is None:
            raise ValidationError(f"sample {sample.sample_id!r} has no audio for the dsp frontend")
        return sample.audio_ref
    if sample.embedding_ref is None:
        raise ValidationError(f"sample {sample.sample_id!r} has no embedding file")
    return sample.embedding_ref


def featurize(sample: Sample, config: FrontendConfig, work: Workspace | None = None) -> EmbeddingMatrix:
    """Turn one sample into its raw frame features per the frontend config;
    a reader standardizes them with its model's scaler.

    A loop over samples passes one Workspace to every call, so the audio,
    resampling and DSP intermediates are allocated once for the loop. The
    result is always a fresh array, never one of work's buffers."""
    path = feature_source(sample, config)
    if config.kind == "dsp":
        work = work or Workspace()
        samples, rate = load_audio(path, work)
        return extract_dsp(resample_to_16k(samples, rate, work), config, work)
    return EmbeddingMatrix(load_precomputed(path, config.expected_dim), check_finite=False)


class _StoredSplit:
    """One corpus split's raw dsp features in its SQF1 store file in
    directory, utterance i at rows starts[i] to starts[i + 1], keyed by the
    sha256 of the corpus's fingerprint, the config's values (the record
    meta.json keeps), the split and its sample ids. A store read from disk
    is checked: on open its key, shape, length-table crc32 and size, on each
    read each utterance's crc32 and finiteness. A store missing or failing
    its open checks is built whole on open, and one whose read fails a
    check is built once more, each logged at INFO with the reason; the rows
    just built are read back unchecked. Every reader, of the whole split or
    of some utterances, goes through this one policy."""

    def __init__(self, directory: Path, fingerprint: str, corpus: CorpusManifest, split: str, config: FrontendConfig,
                 featurize: Callable[..., EmbeddingMatrix]):
        self.samples, self.config, self.featurize = corpus.samples(split), config, featurize
        self.path = directory / f"{split}.features"
        frontend = json.dumps(asdict(config), sort_keys=True)
        lines = [fingerprint, frontend, split, *(s.sample_id for s in self.samples)]
        self.key = hashlib.sha256("\n".join(lines).encode("utf-8")).digest()
        self.fd, self.checked = -1, True
        try:
            self._open()
        except (OSError, ValidationError) as exc:
            self.build(exc)

    def _open(self) -> None:
        n, dim = len(self.samples), self.config.dim
        self.fd = os.open(self.path, os.O_RDONLY)
        head = os.pread(self.fd, 4 + struct.calcsize(FEATURES_HEADER) + 8 * n, 0)
        reader = Reader(head, self.path, ValidationError, FEATURES_MAGIC, "feature store")
        key, *shape, crc = reader.fields(FEATURES_HEADER)
        if (key, *shape) != (self.key, n, dim):
            raise ValidationError(f"{self.path}: stored for another corpus, split or frontend")
        self._index(reader.array("<u4", (n, 2)))
        size = os.fstat(self.fd).st_size
        if zlib.crc32(self.table) != crc or 0 in self.table[:, 0] or size != self.rows_at + 8 * dim * self.starts[-1]:
            raise ValidationError(f"{self.path}: the length table or the file size fails its check")

    def _index(self, table: np.ndarray) -> None:
        self.table = table  # per utterance: frames, crc32 of its float64 rows
        self.starts = np.concatenate([[0], np.cumsum(table[:, 0], dtype=np.intp)])
        self.rows_at = 4 + struct.calcsize(FEATURES_HEADER) + table.nbytes

    def close(self) -> None:
        if self.fd >= 0:
            os.close(self.fd)
        self.fd = -1

    def build(self, reason: Exception) -> None:
        """Featurize every utterance, one at a time, into a new store file
        whose header is written last, and open it to be read unchecked;
        reason, why the stored one was not read, goes to the log."""
        logger.info("building feature store %s (%s)", self.path, reason)
        self.close()
        table = np.zeros((len(self.samples), 2), dtype="<u4")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        work = Workspace()
        with atomic_open(self.path) as fh:
            fh.seek(4 + struct.calcsize(FEATURES_HEADER) + table.nbytes)  # the rows first
            for row, sample in zip(table, self.samples):
                frames = self.featurize(sample, self.config, work).frames
                row[:] = len(frames), zlib.crc32(frames)
                fh.write(frames)
            fh.seek(0)
            header = struct.pack(FEATURES_HEADER, self.key, len(table), self.config.dim, zlib.crc32(table))
            fh.write(FEATURES_MAGIC + header + table.tobytes())
        self._index(table)
        self.fd, self.checked = os.open(self.path, os.O_RDONLY), False

    def read(self, first: int, stop: int, out: np.ndarray) -> np.ndarray:
        """Utterances first to stop - 1 into out, C-contiguous float64 rows
        of their shape, with one read. After a checked read that fails, the
        store is built anew and read once more, unchecked."""
        ends = (self.starts[first : stop + 1] - self.starts[first]).tolist()
        if out.shape != (ends[-1], self.config.dim):
            raise ValidationError(  # unreached: a guard; both callers size out from self.starts
                f"{self.path}: utterances {first} to {stop - 1} are not {out.shape[0]} rows")
        try:
            if os.preadv(self.fd, [out], self.rows_at + 8 * self.config.dim * int(self.starts[first])) != out.nbytes:
                raise ValidationError(f"{self.path}: truncated feature store")
            if self.checked:
                crcs = [zlib.crc32(out[a:b]) for a, b in zip(ends, ends[1:])]
                if crcs != self.table[first:stop, 1].tolist() or not np.isfinite(out).all():
                    raise ValidationError(f"{self.path}: stored features fail their crc32 or finiteness check")
            return out
        except (OSError, ValidationError) as exc:
            if not self.checked:
                raise  # unreached: a store this process has just built fails a read only on an I/O fault
            self.build(exc)
        return self.read(first, stop, out)

    def utterance(self, j: int, work: Workspace | None) -> np.ndarray:
        """Utterance j's rows, read into work's "stored" buffer (valid
        until the next call) or, without work, a fresh array."""
        shape = (int(self.starts[j + 1] - self.starts[j]), self.config.dim)
        return self.read(j, j + 1, np.empty(shape) if work is None else work.take("stored", *shape))


@contextlib.contextmanager
def _stored_splits(corpus: CorpusManifest | PooledCorpus, split: str, config: FrontendConfig,
                   featurize: Callable) -> Iterator[list[_StoredSplit]]:
    """The split of each member corpus (the corpus itself unless pooled) in
    the store its feature_store names, built where missing; a member
    without one, in a temp dir removed on exit."""
    members = corpus.members if isinstance(corpus, PooledCorpus) else (corpus,)
    with contextlib.ExitStack() as stack:
        if any(member.feature_store is None for member in members):
            tmp = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        parts = []
        for i, member in enumerate(members):
            directory, fingerprint = member.feature_store or (tmp / str(i), "")
            parts.append(stack.enter_context(contextlib.closing(
                _StoredSplit(directory, fingerprint, member, split, config, featurize))))
        yield parts


def packed_features(
    corpus: CorpusManifest | PooledCorpus, split: str, config: FrontendConfig,
    featurize: Callable[..., EmbeddingMatrix],
) -> tuple[np.ndarray, np.ndarray]:
    """A (possibly pooled) corpus split's raw features in one packed
    (sum T, D) matrix, and each sample's frame count T. dsp features are
    float64, read from each member's store (_stored_splits) with one read, a
    missing store built whole first through featurize, the caller's lookup
    of it. Precomputed ones are float32, decoded by load_precomputed into
    rows sized from each file's size, T = (size - 12) / (4 D), D being
    expected_dim or the first file's: one stat and one open per file. A
    file whose header or size disagrees with those rows raises
    ValidationError naming it."""
    if config.kind == "dsp":
        with _stored_splits(corpus, split, config, featurize) as parts:
            lengths = np.concatenate([np.diff(part.starts) for part in parts])
            frames = np.empty((int(lengths.sum()), config.dim))
            at = 0
            for part in parts:
                part.read(0, len(part.samples), frames[at : at + part.starts[-1]])
                at += part.starts[-1]
        return frames, lengths
    paths = [feature_source(sample, config) for sample in corpus.samples(split)]
    # Without expected_dim the first file, decoded here once, states D.
    first = load_precomputed(paths[0]) if config.expected_dim is None and paths else None
    dim = config.expected_dim if first is None else first.shape[1]
    lengths = np.array([max(os.stat(path).st_size - 12, 0) // (4 * dim) for path in paths], dtype=np.intp)
    if first is not None:
        lengths[0] = len(first)
    frames = np.empty((int(lengths.sum()), dim), np.float32)
    stops = np.cumsum(lengths)
    for path, start, stop in zip(paths, (stops - lengths).tolist(), stops.tolist()):
        if start == 0 and first is not None:
            frames[:stop] = first
        else:
            load_precomputed(path, config.expected_dim, frames[start:stop])
    return frames, lengths


def split_features(
    corpus: CorpusManifest | PooledCorpus, split: str, config: FrontendConfig,
    featurize: Callable[..., EmbeddingMatrix], work: Workspace | None = None, indices: Sequence[int] | None = None,
) -> Iterator[np.ndarray]:
    """The raw (T, D) features of each sample of a (possibly pooled) corpus
    split, or of those at indices, in order. dsp ones are read one at a
    time from the members' stores (_stored_splits, each built whole first
    if missing) into work's "stored" buffer (valid until the next) or,
    without work, a fresh array. Precomputed ones come from featurize, the
    caller's lookup of it, as an embedding file is stored features."""
    samples = corpus.samples(split)
    chosen = range(len(samples)) if indices is None else indices
    if config.kind != "dsp":
        yield from (featurize(samples[i], config, work).frames for i in chosen)
        return
    with _stored_splits(corpus, split, config, featurize) as parts:
        utterances = [(part, j) for part in parts for j in range(len(part.samples))]
        yield from (part.utterance(j, work) for part, j in (utterances[i] for i in chosen))
