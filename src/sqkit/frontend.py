"""Feature extraction: audio I/O, resampling, DSP features, padding, scaling.

Everything here is a pure function of its inputs, so feature extraction
can be cached or parallelized freely. The built-in DSP frontend stands in
for heavier learned feature extractors: any (T, D) matrix with a declared
dimensionality works downstream, whether computed here or loaded from a
precomputed-embedding file.
"""

from __future__ import annotations

import wave as wave_mod
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .codec import Reader, write_artifact
from .errors import AudioFormatError, ValidationError

if TYPE_CHECKING:
    from .corpus import Sample

TARGET_RATE_HZ = 16000

EMBEDDING_MAGIC = b"SQE1"
SCALER_MAGIC = b"SQSC"


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Frame-level features: (T, D) float64 rows plus the frame rate.

    frame_rate_hz is 0.0 when unknown (precomputed files do not carry it).
    """

    frames: np.ndarray
    frame_rate_hz: float = 0.0

    def __post_init__(self) -> None:
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 1:
            raise ValidationError(f"embedding must be a non-empty 2-D matrix, got shape {frames.shape}")
        if not np.all(np.isfinite(frames)):
            raise ValidationError("embedding contains non-finite values")
        object.__setattr__(self, "frames", frames)

    @property
    def dim(self) -> int:
        return int(self.frames.shape[1])

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
    target_rate_hz: int = TARGET_RATE_HZ
    log_floor: float = 1e-10
    expected_dim: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("dsp", "precomputed"):
            raise ValidationError(f"unknown frontend kind {self.kind!r}")
        if self.kind == "dsp" and (self.n_mels < 1 or self.window_ms <= 0 or self.hop_ms <= 0):
            raise ValidationError("dsp parameters must be positive")

    @property
    def dim(self) -> int:
        if self.kind == "dsp":
            return 2 * self.n_mels
        if self.expected_dim is None:
            raise ValidationError("precomputed frontend needs expected_dim to state its dimensionality")
        return self.expected_dim


def load_audio(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a mono PCM WAV file as float64 samples in [-1, 1] plus its rate."""
    with wave_mod.open(str(path), "rb") as wf:
        if wf.getcomptype() != "NONE":
            raise AudioFormatError(f"{path}: compressed WAV not supported")
        if wf.getnchannels() != 1:
            raise AudioFormatError(f"{path}: expected mono, got {wf.getnchannels()} channels")
        width = wf.getsampwidth()
        rate = wf.getframerate()
        raw = wf.readframes(wf.getnframes())
    if width == 2:
        samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    elif width == 1:
        samples = (np.frombuffer(raw, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
    else:
        raise AudioFormatError(f"{path}: unsupported sample width {width} bytes")
    return samples, rate


def write_wav(path: str | Path, samples: np.ndarray, rate_hz: int) -> None:
    """Write float samples in [-1, 1] as a 16-bit mono PCM WAV file."""
    clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    quantized = np.round(clipped * 32767.0).astype("<i2")
    with wave_mod.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(rate_hz)
        wf.writeframes(quantized.tobytes())


def resample_to_16k(samples: np.ndarray, rate_hz: int) -> np.ndarray:
    """Resample to 16 kHz by linear interpolation; 16 kHz input passes through.

    Output length is round(len * 16000 / rate). Linear interpolation is a
    deliberate quality tradeoff: deterministic and dependency-free, at the
    cost of imperfect anti-aliasing (fine for fixtures and features).
    """
    if rate_hz < 8000:
        raise ValidationError(f"sample rate {rate_hz} below supported minimum 8000")
    if rate_hz == TARGET_RATE_HZ:
        return samples
    samples = np.asarray(samples, dtype=np.float64)
    n_out = int(round(len(samples) * TARGET_RATE_HZ / rate_hz))
    if len(samples) == 0 or n_out == 0:
        return np.zeros(0, dtype=np.float64)
    t_out = np.arange(n_out) / TARGET_RATE_HZ
    t_in = np.arange(len(samples)) / rate_hz
    return np.interp(t_out, t_in, samples)


def hz_to_mel(f_hz: np.ndarray | float) -> np.ndarray | float:
    return 2595.0 * np.log10(1.0 + np.asarray(f_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel: np.ndarray | float) -> np.ndarray | float:
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_fft: int, rate_hz: int, n_mels: int, fmin_hz: float = 0.0, fmax_hz: float | None = None) -> np.ndarray:
    """Triangular mel filterbank over rfft bins, shape (n_mels, n_fft//2 + 1)."""
    if fmax_hz is None:
        fmax_hz = rate_hz / 2.0
    mel_points = np.linspace(hz_to_mel(fmin_hz), hz_to_mel(fmax_hz), n_mels + 2)
    hz_points = np.asarray(mel_to_hz(mel_points))
    bin_hz = np.arange(n_fft // 2 + 1) * (rate_hz / n_fft)
    fb = np.zeros((n_mels, len(bin_hz)))
    for m in range(n_mels):
        left, center, right = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        rising = (bin_hz - left) / (center - left)
        falling = (right - bin_hz) / (right - center)
        fb[m] = np.maximum(0.0, np.minimum(rising, falling))
    return fb


def mel_center_frequencies(n_mels: int, fmin_hz: float = 0.0, fmax_hz: float = TARGET_RATE_HZ / 2.0) -> np.ndarray:
    """Center frequency (Hz) of each mel filter, for interpreting feature bins."""
    mel_points = np.linspace(hz_to_mel(fmin_hz), hz_to_mel(fmax_hz), n_mels + 2)
    return np.asarray(mel_to_hz(mel_points))[1:-1]


def extract_dsp(samples: np.ndarray, config: FrontendConfig) -> EmbeddingMatrix:
    """Frame-level DSP features for a 16 kHz waveform.

    Per frame (Hann window, FFT sized to the next power of two): the D
    columns are n_mels floored log-mel energies followed by n_mels floored
    log band shares (energy fraction per band). Pure silence maps every
    entry to log(log_floor). Utterances shorter than one window are
    reflection-padded up to a single frame.
    """
    samples = np.asarray(samples, dtype=np.float64)
    rate = config.target_rate_hz
    win = int(round(config.window_ms * rate / 1000.0))
    hop = int(round(config.hop_ms * rate / 1000.0))
    if len(samples) < win:
        deficit = win - len(samples)
        mode = "reflect" if len(samples) > 1 else "edge"
        samples = np.pad(samples, (0, deficit), mode=mode) if len(samples) else np.zeros(win)

    n_fft = 1
    while n_fft < win:
        n_fft *= 2
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / win)
    fb = mel_filterbank(n_fft, rate, config.n_mels)

    frames = np.lib.stride_tricks.sliding_window_view(samples, win)[::hop] * window
    power = np.abs(np.fft.rfft(frames, n=n_fft, axis=1)) ** 2
    energies = power @ fb.T
    log_mel = np.log(np.maximum(energies, config.log_floor))
    totals = energies.sum(axis=1, keepdims=True)
    shares = np.divide(energies, totals, out=np.zeros_like(energies), where=totals > 0)
    log_share = np.log(np.maximum(shares, config.log_floor))
    feats = np.concatenate([log_mel, log_share], axis=1)
    return EmbeddingMatrix(frames=feats, frame_rate_hz=1000.0 / config.hop_ms)


def save_precomputed(path: str | Path, mat: EmbeddingMatrix) -> None:
    """Write an embedding file: magic SQE1, uint32 T, uint32 D, float32 rows."""
    frames = np.asarray(mat.frames, dtype="<f4")
    write_artifact(path, EMBEDDING_MAGIC, "<II", frames.shape, frames.tobytes())


def save_precomputed_text(path: str | Path, sample_id: str, mat: EmbeddingMatrix) -> None:
    """Text form of the embedding file: one line per frame, `sample_id dim t v...`."""
    with open(path, "w", encoding="utf-8") as fh:
        for t, row in enumerate(mat.frames):
            values = " ".join(repr(float(v)) for v in row)
            fh.write(f"{sample_id} {mat.dim} {t} {values}\n")


def load_precomputed(path: str | Path, expected_dim: int | None = None) -> EmbeddingMatrix:
    """Load an embedding file (binary SQE1 or its text form) as float64.

    When expected_dim is given, a differing file dimensionality is a
    validation error: precomputed dims must be consistent across a corpus.
    Malformed files of either form raise ValidationError.
    """
    data = Path(path).read_bytes()
    if data[:4] == EMBEDDING_MAGIC:
        reader = Reader(data, path, ValidationError, EMBEDDING_MAGIC, "embedding")
        frames = reader.array("<f4", reader.fields("<II")).astype(np.float64)
        reader.end()
    else:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not an SQE1 file and not UTF-8 text (byte {exc.start})") from None
        rows = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) < 4:
                raise ValidationError(f"{path} line {lineno}: expected `sample_id dim t v...`")
            try:
                dim, values = int(parts[1]), [float(v) for v in parts[3:]]
            except ValueError as exc:
                raise ValidationError(f"{path} line {lineno}: {exc}") from None
            if len(values) != dim or (rows and dim != len(rows[0])):
                raise ValidationError(f"{path} line {lineno}: inconsistent dimensionality")
            rows.append(values)
        if not rows:
            raise ValidationError(f"{path}: empty embedding file")
        frames = np.asarray(rows, dtype=np.float64)
    if expected_dim is not None and frames.shape[1] != expected_dim:
        raise ValidationError(f"{path}: embedding dim {frames.shape[1]} != expected {expected_dim}")
    return EmbeddingMatrix(frames=frames)


def pool_time(mat: EmbeddingMatrix) -> np.ndarray:
    """Average frames over time into one D-vector."""
    return mat.frames.mean(axis=0)


def pad_repetitive(batch: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Tile each item end-to-end to the batch max length, then truncate.

    Works on 1-D waveforms or (T, D) frame matrices (tiling along axis 0).
    Returns (stacked array, original lengths); every item's prefix is
    preserved bit-exactly and the padded tail is a cyclic copy of it.
    """
    if not batch:
        raise ValidationError("pad_repetitive requires a non-empty batch")
    arrays = [np.asarray(a) for a in batch]
    lengths = np.array([a.shape[0] for a in arrays], dtype=np.int64)
    if np.any(lengths == 0):
        raise ValidationError("pad_repetitive requires non-empty items")
    max_len = int(lengths.max())
    padded = []
    for a in arrays:
        reps = -(-max_len // a.shape[0])
        tile_reps = (reps,) + (1,) * (a.ndim - 1)
        padded.append(np.tile(a, tile_reps)[:max_len])
    return np.stack(padded), lengths


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
        """Mean and std per dimension of (N, D) training frames."""
        if frames.ndim != 2 or len(frames) == 0:
            raise ValidationError(f"cannot fit scaler on frames of shape {frames.shape}")
        return FeatureScaler(mean=frames.mean(axis=0), std=np.maximum(frames.std(axis=0), 1e-8))

    @staticmethod
    def identity(dim: int) -> "FeatureScaler":
        return FeatureScaler(mean=np.zeros(dim), std=np.ones(dim))

    def standardize(self, frames: np.ndarray) -> np.ndarray:
        """Standardize (N, D) float64 frames in place and return them."""
        if frames.shape[1] != len(self.mean):
            raise ValidationError(f"scaler dim {len(self.mean)} != feature dim {frames.shape[1]}")
        frames -= self.mean
        frames /= self.std
        return frames

    def transform(self, mat: EmbeddingMatrix) -> EmbeddingMatrix:
        return EmbeddingMatrix(frames=self.standardize(mat.frames.copy()), frame_rate_hz=mat.frame_rate_hz)


def save_scaler(path: str | Path, scaler: FeatureScaler) -> None:
    """Write a scaler file: magic SQSC, uint32 D, float64 mean, float64 std."""
    mean = np.asarray(scaler.mean, dtype="<f8")
    std = np.asarray(scaler.std, dtype="<f8")
    write_artifact(path, SCALER_MAGIC, "<I", (len(mean),), mean.tobytes(), std.tobytes())


def load_scaler(path: str | Path) -> FeatureScaler:
    """Load a scaler file; a malformed one raises ValidationError."""
    reader = Reader(Path(path).read_bytes(), path, ValidationError, SCALER_MAGIC, "scaler")
    (dim,) = reader.fields("<I")
    mean, std = reader.array("<f8", (2, dim)).copy()
    reader.end()
    return FeatureScaler(mean=mean, std=std)


def featurize(sample: "Sample", config: FrontendConfig, scaler: FeatureScaler | None = None) -> EmbeddingMatrix:
    """Turn one sample into frame features per the frontend config."""
    if config.kind == "dsp":
        if sample.audio_ref is None:
            raise ValidationError(f"sample {sample.sample_id!r} has no audio for the dsp frontend")
        samples, rate = load_audio(sample.audio_ref)
        mat = extract_dsp(resample_to_16k(samples, rate), config)
    else:
        if sample.embedding_ref is None:
            raise ValidationError(f"sample {sample.sample_id!r} has no embedding file")
        mat = load_precomputed(sample.embedding_ref, expected_dim=config.expected_dim)
    return scaler.transform(mat) if scaler is not None else mat
