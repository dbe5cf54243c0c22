"""
Frame-level features from raw audio
===================================

Writes a tone to a WAV file, loads it back, and walks through the DSP
frontend: resampling, log-mel energies plus log band shares, time
pooling, and feature standardization.
"""

import tempfile
from pathlib import Path

import numpy as np

from sqkit import (
    FeatureScaler,
    FrontendConfig,
    extract_dsp,
    load_audio,
    mel_center_frequencies,
    resample_to_16k,
    write_wav,
)

with tempfile.TemporaryDirectory(prefix="sqkit-demo-") as tmp:
    work = Path(tmp)
    # half a second of a 440 Hz tone at 22.05 kHz
    rate = 22050
    t = np.arange(int(0.5 * rate)) / rate
    tone = 0.3 * np.sin(2 * np.pi * 440.0 * t)
    write_wav(work / "tone.wav", tone, rate)

    samples, rate = load_audio(work / "tone.wav")
    print("loaded", samples.shape[0], "samples at", rate, "Hz")

    samples = resample_to_16k(samples, rate)
    print("resampled to", samples.shape[0], "samples at 16 kHz")

    # 25 ms windows, 10 ms hop; each frame is n_mels log energies
    # followed by n_mels log band shares
    config = FrontendConfig(n_mels=40)
    mat = extract_dsp(samples, config)
    print("frames", mat.frames.shape, "=", mat.frames.shape[0], "windows x", mat.frames.shape[1], "dims")

    # the tone should light up the mel band whose center is nearest 440 Hz
    centers = mel_center_frequencies(config.n_mels)
    profile = mat.frames[:, : config.n_mels].mean(axis=0)
    peak = int(np.argmax(profile))
    print(f"peak mel band {peak} centered at {centers[peak]:.0f} Hz")

    # utterance embedding: mean over time
    vec = mat.frames.mean(axis=0)
    print("pooled vector", vec.shape)

    # scalers are fit on train features and reused everywhere after;
    # standardize works in place unless given an out array
    scaler = FeatureScaler.fit(mat.frames)
    standardized = scaler.standardize(mat.frames, np.empty_like(mat.frames))
    print("largest per-dim mean after standardizing:", float(np.abs(standardized.mean(axis=0)).max()))
