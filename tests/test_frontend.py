"""Audio I/O, resampling, DSP features, padding, embedding files, scaling."""

import struct
import wave as wave_mod
from fractions import Fraction

import numpy as np
import pytest

from sqkit import (
    AudioFormatError,
    EmbeddingMatrix,
    FeatureScaler,
    FrontendConfig,
    Sample,
    ValidationError,
    extract_dsp,
    featurize,
    load_audio,
    load_precomputed,
    load_scaler,
    mel_center_frequencies,
    pad_repetitive,
    pool_time,
    resample_to_16k,
    save_precomputed,
    save_precomputed_text,
    save_scaler,
    write_wav,
)
from sqkit.frontend import mel_filterbank


def write_raw_wav(path, int_samples, rate=16000, width=2, channels=1):
    with wave_mod.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(width)
        wf.setframerate(rate)
        if width == 2:
            data = np.asarray(int_samples, dtype="<i2").tobytes() * channels
        else:
            data = np.asarray(int_samples, dtype=np.uint8).tobytes() * channels
        wf.writeframes(data)


class TestLoadAudio:
    def test_full_scale_square_wave_quantization(self, tmp_path):
        path = tmp_path / "sq.wav"
        write_raw_wav(path, [32767, -32768] * 8)
        samples, rate = load_audio(path)
        assert rate == 16000
        np.testing.assert_allclose(samples[0::2], 32767 / 32768)
        np.testing.assert_allclose(samples[1::2], -1.0)

    def test_one_second_at_8k_has_8000_samples(self, tmp_path):
        path = tmp_path / "8k.wav"
        write_raw_wav(path, np.zeros(8000, dtype=np.int16), rate=8000)
        samples, rate = load_audio(path)
        assert rate == 8000
        assert len(samples) == 8000

    def test_silence_is_all_zeros(self, tmp_path):
        path = tmp_path / "z.wav"
        write_raw_wav(path, np.zeros(100, dtype=np.int16))
        samples, _ = load_audio(path)
        assert np.all(samples == 0.0)

    def test_eight_bit_unsigned(self, tmp_path):
        path = tmp_path / "u8.wav"
        write_raw_wav(path, [128, 255, 0], width=1)
        samples, _ = load_audio(path)
        np.testing.assert_allclose(samples, [(128 - 128) / 128, (255 - 128) / 128, (0 - 128) / 128])

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "st.wav"
        with wave_mod.open(str(path), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(np.zeros(40, dtype="<i2").tobytes())
        with pytest.raises(AudioFormatError, match="mono"):
            load_audio(path)

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        wave = rng.uniform(-0.9, 0.9, size=500)
        path = tmp_path / "rt.wav"
        write_wav(path, wave, 16000)
        loaded, rate = load_audio(path)
        assert rate == 16000
        # Quantization plus the 32767-write / 32768-read scale skew.
        np.testing.assert_allclose(loaded, wave, atol=1.0 / 32768, rtol=1.0 / 32768)


class TestResample:
    def test_16k_is_bit_identical_passthrough(self):
        wave = np.random.default_rng(1).normal(size=321)
        out = resample_to_16k(wave, 16000)
        assert out is wave

    def test_32k_halves_sample_count(self):
        out = resample_to_16k(np.zeros(32000), 32000)
        assert len(out) == 16000

    def test_length_rounding(self):
        # round(1001 * 16000 / 22050) = 726
        out = resample_to_16k(np.zeros(1001), 22050)
        assert len(out) == 726

    def test_constant_signal_stays_constant(self):
        out = resample_to_16k(np.full(4410, 0.37), 44100)
        np.testing.assert_allclose(out, 0.37, atol=1e-15)

    def test_440hz_tone_keeps_its_dft_peak(self):
        rate = 48000
        t = np.arange(rate) / rate
        tone = np.sin(2 * np.pi * 440.0 * t)
        out = resample_to_16k(tone, rate)
        spectrum = np.abs(np.fft.rfft(out))
        peak_hz = np.argmax(spectrum) * 16000 / len(out)
        bin_hz = 16000 / len(out)
        assert abs(peak_hz - 440.0) <= bin_hz

    def test_low_rate_rejected(self):
        with pytest.raises(ValidationError):
            resample_to_16k(np.zeros(100), 4000)


class TestExtractDsp:
    CONFIG = FrontendConfig()

    def test_deterministic(self):
        wave = np.random.default_rng(2).normal(size=8000) * 0.1
        a = extract_dsp(wave, self.CONFIG)
        b = extract_dsp(wave, self.CONFIG)
        np.testing.assert_array_equal(a.frames, b.frames)

    def test_frame_count_formula(self):
        win, hop = 400, 160
        for n in (400, 401, 560, 5000):
            mat = extract_dsp(np.random.default_rng(0).normal(size=n) * 0.1, self.CONFIG)
            assert mat.n_frames == 1 + (n - win) // hop

    def test_log_mel_matches_loop_framed_reference(self):
        win, hop, n_fft, n_mels = 400, 160, 512, self.CONFIG.n_mels
        window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / win)
        fb = mel_filterbank(n_fft, 16000, n_mels)
        for n in (400, 401, 560, 5000, 48000):
            x = np.random.default_rng(n).normal(size=n) * 0.1
            frames = np.stack([x[s : s + win] for s in range(0, n - win + 1, hop)]) * window
            energies = (np.abs(np.fft.rfft(frames, n=n_fft, axis=1)) ** 2) @ fb.T
            expected = np.log(np.maximum(energies, self.CONFIG.log_floor))
            np.testing.assert_array_equal(extract_dsp(x, self.CONFIG).frames[:, :n_mels], expected)

    def test_short_utterance_gets_one_frame(self):
        mat = extract_dsp(np.random.default_rng(3).normal(size=150) * 0.1, self.CONFIG)
        assert mat.n_frames == 1

    def test_silence_is_the_log_floor_vector(self):
        mat = extract_dsp(np.zeros(8000), self.CONFIG)
        np.testing.assert_allclose(mat.frames, np.log(1e-10))

    def test_feature_dim_is_twice_n_mels(self):
        config = FrontendConfig(n_mels=24)
        mat = extract_dsp(np.random.default_rng(4).normal(size=4000) * 0.1, config)
        assert mat.dim == 48
        assert config.dim == 48

    def test_tone_peaks_at_matching_mel_band(self):
        # Independent oracle: band centers from the 2595*log10(1 + f/700)
        # scale, computed here rather than taken from the library.
        tone_hz = 1000.0
        n_mels = 40
        lo, hi = 0.0, 8000.0
        mel = lambda f: 2595.0 * np.log10(1.0 + f / 700.0)
        inv = lambda m: 700.0 * (10.0 ** (m / 2595.0) - 1.0)
        centers = inv(np.linspace(mel(lo), mel(hi), n_mels + 2))[1:-1]
        expected = int(np.argmin(np.abs(centers - tone_hz)))

        t = np.arange(16000) / 16000
        mat = extract_dsp(0.4 * np.sin(2 * np.pi * tone_hz * t), FrontendConfig(n_mels=n_mels))
        log_mel = mat.frames[:, :n_mels].mean(axis=0)
        assert abs(int(np.argmax(log_mel)) - expected) <= 1
        np.testing.assert_allclose(mel_center_frequencies(n_mels), centers, rtol=1e-12)

    def test_white_noise_and_tone_profiles_differ(self):
        rng = np.random.default_rng(6)
        t = np.arange(8000) / 16000
        tone = extract_dsp(0.3 * np.sin(2 * np.pi * 1000.0 * t), self.CONFIG)
        noise = extract_dsp(0.3 * rng.normal(size=8000), self.CONFIG)
        tone_profile = tone.frames[:, :40].mean(axis=0)
        noise_profile = noise.frames[:, :40].mean(axis=0)
        # The tone concentrates energy in few bands; noise spreads it.
        assert np.std(tone_profile) > np.std(noise_profile)


class TestPoolTime:
    def test_single_frame_is_identity(self):
        frames = np.array([[1.0, -2.0, 3.0]])
        np.testing.assert_array_equal(pool_time(EmbeddingMatrix(frames=frames)), frames[0])

    def test_opposite_frames_cancel(self):
        v = np.array([0.5, -1.5, 2.0])
        mat = EmbeddingMatrix(frames=np.stack([v, -v]))
        np.testing.assert_allclose(pool_time(mat), 0.0, atol=1e-16)

    def test_matches_exact_mean_oracle(self):
        rng = np.random.default_rng(7)
        frames = rng.normal(size=(5, 3))
        pooled = pool_time(EmbeddingMatrix(frames=frames))
        for j in range(3):
            exact = Fraction(0)
            for i in range(5):
                exact += Fraction(float(frames[i, j]))
            assert pooled[j] == pytest.approx(float(exact / 5), rel=1e-15)

    def test_within_column_bounds(self):
        rng = np.random.default_rng(8)
        frames = rng.normal(size=(12, 6))
        pooled = pool_time(EmbeddingMatrix(frames=frames))
        assert np.all(pooled >= frames.min(axis=0)) and np.all(pooled <= frames.max(axis=0))


class TestPadRepetitive:
    def test_batch_of_one_is_unchanged(self):
        wave = np.arange(7.0)
        stacked, lengths = pad_repetitive([wave])
        np.testing.assert_array_equal(stacked[0], wave)
        assert lengths.tolist() == [7]

    def test_pattern_repeats_two_and_a_half_times(self):
        short = np.array([1.0, 2.0, 3.0, 4.0])
        long = np.arange(10.0)
        stacked, lengths = pad_repetitive([short, long])
        np.testing.assert_array_equal(stacked[0], [1, 2, 3, 4, 1, 2, 3, 4, 1, 2])
        np.testing.assert_array_equal(stacked[1], long)
        assert lengths.tolist() == [4, 10]

    def test_padding_is_cyclic_copy_of_prefix(self):
        rng = np.random.default_rng(9)
        waves = [rng.normal(size=n) for n in (5, 13, 8)]
        stacked, lengths = pad_repetitive(waves)
        for row, wave, n in zip(stacked, waves, lengths):
            np.testing.assert_array_equal(row[:n], wave)
            for j in range(n, stacked.shape[1]):
                assert row[j] == wave[j % n]

    def test_two_dimensional_frame_matrices(self):
        mats = [np.arange(6.0).reshape(3, 2), np.arange(14.0).reshape(7, 2)]
        stacked, lengths = pad_repetitive(mats)
        assert stacked.shape == (2, 7, 2)
        np.testing.assert_array_equal(stacked[0][:3], mats[0])
        np.testing.assert_array_equal(stacked[0][3:6], mats[0])
        np.testing.assert_array_equal(stacked[0][6], mats[0][0])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError):
            pad_repetitive([])


class TestEmbeddingFiles:
    def test_binary_round_trip(self, tmp_path):
        mat = EmbeddingMatrix(frames=np.random.default_rng(10).normal(size=(6, 4)).astype(np.float32))
        path = tmp_path / "e.bin"
        save_precomputed(path, mat)
        loaded = load_precomputed(path)
        np.testing.assert_array_equal(loaded.frames, mat.frames)

    def test_text_round_trip(self, tmp_path):
        mat = EmbeddingMatrix(frames=np.random.default_rng(11).normal(size=(3, 5)))
        path = tmp_path / "e.txt"
        save_precomputed_text(path, "utt-1", mat)
        loaded = load_precomputed(path)
        np.testing.assert_array_equal(loaded.frames, mat.frames)
        first = path.read_text().splitlines()[0].split()
        assert first[0] == "utt-1" and first[1] == "5" and first[2] == "0"

    def test_dim_mismatch_rejected(self, tmp_path):
        mat = EmbeddingMatrix(frames=np.zeros((2, 3)))
        path = tmp_path / "e.bin"
        save_precomputed(path, mat)
        with pytest.raises(ValidationError, match="dim"):
            load_precomputed(path, expected_dim=4)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"SQE1" + struct.pack("<II", 4, 4) + b"\x00" * 10)
        with pytest.raises(ValidationError, match="truncated"):
            load_precomputed(path)

    def test_empty_text_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValidationError):
            load_precomputed(path)


class TestFeatureScaler:
    def test_standardizes_fit_data(self):
        rng = np.random.default_rng(12)
        mats = [EmbeddingMatrix(frames=rng.normal(3.0, 2.0, size=(20, 4))) for _ in range(5)]
        scaler = FeatureScaler.fit(np.concatenate([m.frames for m in mats]))
        stacked = np.concatenate([scaler.transform(m).frames for m in mats])
        np.testing.assert_allclose(stacked.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(stacked.std(axis=0), 1.0, atol=1e-12)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        scaler = FeatureScaler.fit(rng.normal(size=(10, 3)))
        path = tmp_path / "s.bin"
        save_scaler(path, scaler)
        loaded = load_scaler(path)
        np.testing.assert_array_equal(loaded.mean, scaler.mean)
        np.testing.assert_array_equal(loaded.std, scaler.std)

    def test_identity_and_dim_check(self):
        ident = FeatureScaler.identity(3)
        mat = EmbeddingMatrix(frames=np.random.default_rng(14).normal(size=(4, 3)))
        np.testing.assert_array_equal(ident.transform(mat).frames, mat.frames)
        with pytest.raises(ValidationError):
            FeatureScaler.identity(5).transform(mat)

    def test_standardize_in_place_matches_transform_bitwise(self):
        rng = np.random.default_rng(15)
        frames = rng.normal(3.0, 2.0, size=(30, 4))
        scaler = FeatureScaler.fit(frames)
        expected = scaler.transform(EmbeddingMatrix(frames=frames)).frames
        packed = frames.copy()
        assert scaler.standardize(packed) is packed
        np.testing.assert_array_equal(packed, expected)
        with pytest.raises(ValidationError):
            FeatureScaler.fit(np.empty((0, 4)))


class TestFeaturize:
    def test_dsp_needs_audio(self, tmp_path):
        sample = Sample(
            sample_id="u1",
            audio_ref=None,
            embedding_ref=tmp_path / "e.bin",
            dataset_id="d",
            system_id=None,
            mos=3.0,
        )
        with pytest.raises(ValidationError, match="no audio"):
            featurize(sample, FrontendConfig())

    def test_precomputed_path(self, tmp_path):
        mat = EmbeddingMatrix(frames=np.random.default_rng(15).normal(size=(4, 6)))
        path = tmp_path / "e.bin"
        save_precomputed(path, EmbeddingMatrix(frames=mat.frames.astype(np.float32)))
        sample = Sample(
            sample_id="u1",
            audio_ref=None,
            embedding_ref=path,
            dataset_id="d",
            system_id=None,
            mos=3.0,
        )
        config = FrontendConfig(kind="precomputed", expected_dim=6)
        loaded = featurize(sample, config)
        assert loaded.dim == 6

    def test_embedding_matrix_validation(self):
        with pytest.raises(ValidationError):
            EmbeddingMatrix(frames=np.array([1.0, 2.0]))
        with pytest.raises(ValidationError):
            EmbeddingMatrix(frames=np.array([[np.inf, 1.0]]))
