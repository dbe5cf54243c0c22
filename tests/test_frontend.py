"""Audio I/O, resampling, DSP features, padding, embedding files, scaling."""

import re
import struct
import tracemalloc
import wave as wave_mod

import numpy as np
import pytest

from sqkit import (
    AudioFormatError,
    EmbeddingMatrix,
    FeatureScaler,
    FrontendConfig,
    Sample,
    ValidationError,
    Workspace,
    extract_dsp,
    featurize,
    load_audio,
    load_precomputed,
    load_scaler,
    mel_center_frequencies,
    resample_to_16k,
    save_precomputed,
    save_scaler,
    write_wav,
)
from sqkit import frontend
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


def float32_wav_bytes(n_frames, rate=16000):
    """A mono 32-bit IEEE-float WAV (format tag 3) of silence, built by hand:
    the wave module writes PCM only."""
    fmt = struct.pack("<HHIIHH", 3, 1, rate, rate * 4, 4, 32)
    data = bytes(4 * n_frames)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


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

    @pytest.mark.parametrize("data", [b"not audio at all", b"RIFF", b""], ids=["not-riff", "truncated", "empty"])
    def test_a_file_that_is_not_a_wav_is_an_audio_format_error_naming_it(self, tmp_path, data):
        path = tmp_path / "bad.wav"
        path.write_bytes(data)
        with pytest.raises(AudioFormatError, match=re.escape(f"{path}: not a PCM WAV file")):
            load_audio(path)

    @pytest.mark.parametrize("size_field", [0xFFFFFFF0, 8002], ids=["huge", "two-bytes-past-the-end"])
    def test_load_audio_rejects_a_data_size_the_file_does_not_hold(self, tmp_path, size_field):
        # The data chunk's size field is the last 4 bytes of a plain 44-byte header.
        path = tmp_path / "big.wav"
        write_raw_wav(path, np.zeros(4000, dtype=np.int16), rate=8000)
        data = bytearray(path.read_bytes())
        assert data[36:40] == b"data" and struct.unpack("<I", data[40:44]) == (8000,)
        data[40:44] = struct.pack("<I", size_field)
        path.write_bytes(bytes(data))
        promised = size_field // 2 * 2
        message = f"{path}: the header promises {promised} bytes of audio, the file holds 8000"
        with pytest.raises(AudioFormatError, match=re.escape(message)):
            load_audio(path)
        data[40:44] = struct.pack("<I", 8000)  # the header as written still counts
        path.write_bytes(bytes(data))
        assert len(load_audio(path)[0]) == 4000

    def test_a_float_wav_is_not_a_pcm_wav_file(self, tmp_path):
        path = tmp_path / "f32.wav"
        path.write_bytes(float32_wav_bytes(100))
        with pytest.raises(AudioFormatError, match=re.escape(f"{path}: not a PCM WAV file")):
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
            expected = np.log(np.maximum(energies, 1e-10))
            np.testing.assert_array_equal(extract_dsp(x, self.CONFIG).frames[:, :n_mels], expected)

    def test_window_and_filterbank_are_shared_read_only_per_shape(self):
        window, fb = frontend._dsp_tables(400, 512, 16000, 8)
        assert frontend._dsp_tables(400, 512, 16000, 8)[1] is fb
        np.testing.assert_array_equal(fb, mel_filterbank(512, 16000, 8))
        for table in (window, fb):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1.0
        x = np.random.default_rng(5).normal(size=4000) * 0.1
        first, other, again = (extract_dsp(x, FrontendConfig(n_mels=n)) for n in (8, 24, 8))
        assert other.frames.shape[1] == 48
        np.testing.assert_array_equal(first.frames, again.frames)

    def test_short_utterance_gets_one_frame(self):
        mat = extract_dsp(np.random.default_rng(3).normal(size=150) * 0.1, self.CONFIG)
        assert mat.n_frames == 1

    def test_silence_is_the_log_floor_vector(self):
        mat = extract_dsp(np.zeros(8000), self.CONFIG)
        np.testing.assert_allclose(mat.frames, np.log(1e-10))

    def test_feature_dim_is_twice_n_mels(self):
        config = FrontendConfig(n_mels=24)
        mat = extract_dsp(np.random.default_rng(4).normal(size=4000) * 0.1, config)
        assert mat.frames.shape[1] == 48
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


class TestEmbeddingFiles:
    def test_binary_round_trip(self, tmp_path):
        frames = np.random.default_rng(10).normal(size=(6, 4)).astype(np.float32)
        path = tmp_path / "e.bin"
        save_precomputed(path, frames)
        loaded = load_precomputed(path)
        np.testing.assert_array_equal(loaded, frames)

    def test_text_form_is_rejected_naming_the_file(self, tmp_path):
        # The former text form, `sample_id dim t v...` per frame, has no SQE1 tag.
        frames = np.random.default_rng(11).normal(size=(3, 5))
        path = tmp_path / "e.txt"
        path.write_text("".join(f"utt-1 5 {t} " + " ".join(map(repr, row)) + "\n" for t, row in enumerate(frames)))
        for out in (None, np.full((3, 5), 7.0)):
            with pytest.raises(ValidationError, match=re.escape(f"{path}: not an SQE1 embedding file")):
                load_precomputed(path, out=out)
        assert np.all(out == 7.0)

    def test_decode_into_rows_of_its_shape(self, tmp_path):
        frames = np.random.default_rng(16).normal(size=(4, 3)).astype(np.float32)
        path = tmp_path / "e.bin"
        save_precomputed(path, frames)
        rows = np.empty((4, 3))
        assert load_precomputed(path, 3, rows) is rows
        assert rows.tobytes() == frames.astype(np.float64).tobytes()
        for shape in ((3, 3), (5, 3), (4, 4)):
            with pytest.raises(ValidationError, match=re.escape(f"{path}: features are 4 x 3")):
                load_precomputed(path, out=np.empty(shape))

    @pytest.mark.parametrize("dim", [0, -3])
    def test_expected_dim_must_be_positive(self, dim):
        # The packed decode sizes a file's rows as (size - 12) / (4 D).
        with pytest.raises(ValidationError, match=f"expected_dim must be positive, not {dim}"):
            FrontendConfig(kind="precomputed", expected_dim=dim)

    def test_dim_mismatch_rejected(self, tmp_path):
        path = tmp_path / "e.bin"
        save_precomputed(path, np.zeros((2, 3)))
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
        mats = [rng.normal(3.0, 2.0, size=(20, 4)) for _ in range(5)]
        scaler = FeatureScaler.fit(np.concatenate(mats))
        stacked = np.concatenate([scaler.standardize(m) for m in mats])
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

    @pytest.mark.parametrize("dim", [1, 2, 3, 80])
    @pytest.mark.parametrize("n", [1, 5, 4096, 4097, 9000])
    def test_fit_gives_the_bits_of_np_mean_and_np_std(self, n, dim):
        rng = np.random.default_rng(n * 100 + dim)
        frames = rng.normal(rng.uniform(-20, 20, size=dim), rng.uniform(0.1, 30, size=dim), size=(n, dim))
        frames[rng.random(frames.shape) < 0.01] = -0.0
        frames[:, -1] = 2.5  # a constant column: std 0, floored to 1e-8
        layouts = [frames, np.asfortranarray(frames), np.repeat(frames, 2, axis=1)[:, ::2]]
        for x in layouts:
            scaler = FeatureScaler.fit(x)
            assert scaler.mean.tobytes() == x.mean(axis=0).tobytes()
            assert scaler.std.tobytes() == np.maximum(x.std(axis=0), 1e-8).tobytes()
            assert scaler.std[-1] == 1e-8

    @pytest.mark.parametrize("dim", [1, 2, 64, 80])
    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 20_000])
    def test_fit_on_float32_rows_gives_the_bits_of_their_float64_copy(self, n, dim):
        # A packed SQE1 train matrix stays float32; its scaler must not know.
        rng = np.random.default_rng(n * 100 + dim + 7)
        frames = rng.normal(rng.uniform(-20, 20, size=dim), rng.uniform(0.1, 30, size=dim), size=(n, dim))
        frames = frames.astype(np.float32)
        frames[:, 0] = -0.0
        strided = np.repeat(frames, 2, axis=1)[:, ::2]  # not C-contiguous, as the reversed and Fortran views
        for x in (frames, strided, frames[::-1], np.asfortranarray(frames)):
            ours, theirs = FeatureScaler.fit(x), FeatureScaler.fit(x.astype(np.float64))
            assert (ours.mean.tobytes(), ours.std.tobytes()) == (theirs.mean.tobytes(), theirs.std.tobytes())

    def test_fit_allocates_no_copy_of_the_frames(self):
        frames = np.random.default_rng(16).normal(size=(20_000, 80))
        tracemalloc.start()
        try:
            FeatureScaler.fit(frames)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < frames.nbytes / 4

    def test_unit_scaler_and_dim_check(self):
        frames = np.random.default_rng(14).normal(size=(4, 3))
        unit = FeatureScaler(mean=np.zeros(3), std=np.ones(3))
        assert unit.standardize(frames.copy()).tobytes() == frames.tobytes()
        with pytest.raises(ValidationError):
            FeatureScaler(mean=np.zeros(5), std=np.ones(5)).standardize(frames)

    def test_standardize_in_place_and_into_out_match_the_formula_bitwise(self):
        rng = np.random.default_rng(15)
        frames = rng.normal(3.0, 2.0, size=(30, 4))
        scaler = FeatureScaler.fit(frames)
        expected = (frames - scaler.mean) / scaler.std
        out = np.empty_like(frames)
        assert scaler.standardize(frames, out) is out
        packed = frames.copy()
        assert scaler.standardize(packed) is packed
        assert packed.tobytes() == out.tobytes() == expected.tobytes()
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

    def test_a_shared_workspace_gives_the_bits_of_fresh_calls(self, tmp_path):
        rng = np.random.default_rng(8)
        clips = [
            (22050, 0.3 * rng.uniform(-1.0, 1.0, size=9000)),
            (8000, 0.5 * np.sin(np.arange(5000) * 0.3)),
            (16000, 0.2 * rng.standard_normal(7000)),
            (16000, 0.2 * rng.standard_normal(150)),  # shorter than one window
            (22050, np.zeros(4000)),  # pure silence
            (8000, 0.3 * rng.uniform(-1.0, 1.0, size=30000)),
            (16000, np.zeros(1)),
        ]
        samples = []
        for i, (rate, wave) in enumerate(clips):
            path = tmp_path / f"c{i}.wav"
            write_wav(path, wave, rate)
            samples.append(Sample(f"c{i}", path, None, "d", None, 3.0))
        scaler = FeatureScaler(mean=np.linspace(-4.0, 0.0, 16), std=np.linspace(0.5, 2.0, 16))
        # A 30 ms window leaves data in the pad columns a 25 ms one must see as zeros.
        configs = [(FrontendConfig(n_mels=8, window_ms=30.0), None), (FrontendConfig(n_mels=8), scaler)]
        work = Workspace()
        first = None
        for config, scale in configs:
            for sample in samples:
                shared = featurize(sample, config, scale, work)
                np.testing.assert_array_equal(shared.frames, featurize(sample, config, scale).frames)
                if first is None:
                    first, kept = shared, shared.frames.copy()
        np.testing.assert_array_equal(first.frames, kept)

    def test_without_a_workspace_the_public_steps_return_fresh_arrays(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(path, 0.3 * np.sin(np.arange(8000) * 0.1), 8000)
        a, _ = load_audio(path)
        b, _ = load_audio(path)
        assert not np.shares_memory(a, b)
        r1, r2 = resample_to_16k(a, 8000), resample_to_16k(a, 8000)
        assert not np.shares_memory(r1, r2)
        work = Workspace()
        shared, _ = load_audio(path, work)
        np.testing.assert_array_equal(shared, a)
        np.testing.assert_array_equal(resample_to_16k(shared, 8000, work), r1)
        shared_dsp = extract_dsp(r1, FrontendConfig(), work)
        np.testing.assert_array_equal(shared_dsp.frames, extract_dsp(r1, FrontendConfig()).frames)

    def test_precomputed_path(self, tmp_path):
        path = tmp_path / "e.bin"
        save_precomputed(path, np.random.default_rng(15).normal(size=(4, 6)).astype(np.float32))
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
        assert loaded.frames.shape[1] == 6

    def test_embedding_matrix_validation(self):
        with pytest.raises(ValidationError):
            EmbeddingMatrix(frames=np.array([1.0, 2.0]))
        with pytest.raises(ValidationError):
            EmbeddingMatrix(frames=np.array([[np.inf, 1.0]]))
