import numpy as np
import pytest

from vgmfeat.audio_io import AudioBuffer
from vgmfeat.spectral import (
    StftParams,
    apply_filterbank,
    fft_real,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    stft,
)

from reference import naive_rdft


class TestFftReal:
    def test_impulse_is_flat(self):
        frame = np.zeros(8)
        frame[0] = 1.0
        np.testing.assert_allclose(np.abs(fft_real(frame)), 1.0, atol=1e-12)

    def test_dc_only(self):
        spec = fft_real(np.ones(8))
        assert abs(spec[0]) == pytest.approx(8.0, abs=1e-12)
        np.testing.assert_allclose(np.abs(spec[1:]), 0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [8, 64, 1024])
    def test_matches_naive_dft(self, n):
        frame = np.random.default_rng(n).standard_normal(n)
        got = fft_real(frame)
        want = naive_rdft(frame)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-9

    @pytest.mark.parametrize("n", [64, 256])
    def test_parseval(self, n):
        frame = np.random.default_rng(n + 1).standard_normal(n)
        spec = fft_real(frame)
        time_energy = np.sum(frame**2)
        freq_energy = (
            np.abs(spec[0]) ** 2 + np.abs(spec[-1]) ** 2 + 2 * np.sum(np.abs(spec[1:-1]) ** 2)
        ) / n
        assert abs(time_energy - freq_energy) / time_energy < 1e-6

    @pytest.mark.parametrize("n", [0, 1, 3, 12, 1000])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError):
            fft_real(np.zeros(n))


class TestStft:
    def test_frame_count_for_fifteen_seconds(self):
        buf = AudioBuffer(np.random.default_rng(3).standard_normal(720000) * 0.1, 48000)
        spec = stft(buf, StftParams(2048, 512))
        assert spec.values.shape == (1025, 1407)
        assert spec.frame_rate_hz == pytest.approx(93.75)

    def test_zero_input_gives_zero_spectrogram(self):
        spec = stft(AudioBuffer(np.zeros(4096), 48000), StftParams())
        np.testing.assert_array_equal(spec.values, 0.0)

    def test_bin_centered_tone_peaks_in_its_row(self):
        # cosine phase and a length of 192*256 + 1 keep the reflect-padded
        # extension a pure tone, so every frame stays leakage-free
        n = 192 * 256 + 1
        t = np.arange(n)
        buf = AudioBuffer(0.5 * np.cos(2 * np.pi * 44 * t / 2048), 48000)
        spec = stft(buf, StftParams(2048, 512, "rectangular"))
        assert np.all(spec.values.argmax(axis=0) == 44)
        # agreement with the naive DFT on a single frame
        frame = buf.samples[: 2048]
        np.testing.assert_allclose(
            spec.values[:, 2], np.abs(naive_rdft(frame)), rtol=1e-9, atol=1e-6
        )

    def test_magnitude_scales_linearly(self):
        x = np.random.default_rng(4).standard_normal(10000) * 0.1
        a = stft(AudioBuffer(x, 44100), StftParams()).values
        b = stft(AudioBuffer(2.5 * x, 44100), StftParams()).values
        np.testing.assert_allclose(b, 2.5 * a, rtol=1e-9, atol=1e-12)

    def test_power_kind_is_squared_magnitude(self):
        buf = AudioBuffer(np.random.default_rng(5).standard_normal(5000) * 0.1, 44100)
        mag = stft(buf, StftParams(), kind="magnitude")
        pwr = stft(buf, StftParams(), kind="power")
        np.testing.assert_allclose(pwr.values, mag.values**2, rtol=1e-12)
        np.testing.assert_allclose(mag.to_power().values, pwr.values, rtol=1e-12)

    def test_window_choices_change_the_analysis(self):
        buf = AudioBuffer(np.random.default_rng(7).standard_normal(5000) * 0.1, 44100)
        mags = {w: stft(buf, StftParams(2048, 512, w)).values for w in
                ("hann", "hamming", "rectangular")}
        assert not np.allclose(mags["hann"], mags["hamming"])
        assert not np.allclose(mags["hann"], mags["rectangular"])

    def test_param_validation(self):
        with pytest.raises(ValueError):
            StftParams(n_fft=1000)
        with pytest.raises(ValueError):
            StftParams(hop=0)
        with pytest.raises(ValueError):
            StftParams(hop=4096)
        with pytest.raises(ValueError):
            StftParams(window="kaiser")
        with pytest.raises(ValueError):
            stft(AudioBuffer(np.zeros(0), 48000), StftParams())


class TestMelFilterbank:
    def test_mel_scale_closed_forms(self):
        assert hz_to_mel(0.0) == 0.0
        assert hz_to_mel(700.0) == pytest.approx(2595.0 * np.log10(2.0))
        assert mel_to_hz(hz_to_mel(1234.5)) == pytest.approx(1234.5)

    def test_centers_increase_and_rows_are_positive(self):
        fb = mel_filterbank(48000, 2048, n_mels=128)
        assert fb.shape == (128, 1025)
        centers = [np.argmax(row) for row in fb]
        assert all(b >= a for a, b in zip(centers, centers[1:]))
        assert np.all(fb.sum(axis=1) > 0)
        assert np.all(fb >= 0)

    def test_rows_are_unimodal(self):
        fb = mel_filterbank(22050, 1024, n_mels=40)
        for row in fb:
            peak = np.argmax(row)
            assert np.all(np.diff(row[: peak + 1]) >= -1e-12)
            assert np.all(np.diff(row[peak:]) <= 1e-12)

    def test_interior_bins_are_covered(self):
        fb = mel_filterbank(48000, 2048, n_mels=64, fmin_hz=100.0, fmax_hz=8000.0)
        freqs = np.arange(1025) * 48000 / 2048
        inside = (freqs > 100.0) & (freqs < 8000.0)
        assert np.all(fb.sum(axis=0)[inside] > 0)

    def test_area_normalization(self):
        peak = mel_filterbank(48000, 2048, n_mels=32)
        area = mel_filterbank(48000, 2048, n_mels=32, normalization="area")
        assert np.max(area) < np.max(peak)
        assert np.all((peak > 0) == (area > 0))

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            mel_filterbank(48000, 2048, fmax_hz=30000.0)
        with pytest.raises(ValueError):
            mel_filterbank(48000, 2048, fmin_hz=-5.0)
        with pytest.raises(ValueError):
            mel_filterbank(48000, 2048, fmin_hz=9000.0, fmax_hz=9000.0)


class TestApplyFilterbank:
    def test_zero_in_zero_out(self):
        buf = AudioBuffer(np.zeros(4096), 48000)
        mel = apply_filterbank(stft(buf, StftParams(), kind="power"), mel_filterbank(48000, 2048))
        np.testing.assert_array_equal(mel, 0.0)

    def test_linearity(self):
        x = np.random.default_rng(6).standard_normal(8000) * 0.2
        fb = mel_filterbank(44100, 2048, n_mels=64)
        a = apply_filterbank(stft(AudioBuffer(x, 44100), StftParams(), kind="power"), fb)
        b = apply_filterbank(stft(AudioBuffer(3.0 * x, 44100), StftParams(), kind="power"), fb)
        np.testing.assert_allclose(b, 9.0 * a, rtol=1e-9)

    def test_tone_energy_lands_in_overlapping_bands(self):
        sr, n_fft = 48000, 2048
        fb = mel_filterbank(sr, n_fft, n_mels=64)
        k = 300  # tone bin
        power = np.zeros((n_fft // 2 + 1, 4))
        power[k] = 1.0
        spec_like = stft(AudioBuffer(np.zeros(4096), sr), StftParams(), kind="power")
        spec_like.values = power
        mel = apply_filterbank(spec_like, fb)
        active = np.flatnonzero(mel[:, 0] > 0)
        expected = np.flatnonzero(fb[:, k] > 0)
        assert len(expected) <= 2
        np.testing.assert_array_equal(active, expected)

    def test_dimension_and_kind_checks(self):
        fb = mel_filterbank(48000, 1024, n_mels=32)
        pwr = stft(AudioBuffer(np.zeros(4096), 48000), StftParams(2048, 512), kind="power")
        with pytest.raises(ValueError):
            apply_filterbank(pwr, fb)
        mag = stft(AudioBuffer(np.zeros(4096), 48000), StftParams(1024, 256), kind="magnitude")
        with pytest.raises(ValueError):
            apply_filterbank(mag, fb)
