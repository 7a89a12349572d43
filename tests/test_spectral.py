import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vgmfeat.audio_io import AudioBuffer
from vgmfeat.spectral import (
    STFT_BLOCK_FRAMES,
    WINDOW_FUNCTIONS,
    StftParams,
    apply_filterbank,
    hz_to_mel,
    make_window,
    mel_filterbank,
    mel_to_hz,
    stft,
)

from reference import naive_rdft, one_shot_stft

BLOCK = STFT_BLOCK_FRAMES


def stft_frame(frame):
    """stft's magnitudes for one frame: frame 1 of a rectangular STFT with hop n/2 is x[:n]."""
    n = len(frame)
    buf = AudioBuffer(np.tile(frame, 2), 48000)
    return stft(buf, StftParams(n, n // 2, "rectangular")).values[:, 1]


class TestFftReal:
    """stft's per-frame transform against a direct O(n^2) DFT."""

    def test_impulse_is_flat(self):
        frame = np.zeros(8)
        frame[0] = 1.0
        np.testing.assert_allclose(stft_frame(frame), 1.0, atol=1e-12)

    def test_dc_only(self):
        spec = stft_frame(np.ones(8))
        assert spec[0] == pytest.approx(8.0, abs=1e-12)
        np.testing.assert_allclose(spec[1:], 0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [8, 64, 1024])
    def test_matches_naive_dft(self, n):
        frame = np.random.default_rng(n).standard_normal(n)
        got = stft_frame(frame)
        want = np.abs(naive_rdft(frame))
        assert np.max(np.abs(got - want)) / np.max(want) < 1e-9

    @pytest.mark.parametrize("n", [64, 256])
    def test_parseval(self, n):
        frame = np.random.default_rng(n + 1).standard_normal(n)
        spec = stft_frame(frame)
        time_energy = np.sum(frame**2)
        freq_energy = (spec[0] ** 2 + spec[-1] ** 2 + 2 * np.sum(spec[1:-1] ** 2)) / n
        assert abs(time_energy - freq_energy) / time_energy < 1e-6

    @pytest.mark.parametrize("n", [0, 1, 3, 12, 1000])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError):
            StftParams(n_fft=n)


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


class TestBlockedStft:
    """stft's frame blocks against every frame transformed in one call, bit for bit."""

    # n samples give 1 + n // hop frames. Near n_fft/2 samples the first and last blocks
    # both reach past the clip; at n_fft/2 or fewer numpy reflects more than once, and one
    # sample is zero-padded. Hop 96 does not divide n_fft 256.
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        shape=st.sampled_from([(2048, 512), (256, 96), (256, 1), (16, 5), (512, 512)]),
        window=st.sampled_from(WINDOW_FUNCTIONS),
        anchor=st.sampled_from(["half", "n_fft", "frames"]),
        frames=st.integers(0, 6 * BLOCK),
        offset=st.integers(-2, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shape=(2048, 512), window="hann", anchor="frames", frames=0, offset=1, seed=0)
    @example(shape=(2048, 512), window="hamming", anchor="frames", frames=BLOCK - 1, offset=0, seed=0)
    @example(shape=(2048, 512), window="rectangular", anchor="frames", frames=BLOCK, offset=0, seed=0)
    @example(shape=(2048, 512), window="hann", anchor="frames", frames=4 * BLOCK, offset=-1, seed=0)
    @example(shape=(256, 96), window="hann", anchor="half", frames=0, offset=0, seed=0)
    @example(shape=(256, 96), window="hamming", anchor="half", frames=0, offset=1, seed=0)
    @example(shape=(16, 5), window="rectangular", anchor="frames", frames=BLOCK, offset=1, seed=0)
    # One frame ending at x[n_fft/2 - 1], whose reflection still needs x[n_fft/2].
    @example(shape=(512, 512), window="hamming", anchor="half", frames=0, offset=2, seed=0)
    def test_matches_one_shot_oracle(self, shape, window, anchor, frames, offset, seed):
        params = StftParams(*shape, window)
        n = {"half": params.n_fft // 2, "n_fft": params.n_fft, "frames": frames * params.hop}[anchor]
        n = max(1, n + offset)
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        want = one_shot_stft(x, params.n_fft, params.hop, make_window(window, params.n_fft))
        got = stft(AudioBuffer(x, 48000), params).values
        assert np.array_equal(got, want), f"{n} samples"
        # The same layout too, so every later matrix product reads the same memory.
        assert got.strides == want.strides


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
        # the filters span 0 Hz to Nyquist, so only the two end bins may be uncovered
        fb = mel_filterbank(48000, 2048, n_mels=64)
        assert np.all(fb.sum(axis=0)[1:-1] > 0)


class TestApplyFilterbank:
    def test_zero_in_zero_out(self):
        buf = AudioBuffer(np.zeros(4096), 48000)
        mel = apply_filterbank(stft(buf, StftParams()).to_power(), mel_filterbank(48000, 2048, n_mels=128))
        np.testing.assert_array_equal(mel, 0.0)

    def test_linearity(self):
        x = np.random.default_rng(6).standard_normal(8000) * 0.2
        fb = mel_filterbank(44100, 2048, n_mels=64)
        a = apply_filterbank(stft(AudioBuffer(x, 44100), StftParams()).to_power(), fb)
        b = apply_filterbank(stft(AudioBuffer(3.0 * x, 44100), StftParams()).to_power(), fb)
        np.testing.assert_allclose(b, 9.0 * a, rtol=1e-9)

    def test_tone_energy_lands_in_overlapping_bands(self):
        sr, n_fft = 48000, 2048
        fb = mel_filterbank(sr, n_fft, n_mels=64)
        k = 300  # tone bin
        power = np.zeros((n_fft // 2 + 1, 4))
        power[k] = 1.0
        spec_like = stft(AudioBuffer(np.zeros(4096), sr), StftParams()).to_power()
        spec_like.values = power
        mel = apply_filterbank(spec_like, fb)
        active = np.flatnonzero(mel[:, 0] > 0)
        expected = np.flatnonzero(fb[:, k] > 0)
        assert len(expected) <= 2
        np.testing.assert_array_equal(active, expected)

    def test_dimension_and_kind_checks(self):
        fb = mel_filterbank(48000, 1024, n_mels=32)
        pwr = stft(AudioBuffer(np.zeros(4096), 48000), StftParams(2048, 512)).to_power()
        with pytest.raises(ValueError):
            apply_filterbank(pwr, fb)
        mag = stft(AudioBuffer(np.zeros(4096), 48000), StftParams(1024, 256))
        with pytest.raises(ValueError):
            apply_filterbank(mag, fb)
