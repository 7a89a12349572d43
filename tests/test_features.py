import numpy as np
import pytest

from vgmfeat.audio_io import AudioBuffer
from vgmfeat.errors import NoTempoError
from vgmfeat.features import (
    PITCH_CLASSES,
    chroma,
    mfcc,
    onset_envelope,
    spectral_centroid,
    tempo_bpm,
    zero_crossing_rate,
)
from vgmfeat.spectral import StftParams, apply_filterbank, mel_filterbank, stft
from vgmfeat.synth import make_click_track

from conftest import sine
from reference import count_sign_changes, naive_dct2_ortho, naive_rdft, pitch_class_energy


def tone_buffer(freq_hz, duration_s=1.0, sr=48000, amplitude=0.5):
    return AudioBuffer(sine(freq_hz, duration_s, sr, amplitude), sr)


class TestZeroCrossingRate:
    def test_constant_signal_has_no_crossings(self):
        series = zero_crossing_rate(AudioBuffer(np.full(10000, 0.3), 48000))
        np.testing.assert_array_equal(series.values, 0.0)

    def test_alternating_signal_crosses_every_pair(self):
        x = np.tile([1.0, -1.0], 5000)
        series = zero_crossing_rate(AudioBuffer(x, 48000))
        np.testing.assert_allclose(series.values, 1.0)

    def test_hundred_hertz_sine(self):
        buf = tone_buffer(100.0, 2.0)
        series = zero_crossing_rate(buf, 2048, 512)
        # direct count on each frame is the oracle
        for t in range(series.n_frames):
            frame = buf.samples[t * 512 : t * 512 + 2048]
            assert series.values[0, t] == pytest.approx(count_sign_changes(frame) / 2047)
        expected = 200.0 / 48000 * 2048 / 2047
        assert series.values.mean() == pytest.approx(expected, rel=0.1)

    def test_zero_counts_as_non_negative(self):
        x = np.array([0.0, 1.0, 0.0, -1.0, 0.0, 1.0, -1.0, 0.0])
        series = zero_crossing_rate(AudioBuffer(x, 8), frame_len=8, hop=8)
        assert series.values[0, 0] == pytest.approx(count_sign_changes(x) / 7)
        assert count_sign_changes(x) == 4

    def test_gain_invariant(self):
        x = np.random.default_rng(7).standard_normal(6000)
        a = zero_crossing_rate(AudioBuffer(x, 48000)).values
        b = zero_crossing_rate(AudioBuffer(0.01 * x, 48000)).values
        np.testing.assert_array_equal(a, b)

    def test_bounds_on_noise(self):
        x = np.random.default_rng(8).standard_normal(20000)
        vals = zero_crossing_rate(AudioBuffer(x, 48000)).values
        assert np.all(vals >= 0) and np.all(vals <= 1)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            zero_crossing_rate(AudioBuffer(np.zeros(0), 48000))
        with pytest.raises(ValueError):
            zero_crossing_rate(AudioBuffer(np.zeros(100), 48000), frame_len=1)
        with pytest.raises(ValueError):
            zero_crossing_rate(AudioBuffer(np.zeros(100), 48000), frame_len=200)


class TestSpectralCentroid:
    def test_bin_centered_tone_rectangular_window_is_exact(self):
        n = 192 * 256 + 1
        t = np.arange(n)
        buf = AudioBuffer(0.5 * np.cos(2 * np.pi * 44 * t / 2048), 48000)
        spec = stft(buf, StftParams(2048, 512, "rectangular"))
        series = spectral_centroid(spec)
        np.testing.assert_allclose(series.values, 1031.25, atol=1e-6)

    def test_bin_centered_tone_hann_window(self):
        buf = tone_buffer(1031.25, 1.0)
        series = spectral_centroid(stft(buf, StftParams()))
        # steady-state frames; the few reflect-padded edge frames leak more
        interior = series.values[0, 2:-2]
        np.testing.assert_allclose(interior, 1031.25, atol=5.0)
        # one mid frame checked against the naive DFT
        frame = buf.samples[10 * 512 - 1024 : 10 * 512 + 1024]
        window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(2048) / 2048)
        mags = np.abs(naive_rdft(frame * window))
        freqs = np.arange(1025) * 48000 / 2048
        assert series.values[0, 10] == pytest.approx(freqs @ mags / mags.sum(), rel=1e-9)

    def test_silent_frames_are_zero(self):
        series = spectral_centroid(stft(AudioBuffer(np.zeros(4096), 48000), StftParams()))
        np.testing.assert_array_equal(series.values, 0.0)

    def test_gain_invariant_and_bounded(self):
        x = np.random.default_rng(9).standard_normal(20000) * 0.1
        a = spectral_centroid(stft(AudioBuffer(x, 48000), StftParams())).values
        b = spectral_centroid(stft(AudioBuffer(5.0 * x, 48000), StftParams())).values
        np.testing.assert_allclose(a, b, rtol=1e-9)
        assert np.all(a >= 0) and np.all(a <= 24000)

    def test_requires_magnitude_kind(self):
        with pytest.raises(ValueError):
            spectral_centroid(stft(AudioBuffer(np.zeros(4096), 48000), StftParams(), kind="power"))


class TestChroma:
    def test_a4_maps_to_class_a(self):
        series = chroma(stft(tone_buffer(440.0), StftParams(), kind="power"))
        assert PITCH_CLASSES[series.values.mean(axis=1).argmax()] == "a"

    def test_octave_equivalence(self):
        lo = chroma(stft(tone_buffer(440.0), StftParams(), kind="power"))
        hi = chroma(stft(tone_buffer(880.0), StftParams(), kind="power"))
        assert lo.values.mean(axis=1).argmax() == hi.values.mean(axis=1).argmax() == 9

    def test_c_major_triad_top_three(self):
        x = (
            sine(261.63, 1.0, 48000, 0.3)
            + sine(329.63, 1.0, 48000, 0.3)
            + sine(392.00, 1.0, 48000, 0.3)
        )
        spec = stft(AudioBuffer(x, 48000), StftParams(), kind="power")
        series = chroma(spec)
        top3 = {PITCH_CLASSES[i] for i in np.argsort(series.values.mean(axis=1))[-3:]}
        assert top3 == {"c", "e", "g"}
        # the folding itself matches a brute-force bin walk
        raw = pitch_class_energy(spec.values, spec.bin_frequencies_hz())
        peak = raw.max(axis=0)
        expected = np.divide(raw, peak, out=np.zeros_like(raw), where=peak > 0)
        np.testing.assert_allclose(series.values, expected, atol=1e-12)

    def test_columns_normalized_to_unit_max(self):
        x = np.random.default_rng(10).standard_normal(20000) * 0.1
        series = chroma(stft(AudioBuffer(x, 48000), StftParams(), kind="power"))
        assert np.all(series.values >= 0) and np.all(series.values <= 1 + 1e-12)
        np.testing.assert_allclose(series.values.max(axis=0), 1.0)

    def test_all_zero_frames_stay_zero(self):
        series = chroma(stft(AudioBuffer(np.zeros(4096), 48000), StftParams(), kind="power"))
        np.testing.assert_array_equal(series.values, 0.0)

    def test_requires_power_kind(self):
        with pytest.raises(ValueError):
            chroma(stft(tone_buffer(440.0), StftParams(), kind="magnitude"))


class TestMfcc:
    def test_constant_mel_is_dc_only(self):
        mel = np.full((40, 7), 2.5)
        series = mfcc(mel, 13)
        assert np.all(np.abs(series.values[0]) > 0)
        np.testing.assert_allclose(series.values[1:], 0.0, atol=1e-12)

    def test_matches_naive_dct(self):
        mel = np.random.default_rng(11).uniform(0.1, 5.0, size=(32, 9))
        series = mfcc(mel, 32)
        want = naive_dct2_ortho(np.log(mel + 1e-10))
        assert np.max(np.abs(series.values - want)) < 1e-9

    def test_gain_moves_only_the_dc_coefficient(self):
        # broadband stimulus keeps every mel band far above the log floor
        x = 0.3 * np.random.default_rng(16).standard_normal(48000)
        fb = mel_filterbank(48000, 2048)

        def coeffs(gain):
            mel = apply_filterbank(stft(AudioBuffer(x * gain, 48000), StftParams(), kind="power"), fb)
            return mfcc(mel, 13).values

        base, loud = coeffs(1.0), coeffs(3.7)
        np.testing.assert_allclose(loud[1:], base[1:], atol=1e-6)
        expected_shift = 2.0 * np.log(3.7) * np.sqrt(128)
        np.testing.assert_allclose(loud[0] - base[0], expected_shift, atol=1e-6)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            mfcc(np.ones((10, 4)), 11)
        with pytest.raises(ValueError):
            mfcc(np.full((10, 4), -1.0), 5)
        with pytest.raises(ValueError):
            mfcc(np.ones(10), 5)


class TestTempo:
    @pytest.mark.parametrize("bpm", [90.0, 120.0])
    def test_click_track(self, bpm):
        buf = make_click_track(bpm, 15.0, 48000, rng=np.random.default_rng(12))
        est = tempo_bpm(buf)
        assert abs(est.bpm - bpm) <= 2.0
        assert np.all(est.onset_envelope >= 0)

    def test_custom_range_is_respected(self):
        buf = make_click_track(100.0, 15.0, 48000, rng=np.random.default_rng(13))
        est = tempo_bpm(buf, bpm_range=(80.0, 160.0))
        assert 80.0 <= est.bpm <= 160.0
        assert abs(est.bpm - 100.0) <= 2.0

    def test_silence_has_no_tempo(self):
        with pytest.raises(NoTempoError):
            tempo_bpm(AudioBuffer(np.zeros(15 * 48000), 48000))

    def test_too_short_input_rejected(self):
        buf = make_click_track(120.0, 2.0, 48000)
        with pytest.raises(ValueError):
            tempo_bpm(buf)  # under 4 beats at 60 BPM

    def test_deterministic(self):
        buf = make_click_track(132.0, 15.0, 48000, rng=np.random.default_rng(14))
        assert tempo_bpm(buf).bpm == tempo_bpm(buf).bpm

    def test_envelope_is_halfwave_flux(self):
        buf = make_click_track(120.0, 5.0, 48000, rng=np.random.default_rng(15))
        spec = stft(buf, StftParams())
        env = onset_envelope(spec)
        mag = spec.values
        want = np.maximum(mag[:, 1:] - mag[:, :-1], 0.0).sum(axis=0)
        np.testing.assert_array_equal(env, want)
        assert len(env) == spec.n_frames - 1
