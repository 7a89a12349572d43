import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vgmfeat.audio_io import (
    AudioBuffer,
    PreprocessSpec,
    center_trim,
    decode_wav,
    encode_wav,
    peak_normalize,
    preprocess,
    resample,
)
from vgmfeat.errors import SilentAudioError, TooShortError, UnsupportedWavError, VgmfeatError, WavDecodeError

from conftest import sine
from reference import naive_dft_magnitudes


def wav_bytes(payload, format_tag, channels, rate, bits):
    block = channels * bits // 8
    return b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, format_tag, channels, rate, rate * block, block, bits),
            b"data",
            struct.pack("<I", len(payload)),
            payload,
        ]
    )


def extensible_wav_bytes(payload, sub_format, channels, rate, bits):
    """WAVE_FORMAT_EXTENSIBLE container: the codec sits in the 40-byte fmt chunk's sub-format GUID."""
    block = channels * bits // 8
    guid = struct.pack("<H", sub_format) + b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xAA\x00\x38\x9B\x71"
    fmt = struct.pack("<HHIIHH", 0xFFFE, channels, rate, rate * block, block, bits)
    fmt += struct.pack("<HHI", 22, bits, 0) + guid
    return b"".join(
        [
            b"RIFF",
            struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack("<I", len(fmt)),
            fmt,
            b"data",
            struct.pack("<I", len(payload)),
            payload,
        ]
    )


# One small file per supported layout, for the robustness properties below.
SAMPLE_WAVS = {
    "pcm16": wav_bytes(np.array([0, 16384, -32768, 77], dtype="<i2").tobytes(), 1, 1, 48000, 16),
    "pcm24": wav_bytes(bytes([0x00, 0x00, 0x40, 0x00, 0x00, 0xC0, 0x01, 0x00, 0x00]), 1, 1, 48000, 24),
    "float32": wav_bytes(np.array([[0.25, -0.5], [0.0, 1.0]], dtype="<f4").tobytes(), 3, 2, 44100, 32),
    "extensible": extensible_wav_bytes(np.array([0.5, -0.5], dtype="<f4").tobytes(), 3, 1, 48000, 32),
}


def decodes_or_raises_vgmfeat_error(data):
    try:
        return isinstance(decode_wav(data), AudioBuffer)
    except VgmfeatError:
        return True


class TestDecodeWav:
    def test_pcm16_scaling(self):
        payload = np.array([0, 16384, -32768], dtype="<i2").tobytes()
        buf = decode_wav(wav_bytes(payload, 1, 1, 48000, 16))
        assert buf.sample_rate_hz == 48000
        np.testing.assert_array_equal(buf.samples, [0.0, 0.5, -1.0])

    def test_stereo_mixdown_is_channel_mean(self):
        frames = np.array([[1.0, 0.0]] * 5, dtype="<f4")
        buf = decode_wav(wav_bytes(frames.tobytes(), 3, 2, 44100, 32))
        np.testing.assert_allclose(buf.samples, 0.5)

    def test_pcm16_stereo_exact(self):
        frames = np.array([[16384, -16384], [8192, 8192]], dtype="<i2")
        buf = decode_wav(wav_bytes(frames.tobytes(), 1, 2, 48000, 16))
        np.testing.assert_array_equal(buf.samples, [0.0, 0.25])

    def test_pcm24_scaling(self):
        # 0x400000 = 2^22 -> 0.5; 0xC00000 sign-extends to -2^22 -> -0.5
        payload = bytes([0x00, 0x00, 0x40, 0x00, 0x00, 0xC0, 0x01, 0x00, 0x00])
        buf = decode_wav(wav_bytes(payload, 1, 1, 48000, 24))
        np.testing.assert_allclose(buf.samples, [0.5, -0.5, 1.0 / 8388608])

    def test_float32_passthrough(self):
        x = np.array([0.25, -0.75, 0.0], dtype="<f4")
        buf = decode_wav(wav_bytes(x.tobytes(), 3, 1, 32000, 32))
        np.testing.assert_array_equal(buf.samples, x.astype(np.float64))

    def test_extensible_header(self):
        x = np.array([0.5, -0.5], dtype="<f4")
        sub = struct.pack("<H", 3) + b"\x00\x00" + b"\x00\x00\x10\x00\x80\x00\x00\xAA\x00\x38\x9B\x71"
        fmt = struct.pack("<HHIIHH", 0xFFFE, 1, 48000, 192000, 4, 32) + struct.pack("<HHI", 22, 32, 4) + sub
        data = x.tobytes()
        raw = b"".join(
            [
                b"RIFF",
                struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(data)),
                b"WAVE",
                b"fmt ",
                struct.pack("<I", len(fmt)),
                fmt,
                b"data",
                struct.pack("<I", len(data)),
                data,
            ]
        )
        buf = decode_wav(raw)
        np.testing.assert_array_equal(buf.samples, [0.5, -0.5])

    def test_pcm16_round_trip_error_within_one_step(self):
        buf = AudioBuffer(sine(440.0, 1.0), 48000)
        back = decode_wav(encode_wav(buf, "pcm16"))
        assert back.sample_rate_hz == 48000
        assert np.max(np.abs(back.samples - buf.samples)) <= 1.0 / 32768

    def test_float32_round_trip(self):
        buf = AudioBuffer(sine(440.0, 0.1), 48000)
        back = decode_wav(encode_wav(buf, "float32"))
        np.testing.assert_allclose(back.samples, buf.samples, atol=1e-7)

    @pytest.mark.parametrize(
        "data, chunk",
        [
            (b"RIFX" + b"\x00" * 40, "RIFF"),
            (b"RIFF" + struct.pack("<I", 36) + b"AIFF" + b"\x00" * 20, "WAVE"),
            (wav_bytes(b"\x00\x00", 1, 1, 48000, 16)[:20], "fmt"),
        ],
    )
    def test_malformed_names_chunk(self, data, chunk):
        with pytest.raises(WavDecodeError, match=chunk):
            decode_wav(data)

    def test_missing_data_chunk(self):
        raw = wav_bytes(b"", 1, 1, 48000, 16)
        with pytest.raises(WavDecodeError, match="data"):
            decode_wav(raw[: raw.index(b"data")])

    def test_unsupported_codec(self):
        with pytest.raises(UnsupportedWavError):
            decode_wav(wav_bytes(b"\x00\x00", 1, 1, 48000, 8))  # PCM 8-bit
        with pytest.raises(UnsupportedWavError):
            decode_wav(wav_bytes(b"\x00\x00", 7, 1, 8000, 8))  # mu-law

    def test_truncated_extensible_fmt_chunk(self):
        raw = SAMPLE_WAVS["extensible"]
        fmt_at = raw.index(b"fmt ")
        # the fmt chunk declares its 40 bytes, but the file ends 20 bytes into it
        with pytest.raises(WavDecodeError, match="truncated fmt extension"):
            decode_wav(raw[: fmt_at + 8 + 20])

    def test_non_finite_float_samples(self):
        payload = np.array([0.25, np.nan, np.inf], dtype="<f4").tobytes()
        with pytest.raises(WavDecodeError, match="NaN or Inf"):
            decode_wav(wav_bytes(payload, 3, 1, 48000, 32))


class TestDecodeWavRobustness:
    """decode_wav returns an AudioBuffer or raises VgmfeatError, whatever the bytes."""

    @pytest.mark.parametrize("name", sorted(SAMPLE_WAVS))
    def test_every_prefix(self, name):
        raw = SAMPLE_WAVS[name]
        assert isinstance(decode_wav(raw), AudioBuffer)
        for n in range(len(raw)):
            assert decodes_or_raises_vgmfeat_error(raw[:n]), n

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        name=st.sampled_from(sorted(SAMPLE_WAVS)),
        edits=st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)), min_size=1, max_size=6),
    )
    def test_byte_mutations(self, name, edits):
        raw = bytearray(SAMPLE_WAVS[name])
        for pos, value in edits:
            raw[pos % len(raw)] = value
        assert decodes_or_raises_vgmfeat_error(bytes(raw))


class TestResample:
    def test_identity_rate_bit_identical(self):
        buf = AudioBuffer(np.random.default_rng(0).standard_normal(1000) * 0.1, 44100)
        out = resample(buf, 44100)
        assert out.sample_rate_hz == 44100
        np.testing.assert_array_equal(out.samples, buf.samples)

    def test_output_length_is_rounded_ratio(self):
        buf = AudioBuffer(np.zeros(44100), 44100)
        assert len(resample(buf, 48000).samples) == 48000
        buf = AudioBuffer(np.zeros(12345), 44100)
        assert len(resample(buf, 48000).samples) == round(12345 * 48000 / 44100)

    @pytest.mark.parametrize("src, dst", [(44100, 48000), (48000, 44100)])
    def test_tone_survives(self, src, dst):
        buf = AudioBuffer(sine(440.0, 0.25, src), src)
        out = resample(buf, dst)
        mags = naive_dft_magnitudes(out.samples)
        peak_hz = np.argmax(mags) * dst / len(out.samples)
        bin_hz = dst / len(out.samples)
        assert abs(peak_hz - 440.0) <= bin_hz + 1e-9
        rms_db = 20 * np.log10(
            np.sqrt(np.mean(out.samples**2)) / np.sqrt(np.mean(buf.samples**2))
        )
        assert abs(rms_db) < 1.0

    def test_downsampling_rejects_out_of_band_energy(self):
        # a 15 kHz tone sits far beyond the 22.05 kHz target's Nyquist
        buf = AudioBuffer(sine(15000.0, 0.5, 48000), 48000)
        out = resample(buf, 22050)
        in_rms = np.sqrt(np.mean(buf.samples**2))
        out_rms = np.sqrt(np.mean(out.samples**2))
        assert 20 * np.log10(out_rms / in_rms + 1e-15) < -60.0

    def test_invalid_target(self):
        buf = AudioBuffer(np.zeros(10), 44100)
        with pytest.raises(ValueError):
            resample(buf, 0)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            resample(AudioBuffer(np.zeros(0), 44100), 48000)


class TestPeakNormalize:
    def test_minus_five_dbfs(self):
        buf = AudioBuffer(np.array([0.2, -1.0, 0.5]), 48000)
        out = peak_normalize(buf, -5.0)
        assert abs(np.max(np.abs(out.samples)) - 10 ** (-0.25)) < 1e-9

    def test_idempotent(self):
        buf = AudioBuffer(sine(100.0, 0.1), 48000)
        once = peak_normalize(buf, -5.0)
        twice = peak_normalize(once, -5.0)
        assert np.max(np.abs(twice.samples - once.samples)) <= 1e-9

    def test_zero_dbfs_gain(self):
        buf = AudioBuffer(np.array([0.1, -0.05]), 48000)
        out = peak_normalize(buf, 0.0)
        np.testing.assert_allclose(out.samples, [1.0, -0.5])

    def test_preserves_signs(self):
        x = np.random.default_rng(1).standard_normal(500)
        out = peak_normalize(AudioBuffer(x, 8000), -5.0)
        np.testing.assert_array_equal(np.sign(out.samples), np.sign(x))

    def test_silent_input_rejected(self):
        with pytest.raises(SilentAudioError):
            peak_normalize(AudioBuffer(np.zeros(100), 48000), -5.0)


class TestCenterTrim:
    def test_sixty_seconds_starts_at_midpoint(self):
        buf = AudioBuffer(np.arange(60 * 48000, dtype=np.float64) / 1e9, 48000)
        out = center_trim(buf, 15.0)
        assert len(out.samples) == 720000
        assert out.samples[0] * 1e9 == 1080000
        assert out.samples[-1] * 1e9 == 1799999

    def test_exact_length_is_identity(self):
        buf = AudioBuffer(sine(440.0, 15.0, 8000), 8000)
        np.testing.assert_array_equal(center_trim(buf, 15.0).samples, buf.samples)

    def test_too_short_rejected(self):
        buf = AudioBuffer(np.zeros(10 * 48000), 48000)
        with pytest.raises(TooShortError):
            center_trim(buf, 15.0)

    def test_output_is_contiguous_slice(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(1000)
        out = center_trim(AudioBuffer(x, 100), 3.0)
        assert len(out.samples) == 300
        start = (1000 - 300) // 2
        np.testing.assert_array_equal(out.samples, x[start : start + 300])


class TestPreprocess:
    def test_gain_computed_before_trim(self):
        # the global peak sits outside the middle clip, so the clip peak
        # must land below the target after normalization
        x = sine(300.0, 20.0, 8000, amplitude=0.25)
        x[100] = 1.0
        out = preprocess(AudioBuffer(x, 8000), PreprocessSpec(-5.0, 15.0, 8000))
        assert len(out.samples) == 15 * 8000
        assert np.max(np.abs(out.samples)) < 10 ** (-0.25) * 0.5

    def test_pad_short_opt_in(self):
        buf = AudioBuffer(sine(220.0, 10.0, 8000), 8000)
        with pytest.raises(TooShortError):
            preprocess(buf, PreprocessSpec(-5.0, 15.0, 8000))
        out = preprocess(buf, PreprocessSpec(-5.0, 15.0, 8000, pad_short=True))
        assert len(out.samples) == 15 * 8000

    def test_resamples_to_target(self):
        buf = AudioBuffer(sine(440.0, 16.0, 44100), 44100)
        out = preprocess(buf, PreprocessSpec())
        assert out.sample_rate_hz == 48000
        assert len(out.samples) == 720000


class TestValidation:
    def test_non_finite_samples_rejected(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.array([0.0, np.nan]), 48000)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros(4), 0)

    def test_spec_ranges(self):
        with pytest.raises(ValueError):
            PreprocessSpec(target_peak_dbfs=1.0)
        with pytest.raises(ValueError):
            PreprocessSpec(clip_duration_s=0.0)
        with pytest.raises(ValueError):
            PreprocessSpec(target_sample_rate_hz=-1)
