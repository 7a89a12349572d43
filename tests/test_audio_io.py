import gc
import multiprocessing
import os
import struct
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vgmfeat import audio_io
from vgmfeat.audio_io import (
    RESAMPLE_BLOCK_PERIODS,
    RESAMPLE_FADE_SAMPLES,
    RESAMPLE_GROUP_SPAN_TAPS,
    RESAMPLE_KAISER_BETA,
    RESAMPLE_TAPS_PER_PHASE,
    AudioBuffer,
    PreprocessSpec,
    _branch_groups,
    center_trim,
    decode_wav,
    encode_wav,
    parse_wav,
    peak_normalize,
    preprocess,
    resample,
)
from vgmfeat.errors import SilentAudioError, TooShortError, UnsupportedWavError, VgmfeatError, WavDecodeError

from conftest import pcm_bytes, sine, wav_bytes
from reference import (
    ieee_float_two_pass,
    naive_dft_magnitudes,
    padded_gemm_resample,
    pcm_to_float_two_pass,
    sinc_bank,
    unblocked_resample,
    unsigned_pcm8_to_float_two_pass,
)


# 44.1 -> 48 kHz is one branch group, 44.1 -> 22.05 kHz has one branch (up = 1),
# 32 -> 48 kHz has three, and 96 -> 44.1 kHz needs more than one group.
RATE_PAIRS = [(44100, 48000), (22050, 48000), (44100, 22050), (32000, 48000), (96000, 44100)]


def padded_gemm(x, src, dst):
    return padded_gemm_resample(x, src, dst, RESAMPLE_TAPS_PER_PHASE, RESAMPLE_KAISER_BETA, RESAMPLE_FADE_SAMPLES,
                                RESAMPLE_BLOCK_PERIODS, RESAMPLE_GROUP_SPAN_TAPS)


def extensible_wav_bytes(payload, sub_format, channels, rate, bits, valid_bits=None):
    """WAVE_FORMAT_EXTENSIBLE container: the codec sits in the 40-byte fmt chunk's sub-format GUID.

    `valid_bits` (default `bits`) is the header's count of meaningful bits in each `bits`-bit container.
    """
    block = channels * bits // 8
    guid = struct.pack("<H", sub_format) + b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xAA\x00\x38\x9B\x71"
    fmt = struct.pack("<HHIIHH", 0xFFFE, channels, rate, rate * block, block, bits)
    fmt += struct.pack("<HHI", 22, bits if valid_bits is None else valid_bits, 0) + guid
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
    "pcm8": wav_bytes(bytes([0, 128, 255, 64]), 1, 1, 8000, 8),
    "pcm32": wav_bytes(pcm_bytes([[-2**31, 5], [0, 2**31 - 1]], 32), 1, 2, 48000, 32),
    "float64": wav_bytes(np.array([[0.25, -1e-300], [1.5, -2.0]], dtype="<f8").tobytes(), 3, 2, 44100, 64),
    # 24 valid bits, left-justified in 32-bit containers, as 24-bit recorders write them.
    "extensible24in32": extensible_wav_bytes(pcm_bytes(np.array([-2**23, 5, 2**23 - 1]) * 256, 32), 1, 1,
                                             48000, 32, valid_bits=24),
}
# Whole files that must fail with a WavDecodeError naming the fmt chunk.
MALFORMED_WAVS = {
    "block-align": wav_bytes(np.array([[0, 16384], [-32768, 77]], dtype="<i2").tobytes(), 1, 2, 48000, 16, block=2),
}


def decoded(source):
    """decode_wav(source)'s rate and sample bits, or the type and message of the VgmfeatError it raised."""
    try:
        buf = decode_wav(source)
    except VgmfeatError as exc:
        return type(exc), str(exc)
    return buf.sample_rate_hz, buf.samples.tobytes()


def on_disk(data):
    """A temporary file holding data, open for reading and writing."""
    file = tempfile.TemporaryFile()
    file.write(data)
    file.flush()
    return file


def decodes_or_raises_vgmfeat_error(data):
    """decode_wav gives an AudioBuffer or raises VgmfeatError, and the same from a file holding the bytes."""
    with on_disk(data) as file:
        return decoded(data) == decoded(file)


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

    def test_pcm8_scaling(self):
        # unsigned bytes centred on 128: 0 -> -1, 128 -> 0, 255 -> 127/128
        buf = decode_wav(wav_bytes(bytes([0, 128, 255, 64]), 1, 1, 8000, 8))
        np.testing.assert_array_equal(buf.samples, [-1.0, 0.0, 127 / 128, -0.5])

    def test_pcm32_scaling(self):
        ints = np.array([-2**31, 0, 2**31 - 1, 2**30])
        buf = decode_wav(wav_bytes(pcm_bytes(ints, 32), 1, 1, 48000, 32))
        np.testing.assert_array_equal(buf.samples, ints / 2**31)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(bits=st.sampled_from([8, 32]), channels=st.sampled_from([1, 2, 3]), data=st.data())
    def test_8_and_32_bit_scaling_matches_two_pass(self, bits, channels, data):
        low, high = (0, 255) if bits == 8 else (-2**31, 2**31 - 1)
        ints = data.draw(st.lists(st.integers(low, high), min_size=channels, max_size=64 * channels))
        ints = np.array(ints[: len(ints) - len(ints) % channels])
        x = unsigned_pcm8_to_float_two_pass(ints) if bits == 8 else pcm_to_float_two_pass(ints, bits)
        want = x.reshape(-1, channels).mean(axis=1)
        assert np.array_equal(decode_wav(wav_bytes(pcm_bytes(ints, bits), 1, channels, 44100, bits)).samples, want)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(bits=st.sampled_from([16, 24]), channels=st.sampled_from([1, 2]), data=st.data())
    def test_integer_scaling_matches_two_pass(self, bits, channels, data):
        full = 2 ** (bits - 1)
        ints = data.draw(st.lists(st.integers(-full, full - 1), min_size=channels, max_size=64 * channels))
        ints = np.array(ints[: len(ints) - len(ints) % channels])
        payload = b"".join(int(v).to_bytes(bits // 8, "little", signed=True) for v in ints)
        want = pcm_to_float_two_pass(ints, bits).reshape(-1, channels).mean(axis=1)
        assert np.array_equal(decode_wav(wav_bytes(payload, 1, channels, 44100, bits)).samples, want)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(bits=st.sampled_from([32, 64]), channels=st.sampled_from([1, 2, 3]), data=st.data())
    def test_float_decode_matches_two_pass(self, bits, channels, data):
        values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=bits),
                                    min_size=channels, max_size=64 * channels))
        payload = np.array(values[: len(values) - len(values) % channels], dtype=f"<f{bits // 8}").tobytes()
        with np.errstate(over="ignore"):
            want = ieee_float_two_pass(payload, bits).reshape(-1, channels).mean(axis=1)
        if not np.isfinite(want).all():  # float-64 channels that sum past the float range
            with pytest.raises(WavDecodeError, match="overflows"):
                decode_wav(wav_bytes(payload, 3, channels, 44100, bits))
            return
        got = decode_wav(wav_bytes(payload, 3, channels, 44100, bits)).samples
        assert np.array_equal(got, want)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(channels=st.sampled_from([1, 2]), data=st.data())
    def test_24_valid_bits_in_32_bit_extensible_containers(self, channels, data):
        ints = data.draw(st.lists(st.integers(-2**23, 2**23 - 1), min_size=channels, max_size=64 * channels))
        ints = np.array(ints[: len(ints) - len(ints) % channels], dtype=np.int64)
        raw = extensible_wav_bytes(pcm_bytes(ints * 256, 32), 1, channels, 48000, 32, valid_bits=24)
        want = pcm_to_float_two_pass(ints, 24).reshape(-1, channels).mean(axis=1)
        assert np.array_equal(decode_wav(raw).samples, want)

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
            decode_wav(wav_bytes(b"\x00" * 8, 3, 1, 48000, 16))  # IEEE float-16
        with pytest.raises(UnsupportedWavError):
            decode_wav(wav_bytes(b"\x00\x00", 7, 1, 8000, 8))  # mu-law

    def test_truncated_extensible_fmt_chunk(self):
        raw = SAMPLE_WAVS["extensible"]
        fmt_at = raw.index(b"fmt ")
        # the fmt chunk declares its 40 bytes, but the file ends 20 bytes into it
        with pytest.raises(WavDecodeError, match="truncated fmt extension"):
            decode_wav(raw[: fmt_at + 8 + 20])

    @pytest.mark.parametrize(
        "frames, format_tag, bits",
        [
            pytest.param(np.array([[0, 16384], [-32768, 8192]], dtype="<i2"), 1, 16, id="pcm16"),
            pytest.param(np.array([[0.25, -0.75], [0.5, 0.0]], dtype="<f4"), 3, 32, id="float32"),
        ],
    )
    def test_streamed_data_chunk_runs_to_end_of_file(self, frames, format_tag, bits):
        full = wav_bytes(frames.tobytes(), format_tag, 2, 48000, bits)
        size_at = full.index(b"data") + 4
        # a streaming writer leaves both size fields unpatched; one byte of a third frame trails
        streamed = bytearray(full + b"\x01")
        streamed[4:8] = streamed[size_at : size_at + 4] = b"\xff\xff\xff\xff"
        want = decode_wav(full).samples
        got = decode_wav(bytes(streamed))
        assert got.sample_rate_hz == 48000
        assert np.array_equal(got.samples, want)
        assert len(want) == 2
        with on_disk(bytes(streamed)) as file:  # read from disk, the data chunk runs to the file's size
            assert decoded(file) == (48000, want.tobytes())

    @pytest.mark.parametrize("block", [0, 2, 6, 8])
    def test_block_align_must_match_channels_and_bits(self, block):
        payload = np.array([[0, 16384], [-32768, 77]], dtype="<i2").tobytes()
        with pytest.raises(WavDecodeError, match="fmt chunk declares block_align"):
            decode_wav(wav_bytes(payload, 1, 2, 48000, 16, block=block))

    def test_non_finite_float_samples(self):
        for bits in (32, 64):
            payload = np.array([0.25, np.nan, np.inf], dtype=f"<f{bits // 8}").tobytes()
            with pytest.raises(WavDecodeError, match="NaN or Inf"):
                decode_wav(wav_bytes(payload, 3, 1, 48000, bits))

    def test_float64_mixdown_that_overflows_raises_without_a_warning(self):
        # Each sample is finite, but 1.7e308 + 1.7e308 is not: the mixdown's sum overflows before its division.
        payload = np.array([[0.25, -0.5], [1.7e308, 1.7e308], [-1.0, 0.5]], dtype="<f8").tobytes()
        data = wav_bytes(payload, 3, 2, 48000, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WavDecodeError, match="channel mixdown overflows"):
                decode_wav(data)
            with on_disk(data) as file:
                wav = parse_wav(file)
                assert np.array_equal(wav.frames(0, 1), [-0.125])  # a span without the frame still decodes
                with pytest.raises(WavDecodeError, match="channel mixdown overflows"):
                    wav.frames(1, 2)

    def test_largest_finite_float_samples_mix_down_where_their_mean_is_finite(self):
        # float-32 samples cannot overflow a float-64 sum, and a mean of opposite extremes is exact.
        big32 = float(np.finfo(np.float32).max)
        buf = decode_wav(wav_bytes(np.array([[big32, big32, big32]], dtype="<f4").tobytes(), 3, 3, 48000, 32))
        assert buf.samples.tolist() == [big32]
        big64 = float(np.finfo(np.float64).max)
        buf = decode_wav(wav_bytes(np.array([[big64, -big64]], dtype="<f8").tobytes(), 3, 2, 48000, 64))
        assert buf.samples.tolist() == [0.0]

    def test_parse_reads_only_the_chunk_headers(self, monkeypatch):
        # 10 s of float32 stereo is a 3.8 MB data chunk; its samples are read and checked by frames(), not here.
        x = np.random.default_rng(9).uniform(-1.0, 1.0, (10 * 48000, 2)).astype("<f4")
        real_preadv, got = os.preadv, []

        def preadv(fd, buffers, offset):
            got.append(real_preadv(fd, buffers, offset))
            return got[-1]

        with on_disk(wav_bytes(x.tobytes(), 3, 2, 48000, 32)) as file:
            monkeypatch.setattr(os, "preadv", preadv)
            wav = parse_wav(file)
            assert 0 < sum(got) < 1024
            assert np.array_equal(wav.frames(0, wav.n_frames), x.mean(axis=1, dtype=np.float64))


class TestDecodeWavRobustness:
    """decode_wav returns an AudioBuffer or raises VgmfeatError, whatever the bytes, and the same from a file."""

    @pytest.mark.parametrize("name", sorted(SAMPLE_WAVS) + sorted(MALFORMED_WAVS))
    def test_every_prefix(self, name):
        raw = {**SAMPLE_WAVS, **MALFORMED_WAVS}[name]
        if name in MALFORMED_WAVS:
            with pytest.raises(WavDecodeError, match="fmt chunk"):
                decode_wav(raw)
        else:
            assert isinstance(decode_wav(raw), AudioBuffer)
        for n in range(len(raw) + 1):  # every prefix, and the whole file
            assert decodes_or_raises_vgmfeat_error(raw[:n]), n

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        name=st.sampled_from(sorted(SAMPLE_WAVS) + sorted(MALFORMED_WAVS)),
        edits=st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)), min_size=1, max_size=6),
    )
    def test_byte_mutations(self, name, edits):
        raw = bytearray({**SAMPLE_WAVS, **MALFORMED_WAVS}[name])
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

    @pytest.mark.parametrize("src, dst", RATE_PAIRS)
    def test_matches_padded_gemm_oracle(self, src, dst, monkeypatch):
        # Lengths below the taps and below both fades, one block that is both
        # first and last, then two blocks (r = 0) or three whose last one holds
        # every row count mod 16 (with a partial last period when r > 0).
        down = src // np.gcd(src, dst)
        lengths = [1, 10, 33, 63, 5000]
        lengths += [(2 * RESAMPLE_BLOCK_PERIODS + r) * down + r for r in range(16)]
        x = np.random.default_rng(3).standard_normal(max(lengths)) * 0.3
        for n in lengths:
            want = padded_gemm(x[:n], src, dst)
            # Three chunks are more than the pool has threads on a 1- or 2-core machine: the last waits in its queue.
            for cores in (1, 2, 3):
                monkeypatch.setattr(audio_io, "_cores", lambda: cores)
                got = resample(AudioBuffer(x[:n], src), dst).samples
                assert np.array_equal(got, want), f"{n} samples, {cores} cores"

    # Alternating +-1.7e308 is finite, but sits at the input Nyquist, where the taps
    # of every branch add up in magnitude: the filter overflows to Inf.
    @pytest.mark.parametrize("spare_cores", [0, 1])
    def test_overflowing_filter_is_rejected(self, spare_cores, monkeypatch):
        x = np.full(3 * RESAMPLE_BLOCK_PERIODS * 147, 1.7e308)
        x[1::2] *= -1
        monkeypatch.setattr(audio_io, "_cores", lambda: 1 + spare_cores)
        # The error is the only report: no numpy warning, from this thread or from a pool thread.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="samples contain NaN or Inf"):
                resample(AudioBuffer(x, 44100), 48000)
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("cores", [1, 2, 3, 8])
    def test_every_block_runs_once(self, cores, monkeypatch, block_pool):
        real_span, starts = audio_io._faded_span, []

        def span(source, ramp, lo, hi, out):
            starts.append(lo)
            return real_span(source, ramp, lo, hi, out)

        monkeypatch.setattr(audio_io, "_cores", lambda: cores)
        monkeypatch.setattr(audio_io, "_faded_span", span)
        # 44.1 -> 22.05 kHz has one output and 2 inputs per period: block k's input starts at 2 * 1024 * k - 32.
        for n_blocks in (1, 2, 5):
            starts.clear()
            block_pool.futures.clear()
            n = (n_blocks - 1) * 2 * RESAMPLE_BLOCK_PERIODS + 7
            x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
            assert np.array_equal(resample(AudioBuffer(x, 44100), 22050).samples, padded_gemm(x, 44100, 22050))
            assert sorted(starts) == [2 * RESAMPLE_BLOCK_PERIODS * k - RESAMPLE_TAPS_PER_PHASE // 2
                                      for k in range(n_blocks)]
            assert len(block_pool.futures) == min(cores, n_blocks)

    def test_chunk_error_is_raised_once_every_chunk_has_ended(self, monkeypatch, block_pool):
        real_span, ran = audio_io._faded_span, []

        def span(source, ramp, lo, hi, out):
            if lo < 0:  # the first block, whichever chunk takes it
                raise ZeroDivisionError
            time.sleep(0.02)  # the other chunk is still running when the first block fails
            ran.append(lo)
            return real_span(source, ramp, lo, hi, out)

        monkeypatch.setattr(audio_io, "_cores", lambda: 2)
        monkeypatch.setattr(audio_io, "_faded_span", span)
        x = np.random.default_rng(6).uniform(-1.0, 1.0, 5 * 2 * RESAMPLE_BLOCK_PERIODS)
        with pytest.raises(ZeroDivisionError):
            resample(AudioBuffer(x, 44100), 22050)
        # The failed chunk took no block after its error; the other chunk ran every block left.
        assert len(block_pool.futures) == 2 and all(future.done() for future in block_pool.futures)
        assert len(ran) == 4
        # The pool's threads are free for the next call.
        monkeypatch.setattr(audio_io, "_faded_span", real_span)
        assert np.array_equal(resample(AudioBuffer(x, 44100), 22050).samples, padded_gemm(x, 44100, 22050))

    def test_racing_callers_each_get_all_their_blocks(self, monkeypatch, block_pool):
        # Eight tracks resample at once, as at --jobs 8, each on its own length and input.
        monkeypatch.setattr(audio_io, "_cores", lambda: 3)
        inputs = [np.random.default_rng(k).uniform(-1.0, 1.0, (3 + k % 4) * 2 * RESAMPLE_BLOCK_PERIODS + k)
                  for k in range(8)]
        wants = [padded_gemm(x, 44100, 22050) for x in inputs]
        wrong = []

        def caller(k):
            for _ in range(10):
                if not np.array_equal(resample(AudioBuffer(inputs[k], 44100), 22050).samples, wants[k]):
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(block_pool.futures) == 8 * 10 * 3 and all(future.done() for future in block_pool.futures)

    def test_racing_callers_each_get_all_their_blocks_from_one_file(self, monkeypatch, block_pool):
        # Six threads resample one parsed file at once: three through the pool's chunks, three on their own
        # thread at the file's rate. Every reading thread, a pool thread included, has byte scratch of its own.
        # At 44.1 -> 48 kHz a block reads 0.6 MB of this file, wide enough that shared scratch gets overwritten.
        monkeypatch.setattr(audio_io, "_cores", lambda: 3)
        ints = np.random.default_rng(10).integers(-2**15, 2**15, (4 * 147 * RESAMPLE_BLOCK_PERIODS + 3, 2))
        data = wav_bytes(pcm_bytes(ints, 16), 1, 2, 44100, 16)
        x = decode_wav(data).samples
        wants = {48000: padded_gemm(x, 44100, 48000), 44100: x}
        wrong = []

        def caller(wav, rate):
            for _ in range(10):
                if not np.array_equal(resample(wav, rate).samples, wants[rate]):
                    wrong.append(rate)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with on_disk(data) as file:
                wav = parse_wav(file)
                threads = [threading.Thread(target=caller, args=(wav, rate)) for rate in [48000, 44100] * 3]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(block_pool.futures) == 3 * 10 * 3 and all(future.done() for future in block_pool.futures)

    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork on this platform")
    def test_forked_child_resamples_on_a_pool_of_its_own(self):
        x = np.random.default_rng(8).uniform(-1.0, 1.0, 5 * 2 * RESAMPLE_BLOCK_PERIODS)
        want = resample(AudioBuffer(x, 44100), 22050).samples  # the parent's pool threads are running now
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)

        def child():
            send.send_bytes(resample(AudioBuffer(x, 44100), 22050).samples.tobytes())

        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork in a process with threads; the child here only resamples.
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
            proc = context.Process(target=child, daemon=True)
            proc.start()
        try:
            # A child left with the parent's pool queues its chunks for threads it does not have, and hangs.
            assert receive.poll(60), "the forked child's resample did not finish"
            assert receive.recv_bytes() == want.tobytes()
        finally:
            proc.kill()
            proc.join()

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(pair=st.sampled_from(RATE_PAIRS), n=st.integers(1, 400000), seed=st.integers(0, 2**32 - 1))
    def test_matches_padded_gemm_oracle_any_length(self, pair, n, seed):
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        assert np.array_equal(resample(AudioBuffer(x, pair[0]), pair[1]).samples, padded_gemm(x, *pair))

    # 44100 -> 48001 Hz does not reduce: up = 48001 branches, in many groups.
    @pytest.mark.parametrize("src, dst", RATE_PAIRS + [(44100, 48001)])
    def test_within_rounding_of_matrix_vector_loop(self, src, dst):
        # Both sum the same 64 products per output (the kernels' zeros add
        # exactly), each within 64 * eps/2 * sum|h*x| of the exact sum, so two
        # orderings differ by at most 2 * 64 * eps * L1max * max|x|.
        g = np.gcd(src, dst)
        bank = sinc_bank(dst // g, src // g, RESAMPLE_TAPS_PER_PHASE, RESAMPLE_KAISER_BETA)
        x = np.random.default_rng(5).standard_normal(300001) * 0.3
        got = resample(AudioBuffer(x, src), dst).samples
        want = unblocked_resample(x, src, dst, RESAMPLE_TAPS_PER_PHASE, RESAMPLE_KAISER_BETA, RESAMPLE_FADE_SAMPLES)
        bound = 2 * RESAMPLE_TAPS_PER_PHASE * np.finfo(float).eps * np.abs(bank).sum(axis=1).max() * np.abs(x).max()
        assert np.max(np.abs(got - want)) <= bound

    # Neither pair reduces (up = dst, down = src; 53,267 Hz is the YM2612's
    # rate): one kernel over every branch would span ~src inputs, about 17 GB.
    @pytest.mark.parametrize("src, dst", [(44100, 48001), (53267, 48000)])
    def test_kernels_stay_within_four_banks(self, src, dst, monkeypatch):
        built = []
        monkeypatch.setattr(audio_io, "_branch_groups",
                            lambda *args: built.append(_branch_groups(*args)) or built[-1])
        x = np.random.default_rng(6).standard_normal(src // 50) * 0.3  # 20 ms
        got = resample(AudioBuffer(x, src), dst).samples
        assert np.array_equal(got, padded_gemm(x, src, dst))
        (groups,) = built
        assert len(groups) > 1
        n_branches = groups[-1][2]
        assert sum(kernel.size for *_, kernel in groups) <= 4 * RESAMPLE_TAPS_PER_PHASE * n_branches

        # Building all `up` branches holds little beyond the kernels it returns: no bank of every phase.
        tracemalloc.start()
        try:
            groups = _branch_groups(dst, src, dst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sum(kernel.nbytes for *_, kernel in groups) + 4 * 2**20

    def test_invalid_target(self):
        buf = AudioBuffer(np.zeros(10), 44100)
        with pytest.raises(ValueError):
            resample(buf, 0)

    def test_no_allocation_outlives_its_block(self):
        # 10 s at 44.1 -> 48 kHz is 3 blocks, so 20 calls run 60.
        x = AudioBuffer(np.random.default_rng(3).uniform(-1.0, 1.0, 10 * 44100), 44100)
        resample(x, 48000)  # the pool's threads and numpy's caches are made before tracing
        calls = 20
        tracemalloc.start()
        try:
            resample(x, 48000)
            gc.collect()
            before = tracemalloc.take_snapshot()
            for _ in range(calls):
                resample(x, 48000)
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        own = [tracemalloc.Filter(False, tracemalloc.__file__)]
        growth = after.filter_traces(own).compare_to(before.filter_traces(own), "lineno")
        # Fewer live blocks gained than calls made: no allocation per block, or per call, is kept.
        assert sum(stat.count_diff for stat in growth) < calls, [str(stat) for stat in growth[:5]]

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


def composed(buf, spec):
    """The documented chain with the whole track normalized before the trim."""
    out = peak_normalize(resample(buf, spec.target_sample_rate_hz), spec.target_peak_dbfs)
    n_clip = round(spec.clip_duration_s * out.sample_rate_hz)
    if spec.pad_short and len(out.samples) < n_clip:
        left = (n_clip - len(out.samples)) // 2
        out = AudioBuffer(np.pad(out.samples, (left, n_clip - len(out.samples) - left)), out.sample_rate_hz)
    return center_trim(out, spec.clip_duration_s)


def noise_with_spike(n, at, noise=0.05):
    x = np.random.default_rng(n).standard_normal(n) * noise
    x[at] = 0.9
    return x


class TestPreprocessEqualsComposedChain:
    @pytest.mark.parametrize(
        "x, rate, spec",
        [
            pytest.param(noise_with_spike(44100 * 3, 44100 * 3 // 2), 44100, PreprocessSpec(-5.0, 1.0, 48000),
                         id="peak-inside-clip"),
            pytest.param(noise_with_spike(44100 * 3, 500), 44100, PreprocessSpec(-5.0, 1.0, 48000),
                         id="peak-outside-clip"),
            pytest.param(noise_with_spike(44100 * 3, 10, noise=0.01), 44100, PreprocessSpec(-3.0, 1.0, 48000),
                         id="peak-inside-fade"),
            pytest.param(noise_with_spike(48000 * 2 + 1, 7), 48000, PreprocessSpec(-5.0, 1.0, 48000),
                         id="equal-rates"),
            pytest.param(noise_with_spike(22050 * 2 + 1, 30000), 22050, PreprocessSpec(-5.0, 1.5, 48000),
                         id="odd-length"),
            pytest.param(noise_with_spike(44100 * 3, 44100), 44100, PreprocessSpec(-5.0, 1.0, 22050),
                         id="downsample"),
            pytest.param(noise_with_spike(11025 // 2 + 3, 100), 11025, PreprocessSpec(-5.0, 1.0, 8000, pad_short=True),
                         id="pad-short"),
        ],
    )
    def test_bit_identical(self, x, rate, spec):
        buf = AudioBuffer(x, rate)
        got = preprocess(buf, spec)
        want = composed(buf, spec)
        assert got.sample_rate_hz == want.sample_rate_hz
        assert np.array_equal(got.samples, want.samples)

    def test_fade_case_peaks_inside_the_fade(self):
        # the spike at input sample 10 survives the edge fade as the track's peak
        x = noise_with_spike(44100 * 3, 10, noise=0.01)
        y = resample(AudioBuffer(x, 44100), 48000).samples
        assert np.argmax(np.abs(y)) < RESAMPLE_FADE_SAMPLES * 48000 / 44100

    def test_short_silent_track_is_silent_not_too_short(self):
        with pytest.raises(SilentAudioError):
            preprocess(AudioBuffer(np.zeros(4000), 8000), PreprocessSpec(-5.0, 1.0, 8000))

    def test_denormal_peak_is_silent(self):
        # the gain would overflow to inf; no numpy overflow may happen on the way
        x = np.zeros(16000)
        x[8000] = 5e-324
        with np.errstate(all="raise"), pytest.raises(SilentAudioError):
            preprocess(AudioBuffer(x, 8000), PreprocessSpec(-5.0, 1.0, 8000))


# The identity rate, and ratios whose block grids put 320, 147 and 147 input frames in each period.
ORACLE_PAIRS = [(44100, 44100), (96000, 44100), (44100, 48000), (22050, 48000)]


def block_frames(src, dst):
    """Input frames per resampler block; at the identity rate, per span of resample's copy."""
    if src == dst:
        return RESAMPLE_BLOCK_PERIODS * RESAMPLE_GROUP_SPAN_TAPS * RESAMPLE_TAPS_PER_PHASE
    return RESAMPLE_BLOCK_PERIODS * src // np.gcd(src, dst)


def block_rows(src, dst):
    """Output rows per resampler block (per span of resample's copy at the identity rate)."""
    return block_frames(src, dst) * dst // src


def outcome(call):
    """call()'s rate and sample bits, or the type and message of the error it raised."""
    try:
        out = call()
    except (ValueError, VgmfeatError) as exc:
        return type(exc), str(exc)
    return out.sample_rate_hz, out.samples.tobytes()


class TestParsedWavEqualsDecodedBuffer:
    """resample and preprocess, reading a parsed WAV span by span, equal the same calls on decode_wav's buffer."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        codec=st.sampled_from(["pcm16", "pcm24", "float32", "float64"]),
        channels=st.integers(1, 3),
        pair=st.sampled_from(ORACLE_PAIRS),
        length=st.one_of(
            st.just(1),
            st.integers(2, 2 * RESAMPLE_FADE_SAMPLES + 1),  # below, at and just past both fades
            st.tuples(st.integers(1, 2), st.integers(-1, 1)),  # k block edges, plus or minus one frame
        ),
        pad_short=st.booleans(),
        spike_in_fade=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_bit_identical(self, codec, channels, pair, length, pad_short, spike_in_fade, seed, data):
        src, dst = pair
        n = length[0] * block_frames(src, dst) + length[1] if isinstance(length, tuple) else length
        rng = np.random.default_rng(seed)
        x = rng.uniform(-0.05, 0.05, (n, channels))
        if spike_in_fade:
            x[min(10, n - 1)] = 0.9  # the peak, inside the first fade
        if codec.startswith("float"):
            bits = int(codec[5:])
            wav_data = wav_bytes(x.astype(f"<f{bits // 8}").tobytes(), 3, channels, src, bits)
        else:
            bits = int(codec[3:])
            wav_data = wav_bytes(pcm_bytes(np.round(x * 2 ** (bits - 1)), bits), 1, channels, src, bits)
        n_out = (2 * n * dst + src) // (2 * src)
        # The clip's first row is (n_out - clip) // 2 and its last n_out - 1 - that for clip = n_out - 2 * first.
        edges = [e + d for e in range(0, n_out + 2, block_rows(src, dst)) for d in (-1, 0, 1)]
        clips = [n_out // 2, n_out, n_out + 1, n_out + 7]  # longer clips are padded with pad_short, else rejected
        clips += [n_out - 2 * first for first in edges if first >= 0]
        clips += [2 * (last + 1) - n_out for last in edges if last < n_out]
        clip = data.draw(st.sampled_from(sorted(c for c in set(clips) if c >= 1)), label="clip")
        spec = PreprocessSpec(-3.0, clip / dst, dst, pad_short)

        wav, buf = parse_wav(wav_data), decode_wav(wav_data)
        assert (wav.n_frames, wav.sample_rate_hz) == (len(buf.samples), buf.sample_rate_hz)
        assert outcome(lambda: resample(wav, dst)) == outcome(lambda: resample(buf, dst))
        assert outcome(lambda: preprocess(wav, spec)) == outcome(lambda: composed(buf, spec))
        with on_disk(wav_data) as file:  # each block reads its span's bytes from the file
            assert outcome(lambda: preprocess(parse_wav(file), spec)) == outcome(lambda: composed(buf, spec))

    @pytest.mark.parametrize("src, dst", ORACLE_PAIRS + [(44100, 22050)])
    @pytest.mark.parametrize("n", [1, 40, 5000])
    def test_peak_is_the_largest_magnitude(self, src, dst, n):
        # Taken block by block for preprocess; the clip cut from the track does not carry it.
        y = resample(AudioBuffer(noise_with_spike(n, n // 2), src), dst)
        if not len(y.samples):  # 1 sample at 96 -> 44.1 kHz gives no output, and no peak
            assert y._peak == 0.0
            return
        assert y._peak == np.abs(y.samples).max()
        spec = PreprocessSpec(-5.0, len(y.samples) / dst, dst)
        assert preprocess(AudioBuffer(noise_with_spike(n, n // 2), src), spec)._peak is None


class TestResampleWindow:
    """A windowed resample is the whole track's rows in that window, zero outside the track, with the same peak."""

    @pytest.mark.parametrize("spare_cores", [0, 1])
    @pytest.mark.parametrize("src, dst", ORACLE_PAIRS + [(44100, 22050)])
    def test_equals_zero_padded_slice(self, src, dst, spare_cores, monkeypatch):
        monkeypatch.setattr(audio_io, "_cores", lambda: 1 + spare_cores)
        # Buffers start as NaN, not as a fresh mapping's zeros, so every row must be written.
        monkeypatch.setattr(audio_io, "_mapped_empty", lambda n: np.full(n, np.nan))
        buf = AudioBuffer(noise_with_spike(2 * block_frames(src, dst) + 321, 1000), src)
        full = resample(buf, dst)
        n_out, edge = len(full.samples), block_rows(src, dst)
        windows = [(n_out // 3, n_out // 3), (0, n_out), (-37, 200), (-5, n_out + 10), (n_out - 50, 200),
                   (n_out + 10, 30), (-100, 50), (0, 0), (n_out // 2, 0)]
        for k in (1, 2):
            for d in (-1, 0, 1):
                windows += [(k * edge + d, 100), (k * edge + d - 100, 100), (k * edge + d - 1000, 2000)]
        for first, n_rows in windows:
            want = np.zeros(n_rows)
            a = min(max(first, 0), n_out)
            b = max(min(first + n_rows, n_out), a)
            want[a - first : b - first] = full.samples[a:b]
            got = resample(buf, dst, (first, n_rows))
            assert got.sample_rate_hz == dst
            assert got.samples.tobytes() == want.tobytes(), (first, n_rows)
            assert got._peak == full._peak

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="window"):
            resample(AudioBuffer(np.ones(100), 44100), 48000, (0, -1))


class TestValidation:
    def test_non_finite_samples_rejected(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.array([0.0, np.nan]), 48000)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros(4), 0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("target_peak_dbfs", 1.0),
            ("target_peak_dbfs", float("nan")),
            ("target_peak_dbfs", float("-inf")),
            ("target_peak_dbfs", -7000.0),  # its amplitude is below the smallest normal float
            ("clip_duration_s", 0.0),
            ("clip_duration_s", float("nan")),
            ("clip_duration_s", float("inf")),
            ("clip_duration_s", 1e305),  # finite, but its sample count is not
            ("clip_duration_s", 1e-5),  # 0.48 samples at 48 kHz, which round to none
            ("target_sample_rate_hz", -1),
        ],
    )
    def test_spec_ranges(self, field, value):
        with pytest.raises(ValueError, match=field):
            PreprocessSpec(**{field: value})

    def test_lowest_normal_peak_accepted(self):
        assert PreprocessSpec(target_peak_dbfs=-6153.0).target_peak_dbfs == -6153.0
        with pytest.raises(ValueError, match="target_peak_dbfs"):
            PreprocessSpec(target_peak_dbfs=-6154.0)
