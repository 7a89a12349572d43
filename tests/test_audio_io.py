import struct
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future

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
    peak_normalize,
    preprocess,
    resample,
)
from vgmfeat.errors import SilentAudioError, TooShortError, UnsupportedWavError, VgmfeatError, WavDecodeError

from conftest import sine
from reference import (
    naive_dft_magnitudes,
    padded_gemm_resample,
    pcm_to_float_two_pass,
    sinc_bank,
    unblocked_resample,
)

# 44.1 -> 48 kHz is one branch group, 44.1 -> 22.05 kHz has one branch (up = 1),
# 32 -> 48 kHz has three, and 96 -> 44.1 kHz needs more than one group.
RATE_PAIRS = [(44100, 48000), (22050, 48000), (44100, 22050), (32000, 48000), (96000, 44100)]


def padded_gemm(x, src, dst):
    return padded_gemm_resample(x, src, dst, RESAMPLE_TAPS_PER_PHASE, RESAMPLE_KAISER_BETA, RESAMPLE_FADE_SAMPLES,
                                RESAMPLE_BLOCK_PERIODS, RESAMPLE_GROUP_SPAN_TAPS)


def wav_bytes(payload, format_tag, channels, rate, bits, block=None):
    block = channels * bits // 8 if block is None else block
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
# Whole files that must fail with a WavDecodeError naming the fmt chunk.
MALFORMED_WAVS = {
    "block-align": wav_bytes(np.array([[0, 16384], [-32768, 77]], dtype="<i2").tobytes(), 1, 2, 48000, 16, block=2),
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

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(bits=st.sampled_from([16, 24]), channels=st.sampled_from([1, 2]), data=st.data())
    def test_integer_scaling_matches_two_pass(self, bits, channels, data):
        full = 2 ** (bits - 1)
        ints = data.draw(st.lists(st.integers(-full, full - 1), min_size=channels, max_size=64 * channels))
        ints = np.array(ints[: len(ints) - len(ints) % channels])
        payload = b"".join(int(v).to_bytes(bits // 8, "little", signed=True) for v in ints)
        want = pcm_to_float_two_pass(ints, bits).reshape(-1, channels).mean(axis=1)
        assert np.array_equal(decode_wav(wav_bytes(payload, 1, channels, 44100, bits)).samples, want)

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

    @pytest.mark.parametrize("block", [0, 2, 6, 8])
    def test_block_align_must_match_channels_and_bits(self, block):
        payload = np.array([[0, 16384], [-32768, 77]], dtype="<i2").tobytes()
        with pytest.raises(WavDecodeError, match="fmt chunk declares block_align"):
            decode_wav(wav_bytes(payload, 1, 2, 48000, 16, block=block))

    def test_non_finite_float_samples(self):
        payload = np.array([0.25, np.nan, np.inf], dtype="<f4").tobytes()
        with pytest.raises(WavDecodeError, match="NaN or Inf"):
            decode_wav(wav_bytes(payload, 3, 1, 48000, 32))


class TestDecodeWavRobustness:
    """decode_wav returns an AudioBuffer or raises VgmfeatError, whatever the bytes."""

    @pytest.mark.parametrize("name", sorted(SAMPLE_WAVS) + sorted(MALFORMED_WAVS))
    def test_every_prefix(self, name):
        raw = {**SAMPLE_WAVS, **MALFORMED_WAVS}[name]
        if name in MALFORMED_WAVS:
            with pytest.raises(WavDecodeError, match="fmt chunk"):
                decode_wav(raw)
        else:
            assert isinstance(decode_wav(raw), AudioBuffer)
        for n in range(len(raw)):
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
            # Three helpers are more than the pool has threads on a 2-core machine,
            # so the caller also runs chunks it submitted that no helper started.
            for helpers in (0, 1, 3):
                monkeypatch.setattr(audio_io.block_helpers, "idle", helpers)
                got = resample(AudioBuffer(x[:n], src), dst).samples
                assert np.array_equal(got, want), f"{n} samples, {helpers} helpers"
                assert audio_io.block_helpers.idle == helpers

    def test_finishes_when_no_helper_starts(self, monkeypatch):
        class NeverRuns:
            def submit(self, fn, *args):
                return Future()

        monkeypatch.setattr(audio_io.block_helpers, "_pool", NeverRuns())
        monkeypatch.setattr(audio_io.block_helpers, "idle", 3)
        x = np.random.default_rng(4).standard_normal(5 * RESAMPLE_BLOCK_PERIODS * 147) * 0.3
        got = []
        # On a separate thread, so a wait on a chunk that never starts fails the test instead of hanging it.
        worker = threading.Thread(target=lambda: got.append(resample(AudioBuffer(x, 44100), 48000).samples),
                                  daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive(), "resample waited on a chunk no helper started"
        assert np.array_equal(got[0], padded_gemm(x, 44100, 48000))
        assert audio_io.block_helpers.idle == 3

    # Alternating +-1.7e308 is finite, but sits at the input Nyquist, where the taps
    # of every branch add up in magnitude: the filter overflows to Inf.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("helpers", [0, 1])
    def test_overflowing_filter_is_rejected(self, helpers, monkeypatch):
        x = np.full(3 * RESAMPLE_BLOCK_PERIODS * 147, 1.7e308)
        x[1::2] *= -1
        monkeypatch.setattr(audio_io.block_helpers, "idle", helpers)
        with pytest.raises(ValueError, match="samples contain NaN or Inf"):
            resample(AudioBuffer(x, 44100), 48000)
        assert audio_io.block_helpers.idle == helpers

    def test_ahead_gives_its_helper_back_before_the_result(self):
        helpers = audio_io.BlockHelpers(1)
        try:
            release = threading.Event()
            blocked = helpers.ahead(release.wait)
            assert helpers.ahead(lambda: None) is None  # the one helper is held
            release.set()
            assert blocked.result() is True and helpers.idle == 1
            seen, running = [], threading.Event()

            def call(x):
                seen.append(helpers.idle)
                running.set()
                return x + 1

            started = helpers.ahead(call, 41)
            assert running.wait(10)  # on the helper: result() would run a call not yet started itself
            assert started.result() == 42 and helpers.idle == 1
            assert seen == [0]  # held while the call ran
            with pytest.raises(ZeroDivisionError):
                helpers.ahead(lambda: 1 / 0).result()
            assert helpers.idle == 1
        finally:
            helpers._pool.shutdown()

    def test_ahead_that_no_helper_starts_runs_on_the_caller_or_is_dropped(self):
        class NeverRuns:
            def submit(self, fn, *args):
                return Future()

        helpers = audio_io.BlockHelpers(1)
        helpers._pool = NeverRuns()
        calls = []
        started = helpers.ahead(calls.append, "caller")
        assert helpers.idle == 0
        assert started.result() is None and calls == ["caller"] and helpers.idle == 1
        helpers.ahead(calls.append, "dropped").drop()
        assert calls == ["caller"] and helpers.idle == 1

    def test_helper_count_survives_racing_callers(self):
        helpers = audio_io.BlockHelpers(2)
        seen = []

        def caller(k):
            for i in range(200):
                started = helpers.ahead(lambda: seen.append(helpers.idle))
                if started and (i + k) % 3:
                    started.result()
                elif started:
                    started.drop()
                with helpers.hold(1) as n:
                    seen.append(helpers.idle + n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            helpers._pool.shutdown()
        assert helpers.idle == 2 and seen and all(0 <= idle <= 2 for idle in seen)

    def test_dropped_ahead_waits_for_its_call(self):
        helpers = audio_io.BlockHelpers(1)
        running, release = threading.Event(), threading.Event()

        def call():
            running.set()
            release.wait(10)
            raise ZeroDivisionError

        try:
            started = helpers.ahead(call)
            assert running.wait(10)  # started, so drop() cannot cancel it
            threading.Timer(0.05, release.set).start()
            started.drop()  # the call's error is discarded
            assert release.is_set() and helpers.idle == 1
        finally:
            helpers._pool.shutdown()

    @pytest.mark.parametrize("failing", ["caller", "helper"])
    def test_error_in_a_chunk_is_raised_and_helpers_given_back(self, failing):
        helpers = audio_io.BlockHelpers(2)
        caller = threading.current_thread()

        def run(chunk):
            fails = (threading.current_thread() is caller) == (failing == "caller")
            for _ in chunk:
                if fails:
                    raise ValueError(failing)
                time.sleep(0.002)  # leaves items for the other threads

        try:
            with pytest.raises(ValueError, match=failing):
                helpers.run_blocks(run, range(40))
            assert helpers.idle == 2
        finally:
            helpers._pool.shutdown()

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
