"""WAV decoding and the preprocessing chain: mixdown, resample, normalize, trim.

The canonical order is decode -> mixdown -> resample -> peak normalize ->
center trim, so the normalization gain is computed on the full file before
the clip is cut.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import SilentAudioError, TooShortError, UnsupportedWavError, WavDecodeError

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_IEEE_FLOAT = 0x0003
WAVE_FORMAT_EXTENSIBLE = 0xFFFE

# Windowed-sinc resampler quality knobs: 64 taps per polyphase branch and a
# Kaiser window designed for ~80 dB stop-band attenuation.
RESAMPLE_TAPS_PER_PHASE = 64
RESAMPLE_KAISER_BETA = 0.1102 * (80.0 - 8.7)
# Raised-cosine taper on each end of the resampler input: a signal that
# starts or stops abruptly has a broadband edge, and that edge would alias
# into the output band however good the low-pass filter is.
RESAMPLE_FADE_SAMPLES = 32


@dataclass
class AudioBuffer:
    """Mono audio: float64 samples in [-1, 1] plus their sample rate."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {self.samples.shape}")
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain NaN or Inf")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


@dataclass(frozen=True)
class PreprocessSpec:
    """Targets for the preprocessing chain."""

    target_peak_dbfs: float = -5.0
    clip_duration_s: float = 15.0
    target_sample_rate_hz: int = 48000

    def __post_init__(self):
        if self.target_peak_dbfs > 0:
            raise ValueError(f"target_peak_dbfs must be <= 0, got {self.target_peak_dbfs}")
        if self.clip_duration_s <= 0:
            raise ValueError(f"clip_duration_s must be positive, got {self.clip_duration_s}")
        if self.target_sample_rate_hz <= 0:
            raise ValueError(
                f"target_sample_rate_hz must be positive, got {self.target_sample_rate_hz}"
            )


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def decode_wav(data: bytes) -> AudioBuffer:
    """Decode a RIFF/WAVE byte string into a mono AudioBuffer.

    Handles PCM 16-bit, PCM 24-bit and IEEE float-32 data chunks; integer
    samples are scaled to [-1, 1] (16-bit by 1/32768, 24-bit by 1/8388608)
    and multi-channel audio is averaged to mono sample-wise.

    Raises:
        WavDecodeError: malformed container; the message names the chunk.
        UnsupportedWavError: valid container with an unhandled codec.
    """
    if len(data) < 12 or data[0:4] != b"RIFF":
        raise WavDecodeError("missing RIFF chunk id")
    if data[8:12] != b"WAVE":
        raise WavDecodeError("missing WAVE form type")

    fmt = None
    raw = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if chunk_size < 16 or len(body) < 16:
                raise WavDecodeError("truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
            if fmt[0] == WAVE_FORMAT_EXTENSIBLE:
                if chunk_size < 40:
                    raise WavDecodeError("truncated fmt extension")
                (sub_format,) = struct.unpack_from("<H", body, 24)
                fmt = (sub_format,) + fmt[1:]
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise WavDecodeError("truncated data chunk")
            raw = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None:
        raise WavDecodeError("missing fmt chunk")
    if raw is None:
        raise WavDecodeError("missing data chunk")

    format_tag, n_channels, sample_rate, _, block_align, bits = fmt
    if n_channels < 1:
        raise WavDecodeError("fmt chunk declares zero channels")
    if sample_rate <= 0:
        raise WavDecodeError("fmt chunk declares non-positive sample rate")

    if format_tag == WAVE_FORMAT_PCM and bits == 16:
        x = np.frombuffer(raw[: len(raw) - len(raw) % 2], dtype="<i2").astype(np.float64)
        x /= 32768.0
    elif format_tag == WAVE_FORMAT_PCM and bits == 24:
        b = np.frombuffer(raw[: len(raw) - len(raw) % 3], dtype=np.uint8)
        b = b.reshape(-1, 3).astype(np.int32)
        # assemble into the top 3 bytes of an int32, arithmetic shift sign-extends
        x = ((b[:, 0] << 8) | (b[:, 1] << 16) | (b[:, 2] << 24)) >> 8
        x = x.astype(np.float64) / 8388608.0
    elif format_tag == WAVE_FORMAT_IEEE_FLOAT and bits == 32:
        x = np.frombuffer(raw[: len(raw) - len(raw) % 4], dtype="<f4").astype(np.float64)
    else:
        raise UnsupportedWavError(
            f"unsupported codec: format tag {format_tag}, {bits} bits per sample"
        )

    n_frames = len(x) // n_channels
    x = x[: n_frames * n_channels]
    if n_channels > 1:
        x = x.reshape(n_frames, n_channels).mean(axis=1)
    return AudioBuffer(x, int(sample_rate))


def encode_wav(buf: AudioBuffer, sample_format: str = "pcm16") -> bytes:
    """Encode a mono buffer as RIFF/WAVE bytes ('pcm16' or 'float32')."""
    if sample_format == "pcm16":
        format_tag, bits = WAVE_FORMAT_PCM, 16
        ints = np.clip(np.rint(buf.samples * 32768.0), -32768, 32767).astype("<i2")
        payload = ints.tobytes()
    elif sample_format == "float32":
        format_tag, bits = WAVE_FORMAT_IEEE_FLOAT, 32
        payload = buf.samples.astype("<f4").tobytes()
    else:
        raise ValueError(f"unknown sample_format {sample_format!r}")

    block_align = bits // 8
    byte_rate = buf.sample_rate_hz * block_align
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack(
                "<IHHIIHH", 16, format_tag, 1, buf.sample_rate_hz, byte_rate, block_align, bits
            ),
            b"data",
            struct.pack("<I", len(payload)),
        ]
    )
    return header + payload


def _sinc_kernel_bank(up: int, down: int) -> np.ndarray:
    """Polyphase bank of Kaiser-windowed sinc interpolation filters.

    Row p holds the taps used for output samples whose fractional input
    position is p/up; the low-pass cutoff sits at the narrower of the two
    Nyquist frequencies so downsampling stays band-limited.
    """
    taps = RESAMPLE_TAPS_PER_PHASE
    half = taps // 2
    cutoff = 0.5 * min(1.0, up / down)  # cycles per input sample
    i = np.arange(taps)
    phases = np.arange(up)[:, None] / up
    t = phases + (half - 1 - i)[None, :]  # offsets from the output instant
    window = np.i0(RESAMPLE_KAISER_BETA * np.sqrt(1.0 - (t / half) ** 2))
    window /= np.i0(RESAMPLE_KAISER_BETA)
    return 2.0 * cutoff * np.sinc(2.0 * cutoff * t) * window


def resample(buf: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Resample with a polyphase windowed-sinc filter.

    The rational ratio up/down is the reduced target/source rate pair and
    the output length is round(n * target_rate / source_rate). A matching
    target rate returns the input samples untouched; otherwise the first and
    last RESAMPLE_FADE_SAMPLES input samples are tapered with a raised cosine.

    Raises:
        ValueError: non-positive target rate or empty input.
    """
    if target_rate <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    if len(buf.samples) == 0:
        raise ValueError("cannot resample an empty buffer")
    if target_rate == buf.sample_rate_hz:
        return AudioBuffer(buf.samples.copy(), buf.sample_rate_hz)

    g = math.gcd(int(target_rate), buf.sample_rate_hz)
    up = int(target_rate) // g
    down = buf.sample_rate_hz // g
    n_in = len(buf.samples)
    n_out = (2 * n_in * up + down) // (2 * down)  # round-half-up of n_in*up/down

    bank = _sinc_kernel_bank(up, down)
    taps = bank.shape[1]
    half = taps // 2
    padded = np.pad(buf.samples, (half, taps + half), mode="constant")
    # Fade the padded copy in place; a faded copy of the input would cost one more full-length array.
    n_fade = min(RESAMPLE_FADE_SAMPLES, n_in // 2)
    ramp = 0.5 - 0.5 * np.cos(np.pi * (np.arange(n_fade) + 0.5) / n_fade)
    padded[half : half + n_fade] *= ramp
    padded[half + n_in - n_fade : half + n_in] *= ramp[::-1]
    windows = np.lib.stride_tricks.sliding_window_view(padded, taps)

    out = np.empty(n_out, dtype=np.float64)
    # Outputs j, j+up, j+2*up, ... share the polyphase branch (j*down) % up and
    # read input windows spaced `down` samples apart.
    for j0 in range(min(up, n_out)):
        u = j0 * down
        branch = bank[u % up]
        start = u // up + 1  # window start, offset by the left padding
        count = 1 + (n_out - 1 - j0) // up
        out[j0::up] = windows[start : start + count * down : down] @ branch
    return AudioBuffer(out, int(target_rate))


def peak_normalize(buf: AudioBuffer, target_peak_dbfs: float) -> AudioBuffer:
    """Scale by one constant so the absolute peak lands on the dBFS target.

    Raises:
        SilentAudioError: all-zero input has no peak to normalize.
    """
    peak = np.max(np.abs(buf.samples)) if len(buf.samples) else 0.0
    if peak == 0.0:
        raise SilentAudioError("cannot normalize silent audio")
    gain = 10.0 ** (target_peak_dbfs / 20.0) / peak
    return AudioBuffer(buf.samples * gain, buf.sample_rate_hz)


def center_trim(buf: AudioBuffer, duration_s: float) -> AudioBuffer:
    """Cut the middle `duration_s` seconds out of the buffer.

    The output holds exactly round(duration_s * rate) samples starting at
    floor((n_in - n_out) / 2). Shorter inputs are rejected, never padded.

    Raises:
        TooShortError: input shorter than the requested duration.
    """
    n_out = _round_half_up(duration_s * buf.sample_rate_hz)
    n_in = len(buf.samples)
    if n_in < n_out:
        raise TooShortError(
            f"input is {n_in / buf.sample_rate_hz:.3f} s, need {duration_s:.3f} s"
        )
    start = (n_in - n_out) // 2
    return AudioBuffer(buf.samples[start : start + n_out].copy(), buf.sample_rate_hz)


def preprocess(buf: AudioBuffer, spec: PreprocessSpec, pad_short: bool = False) -> AudioBuffer:
    """Run resample -> peak normalize -> center trim on a decoded buffer.

    With pad_short, inputs shorter than the clip are zero-padded evenly on
    both sides instead of rejected.
    """
    out = resample(buf, spec.target_sample_rate_hz)
    out = peak_normalize(out, spec.target_peak_dbfs)
    n_clip = _round_half_up(spec.clip_duration_s * out.sample_rate_hz)
    if pad_short and len(out.samples) < n_clip:
        left = (n_clip - len(out.samples)) // 2
        right = n_clip - len(out.samples) - left
        out = AudioBuffer(np.pad(out.samples, (left, right)), out.sample_rate_hz)
    return center_trim(out, spec.clip_duration_s)
