"""WAV decoding and the preprocessing chain: mixdown, resample, normalize, trim.

The canonical order is decode -> mixdown -> resample -> peak normalize ->
center trim. The normalization gain is computed on the whole resampled
track, but `preprocess` multiplies it into the trimmed clip only; the clip
equals the same span of the fully normalized track bit for bit.
"""

import math
import os
import queue
import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import InitVar, dataclass
from functools import partial

import numpy as np

from .errors import SilentAudioError, TooShortError, UnsupportedWavError, WavDecodeError

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_IEEE_FLOAT = 0x0003
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# Size field a streaming writer leaves in a data chunk whose length it never
# patched in: the data runs to end of file.
WAV_STREAMED_SIZE = 0xFFFFFFFF
# (format tag, bits per sample) pairs decode_wav decodes.
WAV_CODECS = {(WAVE_FORMAT_PCM, 16), (WAVE_FORMAT_PCM, 24), (WAVE_FORMAT_IEEE_FLOAT, 32)}

# Windowed-sinc resampler quality knobs: 64 taps per polyphase branch and a
# Kaiser window designed for ~80 dB stop-band attenuation.
RESAMPLE_TAPS_PER_PHASE = 64
RESAMPLE_KAISER_BETA = 0.1102 * (80.0 - 8.7)
# Raised-cosine taper on each end of the resampler input: a signal that
# starts or stops abruptly has a broadband edge, and that edge would alias
# into the output band however good the low-pass filter is.
RESAMPLE_FADE_SAMPLES = 32
# Output periods (of `up` outputs each) per resampler block; each block is
# one matrix product per branch group. Blocks start at multiples of this
# constant whatever the input, because a matrix product's low bits depend on
# how its rows are split across calls: a fixed grid keeps the output
# independent of where the track's edges fall. In a sweep over 512-4096 on
# 240 s tracks, 2048 was up to 15 % faster at 32 -> 48 and 44.1 -> 22.05 kHz
# but no faster at 44.1 -> 48 kHz; 1024 keeps the scratch rows (at most 2 MB)
# within one core's 2 MiB L2.
RESAMPLE_BLOCK_PERIODS = 1024
# Widest input span, in taps, that one branch group's kernel may cover, so
# the kernels hold at most this many times `taps` doubles per branch whatever the ratio.
RESAMPLE_GROUP_SPAN_TAPS = 4


@dataclass
class AudioBuffer:
    """Mono audio: float64 samples in [-1, 1] plus their sample rate.

    The constructor rejects NaN and Inf samples. `_known_finite` is internal:
    only a producer in this module that has already checked every sample it
    wrote (decode_wav, resample) passes True, so that a full-length track is
    not scanned a second time.
    """

    samples: np.ndarray
    sample_rate_hz: int
    _known_finite: InitVar[bool] = False

    def __post_init__(self, _known_finite):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {self.samples.shape}")
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if not _known_finite and self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain NaN or Inf")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


@dataclass(frozen=True)
class PreprocessSpec:
    """Targets for the preprocessing chain.

    With pad_short, inputs shorter than the clip are zero-padded evenly on
    both sides instead of rejected.
    """

    target_peak_dbfs: float = -5.0
    clip_duration_s: float = 15.0
    target_sample_rate_hz: int = 48000
    pad_short: bool = False

    def __post_init__(self):
        # Written so that NaN fails each comparison and is rejected too.
        if not -math.inf < self.target_peak_dbfs <= 0:
            raise ValueError(f"target_peak_dbfs must be finite and <= 0, got {self.target_peak_dbfs}")
        if 10.0 ** (self.target_peak_dbfs / 20.0) < sys.float_info.min:
            raise ValueError(f"target_peak_dbfs must not put the peak below the smallest normal float "
                             f"(about -6153 dBFS), got {self.target_peak_dbfs}")
        if self.target_sample_rate_hz <= 0:
            raise ValueError(
                f"target_sample_rate_hz must be positive, got {self.target_sample_rate_hz}"
            )
        if not 0 < self.clip_duration_s * self.target_sample_rate_hz < math.inf:
            raise ValueError(f"clip_duration_s must be positive with a finite sample count at "
                             f"{self.target_sample_rate_hz} Hz, got {self.clip_duration_s}")

    @property
    def clip_samples(self) -> int:
        return _round_half_up(self.clip_duration_s * self.target_sample_rate_hz)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def decode_wav(data: bytes) -> AudioBuffer:
    """Decode a RIFF/WAVE byte string into a mono AudioBuffer.

    Handles PCM 16-bit, PCM 24-bit and IEEE float-32 data chunks; integer
    samples are scaled to [-1, 1] (16-bit by 1/32768, 24-bit by 1/8388608)
    and multi-channel audio is averaged to mono sample-wise. A data chunk
    sized 0xFFFFFFFF (a streamed file) runs to end of file; a trailing
    partial frame is dropped.

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
    view = memoryview(data)  # chunk bodies are views: the data chunk is never copied
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = view[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if chunk_size < 16 or len(body) < 16:
                raise WavDecodeError("truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
            if fmt[0] == WAVE_FORMAT_EXTENSIBLE:
                if chunk_size < 40 or len(body) < 40:
                    raise WavDecodeError("truncated fmt extension")
                (sub_format,) = struct.unpack_from("<H", body, 24)
                fmt = (sub_format,) + fmt[1:]
        elif chunk_id == b"data":
            if chunk_size == WAV_STREAMED_SIZE:
                raw = body  # the rest of the file; nothing can follow it
                break
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

    if (format_tag, bits) not in WAV_CODECS:
        raise UnsupportedWavError(
            f"unsupported codec: format tag {format_tag}, {bits} bits per sample"
        )
    if block_align != n_channels * bits // 8:
        raise WavDecodeError(
            f"fmt chunk declares block_align {block_align}, not {n_channels} channels x {bits} bits / 8"
        )

    # One pass: each integer times a power-of-two scale is exact in float64.
    if bits == 16:
        x = np.multiply(np.frombuffer(raw[: len(raw) - len(raw) % 2], dtype="<i2"), 2.0**-15, dtype=np.float64)
    elif bits == 24:
        b = np.frombuffer(raw[: len(raw) - len(raw) % 3], dtype=np.uint8)
        b = b.reshape(-1, 3).astype(np.int32)
        # assemble into the top 3 bytes of an int32, arithmetic shift sign-extends
        x = np.multiply(((b[:, 0] << 8) | (b[:, 1] << 16) | (b[:, 2] << 24)) >> 8, 2.0**-23, dtype=np.float64)
    else:
        x = np.frombuffer(raw[: len(raw) - len(raw) % 4], dtype="<f4").astype(np.float64)
        if not np.all(np.isfinite(x)):
            raise WavDecodeError("data chunk holds NaN or Inf samples")

    n_frames = len(x) // n_channels
    x = x[: n_frames * n_channels]
    if n_channels > 1:
        x = x.reshape(n_frames, n_channels).mean(axis=1)
    # Integer PCM lies in [-1, 1) by construction and float data was checked above.
    return AudioBuffer(x, int(sample_rate), _known_finite=True)


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


def _branch_groups(up: int, down: int, n_branches: int):
    """Matrix kernels for the first n_branches polyphase branches, in consecutive groups.

    Output j of every period reads `taps` inputs from offset starts[j] =
    j*down//up + 1 (relative to the period's input shift). A group of branches
    ja..jb-1 is one kernel of shape (span, jb - ja) whose column j - ja holds
    branch j's taps at rows starts[j] - starts[ja] onwards; its span stays
    within RESAMPLE_GROUP_SPAN_TAPS * taps. Each group computes its own
    branches' taps: a Kaiser-windowed sinc at phase (j*down % up)/up, cut off
    at the lower of the two Nyquist rates. Returns [(offset, ja, jb, kernel)].
    """
    taps = RESAMPLE_TAPS_PER_PHASE
    half = taps // 2
    cutoff = 0.5 * min(1.0, up / down)  # cycles per input sample
    i = np.arange(taps)
    j = np.arange(n_branches)
    starts = j * down // up + 1
    groups = []
    ja = 0
    while ja < n_branches:
        jb = int(np.searchsorted(starts, starts[ja] + (RESAMPLE_GROUP_SPAN_TAPS - 1) * taps, side="right"))
        t = (j[ja:jb] * down % up)[:, None] / up + (half - 1 - i)[None, :]  # offsets from the output instant
        window = np.i0(RESAMPLE_KAISER_BETA * np.sqrt(1.0 - (t / half) ** 2))
        window /= np.i0(RESAMPLE_KAISER_BETA)
        offset = int(starts[ja])
        kernel = np.zeros((starts[jb - 1] - offset + taps, jb - ja))
        kernel[(starts[ja:jb] - offset)[:, None] + i, np.arange(jb - ja)[:, None]] = (
            2.0 * cutoff * np.sinc(2.0 * cutoff * t) * window
        )
        groups.append((offset, ja, jb, kernel))
        ja = jb
    return groups


def _faded_span(x: np.ndarray, ramp: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """x[lo:hi] with zeros outside x and its first and last len(ramp) samples faded.

    A span clear of both fades is a view of x; any other is a fresh copy.
    """
    n_in, n_fade = len(x), len(ramp)
    if n_fade <= lo and hi <= n_in - n_fade:
        return x[lo:hi]
    seg = np.zeros(hi - lo)
    pieces = (
        (0, x[:n_fade] * ramp),
        (n_fade, x[n_fade : n_in - n_fade]),
        (n_in - n_fade, x[n_in - n_fade :] * ramp[::-1]),
    )
    for at, piece in pieces:
        a, b = max(lo, at), min(hi, at + len(piece))
        if a < b:
            seg[a - lo : b - lo] = piece[a - at : b - at]
    return seg


class BlockHelpers:
    """Helper threads, one per core beyond the first, that share out resample's blocks.

    The threads start on first use and are shared by the whole process. `idle`
    counts the helpers nobody holds: a caller that runs its own threads (the
    CLI's --jobs pool) holds as many helpers as it keeps cores busy, and a call
    started ahead (see `ahead`) holds one until it returns.
    """

    def __init__(self, helpers: int):
        self.helpers = helpers
        self.idle = helpers
        self._lock = threading.Lock()
        # A ThreadPoolExecutor starts its threads on the first submit, not here.
        self._pool = ThreadPoolExecutor(max(1, helpers), thread_name_prefix="vgmfeat-blocks")

    def _take(self, n: int) -> int:
        with self._lock:
            n = max(0, min(n, self.idle))
            self.idle -= n
        return n

    def _give_back(self, n: int):
        with self._lock:
            self.idle += n

    @contextmanager
    def hold(self, n: int):
        """Take up to n idle helpers for the duration of the block; yields how many."""
        n = self._take(n)
        try:
            yield n
        finally:
            self._give_back(n)

    def ahead(self, fn, *args):
        """Start fn(*args) on an idle helper; returns its Ahead, or None when no helper is idle."""
        return Ahead(self, partial(fn, *args)) if self._take(1) else None

    def run_blocks(self, run, items: range):
        """Call run(chunk) on the calling thread and on idle helpers; the chunks cover `items` once.

        Each chunk is an iterable that hands out the next item not yet taken
        by any thread, so a helper that starts late or runs slowly only leaves
        more items to the caller, and a helper that never starts (a busy pool,
        or a forked child whose pool threads are gone) leaves them all. The
        call returns, or re-raises, once every started chunk has finished.
        """
        with self.hold(len(items) - 1) as n:
            # Every thread's chunk ends at its own None, queued after the last item.
            todo = queue.SimpleQueue()
            for item in [*items, *[None] * (n + 1)]:
                todo.put(item)
            futures = [self._pool.submit(run, iter(todo.get, None)) for _ in range(n)]
            try:
                run(iter(todo.get, None))
            finally:
                # Only a started chunk can be waited for: a cancelled one is done
                # only once a helper thread dequeues it, which may never happen.
                started = [future for future in futures if not future.cancel()]
                wait(started)
            for future in started:
                future.result()


class Ahead:
    """One call running on a helper it holds (see BlockHelpers.ahead) until the call returns.

    The helper is given back before the result can be taken, so a resample
    that follows counts on it again. result() on a call that no helper has
    started yet (a forked child's pool has no threads) cancels it and runs
    it on the calling thread.
    """

    def __init__(self, helpers: BlockHelpers, call):
        self._helpers = helpers
        self._call = call
        self._future = helpers._pool.submit(self._run)

    def _run(self):
        try:
            return self._call()
        finally:
            self._helpers._give_back(1)

    def _cancel(self) -> bool:
        if not self._future.cancel():
            return False
        self._helpers._give_back(1)
        return True

    def result(self):
        """The call's return value, or its exception raised here."""
        return self._call() if self._cancel() else self._future.result()

    def drop(self):
        """Give the call up: returns once its helper is idle again; its result or error is discarded."""
        if not self._cancel():
            wait([self._future])


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


block_helpers = BlockHelpers(_cores() - 1)


def resample(buf: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Resample with a polyphase windowed-sinc filter.

    The rational ratio up/down is the reduced target/source rate pair and
    the output length is round(n * target_rate / source_rate). A matching
    target rate returns the input samples untouched; otherwise the input is
    zero-padded and its first and last RESAMPLE_FADE_SAMPLES samples are
    tapered with a raised cosine. Each block of RESAMPLE_BLOCK_PERIODS output
    periods is one matrix product per branch group (see _branch_groups),
    on a block grid that does not depend on the input length. Idle
    block_helpers threads share the blocks out; each block writes only its
    own output rows, so the bits do not depend on which thread computed it.
    Each block's output is checked for NaN or Inf (a finite input near the
    float range can overflow the filter) while it is still in cache.

    Raises:
        ValueError: non-positive target rate, empty input, or an output
            sample that overflowed.
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
    x = buf.samples
    n_in = len(x)
    n_out = (2 * n_in * up + down) // (2 * down)  # round-half-up of n_in*up/down

    n_fade = min(RESAMPLE_FADE_SAMPLES, n_in // 2)
    ramp = 0.5 - 0.5 * np.cos(np.pi * (np.arange(n_fade) + 0.5) / n_fade)
    # Period k's outputs form row k of `table`. Its input span starts k*down
    # samples after period 0's, which starts taps/2 zeros before the track.
    cols = max(1, min(up, n_out))  # one branch even when no output is due
    groups = _branch_groups(up, down, cols)
    last_offset, *_, last_kernel = groups[-1]
    width = last_offset + len(last_kernel)  # input span of one period
    n_per = -(-n_out // cols)
    out = np.empty(n_per * cols)
    table = out.reshape(n_per, cols)

    def run(block_starts):
        # Scratch per thread: at most RESAMPLE_BLOCK_PERIODS x 4 taps doubles (2 MB), and one
        # flag per output of a block, never more than `out` holds.
        tmp = np.empty(RESAMPLE_BLOCK_PERIODS * max(len(kernel) for *_, kernel in groups))
        finite = np.empty(min(RESAMPLE_BLOCK_PERIODS, n_per) * cols, dtype=bool)
        for p0 in block_starts:
            rows = min(RESAMPLE_BLOCK_PERIODS, n_per - p0)
            lo = p0 * down - RESAMPLE_TAPS_PER_PHASE // 2
            seg = _faded_span(x, ramp, lo, lo + (rows - 1) * down + width)
            spans = np.lib.stride_tricks.sliding_window_view(seg, width)[::down]
            for offset, ja, jb, kernel in groups:
                block = tmp[: rows * len(kernel)].reshape(rows, len(kernel))
                np.copyto(block, spans[:, offset : offset + len(kernel)])
                np.matmul(block, kernel, out=table[p0 : p0 + rows, ja:jb])
            done = out[p0 * cols : min((p0 + rows) * cols, n_out)]  # the block's rows, as far as they are kept
            if not np.isfinite(done, out=finite[: len(done)]).all():
                raise ValueError("samples contain NaN or Inf")

    block_helpers.run_blocks(run, range(0, n_per, RESAMPLE_BLOCK_PERIODS))
    return AudioBuffer(out[:n_out], int(target_rate), _known_finite=True)


def peak_gain(samples: np.ndarray, target_peak_dbfs: float) -> float:
    """The constant that puts the absolute peak of `samples` on the dBFS target.

    Raises:
        SilentAudioError: all-zero input has no peak to normalize, and a
            subnormal peak would need an infinite gain.
    """
    # max(x.max(), -x.min()) is exactly max(|x|), without a full-length temporary.
    # As a Python float, a subnormal peak divides to inf without a numpy overflow warning.
    peak = float(max(samples.max(), -samples.min())) if len(samples) else 0.0
    if peak == 0.0:
        raise SilentAudioError("cannot normalize silent audio")
    gain = 10.0 ** (target_peak_dbfs / 20.0) / peak
    if not math.isfinite(gain):
        raise SilentAudioError(f"peak {peak:g} is too small to normalize")
    return gain


def peak_normalize(buf: AudioBuffer, target_peak_dbfs: float) -> AudioBuffer:
    """Scale by one constant so the absolute peak lands on the dBFS target.

    Raises:
        SilentAudioError: all-zero input has no peak to normalize.
    """
    return AudioBuffer(buf.samples * peak_gain(buf.samples, target_peak_dbfs), buf.sample_rate_hz)


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


def preprocess(buf: AudioBuffer, spec: PreprocessSpec) -> AudioBuffer:
    """Run resample -> peak normalize -> center trim on a decoded buffer (see PreprocessSpec).

    The gain comes from the whole resampled track but scales only the clip,
    which equals center_trim(peak_normalize(resample(buf))) bit for bit.
    """
    out = resample(buf, spec.target_sample_rate_hz)
    gain = peak_gain(out.samples, spec.target_peak_dbfs)
    n_clip = spec.clip_samples
    if spec.pad_short and len(out.samples) < n_clip:
        left = (n_clip - len(out.samples)) // 2
        right = n_clip - len(out.samples) - left
        out = AudioBuffer(np.pad(out.samples, (left, right)), out.sample_rate_hz)
    clip = center_trim(out, spec.clip_duration_s)
    clip.samples *= gain  # center_trim returned a copy; |clip| * gain stays within the target peak
    return clip
