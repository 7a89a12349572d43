"""WAV decoding and the preprocessing chain: mixdown, resample, normalize, trim.

The canonical order is decode -> mixdown -> resample -> peak normalize ->
center trim. The normalization gain is computed on the whole resampled
track, but `preprocess` has resample keep only the clip's rows and
multiplies the gain into those; the clip equals the same span of the fully
normalized track bit for bit, and no full-length resampled track is built.
"""

import math
import mmap
import os
import queue
import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import SilentAudioError, TooShortError, UnsupportedWavError, WavDecodeError

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_IEEE_FLOAT = 0x0003
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# Size field a streaming writer leaves in a data chunk whose length it never
# patched in: the data runs to end of file.
WAV_STREAMED_SIZE = 0xFFFFFFFF
# (format tag, bits per sample) pairs decode_wav decodes.
WAV_CODECS = {
    (WAVE_FORMAT_PCM, 8), (WAVE_FORMAT_PCM, 16), (WAVE_FORMAT_PCM, 24), (WAVE_FORMAT_PCM, 32),
    (WAVE_FORMAT_IEEE_FLOAT, 32), (WAVE_FORMAT_IEEE_FLOAT, 64),
}

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
    not scanned a second time. `_peak` is internal too: resample sets it to
    max|y| over the whole resampled track y, rows outside the window it
    returns included, and only preprocess, which calls resample, reads it.
    Every other buffer, the clip preprocess returns included, has None.
    `_handed_over` is internal too: dataset.process_track sets it on the
    clip it hands to its last stage, and spectral.stft gives a marked clip's
    pages back to the OS as it reads them. Every other buffer has False.
    """

    samples: np.ndarray
    sample_rate_hz: int
    _known_finite: InitVar[bool] = False
    _peak: float | None = field(default=None, init=False, repr=False, compare=False)
    _handed_over: bool = field(default=False, init=False, repr=False, compare=False)

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

    @property
    def n_frames(self) -> int:
        return len(self.samples)

    def frames(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """Samples lo..hi, as WavFile.frames gives them: copied into out[:hi - lo] when out is given."""
        if out is None:
            return self.samples[lo:hi]
        np.copyto(out[: hi - lo], self.samples[lo:hi])
        return out[: hi - lo]


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
        if not (0 < self.clip_duration_s * self.target_sample_rate_hz < math.inf and self.clip_samples >= 1):
            raise ValueError(f"clip_duration_s must give a finite sample count of at least 1 at "
                             f"{self.target_sample_rate_hz} Hz, got {self.clip_duration_s}")

    @property
    def clip_samples(self) -> int:
        return _round_half_up(self.clip_duration_s * self.target_sample_rate_hz)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _mapped_empty(n: int) -> np.ndarray:
    """np.empty(n) in a private anonymous memory mapping of its own, outside the C heap.

    resample puts its output there, and preprocess's clip is that output:
    the clip is the one per-track buffer handed to the analysis, whose STFT
    gives its pages back as it reads them (see spectral.stft). In glibc's
    heap it could sit above freed per-track buffers and split the freed
    space, which the analysis's 11.5 MB arrays then did not fit: glibc
    mapped fresh pages for them while the hole stayed resident, and
    `report --jobs 2` peaked about 7 MB higher. resample's per-thread
    scratch is mapped too: freed into a thread's heap arena, it stayed
    resident through the analysis, about 3 MB on `report --jobs 1`. Huge
    pages are asked for where the OS has them, as numpy does for its own
    large buffers.
    """
    if not n:
        return np.empty(0)
    if not hasattr(mmap, "MAP_PRIVATE"):  # Windows: no flags, and no shared memory to avoid
        return np.frombuffer(mmap.mmap(-1, 8 * n), dtype=np.float64)
    mapping = mmap.mmap(-1, 8 * n, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        mapping.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(mapping, dtype=np.float64)


def _mapped_bytes(n: int) -> np.ndarray:
    """n bytes of _mapped_empty's memory, as uint8."""
    return _mapped_empty(-(-n // 8)).view(np.uint8)[:n]


def _spans(n: int):
    """(lo, hi) spans that cover range(n) in order, each as long as the resampler's largest block scratch."""
    step = RESAMPLE_BLOCK_PERIODS * RESAMPLE_GROUP_SPAN_TAPS * RESAMPLE_TAPS_PER_PHASE
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


class WavFile:
    """A parsed RIFF/WAVE file: where its data chunk lies, its format and its frame count.

    Holds no samples, only a way to read the data chunk's bytes: a view of
    the file's bytes, or positional reads of the open file, which must stay
    open while frames() is called. Each thread that reads the file reads
    into byte scratch of its own, which lives as long as the WavFile.
    frames(lo, hi) reads, decodes, checks and mixes down any span of frames
    on demand. parse_wav has checked the header, so frames() fails only on
    a float sample that is NaN or Inf, on float-64 channels whose mixdown
    overflows, or if the file shrank since: each raises WavDecodeError.
    """

    def __init__(self, read, data_at: int, data_size: int, format_tag: int, n_channels: int,
                 sample_rate_hz: int, bits: int):
        self.format_tag = format_tag
        self.n_channels = n_channels
        self.sample_rate_hz = sample_rate_hz
        self.bits = bits
        self.block_align = n_channels * bits // 8
        self.n_frames = data_size // self.block_align  # a trailing partial frame is dropped
        self._read = read
        self._data_at = data_at

    def frames(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """Frames lo..hi as float64 samples in [-1, 1], averaged over the channels.

        Integer samples are scaled by a power of two, which is exact in
        float64: 8-bit unsigned samples as (b - 128) / 128, 16-, 24- and
        32-bit signed ones by 1/2^(bits-1). Float samples, 32- or 64-bit,
        convert exactly, and a NaN or Inf among them raises WavDecodeError,
        as does a float-64 frame whose channels sum past the float range.
        Each frame's value depends on that frame alone, so any split into
        spans gives the same samples. The result goes into out[:hi - lo] when
        out is given.
        """
        n, c = hi - lo, self.n_channels
        raw = self._read(self._data_at + lo * self.block_align, n * self.block_align)
        if len(raw) < n * self.block_align:
            raise WavDecodeError("data chunk cut short: the file shrank after its header was read")
        out = np.empty(n) if out is None else out[:n]
        x = out if c == 1 else np.empty(n * c)
        if self.bits == 8:
            np.subtract(np.frombuffer(raw, dtype=np.uint8), 128.0, out=x, dtype=np.float64)
            x *= 2.0**-7
        elif self.bits == 16:
            np.multiply(np.frombuffer(raw, dtype="<i2"), 2.0**-15, out=x, dtype=np.float64)
        elif self.bits == 24:
            # Each sample's 3 bytes go into the top 3 of an int32, whose arithmetic shift sign-extends.
            wide = np.zeros((n * c, 4), dtype=np.uint8)
            wide[:, 1:] = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3)
            ints = wide.view("<i4").reshape(-1)
            np.multiply(np.right_shift(ints, 8, out=ints), 2.0**-23, out=x, dtype=np.float64)
        elif self.format_tag == WAVE_FORMAT_PCM:  # 32-bit integers
            np.multiply(np.frombuffer(raw, dtype="<i4"), 2.0**-31, out=x, dtype=np.float64)
        else:
            x[:] = np.frombuffer(raw, dtype=f"<f{self.bits // 8}")
            if not np.isfinite(x).all():
                raise WavDecodeError("data chunk holds NaN or Inf samples")
        if c > 1:
            with np.errstate(over="ignore"):  # float-64 channels near the float range can sum to Inf
                x.reshape(n, c).mean(axis=1, out=out)
            if self.bits == 64 and not np.isfinite(out).all():
                raise WavDecodeError("channel mixdown overflows: float samples sum past the float64 range")
        return out


def parse_wav(data) -> WavFile:
    """Parse a RIFF/WAVE file, given as its bytes or as a binary file open on it: read its headers, decode nothing.

    From an open file, only the chunk headers are read, with positional
    reads (os.preadv), so the file's own position is never used and threads
    may read it at once; the file must stay open while the returned WavFile
    is read. Handles PCM 8-, 16-, 24- and 32-bit and IEEE float-32 and -64
    data chunks (see WavFile.frames, which checks float samples for NaN and
    Inf as it decodes them). A data chunk sized 0xFFFFFFFF (a streamed file)
    runs to end of file. An EXTENSIBLE header's valid-bits field is not
    read: 24 valid bits in a 32-bit container sit in its top three bytes, so
    they decode as 32-bit samples to the same values.

    Raises:
        WavDecodeError: malformed container; the message names the chunk.
        UnsupportedWavError: valid container with an unhandled codec.
        OSError: a read of the file failed.
    """
    if isinstance(data, (bytes, bytearray, memoryview)):
        view = memoryview(data)  # chunk bodies are views: the data chunk is never copied
        size = len(view)

        def read(offset, n):
            return view[offset : offset + n]
    else:
        size = os.fstat(data.fileno()).st_size
        local = threading.local()  # each thread's byte scratch, grown to the largest span it read

        def read(offset, n):
            """Up to n bytes from offset, fewer only at end of file, in the calling thread's scratch."""
            buf = getattr(local, "scratch", None)
            if buf is None or len(buf) < n:
                buf = local.scratch = _mapped_bytes(n)
            buf, got = buf[:n], 0
            while got < n and (step := os.preadv(data.fileno(), [buf[got:]], offset + got)):
                got += step
            return buf[:got]

    head = bytes(read(0, 12))
    if len(head) < 12 or head[0:4] != b"RIFF":
        raise WavDecodeError("missing RIFF chunk id")
    if head[8:12] != b"WAVE":
        raise WavDecodeError("missing WAVE form type")

    fmt = None
    chunk = None  # the data chunk's (offset, bytes present)
    pos = 12
    while len(header := bytes(read(pos, 8))) == 8:
        chunk_id, chunk_size = struct.unpack("<4sI", header)
        if chunk_id == b"fmt ":
            body = bytes(read(pos + 8, min(chunk_size, 40)))
            if chunk_size < 16 or len(body) < 16:
                raise WavDecodeError("truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
            if fmt[0] == WAVE_FORMAT_EXTENSIBLE:
                if chunk_size < 40 or len(body) < 40:
                    raise WavDecodeError("truncated fmt extension")
                (sub_format,) = struct.unpack_from("<H", body, 24)
                fmt = (sub_format,) + fmt[1:]
        elif chunk_id == b"data":
            chunk = (pos + 8, max(0, min(chunk_size, size - pos - 8)))
            if chunk_size == WAV_STREAMED_SIZE:
                break  # the rest of the file; nothing can follow it
            if chunk[1] < chunk_size:
                raise WavDecodeError("truncated data chunk")
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None:
        raise WavDecodeError("missing fmt chunk")
    if chunk is None:
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

    return WavFile(read, *chunk, format_tag, n_channels, int(sample_rate), bits)


def decode_wav(data) -> AudioBuffer:
    """Decode a RIFF/WAVE file, given as parse_wav takes it, into a mono AudioBuffer: parse_wav, then every frame.

    Raises:
        WavDecodeError: malformed container; the message names the chunk.
        UnsupportedWavError: valid container with an unhandled codec.
    """
    wav = parse_wav(data)
    # Integer PCM lies in [-1, 1) by construction and frames checked float data.
    return AudioBuffer(wav.frames(0, wav.n_frames), wav.sample_rate_hz, _known_finite=True)


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


def _faded_span(source, ramp: np.ndarray, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """Frames lo..hi of source, with zeros outside it and its first and last len(ramp) frames faded, in out."""
    n_in, n_fade = source.n_frames, len(ramp)
    seg = out[: hi - lo]
    a = min(max(lo, 0), hi)
    b = max(min(hi, n_in), a)
    seg[: a - lo] = 0.0
    seg[b - lo :] = 0.0
    source.frames(a, b, out=seg[a - lo : b - lo])
    for at, piece in ((0, ramp), (n_in - n_fade, ramp[::-1])):
        c, d = max(a, at), min(b, at + n_fade)
        if c < d:
            seg[c - lo : d - lo] *= piece[c - at : d - at]
    return seg


def _abs_peak(y: np.ndarray) -> float:
    """max|y| of a non-empty y, as max(y.max(), -y.min()): exact, with no temporary.

    Raises:
        ValueError: y holds NaN or Inf (max and min both propagate NaN).
    """
    top, bottom = float(y.max()), float(y.min())
    if not (math.isfinite(top) and math.isfinite(bottom)):
        raise ValueError("samples contain NaN or Inf")
    return max(top, -bottom)


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _new_block_pool():
    """Give the process a fresh pool of _cores() threads for resample's blocks.

    One pool serves every track's thread. It is not the track pool: a track
    waits on its blocks, and a pool thread never waits on anything. A
    ThreadPoolExecutor starts its threads on the first submit, not here.
    """
    global _block_pool
    _block_pool = ThreadPoolExecutor(_cores(), thread_name_prefix="vgmfeat-blocks")


_new_block_pool()
if hasattr(os, "register_at_fork"):  # a forked child has none of its parent's threads: give it its own pool
    os.register_at_fork(after_in_child=_new_block_pool)


def resampled_length(n_frames: int, source_rate: int, target_rate: int) -> int:
    """resample's output length: round(n_frames * target_rate / source_rate), halves rounded up."""
    return (2 * n_frames * int(target_rate) + source_rate) // (2 * source_rate)


def _keep(out: np.ndarray, first: int, lo: int, rows: np.ndarray):
    """Copy output rows lo..lo + len(rows) into out where they fall in its window, which starts at row first."""
    a, b = max(lo, first), min(lo + len(rows), first + len(out))
    if a < b:
        out[a - first : b - first] = rows[a - lo : b - lo]


def resample(source, target_rate: int, window: tuple[int, int] | None = None) -> AudioBuffer:
    """Resample with a polyphase windowed-sinc filter; return the whole track, or the rows of `window`.

    `source` is an AudioBuffer or a WavFile: each block reads its own input
    span through source.frames, so a WavFile is decoded span by span while
    the block's rows are in cache, and never whole. The rational ratio
    up/down is the reduced target/source rate pair and the track's length
    is resampled_length(n, source rate, target rate). A matching target rate
    gives the input samples untouched; otherwise the input is zero-padded
    and its first and last RESAMPLE_FADE_SAMPLES samples are tapered with a
    raised cosine. Each block of RESAMPLE_BLOCK_PERIODS output periods is one
    matrix product per branch group (see _branch_groups), on a block grid
    that does not depend on the input length or the window. The blocks run
    on the process's one block pool, shared by every track, as up to
    _cores() chunks that each take the next block not yet taken; the calling
    thread waits for every chunk and then raises the first chunk's error, if
    any. Each block computes into its chunk's scratch and copies only the
    rows that fall in the window, so the bits do not depend on the window or
    on which thread computed them. Every block runs, whatever the window:
    its output max and min, taken while it is still in cache, give the
    returned buffer's peak over the whole track, and show a NaN or Inf (a
    finite input near the float range can overflow the filter).

    `window` is (first_row, n_rows): the returned buffer holds track rows
    first_row..first_row + n_rows, with zeros where that runs past either
    end of the track. None is (0, the track's length).

    Raises:
        ValueError: non-positive target rate, empty input, negative window
            length, or an output sample that overflowed.
    """
    if target_rate <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    n_in = source.n_frames
    if n_in == 0:
        raise ValueError("cannot resample an empty buffer")
    n_out = resampled_length(n_in, source.sample_rate_hz, target_rate)
    first, n_rows = (0, n_out) if window is None else window
    if n_rows < 0:
        raise ValueError(f"window length must not be negative, got {n_rows}")
    out = _mapped_empty(n_rows)
    a = min(max(-first, 0), n_rows)
    out[:a] = 0.0  # rows before the track
    out[max(min(n_out - first, n_rows), a) :] = 0.0  # rows after it
    peaks = []  # one per block or span; list.append is atomic across threads
    if target_rate == source.sample_rate_hz:
        spans = _spans(n_in)
        scratch = _mapped_empty(spans[0][1])  # mapped, as run's scratch below is
        for lo, hi in spans:
            seg = source.frames(lo, hi, out=scratch)
            peaks.append(_abs_peak(seg))
            _keep(out, first, lo, seg)
        return _with_peak(AudioBuffer(out, source.sample_rate_hz, _known_finite=True), peaks)

    g = math.gcd(int(target_rate), source.sample_rate_hz)
    up = int(target_rate) // g
    down = source.sample_rate_hz // g

    n_fade = min(RESAMPLE_FADE_SAMPLES, n_in // 2)
    ramp = 0.5 - 0.5 * np.cos(np.pi * (np.arange(n_fade) + 0.5) / n_fade)
    # Period k's outputs are track rows k*cols.. (k + 1)*cols. Its input span starts
    # k*down samples after period 0's, which starts taps/2 zeros before the track.
    cols = max(1, min(up, n_out))  # one branch even when no output is due
    groups = _branch_groups(up, down, cols)
    last_offset, *_, last_kernel = groups[-1]
    width = last_offset + len(last_kernel)  # input span of one period
    n_per = -(-n_out // cols)
    block_periods = min(RESAMPLE_BLOCK_PERIODS, n_per)

    def run(block_starts):
        # Scratch per chunk: at most RESAMPLE_BLOCK_PERIODS x 4 taps doubles (2 MB) of kernel
        # rows, one block's input span and one block's output periods, a row each. Each is
        # mapped (see _mapped_empty), so its pages go back to the OS when the call ends.
        tmp = _mapped_empty(RESAMPLE_BLOCK_PERIODS * max(len(kernel) for *_, kernel in groups))
        span = _mapped_empty(max(0, block_periods - 1) * down + width)
        table = _mapped_empty(block_periods * cols).reshape(block_periods, cols)
        # Period k's input row: span[k * down : k * down + width], one view made once per chunk.
        windows = np.ndarray((block_periods, width), buffer=span, strides=(down * 8, 8))
        for p0 in block_starts:
            rows = min(RESAMPLE_BLOCK_PERIODS, n_per - p0)
            lo = p0 * down - RESAMPLE_TAPS_PER_PHASE // 2
            _faded_span(source, ramp, lo, lo + (rows - 1) * down + width, span)
            # An overflow is an error raised below, not a warning printed by whichever thread ran the block.
            with np.errstate(over="ignore", invalid="ignore"):
                for offset, ja, jb, kernel in groups:
                    block = tmp[: rows * len(kernel)].reshape(rows, len(kernel))
                    np.copyto(block, windows[:rows, offset : offset + len(kernel)])
                    np.matmul(block, kernel, out=table[:rows, ja:jb])
            done = table.reshape(-1)[: min(rows * cols, n_out - p0 * cols)]  # the block's rows within the track
            peaks.append(_abs_peak(done))
            _keep(out, first, p0 * cols, done)

    # Each chunk takes block starts from one queue until its None, so it maps its scratch once.
    starts = range(0, n_per, RESAMPLE_BLOCK_PERIODS)
    n_chunks = min(_cores(), len(starts))
    todo = queue.SimpleQueue()
    for p0 in [*starts, *[None] * n_chunks]:
        todo.put(p0)
    chunks = [_block_pool.submit(run, iter(todo.get, None)) for _ in range(n_chunks)]
    wait(chunks)  # every chunk ends before an error is raised, so none outlives the call
    for chunk in chunks:
        chunk.result()
    return _with_peak(AudioBuffer(out, int(target_rate), _known_finite=True), peaks)


def _with_peak(buf: AudioBuffer, peaks) -> AudioBuffer:
    buf._peak = max(peaks, default=0.0)  # max|y| over the blocks is max|y| over the track, exactly
    return buf


def _gain(peak: float, target_peak_dbfs: float) -> float:
    if peak == 0.0:
        raise SilentAudioError("cannot normalize silent audio")
    # As a Python float, a subnormal peak divides to inf without a numpy overflow warning.
    gain = 10.0 ** (target_peak_dbfs / 20.0) / peak
    if not math.isfinite(gain):
        raise SilentAudioError(f"peak {peak:g} is too small to normalize")
    return gain


def peak_normalize(buf: AudioBuffer, target_peak_dbfs: float) -> AudioBuffer:
    """Scale by one constant so the absolute peak lands on the dBFS target.

    Raises:
        SilentAudioError: all-zero or empty input has no peak to normalize, and
            a subnormal peak would need an infinite gain.
    """
    peak = _abs_peak(buf.samples) if len(buf.samples) else 0.0
    return AudioBuffer(buf.samples * _gain(peak, target_peak_dbfs), buf.sample_rate_hz)


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
        raise TooShortError(_too_short(n_in, buf.sample_rate_hz, duration_s))
    start = (n_in - n_out) // 2
    return AudioBuffer(buf.samples[start : start + n_out].copy(), buf.sample_rate_hz)


def _too_short(n_in: int, rate: int, duration_s: float) -> str:
    return f"input is {n_in / rate:.3f} s, need {duration_s:.3f} s"


def preprocess(source, spec: PreprocessSpec) -> AudioBuffer:
    """Run resample -> peak normalize -> center trim on an AudioBuffer or a WavFile (see PreprocessSpec).

    resample returns only the clip's rows: the middle clip of the resampled
    track, or with pad_short a shorter track centred in zeros. The gain comes
    from the whole track's peak, which resample took block by block, and
    scales the clip in place; the clip equals
    center_trim(peak_normalize(resample(decode_wav(b)))) bit for bit.

    Raises:
        ValueError: resample's own errors, first.
        SilentAudioError: the track has no peak to normalize.
        TooShortError: the resampled track is shorter than the clip, without pad_short.
    """
    rate = spec.target_sample_rate_hz
    n_out = resampled_length(source.n_frames, source.sample_rate_hz, rate)
    n_clip = spec.clip_samples
    too_short = n_out < n_clip and not spec.pad_short
    if too_short:
        window = (0, 0)  # resample still runs, for its errors and the peak
    elif n_out >= n_clip:
        window = ((n_out - n_clip) // 2, n_clip)
    else:
        window = (-((n_clip - n_out) // 2), n_clip)  # zero-padded evenly on both sides
    out = resample(source, rate, window)
    gain = _gain(out._peak, spec.target_peak_dbfs)
    if too_short:
        raise TooShortError(_too_short(n_out, rate, spec.clip_duration_s))
    out.samples *= gain  # |clip| * gain stays within the target peak
    return AudioBuffer(out.samples, rate, _known_finite=True)
