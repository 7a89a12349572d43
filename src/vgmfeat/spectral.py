"""STFT engine and mel filterbank underlying every spectral feature."""

import mmap
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer, _mapped_empty

MEL_HIGH_FREQUENCY_Q = 2595.0
MEL_BREAK_FREQUENCY_HZ = 700.0

WINDOW_FUNCTIONS = ("hann", "hamming", "rectangular")
# Frames per STFT block. At the default n_fft of 2048 a block's windowed
# frames and its complex spectrum are 2 MB each; each frame is transformed on
# its own, so the block size never changes an output bit.
STFT_BLOCK_FRAMES = 128


@dataclass(frozen=True)
class StftParams:
    n_fft: int = 2048
    hop: int = 512
    window: str = "hann"

    def __post_init__(self):
        if self.n_fft < 2 or self.n_fft & (self.n_fft - 1):
            raise ValueError(f"n_fft must be a power of two, got {self.n_fft}")
        if not 0 < self.hop <= self.n_fft:
            raise ValueError(f"hop must be in (0, n_fft], got {self.hop}")
        if self.window not in WINDOW_FUNCTIONS:
            raise ValueError(f"unknown window {self.window!r}, expected one of {WINDOW_FUNCTIONS}")


@dataclass
class Spectrogram:
    """Non-negative (n_fft/2 + 1) x n_frames matrix plus its analysis parameters."""

    values: np.ndarray
    params: StftParams
    sample_rate_hz: int
    kind: str  # "magnitude" or "power"

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]

    @property
    def frame_rate_hz(self) -> float:
        return self.sample_rate_hz / self.params.hop

    def bin_frequencies_hz(self) -> np.ndarray:
        return np.arange(self.values.shape[0]) * self.sample_rate_hz / self.params.n_fft

    def to_power(self) -> "Spectrogram":
        if self.kind == "power":
            return self
        return Spectrogram(self.values**2, self.params, self.sample_rate_hz, "power")


def make_window(name: str, n: int) -> np.ndarray:
    """Periodic analysis window of length n."""
    if name == "hann":
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    if name == "hamming":
        return 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / n)
    if name == "rectangular":
        return np.ones(n)
    raise ValueError(f"unknown window {name!r}, expected one of {WINDOW_FUNCTIONS}")


def stft(buf: AudioBuffer, params: StftParams) -> Spectrogram:
    """Magnitude short-time Fourier transform with frames centered on t*hop.

    The signal is reflect-padded by n_fft/2 on both ends, so the number of
    frames is 1 + floor(len / hop). Each windowed frame w*x gives bins
    0..n_fft/2 of |X[k]|, X[k] = sum_t w[t] x[t] e^(-2i pi k t / n_fft); the
    test suite pins single frames against a direct O(n^2) DFT. Use
    Spectrogram.to_power() for |X[k]|^2.

    The magnitude is one frames x bins array, returned transposed, in a
    mapping of its own (audio_io._mapped_empty): it never enters the C heap,
    and its pages go back to the OS when the last array reading it is
    dropped. It is filled on the calling thread in blocks of
    STFT_BLOCK_FRAMES frames, each windowed into one reused scratch array,
    so no full-size temporary is made. Interior blocks read their frames
    straight from the clip; only a block that reaches past either end
    reflect-pads a copy of the samples it reads. A clip of n_fft/2 samples
    or fewer, which numpy reflects more than once, is padded whole. Blocks
    cannot move a bit, as every step is per frame; a matrix product over
    frames could not be split so, since its sums change their low bits with
    the operand's shape.

    A handed-over clip (AudioBuffer._handed_over) that fills a mapping of
    its own (audio_io._mapped_empty) goes back to the OS as it is read:
    after each block, the whole pages below the first sample a later block
    reads are released (MADV_DONTNEED) and read as zeros from then on. No
    other buffer, no clip padded whole, and nothing without MADV_DONTNEED
    (Windows) is released.
    """
    x = buf.samples
    if len(x) == 0:
        raise ValueError("cannot analyze an empty buffer")
    n_fft, hop = params.n_fft, params.hop
    n_frames = 1 + len(x) // hop
    half = n_fft // 2
    # np.frombuffer's base is the mapping (numpy 1.x) or a memoryview of it (numpy 2.x).
    mapping = getattr(x.base, "obj", x.base) if buf._handed_over and hasattr(mmap, "MADV_DONTNEED") else None
    if not isinstance(mapping, mmap.mmap) or len(mapping) != x.nbytes:
        mapping = None
    if len(x) <= half:
        x = np.pad(x, half, mode="reflect" if len(x) > 1 else "constant")
        half, mapping = 0, None
    window = make_window(params.window, n_fft)
    mag = _mapped_empty(n_frames * (n_fft // 2 + 1)).reshape(n_frames, n_fft // 2 + 1)
    windowed = np.empty((min(STFT_BLOCK_FRAMES, n_frames), n_fft))
    for f0 in range(0, n_frames, STFT_BLOCK_FRAMES):
        f1 = min(f0 + STFT_BLOCK_FRAMES, n_frames)
        # The block reads samples lo..hi of the clip; a padded sample -i is x[i], n-1+i is x[n-1-i].
        lo, hi = f0 * hop - half, (f1 - 1) * hop - half + n_fft
        left, right = max(0, -lo), max(0, hi - len(x))
        if left or right:
            # Take enough samples to reflect, even where the frames read fewer.
            a, b = min(lo + left, len(x) - 1 - right), max(min(hi, len(x)), left + 1)
            samples = np.pad(x[a:b], (left, right), mode="reflect")[lo + left - a :]
        else:
            samples = x[lo:hi]
        frames = np.lib.stride_tricks.sliding_window_view(samples, n_fft)[::hop]
        block = np.multiply(frames[: f1 - f0], window, out=windowed[: f1 - f0])
        np.abs(np.fft.rfft(block, axis=1), out=mag[f0:f1])
        # Its frames are in the scratch now. Later blocks read from f1*hop - half on, except that
        # a last block's right edge reflects from n-1-half, which can lie below it.
        drop = 8 * min(f1 * hop - half, len(x) - 1 - half) // mmap.PAGESIZE * mmap.PAGESIZE
        if mapping is not None and f1 < n_frames and drop > 0:
            mapping.madvise(mmap.MADV_DONTNEED, 0, drop)
    return Spectrogram(mag.T, params, buf.sample_rate_hz, "magnitude")


def hz_to_mel(f):
    """HTK mel scale: m(f) = 2595 log10(1 + f/700)."""
    return MEL_HIGH_FREQUENCY_Q * np.log10(1.0 + np.asarray(f, dtype=np.float64) / MEL_BREAK_FREQUENCY_HZ)


def mel_to_hz(m):
    return MEL_BREAK_FREQUENCY_HZ * (10.0 ** (np.asarray(m, dtype=np.float64) / MEL_HIGH_FREQUENCY_Q) - 1.0)


def mel_filterbank(sample_rate_hz: int, n_fft: int, n_mels: int) -> np.ndarray:
    """n_mels x (n_fft/2 + 1) weights of triangular filters equally spaced on the mel scale.

    Filters are peak-normalized (height 1) and span 0 Hz to Nyquist.
    """
    corners = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate_hz / 2.0), n_mels + 2))
    freqs = np.arange(n_fft // 2 + 1) * sample_rate_hz / n_fft
    lower = corners[:-2][:, None]
    center = corners[1:-1][:, None]
    upper = corners[2:][:, None]
    rising = (freqs[None, :] - lower) / (center - lower)
    falling = (upper - freqs[None, :]) / (upper - center)
    return np.maximum(0.0, np.minimum(rising, falling))


def apply_filterbank(spec: Spectrogram, weights: np.ndarray) -> np.ndarray:
    """Project a power spectrogram onto the mel bands: weights @ values."""
    if spec.kind != "power":
        raise ValueError(f"filterbank expects a power spectrogram, got kind {spec.kind!r}")
    if weights.shape[1] != spec.values.shape[0]:
        raise ValueError(
            f"filterbank built for {weights.shape[1]} bins, spectrogram has {spec.values.shape[0]}"
        )
    return weights @ spec.values
