"""STFT engine and mel filterbank underlying every spectral feature."""

from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer

MEL_HIGH_FREQUENCY_Q = 2595.0
MEL_BREAK_FREQUENCY_HZ = 700.0

WINDOW_FUNCTIONS = ("hann", "hamming", "rectangular")


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


def fft_real(frame: np.ndarray) -> np.ndarray:
    """DFT of a real frame, bins 0..n/2: X[k] = sum_t frame[t] e^(-2i pi k t / n).

    The frame length must be a power of two. Backed by numpy's FFT; the test
    suite pins it against a direct O(n^2) DFT.
    """
    frame = np.asarray(frame, dtype=np.float64)
    n = len(frame)
    if n < 2 or n & (n - 1):
        raise ValueError(f"frame length must be a power of two, got {n}")
    return np.fft.rfft(frame)


def stft(buf: AudioBuffer, params: StftParams, kind: str = "magnitude") -> Spectrogram:
    """Short-time Fourier transform with frames centered on t*hop.

    The signal is reflect-padded by n_fft/2 on both ends, so the number of
    frames is 1 + floor(len / hop). Each frame is windowed and transformed
    with the same DFT convention as fft_real.
    """
    if kind not in ("magnitude", "power"):
        raise ValueError(f"kind must be 'magnitude' or 'power', got {kind!r}")
    x = buf.samples
    if len(x) == 0:
        raise ValueError("cannot analyze an empty buffer")
    n_fft, hop = params.n_fft, params.hop
    n_frames = 1 + len(x) // hop
    padded = np.pad(x, n_fft // 2, mode="reflect") if len(x) > 1 else np.pad(x, n_fft // 2)
    frames = np.lib.stride_tricks.sliding_window_view(padded, n_fft)[::hop][:n_frames]
    spec = np.abs(np.fft.rfft(frames * make_window(params.window, n_fft), axis=1)).T
    if kind == "power":
        spec = spec**2
    return Spectrogram(spec, params, buf.sample_rate_hz, kind)


def hz_to_mel(f):
    """HTK mel scale: m(f) = 2595 log10(1 + f/700)."""
    return MEL_HIGH_FREQUENCY_Q * np.log10(1.0 + np.asarray(f, dtype=np.float64) / MEL_BREAK_FREQUENCY_HZ)


def mel_to_hz(m):
    return MEL_BREAK_FREQUENCY_HZ * (10.0 ** (np.asarray(m, dtype=np.float64) / MEL_HIGH_FREQUENCY_Q) - 1.0)


def mel_filterbank(
    sample_rate_hz: int,
    n_fft: int,
    n_mels: int = 128,
    fmin_hz: float = 0.0,
    fmax_hz: float | None = None,
    normalization: str = "peak",
) -> np.ndarray:
    """n_mels x (n_fft/2 + 1) weights of triangular filters equally spaced on the mel scale.

    Filters are peak-normalized (height 1) by default; "area" rescales each
    triangle by 2 / bandwidth (Slaney style).
    """
    if fmax_hz is None:
        fmax_hz = sample_rate_hz / 2.0
    if fmax_hz > sample_rate_hz / 2.0:
        raise ValueError(f"fmax {fmax_hz} Hz exceeds Nyquist {sample_rate_hz / 2.0} Hz")
    if not 0 <= fmin_hz < fmax_hz:
        raise ValueError(f"need 0 <= fmin < fmax, got fmin={fmin_hz}, fmax={fmax_hz}")
    if normalization not in ("peak", "area"):
        raise ValueError(f"unknown normalization {normalization!r}")

    corners = mel_to_hz(np.linspace(hz_to_mel(fmin_hz), hz_to_mel(fmax_hz), n_mels + 2))
    freqs = np.arange(n_fft // 2 + 1) * sample_rate_hz / n_fft
    lower = corners[:-2][:, None]
    center = corners[1:-1][:, None]
    upper = corners[2:][:, None]
    rising = (freqs[None, :] - lower) / (center - lower)
    falling = (upper - freqs[None, :]) / (upper - center)
    weights = np.maximum(0.0, np.minimum(rising, falling))
    if normalization == "area":
        weights *= 2.0 / (upper - lower)
    return weights


def apply_filterbank(spec: Spectrogram, weights: np.ndarray) -> np.ndarray:
    """Project a power spectrogram onto the mel bands: weights @ values."""
    if spec.kind != "power":
        raise ValueError(f"filterbank expects a power spectrogram, got kind {spec.kind!r}")
    if weights.shape[1] != spec.values.shape[0]:
        raise ValueError(
            f"filterbank built for {weights.shape[1]} bins, spectrogram has {spec.values.shape[0]}"
        )
    return weights @ spec.values
