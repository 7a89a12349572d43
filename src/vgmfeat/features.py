"""The five per-track feature families: ZCR, centroid, chroma, MFCC, tempo."""

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .audio_io import AudioBuffer
from .errors import NoTempoError
from .spectral import Spectrogram, StftParams, stft

CHROMA_REFERENCE_HZ = 440.0  # A4
CHROMA_FMIN_HZ = 32.7  # C1; bins below carry no usable pitch information
PITCH_CLASSES = ("c", "cs", "d", "ds", "e", "f", "fs", "g", "gs", "a", "as", "b")
MFCC_LOG_FLOOR = 1e-10
DEFAULT_TEMPO_RANGE_BPM = (60.0, 180.0)


@dataclass
class FrameSeries:
    """A d x n_frames feature matrix (d=1 for scalar features)."""

    values: np.ndarray
    feature_kind: str

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


@dataclass
class TempoEstimate:
    bpm: float
    onset_envelope: np.ndarray


def zero_crossing_rate(
    buf: AudioBuffer, frame_len: int = StftParams.n_fft, hop: int = StftParams.hop
) -> FrameSeries:
    """Per-frame fraction of adjacent sample pairs that change sign.

    Zero counts as non-negative, so exact zeros never double-count a
    crossing. Frames are consecutive windows of frame_len samples spaced
    hop apart (no edge padding); each count is divided by frame_len - 1.
    """
    if frame_len < 2:
        raise ValueError(f"frame_len must be >= 2, got {frame_len}")
    if hop < 1:
        raise ValueError(f"hop must be >= 1, got {hop}")
    x = buf.samples
    if len(x) == 0:
        raise ValueError("cannot analyze an empty buffer")
    if len(x) < frame_len:
        raise ValueError(f"buffer has {len(x)} samples, need at least frame_len={frame_len}")
    negative = x < 0
    crossings = (negative[1:] != negative[:-1]).astype(np.float64)
    # pair t belongs to the frames covering samples (t, t+1)
    frames = np.lib.stride_tricks.sliding_window_view(crossings, frame_len - 1)[::hop]
    rates = frames.sum(axis=1) / (frame_len - 1)
    return FrameSeries(rates[None, :], "zcr")


def spectral_centroid(spec: Spectrogram) -> FrameSeries:
    """Magnitude-weighted mean frequency per frame; silent frames map to 0 Hz."""
    if spec.kind != "magnitude":
        raise ValueError(f"centroid expects a magnitude spectrogram, got kind {spec.kind!r}")
    mag = spec.values
    freqs = spec.bin_frequencies_hz()
    totals = mag.sum(axis=0)
    weighted = freqs @ mag
    centroid = np.divide(weighted, totals, out=np.zeros_like(totals), where=totals > 0)
    return FrameSeries(centroid[None, :], "spectral_centroid")


def chroma(
    spec: Spectrogram,
    fmin_hz: float = CHROMA_FMIN_HZ,
    reference_hz: float = CHROMA_REFERENCE_HZ,
) -> FrameSeries:
    """Fold the power spectrum onto the 12 pitch classes (C..B).

    Bin k at frequency f maps to class round(12 log2(f / reference) + 69)
    mod 12; class energies are summed and each frame is scaled by its
    maximum, so columns lie in [0, 1] (all-zero frames stay zero).
    """
    if spec.kind != "power":
        raise ValueError(f"chroma expects a power spectrogram, got kind {spec.kind!r}")
    freqs = spec.bin_frequencies_hz()
    audible = freqs >= fmin_hz
    midi = np.round(12.0 * np.log2(freqs[audible] / reference_hz) + 69.0).astype(int)
    classes = np.mod(midi, 12)
    fold = (classes[None, :] == np.arange(12)[:, None]).astype(np.float64)
    energy = fold @ spec.values[audible]
    peak = energy.max(axis=0)
    energy = np.divide(energy, peak, out=np.zeros_like(energy), where=peak > 0)
    return FrameSeries(energy, "chroma")


def mfcc(mel_power: np.ndarray, n_mfcc: int) -> FrameSeries:
    """Cepstral coefficients: orthonormal DCT-II of log(mel + 1e-10) per frame."""
    mel_power = np.asarray(mel_power, dtype=np.float64)
    if mel_power.ndim != 2:
        raise ValueError(f"mel_power must be 2-D, got shape {mel_power.shape}")
    if np.any(mel_power < 0):
        raise ValueError("mel_power entries must be non-negative")
    if not 1 <= n_mfcc <= mel_power.shape[0]:
        raise ValueError(f"n_mfcc must be in [1, {mel_power.shape[0]}], got {n_mfcc}")
    coeffs = scipy.fft.dct(np.log(mel_power + MFCC_LOG_FLOOR), type=2, axis=0, norm="ortho")
    # copy, so the kept rows do not pin the full n_mels-row transform
    return FrameSeries(coeffs[:n_mfcc].copy(), "mfcc")


def onset_envelope(spec: Spectrogram) -> np.ndarray:
    """Positive spectral flux: half-wave-rectified magnitude increase per frame."""
    if spec.kind != "magnitude":
        raise ValueError(f"onset envelope expects a magnitude spectrogram, got {spec.kind!r}")
    mag = spec.values
    return np.maximum(mag[:, 1:] - mag[:, :-1], 0.0).sum(axis=0)


def tempo_bpm(
    buf: AudioBuffer,
    params: StftParams | None = None,
    bpm_range: tuple = DEFAULT_TEMPO_RANGE_BPM,
) -> TempoEstimate:
    """Estimate tempo from the autocorrelation of the onset envelope.

    The mean-removed envelope is autocorrelated and searched over the lags
    covering bpm_range (default 60-180 BPM); the winning lag is refined by
    parabolic interpolation of its neighbors, which recovers beat periods
    that fall between envelope frames.

    Raises:
        NoTempoError: the envelope is identically zero (silence).
        ValueError: buffer shorter than 4 beats at the low end of the range.
    """
    params = params or StftParams()
    low, high = bpm_range
    if not 0 < low < high:
        raise ValueError(f"need 0 < low < high, got {bpm_range}")
    if buf.duration_s < 4.0 * 60.0 / low:
        raise ValueError(
            f"buffer is {buf.duration_s:.2f} s, need at least 4 beats at {low:g} BPM"
        )
    return tempo_from_spectrogram(stft(buf, params, kind="magnitude"), bpm_range)


def tempo_from_spectrogram(spec: Spectrogram, bpm_range: tuple = DEFAULT_TEMPO_RANGE_BPM) -> TempoEstimate:
    """Tempo search on an existing magnitude spectrogram (see tempo_bpm)."""
    low, high = bpm_range
    envelope = onset_envelope(spec)
    if not np.any(envelope > 0):
        raise NoTempoError("onset envelope is silent, no tempo to estimate")

    # Low-pass the envelope before autocorrelating: onsets falling between
    # envelope frames otherwise sample into unequal bumps, which deflates the
    # true beat lag and hands the argmax to a multiple of it.
    smooth_len = min(2 * (spec.params.n_fft // spec.params.hop) + 1, len(envelope))
    if smooth_len % 2 == 0:
        smooth_len -= 1
    kernel = np.hanning(smooth_len + 2)[1:-1]
    centered = np.convolve(envelope, kernel / kernel.sum(), mode="same")
    centered -= centered.mean()
    ac = np.correlate(centered, centered, mode="full")[len(centered) - 1 :]

    frame_rate = spec.frame_rate_hz
    lag_min = max(1, math.ceil(60.0 * frame_rate / high))
    lag_max = min(len(ac) - 1, math.floor(60.0 * frame_rate / low))
    if lag_min > lag_max:
        raise ValueError("envelope too short for the requested tempo range")
    lag = lag_min + int(np.argmax(ac[lag_min : lag_max + 1]))

    # parabolic refinement of the autocorrelation peak
    shift = 0.0
    if 1 <= lag < len(ac) - 1:
        denom = ac[lag - 1] - 2.0 * ac[lag] + ac[lag + 1]
        if denom < 0:
            shift = float(np.clip(0.5 * (ac[lag - 1] - ac[lag + 1]) / denom, -0.5, 0.5))
    bpm = float(np.clip(60.0 * frame_rate / (lag + shift), low, high))
    return TempoEstimate(bpm, envelope)
