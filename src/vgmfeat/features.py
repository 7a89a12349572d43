"""The five per-track feature families: ZCR, centroid, chroma, MFCC, tempo."""

import math
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer
from .errors import NoTempoError
from .spectral import STFT_BLOCK_FRAMES, Spectrogram, StftParams, stft

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
    crossings = np.flatnonzero(negative[1:] != negative[:-1])
    # Pair t belongs to the frames covering samples (t, t+1). The number of
    # crossings before pair p is the integer prefix count searchsorted(crossings, p),
    # so each frame's count is the exact difference of two of them.
    starts = np.arange(1 + (len(x) - frame_len) // hop) * hop
    counts = np.searchsorted(crossings, starts + frame_len - 1) - np.searchsorted(crossings, starts)
    rates = counts / (frame_len - 1)
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
    # Bin frequencies increase, so the audible bins are a suffix: a view, not a copy.
    k0 = int(np.searchsorted(freqs, fmin_hz))
    midi = np.round(12.0 * np.log2(freqs[k0:] / reference_hz) + 69.0).astype(int)
    classes = np.mod(midi, 12)
    fold = (classes[None, :] == np.arange(12)[:, None]).astype(np.float64)
    energy = fold @ spec.values[k0:]
    peak = energy.max(axis=0)
    energy = np.divide(energy, peak, out=np.zeros_like(energy), where=peak > 0)
    return FrameSeries(energy, "chroma")


def _dct2_ortho_basis(n_out: int, n_in: int) -> np.ndarray:
    """First n_out rows of the n_in-point orthonormal DCT-II matrix."""
    k = np.arange(n_out)[:, None]
    basis = np.cos(np.pi * k * (2.0 * np.arange(n_in) + 1.0) / (2.0 * n_in))
    basis *= math.sqrt(2.0 / n_in)
    basis[0] = math.sqrt(1.0 / n_in)
    return basis


def mfcc(mel_power: np.ndarray, n_mfcc: int) -> FrameSeries:
    """Cepstral coefficients: orthonormal DCT-II of log(mel + 1e-10) per frame."""
    mel_power = np.asarray(mel_power, dtype=np.float64)
    if mel_power.ndim != 2:
        raise ValueError(f"mel_power must be 2-D, got shape {mel_power.shape}")
    if np.any(mel_power < 0):
        raise ValueError("mel_power entries must be non-negative")
    if not 1 <= n_mfcc <= mel_power.shape[0]:
        raise ValueError(f"n_mfcc must be in [1, {mel_power.shape[0]}], got {n_mfcc}")
    basis = _dct2_ortho_basis(n_mfcc, mel_power.shape[0])
    return FrameSeries(basis @ np.log(mel_power + MFCC_LOG_FLOOR), "mfcc")


def onset_envelope(spec: Spectrogram) -> np.ndarray:
    """Positive spectral flux: half-wave-rectified magnitude increase per frame.

    The flux is taken STFT_BLOCK_FRAMES frames at a time (each block reads one
    frame past its end) into one reused scratch array laid out like the
    spectrogram, so each frame's sum over bins runs in the same order as over
    a whole-clip flux, and no full-size array is made.
    """
    if spec.kind != "magnitude":
        raise ValueError(f"onset envelope expects a magnitude spectrogram, got {spec.kind!r}")
    mag = spec.values
    envelope = np.empty(mag.shape[1] - 1)
    flux = np.empty((mag.shape[0], min(STFT_BLOCK_FRAMES, len(envelope))), order="F")
    for f0 in range(0, len(envelope), STFT_BLOCK_FRAMES):
        f1 = min(f0 + STFT_BLOCK_FRAMES, len(envelope))
        block = np.subtract(mag[:, f0 + 1 : f1 + 1], mag[:, f0:f1], out=flux[:, : f1 - f0])
        np.maximum(block, 0.0, out=block).sum(axis=0, out=envelope[f0:f1])
    return envelope


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
    return tempo_from_spectrogram(stft(buf, params), bpm_range)


def _beat_lags(frame_rate_hz: float, bpm_range: tuple) -> tuple:
    """Shortest and longest beat period in bpm_range, in whole onset-envelope frames."""
    low, high = bpm_range
    return max(1, math.ceil(60.0 * frame_rate_hz / high)), math.floor(60.0 * frame_rate_hz / low)


def min_clip_samples(params: StftParams, sample_rate_hz: int, bpm_range: tuple = DEFAULT_TEMPO_RANGE_BPM) -> int:
    """Fewest samples a clip needs for every extractor: one ZCR frame and one tempo lag.

    n samples give n // hop + 1 STFT frames, so n // hop onset-envelope
    values, whose autocorrelation lags up to n // hop - 1 must reach the
    shortest beat lag.
    """
    lag_min, _ = _beat_lags(sample_rate_hz / params.hop, bpm_range)
    return max(params.n_fft, (lag_min + 1) * params.hop)


def tempo_from_spectrogram(spec: Spectrogram, bpm_range: tuple = DEFAULT_TEMPO_RANGE_BPM) -> TempoEstimate:
    """Tempo search on an existing magnitude spectrogram (see tempo_bpm)."""
    return tempo_from_envelope(onset_envelope(spec), spec.params, spec.sample_rate_hz, bpm_range)


def tempo_from_envelope(
    envelope: np.ndarray, params: StftParams, sample_rate_hz: int, bpm_range: tuple = DEFAULT_TEMPO_RANGE_BPM
) -> TempoEstimate:
    """Tempo search on the onset envelope of a spectrogram with these params (see tempo_bpm)."""
    low, high = bpm_range
    if not np.any(envelope > 0):
        raise NoTempoError("onset envelope is silent, no tempo to estimate")

    # Low-pass the envelope before autocorrelating: onsets falling between
    # envelope frames otherwise sample into unequal bumps, which deflates the
    # true beat lag and hands the argmax to a multiple of it.
    smooth_len = min(2 * (params.n_fft // params.hop) + 1, len(envelope))
    if smooth_len % 2 == 0:
        smooth_len -= 1
    kernel = np.hanning(smooth_len + 2)[1:-1]
    centered = np.convolve(envelope, kernel / kernel.sum(), mode="same")
    centered -= centered.mean()
    ac = np.correlate(centered, centered, mode="full")[len(centered) - 1 :]

    frame_rate = sample_rate_hz / params.hop
    lag_min, lag_max = _beat_lags(frame_rate, bpm_range)
    lag_max = min(len(ac) - 1, lag_max)
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
