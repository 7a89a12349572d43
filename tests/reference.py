"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (direct sums, Python loops, whole-clip
arrays) and shares no code with the library paths it checks.
one_shot_analysis is the one composition: it checks how analyze_clip blocks
and reuses its buffers, so it calls the library's matrix-product extractors
and tempo search on whole-clip arrays built here.
"""

import io
import math
import struct

import numpy as np

from vgmfeat.features import chroma, mfcc, spectral_centroid, tempo_from_envelope
from vgmfeat.spectral import Spectrogram, apply_filterbank, make_window, mel_filterbank


def naive_rdft(frame):
    """Direct O(n^2) DFT, bins 0..n/2."""
    frame = np.asarray(frame, dtype=np.float64)
    n = len(frame)
    t = np.arange(n)
    return np.array(
        [np.sum(frame * np.exp(-2j * np.pi * k * t / n)) for k in range(n // 2 + 1)]
    )


def naive_dft_magnitudes(signal):
    """Full positive-frequency magnitude spectrum by direct summation."""
    signal = np.asarray(signal, dtype=np.float64)
    n = len(signal)
    t = np.arange(n)
    mags = np.empty(n // 2 + 1)
    for k in range(n // 2 + 1):
        w = 2.0 * np.pi * k / n
        mags[k] = abs(np.sum(signal * np.cos(w * t)) - 1j * np.sum(signal * np.sin(w * t)))
    return mags


def one_shot_stft(samples, n_fft, hop, window):
    """Magnitude STFT of every frame in one rfft call: bins x frames, a transposed frames x bins array.

    Frames are centered on t*hop of the signal reflect-padded by n_fft/2 (a
    one-sample signal is zero-padded, having nothing to reflect), and each is
    multiplied by `window` before its transform.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n_frames = 1 + len(samples) // hop
    padded = np.pad(samples, n_fft // 2, mode="reflect" if len(samples) > 1 else "constant")
    frames = np.lib.stride_tricks.sliding_window_view(padded, n_fft)[::hop][:n_frames]
    return np.abs(np.fft.rfft(frames * window, axis=1)).T


def sliding_sum_zcr(samples, frame_len, hop):
    """Zero-crossing rates as float sums of the sign changes in each frame's sliding window of pairs."""
    negative = np.asarray(samples) < 0
    crossings = (negative[1:] != negative[:-1]).astype(np.float64)
    frames = np.lib.stride_tricks.sliding_window_view(crossings, frame_len - 1)[::hop]
    return frames.sum(axis=1) / (frame_len - 1)


def one_shot_analysis(samples, spec, sample_rate_hz):
    """analyze_clip's (row, series) from whole-clip arrays.

    One rfft call for the magnitude, mag**2 as a second array, the onset
    flux of every frame at once and the sliding-sum zero-crossing rates.
    """
    params = spec.stft
    zcr = sliding_sum_zcr(samples, params.n_fft, params.hop)[None, :]
    mag = one_shot_stft(samples, params.n_fft, params.hop, make_window(params.window, params.n_fft))
    magnitude = Spectrogram(mag, params, sample_rate_hz, "magnitude")
    power = Spectrogram(mag**2, params, sample_rate_hz, "power")
    cent = spectral_centroid(magnitude).values
    envelope = np.maximum(mag[:, 1:] - mag[:, :-1], 0.0).sum(axis=0)
    bpm = tempo_from_envelope(envelope, params, sample_rate_hz).bpm
    chrom = chroma(power).values
    ceps = mfcc(apply_filterbank(power, mel_filterbank(sample_rate_hz, params.n_fft, spec.n_mels)), spec.n_mfcc).values
    row = np.concatenate([
        [bpm, zcr.mean(), zcr.std(), cent.mean(), cent.std()],
        chrom.mean(axis=1),
        ceps.mean(axis=1),
        ceps.max(axis=1) - ceps.min(axis=1),
    ])
    series = {"zcr": zcr, "centroid": cent, "chroma": chrom, "mfcc": ceps, "onset": envelope[None, :]}
    return row, series


def naive_dct2_ortho(x):
    """Orthonormal DCT-II along axis 0 as an explicit cosine sum."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    out = np.zeros_like(x)
    for k in range(n):
        scale = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
        basis = np.cos(np.pi * k * (2.0 * np.arange(n) + 1.0) / (2.0 * n))
        out[k] = scale * (basis @ x)
    return out


def count_sign_changes(x):
    """Crossing count with zero treated as non-negative."""
    total = 0
    for a, b in zip(x[:-1], x[1:]):
        total += (a < 0) != (b < 0)
    return total


def two_pass_stats(matrix):
    """Column mean and population std via explicit two-pass loops."""
    matrix = np.asarray(matrix, dtype=np.float64)
    n, d = matrix.shape
    mean = np.zeros(d)
    std = np.zeros(d)
    for j in range(d):
        mean[j] = sum(matrix[i, j] for i in range(n)) / n
        std[j] = math.sqrt(sum((matrix[i, j] - mean[j]) ** 2 for i in range(n)) / n)
    return mean, std


def brute_force_knn(train, labels, query, k):
    """Exhaustive neighbor search with the documented tie-breaking.

    Equal distances rank by training-row index; vote ties go to the class
    with the smallest summed neighbor distance, then the smallest code.
    Expects already-standardized rows.
    """
    train = np.asarray(train, dtype=np.float64)
    dists = [math.sqrt(sum((train[i, j] - query[j]) ** 2 for j in range(train.shape[1])))
             for i in range(train.shape[0])]
    nearest = sorted(range(len(dists)), key=lambda i: (dists[i], i))[:k]
    votes = {}
    for i in nearest:
        votes[int(labels[i])] = votes.get(int(labels[i]), 0) + 1
    top = max(votes.values())
    tied = sorted(c for c, v in votes.items() if v == top)
    if len(tied) > 1:
        sums = {c: sum(dists[i] for i in nearest if int(labels[i]) == c) for c in tied}
        best = min(sums.values())
        tied = sorted(c for c in tied if sums[c] == best)
    return tied[0]


def pitch_class_energy(power_matrix, freqs, fmin_hz=32.7, reference_hz=440.0):
    """Brute-force bin-to-pitch-class summation of a power spectrogram."""
    out = np.zeros((12, power_matrix.shape[1]))
    for k, f in enumerate(freqs):
        if f < fmin_hz:
            continue
        midi = round(12.0 * math.log2(f / reference_hz) + 69.0)
        out[midi % 12] += power_matrix[k]
    return out


def pcm_to_float_two_pass(ints, bits):
    """Integer PCM samples scaled to [-1, 1) in two passes: cast to float64, then divide by full scale."""
    x = np.asarray(ints).astype(np.float64)
    x /= {16: 32768.0, 24: 8388608.0, 32: 2147483648.0}[bits]
    return x


def unsigned_pcm8_to_float_two_pass(values):
    """Unsigned 8-bit PCM samples scaled to [-1, 1) in two passes: cast to float64 less 128, then divide by 128."""
    x = np.asarray(values).astype(np.float64) - 128.0
    x /= 128.0
    return x


def ieee_float_two_pass(payload, bits):
    """Little-endian IEEE float samples, 32- or 64-bit, in two passes: struct unpacks each, then float64."""
    values = [value for (value,) in struct.iter_unpack({32: "<f", 64: "<d"}[bits], payload)]
    return np.array(values, dtype=np.float64)


def sinc_bank(up, down, taps, kaiser_beta):
    """Polyphase Kaiser-windowed sinc bank: row p holds the taps for fractional position p/up."""
    half = taps // 2
    cutoff = 0.5 * min(1.0, up / down)
    i = np.arange(taps)
    t = np.arange(up)[:, None] / up + (half - 1 - i)[None, :]
    window = np.i0(kaiser_beta * np.sqrt(1.0 - (t / half) ** 2))
    window /= np.i0(kaiser_beta)
    return 2.0 * cutoff * np.sinc(2.0 * cutoff * t) * window


def padded_faded(samples, taps, n_fade, right):
    """The resampler input: taps//2 zeros, the samples with raised-cosine ends, `right` zeros."""
    half = taps // 2
    n_in = len(samples)
    padded = np.pad(samples, (half, right), mode="constant")
    n_fade = min(n_fade, n_in // 2)
    ramp = 0.5 - 0.5 * np.cos(np.pi * (np.arange(n_fade) + 0.5) / n_fade)
    padded[half : half + n_fade] *= ramp
    padded[half + n_in - n_fade : half + n_in] *= ramp[::-1]
    return padded


def unblocked_resample(samples, source_rate, target_rate, taps, kaiser_beta, n_fade):
    """The polyphase resampler with one matrix-vector product per branch over the whole track.

    Same kernel bank, padding and edge fade as the library, but every output
    is its own dot product over one window: an independent check of the
    library's block matrix products, equal up to summation order.
    """
    g = math.gcd(target_rate, source_rate)
    up, down = target_rate // g, source_rate // g
    n_out = (2 * len(samples) * up + down) // (2 * down)
    bank = sinc_bank(up, down, taps, kaiser_beta)
    windows = np.lib.stride_tricks.sliding_window_view(padded_faded(samples, taps, n_fade, taps + taps // 2), taps)

    out = np.empty(n_out, dtype=np.float64)
    for j0 in range(min(up, n_out)):
        u = j0 * down
        start = u // up + 1
        count = 1 + (n_out - 1 - j0) // up
        out[j0::up] = windows[start : start + count * down : down] @ bank[u % up]
    return out


def padded_gemm_resample(samples, source_rate, target_rate, taps, kaiser_beta, n_fade,
                         block_periods, group_span_taps):
    """The library's block matrix products, run over a fully materialised padded, faded track.

    Branches are grouped greedily so each group's input span stays within
    group_span_taps * taps; each block of block_periods output periods is one
    product per group of a contiguous copy of its input rows with the group
    kernel. The library, which builds only the edge blocks' input from
    padded copies, must match this bit for bit.
    """
    g = math.gcd(target_rate, source_rate)
    up, down = target_rate // g, source_rate // g
    n_out = (2 * len(samples) * up + down) // (2 * down)
    bank = sinc_bank(up, down, taps, kaiser_beta)
    cols = max(1, min(up, n_out))
    n_per = -(-n_out // cols)
    starts = [j * down // up + 1 for j in range(cols)]
    padded = padded_faded(samples, taps, n_fade, max(0, n_per * down + starts[-1] + taps - len(samples)))

    groups = []
    ja = 0
    while ja < cols:
        jb = ja + 1
        while jb < cols and starts[jb] - starts[ja] + taps <= group_span_taps * taps:
            jb += 1
        kernel = np.zeros((starts[jb - 1] - starts[ja] + taps, jb - ja))
        for j in range(ja, jb):
            kernel[starts[j] - starts[ja] :][:taps, j - ja] = bank[j * down % up]
        groups.append((ja, jb, kernel))
        ja = jb

    table = np.empty((n_per, cols))
    for p0 in range(0, n_per, block_periods):
        rows = min(block_periods, n_per - p0)
        for ja, jb, kernel in groups:
            first = starts[ja] + p0 * down
            windows = np.lib.stride_tricks.sliding_window_view(padded[first:], len(kernel))
            chunk = np.ascontiguousarray(windows[: rows * down : down])
            table[p0 : p0 + rows, ja:jb] = chunk @ kernel
    return table.ravel()[:n_out]


def savetxt_series_csv(series):
    """A FrameSeries as plot-ready CSV, rendered by np.savetxt: frame index, then one column per row."""
    pitch_classes = ("c", "cs", "d", "ds", "e", "f", "fs", "g", "gs", "a", "as", "b")
    d = series.values.shape[0]
    if series.feature_kind == "chroma" and d == 12:
        cols = [f"chroma_{pc}" for pc in pitch_classes]
    elif d == 1:
        cols = [series.feature_kind]
    else:
        cols = [f"{series.feature_kind}_{i}" for i in range(d)]
    out = io.StringIO()
    table = np.column_stack([np.arange(series.n_frames), series.values.T])
    np.savetxt(out, table, fmt=["%d"] + ["%.9g"] * d, delimiter=",",
               header=",".join(["frame"] + cols), comments="")
    return out.getvalue()
