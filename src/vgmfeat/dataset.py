"""Labeled corpus handling: manifest in, per-track features and genre summaries out."""

import csv
import enum
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import AudioBuffer, PreprocessSpec, decode_wav, preprocess
from .errors import VgmfeatError, TrackError
from .features import (
    PITCH_CLASSES,
    FrameSeries,
    chroma,
    mfcc,
    spectral_centroid,
    tempo_from_spectrogram,
    zero_crossing_rate,
)
from .spectral import StftParams, apply_filterbank, mel_filterbank, stft

MANIFEST_COLUMNS = ("path", "game", "genre", "title")

# Feature vector layout: these scalars, the 12 chroma means, then n_mfcc
# cepstral means and n_mfcc cepstral ranges.
SCALAR_FEATURES = ("tempo_bpm", "zcr_mean", "zcr_std", "centroid_mean_hz", "centroid_std_hz")
N_FIXED_FEATURES = len(SCALAR_FEATURES) + len(PITCH_CLASSES)


@dataclass(frozen=True)
class AnalysisSpec:
    """Per-clip analysis settings: STFT framing plus cepstral and mel band counts."""

    stft: StftParams = StftParams()
    n_mfcc: int = 13
    n_mels: int = 128


class GenreLabel(enum.IntEnum):
    """The three RPG sub-genre classes, with stable serialization codes."""

    ADVENTURE_RPG = 0
    ACTION_RPG = 1
    STRATEGY_RPG = 2

    @property
    def token(self) -> str:
        return self.name.lower()

    @classmethod
    def from_token(cls, text: str) -> "GenreLabel":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown genre {text!r}") from None


@dataclass
class TrackRecord:
    path: str
    game: str
    genre: GenreLabel
    title: str


@dataclass
class TrackFeatures:
    """Aggregated per-track feature vector.

    Scalar aggregates use the arithmetic mean and population standard
    deviation over frames; mfcc_range is the per-coefficient max - min.
    """

    tempo_bpm: float
    zcr_mean: float
    zcr_std: float
    centroid_mean_hz: float
    centroid_std_hz: float
    chroma_mean: np.ndarray  # 12
    mfcc_mean: np.ndarray  # n_mfcc
    mfcc_range: np.ndarray  # n_mfcc

    def as_vector(self) -> np.ndarray:
        scalars = [getattr(self, name) for name in SCALAR_FEATURES]
        return np.concatenate([scalars, self.chroma_mean, self.mfcc_mean, self.mfcc_range])

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "TrackFeatures":
        """Inverse of as_vector; n_mfcc follows from the vector length."""
        vec = np.asarray(vec, dtype=np.float64)
        n_mfcc, odd = divmod(len(vec) - N_FIXED_FEATURES, 2)
        if n_mfcc < 1 or odd:
            raise ValueError(f"expected {N_FIXED_FEATURES} + 2 * n_mfcc scalars, got {len(vec)}")
        return cls(
            **{name: float(v) for name, v in zip(SCALAR_FEATURES, vec)},
            chroma_mean=vec[len(SCALAR_FEATURES) : N_FIXED_FEATURES].copy(),
            mfcc_mean=vec[N_FIXED_FEATURES : N_FIXED_FEATURES + n_mfcc].copy(),
            mfcc_range=vec[N_FIXED_FEATURES + n_mfcc :].copy(),
        )


def feature_names(n_mfcc: int = AnalysisSpec.n_mfcc) -> list:
    names = list(SCALAR_FEATURES)
    names += [f"chroma_mean_{pc}" for pc in PITCH_CLASSES]
    names += [f"mfcc_mean_{i}" for i in range(n_mfcc)]
    names += [f"mfcc_range_{i}" for i in range(n_mfcc)]
    return names


@dataclass
class LabeledDataset:
    """Feature matrix plus labels and track ids, ready for classification."""

    matrix: np.ndarray  # n_tracks x n_features
    labels: np.ndarray  # n_tracks, GenreLabel codes
    track_ids: list
    feature_names: list

    def __len__(self) -> int:
        return self.matrix.shape[0]


@dataclass
class GenreSummary:
    """Element-wise per-genre statistics over track feature vectors."""

    genres: list  # GenreLabel, in code order
    track_counts: np.ndarray  # per genre
    mean: np.ndarray  # n_genres x n_features
    std: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray
    feature_names: list

    @property
    def range_width(self) -> np.ndarray:
        """Per-genre max - min of each feature, the cross-genre spread comparison."""
        return self.maximum - self.minimum


def load_manifest(text: str):
    """Parse manifest CSV (`path,game,genre,title`) into TrackRecords.

    Raises:
        ValueError: missing/misnamed columns, or a bad genre or empty path
            (the message names the offending row, header = row 1).
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("manifest is empty, expected header path,game,genre,title") from None
    header = [h.strip().lower() for h in header]
    if header != list(MANIFEST_COLUMNS):
        raise ValueError(
            f"manifest header must be {','.join(MANIFEST_COLUMNS)}, got {','.join(header)}"
        )
    records = []
    for row_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(MANIFEST_COLUMNS):
            raise ValueError(f"manifest row {row_no}: expected {len(MANIFEST_COLUMNS)} fields, got {len(row)}")
        path, game, genre_text, title = (cell.strip() for cell in row)
        if not path:
            raise ValueError(f"manifest row {row_no}: empty path")
        try:
            genre = GenreLabel.from_token(genre_text)
        except ValueError as exc:
            raise ValueError(f"manifest row {row_no}: {exc}") from None
        records.append(TrackRecord(path, game, genre, title))
    return records


def analyze_clip(buf: AudioBuffer, spec: AnalysisSpec = AnalysisSpec()):
    """Run every extractor on a preprocessed clip.

    Returns (TrackFeatures, series) where series maps feature kind to the
    per-frame FrameSeries behind each aggregate.
    """
    mag = stft(buf, spec.stft, kind="magnitude")
    power = mag.to_power()

    zcr = zero_crossing_rate(buf, spec.stft.n_fft, spec.stft.hop)
    cent = spectral_centroid(mag)
    chrom = chroma(power)
    bank = mel_filterbank(buf.sample_rate_hz, spec.stft.n_fft, spec.n_mels)
    ceps = mfcc(apply_filterbank(power, bank), spec.n_mfcc, frame_rate_hz=power.frame_rate_hz)
    tempo = tempo_from_spectrogram(mag)

    feats = TrackFeatures(
        tempo_bpm=tempo.bpm,
        zcr_mean=float(zcr.values.mean()),
        zcr_std=float(zcr.values.std()),
        centroid_mean_hz=float(cent.values.mean()),
        centroid_std_hz=float(cent.values.std()),
        chroma_mean=chrom.values.mean(axis=1),
        mfcc_mean=ceps.values.mean(axis=1),
        mfcc_range=ceps.values.max(axis=1) - ceps.values.min(axis=1),
    )
    series = {
        "zcr": zcr,
        "centroid": cent,
        "chroma": chrom,
        "mfcc": ceps,
        "onset": FrameSeries(tempo.onset_envelope[None, :], "onset", mag.frame_rate_hz),
    }
    return feats, series


def track_path(rec: TrackRecord, base_dir: str | None = None) -> Path:
    """The record's file; relative paths resolve against base_dir when given."""
    path = Path(rec.path)
    return path if base_dir is None or path.is_absolute() else Path(base_dir) / path


def process_track(path: Path, pre: PreprocessSpec, pad_short: bool, last_stage: str, last):
    """Read, decode and preprocess one WAV file, then return last(clip).

    Any failure is re-raised as TrackError carrying the track path and the
    pipeline stage that broke; `last_stage` names the stage `last` runs.
    """
    stage = "read"
    try:
        data = path.read_bytes()
        stage = "decode"
        buf = decode_wav(data)
        stage = "preprocess"
        clip = preprocess(buf, pre, pad_short=pad_short)
        stage = last_stage
        return last(clip)
    except (OSError, ValueError, VgmfeatError) as exc:
        raise TrackError(str(path), stage, exc) from exc


def extract_track(
    rec: TrackRecord,
    pre: PreprocessSpec = PreprocessSpec(),
    spec: AnalysisSpec = AnalysisSpec(),
    base_dir: str | None = None,
    pad_short: bool = False,
    return_series: bool = False,
):
    """Decode, preprocess and featurize one manifest record (see process_track).

    Returns TrackFeatures, or (TrackFeatures, series) with return_series.
    """
    feats, series = process_track(
        track_path(rec, base_dir),
        pre,
        pad_short,
        "analyze",
        lambda clip: analyze_clip(clip, spec),
    )
    return (feats, series) if return_series else feats


def summarize_by_genre(pairs) -> GenreSummary:
    """Per-genre element-wise mean/std/min/max over track feature vectors.

    `pairs` is a sequence of (TrackFeatures, GenreLabel). Only genres that
    appear are summarized, in code order.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no tracks to summarize")
    vectors = np.array([f.as_vector() for f, _ in pairs])
    labels = np.array([int(g) for _, g in pairs])
    n_mfcc = (vectors.shape[1] - N_FIXED_FEATURES) // 2

    genres = [g for g in GenreLabel if np.any(labels == int(g))]
    stacked = [vectors[labels == int(g)] for g in genres]
    return GenreSummary(
        genres=genres,
        track_counts=np.array([len(block) for block in stacked]),
        mean=np.array([block.mean(axis=0) for block in stacked]),
        std=np.array([block.std(axis=0) for block in stacked]),
        minimum=np.array([block.min(axis=0) for block in stacked]),
        maximum=np.array([block.max(axis=0) for block in stacked]),
        feature_names=feature_names(n_mfcc),
    )


# ---------------------------------------------------------------------------
# serialization: feature table and genre summary, CSV and JSON
# floats are written with 9 significant digits so files are reproducible

def format_float(x: float) -> str:
    return format(float(x), ".9g")


def write_feature_table_csv(rows, n_mfcc: int = AnalysisSpec.n_mfcc) -> str:
    """Render (track_id, TrackFeatures, GenreLabel) rows as the feature CSV."""
    names = feature_names(n_mfcc)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["track_id"] + names + ["genre"])
    for track_id, feats, genre in rows:
        vec = feats.as_vector()
        if len(vec) != len(names):
            raise ValueError(f"track {track_id}: expected {len(names)} features, got {len(vec)}")
        writer.writerow([track_id] + [format_float(v) for v in vec] + [genre.token])
    return out.getvalue()


def read_feature_table_csv(text: str) -> LabeledDataset:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("feature table is empty") from None
    if len(header) < 3 or header[0] != "track_id" or header[-1] != "genre":
        raise ValueError("feature table header must be track_id,<features...>,genre")
    names = header[1:-1]
    ids, rows, labels = [], [], []
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"feature table row {row_no}: expected {len(header)} fields, got {len(row)}")
        ids.append(row[0])
        rows.append([float(v) for v in row[1:-1]])
        labels.append(int(GenreLabel.from_token(row[-1])))
    matrix = np.array(rows, dtype=np.float64).reshape(len(rows), len(names))
    return LabeledDataset(matrix, np.array(labels, dtype=int), ids, names)


def feature_table_json(rows, n_mfcc: int = AnalysisSpec.n_mfcc) -> str:
    """JSON mirror of the feature CSV: one object per track, same columns."""
    names = feature_names(n_mfcc)
    entries = []
    for track_id, feats, genre in rows:
        entry = {"track_id": track_id}
        entry.update({name: float(v) for name, v in zip(names, feats.as_vector())})
        entry["genre"] = genre.token
        entries.append(entry)
    return json.dumps(entries, indent=2) + "\n"


def write_genre_summary_csv(summary: GenreSummary) -> str:
    """One row per genre; columns carry <feature>_<stat> for all five stats."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = ["genre", "track_count"]
    for name in summary.feature_names:
        header += [f"{name}_{stat}" for stat in ("mean", "std", "min", "max", "range")]
    writer.writerow(header)
    ranges = summary.range_width
    for i, genre in enumerate(summary.genres):
        row = [genre.token, str(int(summary.track_counts[i]))]
        for j in range(len(summary.feature_names)):
            row += [
                format_float(summary.mean[i, j]),
                format_float(summary.std[i, j]),
                format_float(summary.minimum[i, j]),
                format_float(summary.maximum[i, j]),
                format_float(ranges[i, j]),
            ]
        writer.writerow(row)
    return out.getvalue()


def frame_series_csv(series: FrameSeries) -> str:
    """Plot-ready CSV for one per-frame series: frame index, then one value column per row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    d = series.values.shape[0]
    if series.feature_kind == "chroma" and d == 12:
        cols = [f"chroma_{pc}" for pc in PITCH_CLASSES]
    elif d == 1:
        cols = [series.feature_kind]
    else:
        cols = [f"{series.feature_kind}_{i}" for i in range(d)]
    writer.writerow(["frame"] + cols)
    for t in range(series.n_frames):
        writer.writerow([str(t)] + [format_float(v) for v in series.values[:, t]])
    return out.getvalue()


FEATURE_FAMILIES = {
    "tempo": ("tempo_bpm",),
    "zcr": ("zcr_",),
    "centroid": ("centroid_",),
    "chroma": ("chroma_",),
    "mfcc": ("mfcc_",),
    "mfcc_mean": ("mfcc_mean_",),
    "mfcc_range": ("mfcc_range_",),
}


def select_features(ds: LabeledDataset, families) -> LabeledDataset:
    """Restrict a dataset to the named feature families (see FEATURE_FAMILIES)."""
    unknown = [f for f in families if f not in FEATURE_FAMILIES]
    if unknown:
        raise ValueError(f"unknown feature families {unknown}, expected {sorted(FEATURE_FAMILIES)}")
    prefixes = tuple(p for f in families for p in FEATURE_FAMILIES[f])
    keep = [i for i, name in enumerate(ds.feature_names) if name.startswith(prefixes)]
    if not keep:
        raise ValueError(f"feature selection {list(families)} matches no columns")
    return LabeledDataset(
        ds.matrix[:, keep],
        ds.labels.copy(),
        list(ds.track_ids),
        [ds.feature_names[i] for i in keep],
    )
