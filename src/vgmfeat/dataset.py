"""Labeled corpus handling: manifest in, per-track features and genre summaries out."""

import csv
import enum
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import AudioBuffer, PreprocessSpec, block_helpers, decode_wav, preprocess
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


@dataclass(frozen=True)
class AnalysisSpec:
    """Per-clip analysis settings: STFT framing plus cepstral and mel band counts."""

    stft: StftParams = StftParams()
    n_mfcc: int = 13
    n_mels: int = 128

    def __post_init__(self):
        # The MFCC keeps the first n_mfcc DCT coefficients of the n_mels log bands.
        if self.n_mfcc > self.n_mels:
            raise ValueError(f"n_mfcc must be <= n_mels ({self.n_mels}), got {self.n_mfcc}")


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


def feature_names(n_mfcc: int = AnalysisSpec.n_mfcc) -> list:
    """Columns of analyze_clip's feature row. Frame statistics are the mean,
    the population std and, for mfcc_range, the per-coefficient max - min."""
    names = ["tempo_bpm", "zcr_mean", "zcr_std", "centroid_mean_hz", "centroid_std_hz"]
    names += [f"chroma_mean_{pc}" for pc in PITCH_CLASSES]
    names += [f"mfcc_mean_{i}" for i in range(n_mfcc)]
    names += [f"mfcc_range_{i}" for i in range(n_mfcc)]
    return names


@dataclass
class LabeledDataset:
    """The per-track feature table: one row of feature_names columns per track.

    The feature CSV and JSON, the genre summary and classification all read
    this one form.
    """

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


def write_manifest(records) -> str:
    """Render TrackRecords as manifest CSV; the inverse of load_manifest."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(MANIFEST_COLUMNS)
    writer.writerows([rec.path, rec.game, rec.genre.token, rec.title] for rec in records)
    return out.getvalue()


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

    Returns (row, series): row is the float64 feature vector in
    feature_names(spec.n_mfcc) order, and series maps feature kind to the
    per-frame FrameSeries behind its aggregates.
    """
    mag = stft(buf, spec.stft)
    power = mag.to_power()

    zcr = zero_crossing_rate(buf, spec.stft.n_fft, spec.stft.hop)
    cent = spectral_centroid(mag)
    chrom = chroma(power)
    bank = mel_filterbank(buf.sample_rate_hz, spec.stft.n_fft, spec.n_mels)
    ceps = mfcc(apply_filterbank(power, bank), spec.n_mfcc)
    tempo = tempo_from_spectrogram(mag)

    row = np.concatenate([
        [tempo.bpm, zcr.values.mean(), zcr.values.std(), cent.values.mean(), cent.values.std()],
        chrom.values.mean(axis=1),
        ceps.values.mean(axis=1),
        ceps.values.max(axis=1) - ceps.values.min(axis=1),
    ])
    series = {
        "zcr": zcr,
        "centroid": cent,
        "chroma": chrom,
        "mfcc": ceps,
        "onset": FrameSeries(tempo.onset_envelope[None, :], "onset"),
    }
    return row, series


def track_path(rec: TrackRecord, base_dir: str | None = None) -> Path:
    """The record's file; relative paths resolve against base_dir when given."""
    path = Path(rec.path)
    return path if base_dir is None or path.is_absolute() else Path(base_dir) / path


def load_track(path: Path) -> AudioBuffer:
    """Read and decode one WAV file; a failure is re-raised as TrackError naming the stage."""
    stage = "read"
    try:
        data = path.read_bytes()
        stage = "decode"
        return decode_wav(data)
    except (OSError, ValueError, VgmfeatError) as exc:
        raise TrackError(str(path), stage, exc) from exc


class ReadAhead:
    """Loads a run's tracks, each next one on an idle block helper.

    take(path) returns that file's decoded buffer: the load a helper started
    for it, or one made here. Once the caller has preprocessed the track and
    keeps nothing of its full-length arrays, advance(path) starts the track
    that follows it in `paths` on an idle helper, if there is one, so that its
    read and decode overlap the caller's analysis: the run holds at most one
    track's file and decoded arrays beyond what it works on. A load error
    comes out of the take() for its track, after every earlier track has
    finished. close() gives up a load the run no longer needs.
    """

    def __init__(self, paths):
        self.following = dict(zip(paths, paths[1:]))
        self.next = None  # (path, Ahead) of the load started ahead, if any

    def take(self, path: Path) -> AudioBuffer:
        started, self.next = self.next, None
        if started and started[0] == path:
            return started[1].result()
        if started:
            started[1].drop()
        return load_track(path)

    def advance(self, path: Path):
        after = self.following.get(path)
        started = block_helpers.ahead(load_track, after) if after is not None else None
        self.next = (after, started) if started else None

    def close(self):
        if self.next:
            self.next[1].drop()
            self.next = None


def process_track(path: Path, pre: PreprocessSpec, last_stage: str, last, reader: ReadAhead | None = None):
    """Read, decode and preprocess one WAV file, then return last(clip).

    Any failure is re-raised as TrackError carrying the track path and the
    pipeline stage that broke; `last_stage` names the stage `last` runs. With
    a `reader`, the file comes from reader.take(path) and the track after it
    starts loading while `last` runs.
    """
    buf = reader.take(path) if reader else load_track(path)
    stage = "preprocess"
    try:
        clip = preprocess(buf, pre)
        del buf  # the full-length track dies here, before the next one is loaded
        if reader:
            reader.advance(path)
        stage = last_stage
        return last(clip)
    except (OSError, ValueError, VgmfeatError) as exc:
        raise TrackError(str(path), stage, exc) from exc


def extract_track(
    rec: TrackRecord,
    pre: PreprocessSpec = PreprocessSpec(),
    spec: AnalysisSpec = AnalysisSpec(),
    base_dir: str | None = None,
    reader: ReadAhead | None = None,
):
    """Decode, preprocess and featurize one manifest record (see process_track).

    Returns analyze_clip's (row, series).
    """
    return process_track(track_path(rec, base_dir), pre, "analyze", lambda clip: analyze_clip(clip, spec), reader)


def summarize_by_genre(ds: LabeledDataset) -> GenreSummary:
    """Per-genre element-wise mean/std/min/max over the table's rows.

    Only genres that appear are summarized, in code order.
    """
    if not len(ds):
        raise ValueError("no tracks to summarize")
    genres = [g for g in GenreLabel if np.any(ds.labels == int(g))]
    stacked = [ds.matrix[ds.labels == int(g)] for g in genres]
    return GenreSummary(
        genres=genres,
        track_counts=np.array([len(block) for block in stacked]),
        mean=np.array([block.mean(axis=0) for block in stacked]),
        std=np.array([block.std(axis=0) for block in stacked]),
        minimum=np.array([block.min(axis=0) for block in stacked]),
        maximum=np.array([block.max(axis=0) for block in stacked]),
        feature_names=list(ds.feature_names),
    )


# ---------------------------------------------------------------------------
# serialization: feature table and genre summary, CSV and JSON
# floats are written with 9 significant digits so files are reproducible
FLOAT_FORMAT = ".9g"


def format_float(x: float) -> str:
    return format(float(x), FLOAT_FORMAT)


def write_feature_table_csv(ds: LabeledDataset) -> str:
    """Render the table as the feature CSV; read_feature_table_csv is its inverse."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["track_id"] + list(ds.feature_names) + ["genre"])
    for track_id, vec, code in zip(ds.track_ids, ds.matrix, ds.labels):
        writer.writerow([track_id] + [format_float(v) for v in vec] + [GenreLabel(int(code)).token])
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
        values = []
        for name, cell in zip(names, row[1:-1]):
            try:
                values.append(float(cell))
            except ValueError as exc:
                raise ValueError(f"feature table row {row_no}, column {name}: {exc}") from None
        rows.append(values)
        try:
            labels.append(int(GenreLabel.from_token(row[-1])))
        except ValueError as exc:
            raise ValueError(f"feature table row {row_no}, column genre: {exc}") from None
    matrix = np.array(rows, dtype=np.float64).reshape(len(rows), len(names))
    return LabeledDataset(matrix, np.array(labels, dtype=int), ids, names)


def feature_table_json(ds: LabeledDataset) -> str:
    """JSON mirror of the feature CSV: one object per track, same columns and digits."""
    entries = []
    for track_id, vec, code in zip(ds.track_ids, ds.matrix, ds.labels):
        entry = {"track_id": track_id}
        entry.update({name: float(format_float(v)) for name, v in zip(ds.feature_names, vec)})
        entry["genre"] = GenreLabel(int(code)).token
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
    d = series.values.shape[0]
    if series.feature_kind == "chroma" and d == 12:
        cols = [f"chroma_{pc}" for pc in PITCH_CLASSES]
    elif d == 1:
        cols = [series.feature_kind]
    else:
        cols = [f"{series.feature_kind}_{i}" for i in range(d)]
    # One %-format per row keeps the cost per value; np.savetxt's fixed cost per row
    # made a 1-row series nearly as slow as the 13-row MFCC series.
    row = "%d" + (",%" + FLOAT_FORMAT) * d + "\n"
    body = "".join([row % (t, *values) for t, values in enumerate(series.values.T.tolist())])
    return ",".join(["frame"] + cols) + "\n" + body


# A family selects every feature column whose name starts with the family name.
FEATURE_FAMILIES = ("tempo", "zcr", "centroid", "chroma", "mfcc", "mfcc_mean", "mfcc_range")


def select_features(ds: LabeledDataset, families) -> LabeledDataset:
    """Restrict a dataset to the named feature families (see FEATURE_FAMILIES)."""
    unknown = [f for f in families if f not in FEATURE_FAMILIES]
    if unknown:
        raise ValueError(f"unknown feature families {unknown}, expected {sorted(FEATURE_FAMILIES)}")
    keep = [i for i, name in enumerate(ds.feature_names) if name.startswith(tuple(families))]
    if not keep:
        raise ValueError(f"feature selection {list(families)} matches no columns")
    return LabeledDataset(
        ds.matrix[:, keep],
        ds.labels.copy(),
        list(ds.track_ids),
        [ds.feature_names[i] for i in keep],
    )
