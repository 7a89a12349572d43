"""Labeled corpus handling: manifest in, per-track features and genre summaries out."""

import csv
import enum
import io
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .audio_io import AudioBuffer, PreprocessSpec, parse_wav, preprocess
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
        if self.n_mels < 1:
            raise ValueError(f"n_mels must be >= 1, got {self.n_mels}")
        if self.n_mfcc < 1:
            raise ValueError(f"n_mfcc must be >= 1, got {self.n_mfcc}")
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


# The feature layout, described once: each series analyze_clip makes, in its
# order, as (file key, row suffixes, families).
# - The row is every family's columns in this order. A family is a run of
#   columns: for each statistic, (column stem, reducer over frames), one
#   column per series row, named stem + suffix; suffixes None are _0, _1, ...
#   over the n_mfcc rows. The tempo column is the estimate, a one-frame series.
# - A series with a file key is written as series/<NNN>_<stem>_<key>.csv, in
#   this order; the onset envelope behind the tempo is written, not reduced.
# - A family name, or the key of a series that more than one family reduces,
#   is a --features family: it selects the columns whose names start with it.
_ONE_ROW = ("",)
FEATURE_LAYOUT = (
    (None, _ONE_ROW, {"tempo": {"tempo_bpm": np.mean}}),
    ("zcr", _ONE_ROW, {"zcr": {"zcr_mean": np.mean, "zcr_std": np.std}}),
    ("centroid", _ONE_ROW, {"centroid": {"centroid_mean_hz": np.mean, "centroid_std_hz": np.std}}),
    ("chroma", tuple(f"_{pc}" for pc in PITCH_CLASSES), {"chroma": {"chroma_mean": np.mean}}),
    ("mfcc", None, {"mfcc_mean": {"mfcc_mean": np.mean}, "mfcc_range": {"mfcc_range": np.ptp}}),
    ("onset", _ONE_ROW, {}),
)
FEATURE_FAMILIES = tuple(name for key, _, families in FEATURE_LAYOUT
                         for name in [key] * (len(families) > 1) + list(families))


def feature_names(n_mfcc: int = AnalysisSpec.n_mfcc) -> list:
    """Columns of analyze_clip's feature row (see FEATURE_LAYOUT)."""
    return [stem + suffix for _, suffixes, families in FEATURE_LAYOUT for stats in families.values()
            for stem in stats for suffix in suffixes or [f"_{i}" for i in range(n_mfcc)]]


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
    feature_names(spec.n_mfcc) order, and series maps each file key of
    FEATURE_LAYOUT to its per-frame FrameSeries, in the layout's order.

    The magnitude spectrogram is the one spectrogram-sized array, in a
    mapping of its own (see stft): the extractors that read the magnitude
    run first, then it is squared in place into the power that chroma and
    the mel bands read, and it is unmapped before the MFCC. Only the ZCR
    and the STFT read the clip, so a handed-over one goes back to the OS as
    the STFT reads it (see stft). Elementwise steps and per-frame
    reductions (the STFT, the onset flux) run in frame blocks; the matrix
    products (centroid, chroma fold, mel bank) take the whole spectrogram,
    since splitting one by frame columns changes the low bits of its sums.
    """
    zcr = zero_crossing_rate(buf, spec.stft.n_fft, spec.stft.hop)
    mag = stft(buf, spec.stft)
    cent = spectral_centroid(mag)
    tempo = tempo_from_spectrogram(mag)
    # np.square gives the bits of mag**2 without a second clip-sized array.
    power = replace(mag, values=np.square(mag.values, out=mag.values), kind="power")
    del mag
    chrom = chroma(power)
    bands = apply_filterbank(power, mel_filterbank(buf.sample_rate_hz, spec.stft.n_fft, spec.n_mels))
    del power  # the MFCC's log temporaries do not sit beside it
    ceps = mfcc(bands, spec.n_mfcc)

    # The series in FEATURE_LAYOUT order; the tempo estimate is a series of one frame.
    made = (FrameSeries(np.array([[tempo.bpm]]), "bpm"), zcr, cent, chrom, ceps,
            FrameSeries(tempo.onset_envelope[None, :], "onset"))
    layout = list(zip(made, FEATURE_LAYOUT, strict=True))
    row = np.concatenate([reduce(fs.values, axis=1) for fs, (_, _, families) in layout
                          for stats in families.values() for reduce in stats.values()])
    return row, {key: fs for fs, (key, _, _) in layout if key}


def fs_name(name: str) -> str:
    """The str that opens the file whose name is the UTF-8 bytes of `name`.

    Manifests are UTF-8, and so are the file names they list and the names of
    the files written from them. This is `name` itself where the filesystem
    encoding is UTF-8; elsewhere (LC_ALL=C without Python's UTF-8 mode) the
    non-ASCII bytes pass through as surrogate escapes.
    """
    return os.fsdecode(name.encode("utf-8", "surrogateescape"))


def track_path(rec: TrackRecord, base_dir: str | None = None) -> Path:
    """The record's file (see fs_name); relative paths resolve against base_dir when given."""
    path = Path(fs_name(rec.path))
    return path if base_dir is None or path.is_absolute() else Path(base_dir) / path


def process_track(path: Path, pre: PreprocessSpec, last_stage: str, last):
    """Open, parse and preprocess one WAV file, then return last(clip).

    The file is opened at the read stage and only its headers are read at
    the decode stage, where a bad header fails. The samples stay in the file
    until resample's blocks read, decode and check them span by span with
    positional reads; a NaN or Inf float sample, or a file that shrinks
    meanwhile, fails at the preprocess stage. Where the OS has no positional
    reads (Windows), or the file has no offsets (a pipe), its bytes are read
    whole at the read stage instead. Any failure is re-raised as TrackError
    carrying the track path and the pipeline stage that broke; `last_stage`
    names the stage `last` runs. The file is closed before `last` runs, and
    `last` owns the clip (AudioBuffer._handed_over), whose samples read as
    zeros once an STFT has read them.
    """
    stage = "read"
    try:
        with open(path, "rb") as file:
            source = file if hasattr(os, "preadv") and file.seekable() else file.read()
            stage = "decode"
            wav = parse_wav(source)
            stage = "preprocess"
            clip = preprocess(wav, pre)
        del source, wav  # the file is closed, and any bytes read from it die here, before `last` runs
        stage = last_stage
        clip._handed_over = True
        return last(clip)
    except (OSError, ValueError, VgmfeatError) as exc:
        raise TrackError(str(path), stage, exc) from exc


def extract_track(
    rec: TrackRecord,
    pre: PreprocessSpec = PreprocessSpec(),
    spec: AnalysisSpec = AnalysisSpec(),
    base_dir: str | None = None,
):
    """Decode, preprocess and featurize one manifest record (see process_track).

    Returns analyze_clip's (row, series).
    """
    return process_track(track_path(rec, base_dir), pre, "analyze", lambda clip: analyze_clip(clip, spec))


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
            if not np.isfinite(values[-1]):
                raise ValueError(f"feature table row {row_no}, column {name}: {cell!r} is not finite")
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


def select_features(ds: LabeledDataset, families) -> LabeledDataset:
    """Restrict a dataset to the named feature families (see FEATURE_LAYOUT)."""
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
