"""Command-line pipeline: preprocess, extract, summarize, classify, report.

Every command writes its outputs plus a run_manifest.json declaring the
produced files; reruns with the same inputs and flags are byte-identical.
Outputs are staged in a directory inside --out and moved into place only
once every one is written (see _commit).
"""

import argparse
import inspect
import json
import math
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .audio_io import PreprocessSpec, encode_wav
from .classify import check_evaluation, evaluate_loocv, evaluate_split
from .dataset import (
    FEATURE_FAMILIES,
    AnalysisSpec,
    LabeledDataset,
    extract_track,
    feature_names,
    feature_table_json,
    fs_name,
    frame_series_csv,
    load_manifest,
    process_track,
    read_feature_table_csv,
    select_features,
    summarize_by_genre,
    track_path,
    write_feature_table_csv,
    write_genre_summary_csv,
    write_manifest,
)
from .errors import TrackError, VgmfeatError
from .features import min_clip_samples
from .spectral import StftParams, mel_filterbank

OUT_DIR_ENV = "VGMFEAT_OUT"
COMMANDS = ("preprocess", "extract", "summarize", "classify", "report")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _checked(convert, ok, rule):
    """argparse type= converter that also rejects values outside `rule`."""

    def check(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    return check


_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_positive_finite = _checked(float, lambda v: 0 < v < math.inf, "positive and finite")
_open_unit = _checked(float, lambda v: 0 < v < 1, "in (0, 1)")
_families = _checked(
    lambda text: [f.strip() for f in text.split(",") if f.strip()],
    lambda names: set(names) <= set(FEATURE_FAMILIES),
    f"comma-separated names from {','.join(FEATURE_FAMILIES)}",
)


def _default_of(fn, name):
    return inspect.signature(fn).parameters[name].default


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vgmfeat", description="Soundtrack feature extraction and genre classification.")
    sub = parser.add_subparsers(dest="command", metavar="{" + ",".join(COMMANDS) + "}")
    sub.required = True

    def add_common(p, manifest_required=True):
        p.add_argument("--manifest", required=manifest_required, help="track manifest CSV (path,game,genre,title)")
        p.add_argument("--out", default=os.environ.get(OUT_DIR_ENV), help=f"output directory (default ${OUT_DIR_ENV})")
        p.add_argument("--peak-dbfs", type=float, default=PreprocessSpec.target_peak_dbfs,
                       help="normalization target peak (default %(default)s)")
        p.add_argument("--clip-seconds", type=float, default=PreprocessSpec.clip_duration_s,
                       help="center clip length (default %(default)s)")
        p.add_argument("--sample-rate", type=int, default=PreprocessSpec.target_sample_rate_hz,
                       help="analysis sample rate (default %(default)s)")
        p.add_argument("--pad-short", action="store_true", help="zero-pad tracks shorter than the clip")
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="tracks processed concurrently; a helper thread per core beyond the first takes "
                            "resampling blocks from any track (default %(default)s)")

    def add_analysis(p):
        p.add_argument("--n-fft", type=int, default=StftParams.n_fft, help="FFT frame length (default %(default)s)")
        p.add_argument("--hop", type=int, default=StftParams.hop, help="hop length (default %(default)s)")
        p.add_argument("--window", default=StftParams.window, help="analysis window: hann, hamming, rectangular")
        p.add_argument("--n-mfcc", type=_positive_int, default=AnalysisSpec.n_mfcc,
                       help="cepstral coefficients kept (default %(default)s)")
        p.add_argument("--n-mels", type=_positive_int, default=AnalysisSpec.n_mels,
                       help="mel bands (default %(default)s)")

    def add_knn(p):
        p.add_argument("--k", type=_positive_int, default=_default_of(evaluate_split, "k"),
                       help="KNN neighbor count (default %(default)s)")
        p.add_argument("--test-fraction", type=_open_unit, default=_default_of(evaluate_split, "test_fraction"),
                       help="held-out fraction per class (default 1/3)")
        p.add_argument("--seed", type=int, default=_default_of(evaluate_split, "seed"),
                       help="split seed (default %(default)s)")
        p.add_argument("--protocol", choices=("split", "loocv"), default="split")
        p.add_argument("--features", type=_families, default=[],
                       help=f"comma-separated feature families ({','.join(FEATURE_FAMILIES)})")

    p = sub.add_parser("preprocess", help="write normalized, trimmed WAVs plus a chained manifest")
    add_common(p)
    p.add_argument("--wav-format", choices=("pcm16", "float32"), default=_default_of(encode_wav, "sample_format"))

    p = sub.add_parser("extract", help="write the per-track feature table (CSV and JSON)")
    add_common(p)
    add_analysis(p)

    p = sub.add_parser("summarize", help="write per-genre statistics and per-frame series CSVs")
    add_common(p)
    add_analysis(p)

    p = sub.add_parser("classify", help="evaluate the KNN model and write the report")
    add_common(p, manifest_required=False)
    add_analysis(p)
    add_knn(p)
    p.add_argument("--features-csv", help="reuse an existing feature table instead of extracting")

    p = sub.add_parser("report", help="extract + summarize + classify into one directory")
    add_common(p)
    add_analysis(p)
    add_knn(p)

    # unset flags are left out, so synth.write_corpus supplies their defaults
    p = sub.add_parser("synth-corpus", argument_default=argparse.SUPPRESS)
    p.add_argument("--out", default=os.environ.get(OUT_DIR_ENV), help="corpus directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--games-per-genre", type=_positive_int)
    p.add_argument("--tracks-per-game", type=_positive_int)
    p.add_argument("--duration", dest="duration_s", type=_positive_finite, help="track length in seconds")
    p.add_argument("--sample-rate", dest="sample_rate_hz", type=_positive_int)
    return parser


def _load_records(manifest_path):
    records = load_manifest(Path(manifest_path).read_text(encoding="utf-8-sig"))
    return records, str(Path(manifest_path).parent)


def _map_tracks(n, worker, jobs):
    """worker(i) for every track i in range(n), results in track order.

    With one job the tracks run in order on this thread; with more, on a pool of `jobs` threads.
    """
    jobs = min(jobs, n)  # no pool of 0 threads for an empty manifest
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, range(n)))
    return [worker(i) for i in range(n)]


def _write(stage: Path, name: str, text_or_bytes) -> str:
    """Write one output file into the staging directory; returns its name."""
    path = stage / fs_name(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(text_or_bytes, bytes):
        path.write_bytes(text_or_bytes)
    else:
        path.write_text(text_or_bytes, encoding="utf-8", newline="\n")
    return name


def _run_preprocess(args, pre: PreprocessSpec, stage: Path, produced: list) -> list:
    """Encode every track into the staging directory; returns the files read."""
    records, base = _load_records(args.manifest)
    encode = partial(encode_wav, sample_format=args.wav_format)
    paths = [track_path(rec, base) for rec in records]

    def preprocess_one(i):
        payload = process_track(paths[i], pre, "encode", encode)
        return _write(stage, f"{i:03d}_{Path(records[i].path).stem}.wav", payload)

    written = _map_tracks(len(paths), preprocess_one, args.jobs)
    produced += written
    produced.append(_write(stage, "manifest.csv", write_manifest(
        [replace(rec, path=name) for rec, name in zip(records, written)])))
    return [Path(args.manifest), *paths]


def _run_analysis(args, pre: PreprocessSpec, spec: AnalysisSpec, stage: Path, produced: list) -> list:
    """extract, summarize, classify and report: one extraction pass, then each command's outputs.

    Returns the files read.
    """
    command = args.command
    if command == "classify" and args.features_csv:
        inputs = [Path(args.features_csv)]
        table = inputs[0].read_text(encoding="utf-8-sig")
    else:
        with_series = command in ("summarize", "report")
        records, base = _load_records(args.manifest)
        paths = [track_path(rec, base) for rec in records]
        inputs = [Path(args.manifest), *paths]
        names = feature_names(spec.n_mfcc)
        ds = LabeledDataset(
            np.empty((len(records), len(names))),
            np.array([int(rec.genre) for rec in records], dtype=int),
            [rec.path for rec in records],
            names,
        )
        if command in ("classify", "report"):
            # The split needs only the labels: a k or test fraction it cannot meet fails before any track is read.
            check_evaluation(ds.labels, args.protocol, args.k, args.test_fraction, args.seed)

        def analyze(i):
            # Copy the row into the table: a row kept past its worker pins freed heap memory,
            # which put `report --jobs 2` peak RSS about 20 MB higher in most runs.
            ds.matrix[i], series = extract_track(records[i], pre, spec, base)
            if not with_series:
                return []
            # Each series is rendered and written here, one at a time, so no track's text outlives it.
            stem = f"{i:03d}_{Path(records[i].path).stem}"
            return [_write(stage, f"series/{stem}_{kind}.csv", frame_series_csv(fs)) for kind, fs in series.items()]

        series_files = _map_tracks(len(paths), analyze, args.jobs)
        table = write_feature_table_csv(ds)
        if command in ("extract", "report"):
            produced.append(_write(stage, "features.csv", table))
            produced.append(_write(stage, "features.json", feature_table_json(ds)))
        if with_series:
            produced.append(_write(stage, "genre_summary.csv", write_genre_summary_csv(summarize_by_genre(ds))))
            produced += [name for files in series_files for name in files]

    if command in ("classify", "report"):
        # Parse the rendered table: classifying from memory must equal classifying from features.csv.
        ds = read_feature_table_csv(table)
        if args.features:
            ds = select_features(ds, args.features)
        if args.protocol == "loocv":
            report = evaluate_loocv(ds, k=args.k)
        else:
            report = evaluate_split(ds, test_fraction=args.test_fraction, seed=args.seed, k=args.k)
        produced.append(_write(stage, "report.json", report.to_json()))
        produced.append(_write(stage, "report.txt", report.to_text()))
    return inputs


def _stale(out_dir: Path, produced: list, inputs: list) -> list:
    """The files out_dir's run_manifest.json lists that this run neither produced nor read.

    A missing or non-JSON manifest lists nothing. A listed name is kept only
    if it is relative, has no `..` part, and names a regular file (not a
    symlink) whose directory, symlinks resolved, is out_dir or inside it; so
    a hand-edited manifest cannot name a file outside out_dir. Names are
    compared as resolved paths, so `./features.csv` is this run's
    features.csv, and a preprocessed WAV that this run read is an input.
    """
    try:
        listed = json.loads((out_dir / "run_manifest.json").read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError):
        return []
    files = listed.get("files") if isinstance(listed, dict) else None
    if not isinstance(files, list):
        return []
    root = out_dir.resolve()
    keep = {path.resolve() for path in inputs} | {(out_dir / fs_name(name)).resolve() for name in produced}
    stale = set()
    for name in files:
        if not isinstance(name, str) or Path(name).is_absolute() or ".." in Path(name).parts:
            continue
        path = out_dir / fs_name(name)
        real = path.parent.resolve() / path.name
        if real.parent.is_relative_to(root) and real not in keep and real.is_file() and not real.is_symlink():
            stale.add(real)
    return sorted(stale)


def _commit(stage: Path, out_dir: Path, command: str, produced: list, inputs: list):
    """Move the staged files into out_dir, in `produced` order, and write run_manifest.json last.

    Each move is an os.replace, so every file in out_dir is always whole:
    its old bytes or its new ones. The stale files (see _stale), found before
    any move so that an unreadable manifest fails with out_dir untouched, are
    removed before the new manifest is written; a file no manifest lists is
    never touched.
    """
    stale = _stale(out_dir, produced, inputs)
    for name in produced:
        target = out_dir / fs_name(name)
        target.parent.mkdir(parents=True, exist_ok=True)
        os.replace(stage / fs_name(name), target)
    root = out_dir.resolve()
    for path in stale:
        path.unlink(missing_ok=True)
        if path.parent != root and not any(path.parent.iterdir()):
            path.parent.rmdir()  # such as series/, once extract follows summarize
    manifest = json.dumps({"command": command, "files": produced}, indent=2) + "\n"
    os.replace(stage / _write(stage, "run_manifest.json", manifest), out_dir / "run_manifest.json")


def _message(exc) -> str:
    """str(exc), but with an OSError's file name quoted as text rather than by repr().

    Under an ASCII locale, fs_name leaves a non-ASCII file name's bytes as
    surrogate escapes, which repr() spells out as backslash escapes.
    """
    if isinstance(exc, TrackError):
        return f"{exc.path}: {exc.stage}: {_message(exc.cause)}"
    if isinstance(exc, OSError) and exc.strerror and isinstance(exc.filename, str) and exc.filename2 is None:
        return f"[Errno {exc.errno}] {exc.strerror}: '{exc.filename}'"
    return str(exc)


def _print_error(command: str, exc: Exception):
    """Print `error [command]: <exc>` on stderr as UTF-8, the same bytes under any locale.

    The surrogate escapes of file names (see fs_name) go out as the UTF-8
    bytes they stand for, where stderr would print them as backslash escapes.
    """
    line = f"error [{command}]: {_message(exc)}\n".encode("utf-8", "surrogateescape")
    sys.stderr.flush()
    if hasattr(sys.stderr, "buffer"):
        sys.stderr.buffer.write(line)
        sys.stderr.buffer.flush()
    else:  # a text-only stream, such as io.StringIO
        sys.stderr.write(line.decode("utf-8", "replace"))


def main(argv=None) -> int:
    """Run one command; returns the process exit status."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not args.out:
        print(f"error: no output directory (use --out or ${OUT_DIR_ENV})", file=sys.stderr)
        return EXIT_USAGE

    if args.command == "synth-corpus":
        from . import synth  # only this command needs numpy.random

        opts = {name: value for name, value in vars(args).items() if name not in ("command", "out")}
        try:
            manifest = synth.write_corpus(args.out, **opts)
        except ValueError as exc:  # a duration shorter than one sample
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except OSError as exc:
            _print_error(args.command, exc)
            return EXIT_DATA
        print(f"wrote {manifest}")
        return EXIT_OK

    if args.manifest is None and not args.features_csv:
        print("error: classify needs --features-csv or --manifest", file=sys.stderr)
        return EXIT_USAGE
    try:
        pre = PreprocessSpec(args.peak_dbfs, args.clip_seconds, args.sample_rate, args.pad_short)
        spec = None if args.command == "preprocess" else AnalysisSpec(
            StftParams(args.n_fft, args.hop, args.window), args.n_mfcc, args.n_mels
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if spec is not None:
        # A mel band narrower than an FFT bin gets no weight and reaches the MFCC as a constant.
        empty = int((~mel_filterbank(pre.target_sample_rate_hz, spec.stft.n_fft, spec.n_mels).any(axis=1)).sum())
        if empty:
            print(f"error: --n-mels {spec.n_mels} leaves {empty} mel bands empty at --n-fft {spec.stft.n_fft} "
                  f"and {pre.target_sample_rate_hz} Hz; lower --n-mels or raise --n-fft", file=sys.stderr)
            return EXIT_USAGE
        need = min_clip_samples(spec.stft, pre.target_sample_rate_hz)
        if pre.clip_samples < need:
            print(f"error: --clip-seconds {args.clip_seconds:g} gives {pre.clip_samples} samples at "
                  f"{pre.target_sample_rate_hz} Hz; analysis at --n-fft {spec.stft.n_fft} and --hop "
                  f"{spec.stft.hop} needs at least {need} ({need / pre.target_sample_rate_hz:g} s)", file=sys.stderr)
            return EXIT_USAGE

    # Every output is written into a staging directory inside --out, then moved into place
    # by _commit once all of them are written: a failed run leaves --out as it was.
    out_dir = Path(args.out)
    stage = out_dir / f".vgmfeat-{os.getpid()}"
    produced: list = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        stage.mkdir(exist_ok=True)  # a directory of this name is left by a killed run that had this pid
        try:
            if args.command == "preprocess":
                inputs = _run_preprocess(args, pre, stage, produced)
            else:
                inputs = _run_analysis(args, pre, spec, stage, produced)
            _commit(stage, out_dir, args.command, produced, inputs)
        finally:
            shutil.rmtree(stage, ignore_errors=True)
    except (VgmfeatError, OSError, ValueError) as exc:
        _print_error(args.command, exc)
        return EXIT_DATA

    for name in produced + ["run_manifest.json"]:
        print(f"wrote {out_dir / fs_name(name)}")
    return EXIT_OK


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
