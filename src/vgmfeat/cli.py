"""Command-line pipeline: preprocess, extract, summarize, classify, report.

Every command writes its outputs plus a run_manifest.json declaring the
produced files; reruns with the same inputs and flags are byte-identical.
"""

import argparse
import inspect
import json
import math
import os
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
    ReadAhead,
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
from . import synth

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
                            "resampling blocks from any track, and with 1 job also reads the next track's bytes "
                            "and parses its header, one track ahead, while this one is analyzed "
                            "(default %(default)s)")

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


def _map_tracks(paths, worker, jobs):
    """worker(i, reader) for every track i, results in track order.

    With one job the tracks run in order on this thread, and `reader` (a
    ReadAhead) loads each next track on a block helper; with more, each worker
    thread loads its own tracks and `reader` is None.
    """
    jobs = min(jobs, len(paths))
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(lambda i: worker(i, None), range(len(paths))))
    reader = ReadAhead(paths)
    return [worker(i, reader) for i in range(len(paths))]


def _write(out_dir: Path, name: str, text_or_bytes, produced: list) -> Path:
    path = out_dir / fs_name(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(text_or_bytes, bytes):
        path.write_bytes(text_or_bytes)
    else:
        path.write_text(text_or_bytes, encoding="utf-8", newline="\n")
    produced.append(name)
    return path


def _run_preprocess(args, pre: PreprocessSpec, out_dir: Path, produced: list):
    records, base = _load_records(args.manifest)
    encode = partial(encode_wav, sample_format=args.wav_format)
    paths = [track_path(rec, base) for rec in records]
    payloads = _map_tracks(paths, lambda i, reader: process_track(paths[i], pre, "encode", encode, reader), args.jobs)
    written = []
    for i, (rec, payload) in enumerate(zip(records, payloads)):
        name = f"{i:03d}_{Path(rec.path).stem}.wav"
        _write(out_dir, name, payload, produced)
        written.append(replace(rec, path=name))
    _write(out_dir, "manifest.csv", write_manifest(written), produced)


def _run_analysis(args, pre: PreprocessSpec, spec: AnalysisSpec, out_dir: Path, produced: list):
    """extract, summarize, classify and report: one extraction pass, then each command's outputs."""
    command = args.command
    if command == "classify" and args.features_csv:
        table = Path(args.features_csv).read_text(encoding="utf-8-sig")
    else:
        # Only the commands that write series keep them, and as rendered CSV text: each
        # worker thread renders its track's series, so the arrays die in the worker, and
        # the main thread writes every file only once all tracks have succeeded.
        with_series = command in ("summarize", "report")
        records, base = _load_records(args.manifest)
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

        def analyze(i, reader):
            # Copy the row into the table: a row kept past its worker pins freed heap memory,
            # which put `report --jobs 2` peak RSS about 20 MB higher in most runs.
            ds.matrix[i], series = extract_track(records[i], pre, spec, base, reader)
            return {kind: frame_series_csv(fs) for kind, fs in series.items()} if with_series else {}

        rendered = _map_tracks([track_path(rec, base) for rec in records], analyze, args.jobs)
        table = write_feature_table_csv(ds)
        if command in ("extract", "report"):
            _write(out_dir, "features.csv", table, produced)
            _write(out_dir, "features.json", feature_table_json(ds), produced)
        if with_series:
            _write(out_dir, "genre_summary.csv", write_genre_summary_csv(summarize_by_genre(ds)), produced)
            for i, (rec, series) in enumerate(zip(records, rendered)):
                stem = f"{i:03d}_{Path(rec.path).stem}"
                for kind, text in series.items():
                    _write(out_dir, f"series/{stem}_{kind}.csv", text, produced)

    if command in ("classify", "report"):
        # Parse the rendered table: classifying from memory must equal classifying from features.csv.
        ds = read_feature_table_csv(table)
        if args.features:
            ds = select_features(ds, args.features)
        if args.protocol == "loocv":
            report = evaluate_loocv(ds, k=args.k)
        else:
            report = evaluate_split(ds, test_fraction=args.test_fraction, seed=args.seed, k=args.k)
        _write(out_dir, "report.json", report.to_json(), produced)
        _write(out_dir, "report.txt", report.to_text(), produced)


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

    out_dir = Path(args.out)
    produced: list = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "preprocess":
            _run_preprocess(args, pre, out_dir, produced)
        else:
            _run_analysis(args, pre, spec, out_dir, produced)
        manifest = json.dumps({"command": args.command, "files": produced}, indent=2) + "\n"
        _write(out_dir, "run_manifest.json", manifest, produced)
    except (VgmfeatError, OSError, ValueError) as exc:
        _print_error(args.command, exc)
        return EXIT_DATA

    for name in produced:
        print(f"wrote {out_dir / fs_name(name)}")
    return EXIT_OK


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
