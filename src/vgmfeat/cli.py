"""Command-line pipeline: preprocess, extract, summarize, classify, report.

Every command writes its outputs plus a run_manifest.json declaring the
produced files; reruns with the same inputs and flags are byte-identical.
"""

import argparse
import csv
import inspect
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

from .audio_io import PreprocessSpec, encode_wav
from .classify import evaluate_loocv, evaluate_split
from .dataset import (
    AnalysisSpec,
    extract_track,
    feature_table_json,
    frame_series_csv,
    load_manifest,
    process_track,
    read_feature_table_csv,
    select_features,
    summarize_by_genre,
    track_path,
    write_feature_table_csv,
    write_genre_summary_csv,
)
from .errors import VgmfeatError
from .spectral import StftParams
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
_open_unit = _checked(float, lambda v: 0 < v < 1, "in (0, 1)")


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
        p.add_argument("--jobs", type=_positive_int, default=1, help="tracks processed concurrently (default %(default)s)")

    def add_analysis(p):
        p.add_argument("--n-fft", type=int, default=StftParams.n_fft, help="FFT frame length (default %(default)s)")
        p.add_argument("--hop", type=int, default=StftParams.hop, help="hop length (default %(default)s)")
        p.add_argument("--window", default=StftParams.window, help="analysis window: hann, hamming, rectangular")
        p.add_argument("--n-mfcc", type=int, default=AnalysisSpec.n_mfcc,
                       help="cepstral coefficients kept (default %(default)s)")
        p.add_argument("--n-mels", type=int, default=AnalysisSpec.n_mels, help="mel bands (default %(default)s)")

    def add_knn(p):
        p.add_argument("--k", type=_positive_int, default=_default_of(evaluate_split, "k"),
                       help="KNN neighbor count (default %(default)s)")
        p.add_argument("--test-fraction", type=_open_unit, default=_default_of(evaluate_split, "test_fraction"),
                       help="held-out fraction per class (default 1/3)")
        p.add_argument("--seed", type=int, default=_default_of(evaluate_split, "seed"),
                       help="split seed (default %(default)s)")
        p.add_argument("--protocol", choices=("split", "loocv"), default="split")
        p.add_argument("--features", help="comma-separated feature families (tempo,zcr,centroid,chroma,mfcc,mfcc_mean,mfcc_range)")

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
    p.add_argument("--games-per-genre", type=int)
    p.add_argument("--tracks-per-game", type=int)
    p.add_argument("--duration", dest="duration_s", type=float, help="track length in seconds")
    p.add_argument("--sample-rate", dest="sample_rate_hz", type=int)
    return parser


def _load_records(manifest_path):
    records = load_manifest(Path(manifest_path).read_text())
    return records, str(Path(manifest_path).parent)


def _map_tracks(records, worker, jobs):
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, records))
    return [worker(rec) for rec in records]


def _write(out_dir: Path, name: str, text_or_bytes, produced: list) -> Path:
    path = out_dir / name
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(text_or_bytes, bytes):
        path.write_bytes(text_or_bytes)
    else:
        path.write_text(text_or_bytes)
    produced.append(name)
    return path


def _run_preprocess(args, pre: PreprocessSpec, out_dir: Path, produced: list):
    records, base = _load_records(args.manifest)
    encode = partial(encode_wav, sample_format=args.wav_format)
    payloads = _map_tracks(
        records, lambda rec: process_track(track_path(rec, base), pre, args.pad_short, "encode", encode), args.jobs
    )
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["path", "game", "genre", "title"])
    for i, (rec, payload) in enumerate(zip(records, payloads)):
        name = f"{i:03d}_{Path(rec.path).stem}.wav"
        _write(out_dir, name, payload, produced)
        writer.writerow([name, rec.game, rec.genre.token, rec.title])
    _write(out_dir, "manifest.csv", out.getvalue(), produced)


def _run_analysis(args, pre: PreprocessSpec, spec: AnalysisSpec, out_dir: Path, produced: list):
    """extract, summarize, classify and report: one extraction pass, then each command's outputs."""
    command = args.command
    if command == "classify" and args.features_csv:
        table = Path(args.features_csv).read_text()
    else:
        # Only the commands that write series keep them: mfcc's series pins the full DCT matrix.
        with_series = command in ("summarize", "report")
        records, base = _load_records(args.manifest)
        results = _map_tracks(
            records, lambda rec: extract_track(rec, pre, spec, base, args.pad_short, with_series), args.jobs
        )
        feats = [r[0] for r in results] if with_series else results
        rows = [(rec.path, f, rec.genre) for rec, f in zip(records, feats)]
        table = write_feature_table_csv(rows, spec.n_mfcc)
        if command in ("extract", "report"):
            _write(out_dir, "features.csv", table, produced)
            _write(out_dir, "features.json", feature_table_json(rows, spec.n_mfcc), produced)
        if with_series:
            summary = summarize_by_genre([(f, rec.genre) for rec, f in zip(records, feats)])
            _write(out_dir, "genre_summary.csv", write_genre_summary_csv(summary), produced)
            for i, (rec, (_, series)) in enumerate(zip(records, results)):
                stem = f"{i:03d}_{Path(rec.path).stem}"
                for kind, fs in series.items():
                    _write(out_dir, f"series/{stem}_{kind}.csv", frame_series_csv(fs), produced)

    if command in ("classify", "report"):
        # Parse the rendered table: classifying from memory must equal classifying from features.csv.
        ds = read_feature_table_csv(table)
        subset = [f.strip() for f in (args.features or "").split(",") if f.strip()]
        if subset:
            ds = select_features(ds, subset)
        if args.protocol == "loocv":
            report = evaluate_loocv(ds, k=args.k)
        else:
            report = evaluate_split(ds, test_fraction=args.test_fraction, seed=args.seed, k=args.k)
        _write(out_dir, "report.json", report.to_json(), produced)
        _write(out_dir, "report.txt", report.to_text(), produced)


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
        print(f"wrote {synth.write_corpus(args.out, **opts)}")
        return EXIT_OK

    if args.manifest is None and not args.features_csv:
        print("error: classify needs --features-csv or --manifest", file=sys.stderr)
        return EXIT_USAGE
    try:
        pre = PreprocessSpec(args.peak_dbfs, args.clip_seconds, args.sample_rate)
        spec = None if args.command == "preprocess" else AnalysisSpec(
            StftParams(args.n_fft, args.hop, args.window), args.n_mfcc, args.n_mels
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    produced: list = []
    try:
        if args.command == "preprocess":
            _run_preprocess(args, pre, out_dir, produced)
        else:
            _run_analysis(args, pre, spec, out_dir, produced)
    except (VgmfeatError, OSError, ValueError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return EXIT_DATA

    manifest = {"command": args.command, "files": produced}
    (out_dir / "run_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    for name in produced + ["run_manifest.json"]:
        print(f"wrote {out_dir / name}")
    return EXIT_OK


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
