import hashlib
import json
import os
import struct
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from vgmfeat import audio_io, cli, dataset
from vgmfeat.audio_io import block_helpers, decode_wav
from vgmfeat.dataset import feature_names, load_manifest, read_feature_table_csv
from vgmfeat.synth import write_corpus


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """9 tracks (one game per genre), short enough to keep this module fast."""
    d = tmp_path_factory.mktemp("small_corpus")
    write_corpus(d, seed=11, games_per_genre=1, tracks_per_game=3, duration_s=16.0)
    return d


def declared_files(out_dir):
    manifest = json.loads((Path(out_dir) / "run_manifest.json").read_text())
    return manifest["files"]


class TestSynthCorpus:
    def test_generates_requested_shape(self, tmp_path):
        rc = cli.main(
            ["synth-corpus", "--out", str(tmp_path), "--seed", "5",
             "--games-per-genre", "1", "--tracks-per-game", "1", "--duration", "16"]
        )
        assert rc == 0
        records = load_manifest((tmp_path / "manifest.csv").read_text())
        assert len(records) == 3
        assert len(list(tmp_path.glob("*.wav"))) == 3

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert cli.main(
                ["synth-corpus", "--out", str(d), "--seed", "9",
                 "--games-per-genre", "1", "--tracks-per-game", "1", "--duration", "16"]
            ) == 0
        for wav in a.glob("*.wav"):
            assert wav.read_bytes() == (b / wav.name).read_bytes()


class TestPreprocessCommand:
    def test_writes_clips_and_chained_manifest(self, small_corpus, tmp_path):
        out = tmp_path / "pre"
        rc = cli.main(
            ["preprocess", "--manifest", str(small_corpus / "manifest.csv"), "--out", str(out)]
        )
        assert rc == 0
        records = load_manifest((out / "manifest.csv").read_text())
        assert len(records) == 9
        buf = decode_wav((out / records[0].path).read_bytes())
        assert buf.sample_rate_hz == 48000
        assert len(buf.samples) == 720000
        assert np.max(np.abs(buf.samples)) == pytest.approx(10 ** (-0.25), abs=1e-4)
        assert set(declared_files(out)) == {r.path for r in records} | {"manifest.csv"}

    def test_float32_format(self, small_corpus, tmp_path):
        out = tmp_path / "pre32"
        rc = cli.main(
            ["preprocess", "--manifest", str(small_corpus / "manifest.csv"),
             "--out", str(out), "--wav-format", "float32"]
        )
        assert rc == 0
        records = load_manifest((out / "manifest.csv").read_text())
        buf = decode_wav((out / records[0].path).read_bytes())
        assert np.max(np.abs(buf.samples)) == pytest.approx(10 ** (-0.25), abs=1e-6)


class TestExtractCommand:
    def test_writes_feature_table(self, small_corpus, tmp_path):
        out = tmp_path / "feats"
        rc = cli.main(
            ["extract", "--manifest", str(small_corpus / "manifest.csv"), "--out", str(out),
             "--jobs", "2"]
        )
        assert rc == 0
        ds = read_feature_table_csv((out / "features.csv").read_text())
        assert ds.matrix.shape == (9, 43)
        entries = json.loads((out / "features.json").read_text())
        assert len(entries) == 9
        assert set(declared_files(out)) == {"features.csv", "features.json"}

    def test_missing_file_names_path(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,game,genre,title\nghost.wav,g,action_rpg,t\n")
        rc = cli.main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "ghost.wav" in err and "read" in err

    def test_failing_track_gives_back_the_resampler_helpers(self, small_corpus, tmp_path, monkeypatch, capsys):
        track = load_manifest((small_corpus / "manifest.csv").read_text())[0]
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"path,game,genre,title\n{small_corpus / track.path},g,action_rpg,t\n"
                            "ghost.wav,g,action_rpg,t\n")
        # Three helpers on any host, more than --jobs 2 should hold, so that a wrong count held shows;
        # --jobs 1 has one for the missing second track's load ahead. Fewer pool threads only queue.
        monkeypatch.setattr(block_helpers, "helpers", 3)
        monkeypatch.setattr(block_helpers, "idle", 3)
        seen, real_extract, real_load = [], cli.extract_track, dataset.load_track
        ghost_tried = threading.Event()

        def spy(*args):
            seen.append(block_helpers.idle)
            started.wait(10)  # each worker counts before any resamples and holds helpers of its own
            return real_extract(*args)

        def load(path):
            if path.name == "ghost.wav":
                ghost_tried.set()
                time.sleep(0.2)  # still loading when the first track fails
            return real_load(path)

        def analyze_fails(clip, spec):
            # Fail only once the second track's load has begun, so its error is there to be dropped.
            assert ghost_tried.wait(10)
            raise ValueError("boom")

        monkeypatch.setattr(cli, "extract_track", spy)
        monkeypatch.setattr(dataset, "load_track", load)
        monkeypatch.setattr(dataset, "analyze_clip", analyze_fails)
        for jobs in (1, 2):
            seen.clear()
            ghost_tried.clear()
            started = threading.Barrier(jobs)
            rc = cli.main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "o"), "--jobs", str(jobs)])
            assert rc == 2
            # The first track's error, in manifest order, whichever failed first.
            assert capsys.readouterr().err == f"error [extract]: {small_corpus / track.path}: analyze: boom\n"
            # Two workers keep two cores busy while the pool runs; one job holds nothing while it
            # analyzes. Every helper is idle again afterwards, the load ahead included.
            assert seen == [block_helpers.helpers - (jobs - 1)] * jobs, jobs
            assert block_helpers.idle == block_helpers.helpers, jobs

    @pytest.mark.parametrize("command", ["report", "preprocess"])
    def test_loading_ahead_does_not_change_output(self, small_corpus, tmp_path, monkeypatch, command):
        outs = []
        for idle in (0, 1):
            monkeypatch.setattr(block_helpers, "idle", idle)
            out = tmp_path / f"idle{idle}"
            assert cli.main([command, "--manifest", str(small_corpus / "manifest.csv"), "--out", str(out)]) == 0
            outs.append({name: (out / name).read_bytes() for name in declared_files(out)})
        assert len(outs[0]) == (5 + 9 * 5 if command == "report" else 9 + 1)
        assert outs[0] == outs[1]

    def test_next_track_loads_once_the_last_is_preprocessed(self, small_corpus, tmp_path, monkeypatch):
        # Tracks run in order at --jobs 1, so the k-th call of each stage is track k.
        events, decoded, resampled, helper_loads = [], [], [], []
        real_decode, real_preprocess, real_resample = dataset.decode_wav, dataset.preprocess, audio_io.resample

        def decode(data):
            k = sum(event == "decode" for event, _ in events)
            # Nothing of the track before may be alive: not its decoded nor its resampled samples.
            events.append(("decode", k))
            if k:
                helper_loads.append(threading.current_thread() is not threading.main_thread())
                events.append(("previous track freed", decoded[k - 1]() is None and resampled[k - 1]() is None))
            buf = real_decode(data)
            decoded.append(weakref.ref(buf.samples))
            return buf

        def resample(buf, rate):
            out = real_resample(buf, rate)
            resampled.append(weakref.ref(out.samples))
            return out

        def preprocess(buf, pre):
            clip = real_preprocess(buf, pre)
            events.append(("preprocessed", sum(event == "preprocessed" for event, _ in events)))
            return clip

        monkeypatch.setattr(block_helpers, "idle", 1)
        monkeypatch.setattr(dataset, "decode_wav", decode)
        monkeypatch.setattr(dataset, "preprocess", preprocess)
        monkeypatch.setattr(audio_io, "resample", resample)
        assert cli.main(["extract", "--manifest", str(small_corpus / "manifest.csv"), "--out", str(tmp_path)]) == 0
        order = [event for event in events if event[0] != "previous track freed"]
        assert order == [("decode", 0)] + [event for k in range(1, 9) for event in
                                           [("preprocessed", k - 1), ("decode", k)]] + [("preprocessed", 8)]
        assert [freed for event, freed in events if event == "previous track freed"] == [True] * 8
        # Each later track is loaded on the helper, unless the helper had not started when it was needed.
        assert any(helper_loads)
        assert block_helpers.idle == 1

    def test_truncated_extensible_fmt_is_a_data_error(self, tmp_path, capsys):
        fmt = struct.pack("<HHIIHH", 0xFFFE, 1, 48000, 96000, 2, 16) + b"\x16\x00\x10\x00"
        # the fmt chunk declares 40 bytes, but the file ends after 20
        wav = tmp_path / "cut.wav"
        wav.write_bytes(b"RIFF" + struct.pack("<I", 4 + 8 + 40) + b"WAVE" + b"fmt " + struct.pack("<I", 40) + fmt)
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,game,genre,title\ncut.wav,g,action_rpg,t\n")
        rc = cli.main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{wav}: decode: truncated fmt extension" in capsys.readouterr().err

    def test_pad_short(self, small_corpus, tmp_path, capsys):
        track = load_manifest((small_corpus / "manifest.csv").read_text())[0]
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"path,game,genre,title\n{small_corpus / track.path},g,action_rpg,t\n")
        # the corpus tracks last 16 s
        args = ["extract", "--manifest", str(manifest), "--clip-seconds", "20"]
        assert cli.main(args + ["--out", str(tmp_path / "strict")]) == 2
        assert ": preprocess: " in capsys.readouterr().err
        assert cli.main(args + ["--out", str(tmp_path / "padded"), "--pad-short"]) == 0
        ds = read_feature_table_csv((tmp_path / "padded" / "features.csv").read_text())
        assert ds.matrix.shape == (1, 43)
        assert np.all(np.isfinite(ds.matrix))

    def test_header_only_manifest_takes_columns_from_n_mfcc(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,game,genre,title\n")
        out = tmp_path / "o"
        assert cli.main(["extract", "--manifest", str(manifest), "--out", str(out), "--n-mfcc", "20"]) == 0
        assert (out / "features.csv").read_text() == ",".join(["track_id"] + feature_names(20) + ["genre"]) + "\n"
        assert json.loads((out / "features.json").read_text()) == []

    def test_jobs_do_not_change_output(self, small_corpus, tmp_path):
        outs = []
        for jobs in ("1", "3"):
            out = tmp_path / f"j{jobs}"
            assert cli.main(
                ["report", "--manifest", str(small_corpus / "manifest.csv"),
                 "--out", str(out), "--jobs", jobs]
            ) == 0
            outs.append({name: (out / name).read_bytes() for name in declared_files(out)})
        assert len(outs[0]) == 5 + 9 * 5  # the feature, summary and report files plus 5 series per track
        assert outs[0] == outs[1]


class TestSummarizeCommand:
    def test_writes_summary_and_series(self, small_corpus, tmp_path):
        out = tmp_path / "sum"
        rc = cli.main(
            ["summarize", "--manifest", str(small_corpus / "manifest.csv"), "--out", str(out)]
        )
        assert rc == 0
        lines = (out / "genre_summary.csv").read_text().splitlines()
        assert len(lines) == 4  # header + 3 genres
        assert [l.split(",")[1] for l in lines[1:]] == ["3", "3", "3"]
        series = sorted((out / "series").glob("*.csv"))
        assert len(series) == 9 * 5  # zcr, centroid, chroma, mfcc, onset per track
        declared = declared_files(out)
        assert "genre_summary.csv" in declared
        for name in declared:
            assert (out / name).is_file()


class TestClassifyCommand:
    def test_report_from_manifest(self, small_corpus, tmp_path):
        out = tmp_path / "cls"
        rc = cli.main(
            ["classify", "--manifest", str(small_corpus / "manifest.csv"), "--out", str(out),
             "--k", "1", "--seed", "4"]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["accuracy"] <= 1.0
        assert np.array(report["confusion"]).sum() == 3
        assert (out / "report.txt").read_text().startswith("accuracy:")

    def test_report_from_features_csv(self, small_corpus, tmp_path):
        feats = tmp_path / "f"
        assert cli.main(
            ["extract", "--manifest", str(small_corpus / "manifest.csv"), "--out", str(feats)]
        ) == 0
        out = tmp_path / "cls2"
        rc = cli.main(
            ["classify", "--features-csv", str(feats / "features.csv"), "--out", str(out),
             "--protocol", "loocv", "--k", "1"]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert np.array(report["confusion"]).sum() == 9

    def test_feature_subset(self, small_corpus, tmp_path):
        feats = tmp_path / "f2"
        assert cli.main(
            ["extract", "--manifest", str(small_corpus / "manifest.csv"), "--out", str(feats)]
        ) == 0
        out = tmp_path / "cls3"
        rc = cli.main(
            ["classify", "--features-csv", str(feats / "features.csv"), "--out", str(out),
             "--features", "tempo,centroid", "--protocol", "loocv", "--k", "3"]
        )
        assert rc == 0
        assert (out / "report.json").is_file()

    def test_separable_features_classify_perfectly(self, tmp_path):
        from vgmfeat.dataset import LabeledDataset, write_feature_table_csv

        rng = np.random.default_rng(55)
        centers = rng.standard_normal((3, 43)) * 10.0
        labels = np.arange(18) % 3
        matrix = centers[labels] + rng.standard_normal((18, 43)) * 0.05
        ds = LabeledDataset(matrix, labels, [f"t{i}" for i in range(18)], feature_names())
        csv_path = tmp_path / "features.csv"
        csv_path.write_text(write_feature_table_csv(ds))
        out = tmp_path / "cls"
        rc = cli.main(["classify", "--features-csv", str(csv_path), "--out", str(out), "--seed", "1"])
        assert rc == 0
        assert json.loads((out / "report.json").read_text())["accuracy"] == 1.0

    def test_needs_some_input(self, tmp_path, capsys):
        rc = cli.main(["classify", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "features-csv" in capsys.readouterr().err


class TestFullCorpusSummarize:
    def test_27_tracks_give_three_rows_of_nine(self, corpus_dir, tmp_path):
        out = tmp_path / "sum27"
        rc = cli.main(
            ["summarize", "--manifest", str(corpus_dir / "manifest.csv"), "--out", str(out),
             "--jobs", "2"]
        )
        assert rc == 0
        lines = (out / "genre_summary.csv").read_text().splitlines()
        assert len(lines) == 4
        counts = [line.split(",")[1] for line in lines[1:]]
        assert counts == ["9", "9", "9"]


class TestReportCommand:
    def test_bundles_everything(self, small_corpus, tmp_path):
        out = tmp_path / "rep"
        rc = cli.main(
            ["report", "--manifest", str(small_corpus / "manifest.csv"), "--out", str(out),
             "--protocol", "loocv", "--k", "1"]
        )
        assert rc == 0
        declared = declared_files(out)
        for required in ("features.csv", "features.json", "genre_summary.csv", "report.json", "report.txt"):
            assert required in declared
        for name in declared:
            assert (out / name).is_file()
        # nothing undeclared in the output tree
        on_disk = {
            str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()
        } - {"run_manifest.json"}
        assert on_disk == set(declared)

    def test_matches_separate_commands(self, small_corpus, tmp_path):
        manifest = str(small_corpus / "manifest.csv")
        rep, ext, summ, cls = (tmp_path / name for name in ("rep", "ext", "sum", "cls"))
        assert cli.main(["report", "--manifest", manifest, "--out", str(rep)]) == 0
        assert cli.main(["extract", "--manifest", manifest, "--out", str(ext)]) == 0
        assert cli.main(["summarize", "--manifest", manifest, "--out", str(summ)]) == 0
        assert cli.main(["classify", "--features-csv", str(ext / "features.csv"), "--out", str(cls)]) == 0
        parts = {name: d for d in (ext, summ, cls) for name in declared_files(d)}
        assert sorted(parts) == sorted(declared_files(rep))
        assert any(name.startswith("series/") for name in parts)
        for name, d in parts.items():
            assert (rep / name).read_bytes() == (d / name).read_bytes(), name

    def test_non_default_analysis_flags(self, small_corpus, tmp_path):
        out = tmp_path / "rep"
        rc = cli.main(
            ["report", "--manifest", str(small_corpus / "manifest.csv"), "--out", str(out),
             "--n-mfcc", "20", "--n-fft", "1024", "--n-mels", "64", "--window", "hamming", "--hop", "256"]
        )
        assert rc == 0
        header = (out / "features.csv").read_text().splitlines()[0].split(",")
        assert header == ["track_id"] + feature_names(20) + ["genre"]
        assert len(header) == 57 + 2
        assert read_feature_table_csv((out / "features.csv").read_text()).matrix.shape == (9, 57)


@pytest.fixture(scope="module")
def golden_corpus(tmp_path_factory):
    """3 tracks of 20 s (one per genre), seed 7: the corpus the seed-7 golden files come from."""
    d = tmp_path_factory.mktemp("golden_corpus")
    assert cli.main(["synth-corpus", "--out", str(d), "--seed", "7", "--games-per-genre", "1",
                     "--tracks-per-game", "1", "--duration", "20"]) == 0
    return d


class TestGoldenOutput:
    def test_extract_matches_committed_features_csv(self, golden_corpus, tmp_path):
        # Pins the determinism contract: any change to an output byte fails
        # here and has to regenerate the golden file on purpose.
        out = tmp_path / "out"
        assert cli.main(["extract", "--manifest", str(golden_corpus / "manifest.csv"), "--out", str(out)]) == 0
        golden = Path(__file__).parent / "data" / "golden_features_seed7.csv"
        assert (out / "features.csv").read_bytes() == golden.read_bytes()

    def test_summarize_matches_committed_series(self, golden_corpus, tmp_path):
        # The digests are in `sha256sum` format, one line per series file.
        out = tmp_path / "out"
        assert cli.main(["summarize", "--manifest", str(golden_corpus / "manifest.csv"), "--out", str(out)]) == 0
        golden = Path(__file__).parent / "data" / "golden_series_seed7.sha256"
        expected = dict(reversed(line.split("  ")) for line in golden.read_text().splitlines())
        series = [name for name in declared_files(out) if name.startswith("series/")]
        assert len(expected) == 15
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in series} == expected

    def test_summarize_matches_committed_genre_summary(self, small_corpus, tmp_path):
        # 3 tracks per genre, so the std columns are pinned too, not only zeros.
        out = tmp_path / "out"
        assert cli.main(["summarize", "--manifest", str(small_corpus / "manifest.csv"), "--out", str(out)]) == 0
        golden = Path(__file__).parent / "data" / "golden_genre_summary_seed11.csv"
        assert (out / "genre_summary.csv").read_bytes() == golden.read_bytes()

    def test_loocv_report_matches_committed_report(self, small_corpus, tmp_path):
        # 8 of 9 right with one MISS, so a change in neighbour order shows.
        out = tmp_path / "out"
        assert cli.main(["report", "--manifest", str(small_corpus / "manifest.csv"), "--out", str(out),
                         "--protocol", "loocv"]) == 0
        for suffix in ("json", "txt"):
            golden = Path(__file__).parent / "data" / f"golden_report_loocv_seed11.{suffix}"
            assert (out / f"report.{suffix}").read_bytes() == golden.read_bytes()


def run_child(args, openblas_threads=None):
    """Run a fresh interpreter on this checkout's package, with OPENBLAS_NUM_THREADS set when given."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(openblas_threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


class TestBlasThreads:
    """Importing vgmfeat pins BLAS to one thread, so output bytes do not depend on the machine."""

    PROBE = "import os, sys, vgmfeat.cli; print(len(os.listdir('/proc/self/task')), 'scipy' in sys.modules)"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_import_runs_one_thread_without_scipy(self):
        proc = run_child(["-c", self.PROBE], openblas_threads=2)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "False"]

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert cli.main(["synth-corpus", "--out", str(corpus), "--seed", "7", "--games-per-genre", "1",
                         "--tracks-per-game", "1", "--duration", "20"]) == 0
        outputs = []
        for threads in (1, 2):
            out = tmp_path / f"out{threads}"
            proc = run_child(["-m", "vgmfeat", "extract", "--manifest", str(corpus / "manifest.csv"),
                              "--out", str(out)], openblas_threads=threads)
            assert proc.returncode == 0, proc.stderr
            outputs.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
        assert Path("features.json") in outputs[0]
        assert outputs[0] == outputs[1]


class TestUsageErrors:
    def test_unknown_command(self):
        assert cli.main(["polish"]) == 1

    def test_missing_required_flag(self):
        assert cli.main(["extract"]) == 1

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            pytest.param("--n-fft", "1000", "power of two", id="n-fft"),
            pytest.param("--k", "0", "--k", id="k"),
            pytest.param("--jobs", "0", "--jobs", id="jobs"),
            pytest.param("--n-mels", "-3", "--n-mels", id="n-mels"),
            pytest.param("--n-mfcc", "0", "--n-mfcc", id="n-mfcc"),
            pytest.param("--test-fraction", "1.5", "--test-fraction", id="test-fraction"),
            pytest.param("--peak-dbfs", "2", "<= 0", id="peak-dbfs"),
            pytest.param("--peak-dbfs", "nan", "finite", id="peak-dbfs-nan"),
            pytest.param("--peak-dbfs", "-inf", "finite", id="peak-dbfs-minus-inf"),
            pytest.param("--peak-dbfs", "-7000", "target_peak_dbfs", id="peak-dbfs-underflow"),
            pytest.param("--clip-seconds", "nan", "clip_duration_s", id="clip-seconds-nan"),
            pytest.param("--clip-seconds", "inf", "clip_duration_s", id="clip-seconds-inf"),
            pytest.param("--clip-seconds", "1e305", "clip_duration_s", id="clip-seconds-overflow"),
        ],
    )
    def test_bad_numeric_value(self, tmp_path, capsys, flag, value, message):
        # flag=value, because argparse reads a separate "-inf" as an option.
        rc = cli.main(["report", "--manifest", "m.csv", "--out", str(tmp_path), f"{flag}={value}"])
        assert rc == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("n_fft, empty", [("512", 11), ("1024", 1)])
    def test_empty_mel_bands_rejected_before_extraction(self, small_corpus, tmp_path, capsys, n_fft, empty):
        out = tmp_path / "out"
        rc = cli.main(["report", "--manifest", str(small_corpus / "manifest.csv"), "--out", str(out),
                       "--n-fft", n_fft])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"--n-mels 128 leaves {empty} mel bands empty at --n-fft {n_fft}" in err
        assert not (out / "features.csv").exists()

    def test_more_cepstra_than_mel_bands_rejected_before_extraction(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["extract", "--manifest", str(small_corpus / "manifest.csv"), "--out", str(out),
                       "--n-mfcc", "200"])
        assert rc == 1
        assert "n_mfcc must be <= n_mels (128), got 200" in capsys.readouterr().err
        assert not (out / "features.csv").exists()

    @pytest.mark.parametrize("seconds, rc", [("0.3519", 1), ("0.35197917", 1), ("0.352", 0)])
    def test_clip_too_short_to_analyze_rejected_before_extraction(self, small_corpus, tmp_path, capsys,
                                                                   seconds, rc):
        # 0.352 s is 16,896 samples at 48 kHz: 33 hops of 512, one more than the 180 BPM lag of 32 hops.
        # 0.35197917 s rounds to one sample fewer.
        out = tmp_path / "out"
        assert cli.main(["extract", "--manifest", str(small_corpus / "manifest.csv"), "--out", str(out),
                         "--clip-seconds", seconds]) == rc
        assert (out / "features.csv").exists() == (rc == 0)
        if rc:
            assert "needs at least 16896 (0.352 s)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classify", "report"])
    def test_unknown_feature_family_before_extraction(self, small_corpus, tmp_path, capsys, command):
        out = tmp_path / "out"
        rc = cli.main([command, "--manifest", str(small_corpus / "manifest.csv"), "--out", str(out),
                       "--features", "tempo,bogus"])
        assert rc == 1
        assert "--features" in capsys.readouterr().err
        assert not (out / "features.csv").exists()

    def test_no_output_dir(self, small_corpus, monkeypatch, capsys):
        monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
        rc = cli.main(["extract", "--manifest", str(small_corpus / "manifest.csv")])
        assert rc == 1
        assert cli.OUT_DIR_ENV in capsys.readouterr().err

    def test_env_var_supplies_out_dir(self, small_corpus, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "envout"))
        rc = cli.main(["extract", "--manifest", str(small_corpus / "manifest.csv")])
        assert rc == 0
        assert (tmp_path / "envout" / "features.csv").is_file()

    def test_help_exits_zero(self):
        assert cli.main(["--help"]) == 0

    def test_hidden_command_not_advertised(self, capsys):
        cli.main(["--help"])
        out = capsys.readouterr().out
        assert "synth-corpus" not in out
        assert "classify" in out


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = run_child(["-m", "vgmfeat", "--help"])
        assert proc.returncode == 0, proc.stderr
        assert "vgmfeat" in proc.stdout

    def test_usage_error_exit_code(self):
        proc = run_child(["-m", "vgmfeat", "extract"])
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage: vgmfeat extract")
        assert "the following arguments are required: --manifest" in proc.stderr
