import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vgmfeat import cli
from vgmfeat.audio_io import decode_wav
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

    def test_jobs_do_not_change_output(self, small_corpus, tmp_path):
        outs = []
        for jobs in ("1", "3"):
            out = tmp_path / f"j{jobs}"
            assert cli.main(
                ["extract", "--manifest", str(small_corpus / "manifest.csv"),
                 "--out", str(out), "--jobs", jobs]
            ) == 0
            outs.append((out / "features.csv").read_bytes())
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
        from vgmfeat.dataset import GenreLabel, TrackFeatures, write_feature_table_csv

        rng = np.random.default_rng(55)
        centers = rng.standard_normal((3, 43)) * 10.0
        rows = []
        for i in range(18):
            vec = centers[i % 3] + rng.standard_normal(43) * 0.05
            rows.append((f"t{i}", TrackFeatures.from_vector(vec), GenreLabel(i % 3)))
        csv_path = tmp_path / "features.csv"
        csv_path.write_text(write_feature_table_csv(rows))
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
             "--n-mfcc", "20", "--n-mels", "64", "--window", "hamming", "--hop", "256"]
        )
        assert rc == 0
        header = (out / "features.csv").read_text().splitlines()[0].split(",")
        assert header == ["track_id"] + feature_names(20) + ["genre"]
        assert len(header) == 57 + 2
        assert read_feature_table_csv((out / "features.csv").read_text()).matrix.shape == (9, 57)


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
            pytest.param("--test-fraction", "1.5", "--test-fraction", id="test-fraction"),
            pytest.param("--peak-dbfs", "2", "<= 0", id="peak-dbfs"),
        ],
    )
    def test_bad_numeric_value(self, tmp_path, capsys, flag, value, message):
        rc = cli.main(["report", "--manifest", "m.csv", "--out", str(tmp_path), flag, value])
        assert rc == 1
        assert message in capsys.readouterr().err

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
        proc = subprocess.run(
            [sys.executable, "-m", "vgmfeat", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "vgmfeat" in proc.stdout

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "vgmfeat", "extract"], capture_output=True, text=True
        )
        assert proc.returncode == 1
