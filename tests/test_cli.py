import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vgmfeat import audio_io, cli, dataset
from vgmfeat.audio_io import decode_wav
from vgmfeat.dataset import feature_names, fs_name, load_manifest, read_feature_table_csv
from vgmfeat.synth import write_corpus

from conftest import pcm_bytes, wav_bytes


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

    @pytest.mark.parametrize("flag, value, message", [
        ("--duration", "-1", "--duration: must be positive and finite"),
        ("--duration", "0", "--duration: must be positive and finite"),
        ("--duration", "nan", "--duration: must be positive and finite"),
        ("--duration", "inf", "--duration: must be positive and finite"),
        ("--duration", "1e-9", "duration_s 1e-09 gives no sample at 44100 Hz"),
        ("--sample-rate", "0", "--sample-rate: must be >= 1"),
        ("--games-per-genre", "0", "--games-per-genre: must be >= 1"),
        ("--tracks-per-game", "-2", "--tracks-per-game: must be >= 1"),
    ])
    def test_bad_value_is_a_usage_error(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "corpus"
        assert cli.main(["synth-corpus", "--out", str(out), f"{flag}={value}"]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


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

    def test_failing_track_gives_back_the_resampler_helpers(self, small_corpus, tmp_path, monkeypatch, capsys,
                                                             block_pool):
        track = load_manifest((small_corpus / "manifest.csv").read_text())[0]
        (tmp_path / "bad.wav").write_bytes(b"not a wav")
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"path,game,genre,title\n{small_corpus / track.path},g,action_rpg,t\n"
                            "bad.wav,g,action_rpg,t\n")
        real_parse, bad_tried = dataset.parse_wav, threading.Event()

        def parse(file):
            if Path(file.name).name == "bad.wav":
                bad_tried.set()
                time.sleep(0.2)  # still parsing when the first track fails
            return real_parse(file)

        def analyze_fails(clip, spec):
            # At --jobs 2, fail only once the second track's parse has begun, so its error is there to be dropped.
            assert jobs == 1 or bad_tried.wait(10)
            raise ValueError("boom")

        # Three chunks per resample on any host, more than the pool may have threads: the last one waits its turn.
        monkeypatch.setattr(audio_io, "_cores", lambda: 3)
        monkeypatch.setattr(dataset, "parse_wav", parse)
        monkeypatch.setattr(dataset, "analyze_clip", analyze_fails)
        for jobs in (1, 2):
            block_pool.futures.clear()
            bad_tried.clear()
            rc = cli.main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "o"), "--jobs", str(jobs)])
            assert rc == 2
            # The first track's error, in manifest order, whichever failed first.
            assert capsys.readouterr().err == f"error [extract]: {small_corpus / track.path}: analyze: boom\n"
            # Every chunk submitted to the block pool has ended.
            assert block_pool.futures and all(future.done() for future in block_pool.futures), jobs

    @pytest.mark.parametrize("command", ["report", "preprocess"])
    def test_output_does_not_depend_on_the_core_count(self, small_corpus, tmp_path, monkeypatch, command):
        outs = []
        for cores in (1, 2):
            monkeypatch.setattr(audio_io, "_cores", lambda: cores)
            out = tmp_path / f"cores{cores}"
            assert cli.main([command, "--manifest", str(small_corpus / "manifest.csv"), "--out", str(out)]) == 0
            outs.append({name: (out / name).read_bytes() for name in declared_files(out)})
        assert len(outs[0]) == (5 + 9 * 5 if command == "report" else 9 + 1)
        assert outs[0] == outs[1]

    def test_each_track_is_parsed_once_the_one_before_is_preprocessed(self, small_corpus, tmp_path, monkeypatch):
        # Tracks run in order at --jobs 1, so the k-th call of each stage is track k.
        events, parsed, resampled, clip_samples = [], [], [], []
        real_parse, real_preprocess, real_resample = dataset.parse_wav, dataset.preprocess, audio_io.resample

        def parse(data):
            k = sum(event == "parse" for event, _ in events)
            # The track before's parsed file, which holds its open file, may not be alive; its
            # clip is, for the analysis.
            events.append(("parse", k))
            if k:
                events.append(("previous track freed", parsed[k - 1]() is None))
            wav = real_parse(data)
            parsed.append(weakref.ref(wav))
            return wav

        def resample(source, rate, window=None):
            out = real_resample(source, rate, window)
            resampled.append(len(out.samples))
            return out

        def preprocess(source, pre):
            clip = real_preprocess(source, pre)
            clip_samples.append(pre.clip_samples)
            events.append(("preprocessed", sum(event == "preprocessed" for event, _ in events)))
            return clip

        monkeypatch.setattr(audio_io, "_cores", lambda: 2)
        monkeypatch.setattr(dataset, "parse_wav", parse)
        monkeypatch.setattr(dataset, "preprocess", preprocess)
        monkeypatch.setattr(audio_io, "resample", resample)
        assert cli.main(["extract", "--manifest", str(small_corpus / "manifest.csv"), "--out", str(tmp_path)]) == 0
        order = [event for event in events if event[0] != "previous track freed"]
        assert order == [("parse", 0)] + [event for k in range(1, 9) for event in
                                          [("preprocessed", k - 1), ("parse", k)]] + [("preprocessed", 8)]
        assert [freed for event, freed in events if event == "previous track freed"] == [True] * 8
        # Each track's resample returned its clip's rows and no others.
        assert len(resampled) == 9 and resampled == clip_samples

    def test_each_track_is_parsed_on_the_calling_thread_when_its_turn_comes(self, small_corpus, tmp_path,
                                                                           monkeypatch):
        parsed, at_analysis = [], []
        real_parse, real_analyze = dataset.parse_wav, dataset.analyze_clip

        def parse(data):
            parsed.append(threading.current_thread() is threading.main_thread())
            return real_parse(data)

        def analyze(clip, spec):
            at_analysis.append(list(parsed))
            return real_analyze(clip, spec)

        # Two block chunks per resample, so that a pool thread is free whenever this thread waits on one.
        monkeypatch.setattr(audio_io, "_cores", lambda: 2)
        monkeypatch.setattr(dataset, "parse_wav", parse)
        monkeypatch.setattr(dataset, "analyze_clip", analyze)
        assert cli.main(["extract", "--manifest", str(small_corpus / "manifest.csv"), "--out", str(tmp_path)]) == 0
        # When track k's analysis starts, tracks 0..k have been parsed, every one on this thread.
        assert at_analysis == [[True] * (k + 1) for k in range(9)]

    @pytest.mark.parametrize("spare_cores", [0, 1])
    def test_file_listed_twice_is_loaded_once_per_listing(self, small_corpus, tmp_path, monkeypatch, spare_cores):
        a, b, c = (small_corpus / rec.path for rec in load_manifest((small_corpus / "manifest.csv").read_text())[:3])
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,game,genre,title\n" + "".join(f"{p},g,action_rpg,t\n" for p in (a, b, a, c)))
        loads, real_parse = [], dataset.parse_wav

        def parse(file):
            loads.append((file.name, threading.current_thread() is threading.main_thread()))
            return real_parse(file)

        monkeypatch.setattr(audio_io, "_cores", lambda: 1 + spare_cores)
        monkeypatch.setattr(dataset, "parse_wav", parse)
        assert cli.main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 0
        assert [name for name, _ in loads] == [str(p) for p in (a, b, a, c)]
        assert [on_main for _, on_main in loads] == [True] * 4
        rows = (tmp_path / "o" / "features.csv").read_text().splitlines()
        assert rows[1] == rows[3]

    @pytest.mark.parametrize("fails", [False, True], ids=["ok", "fails"])
    @pytest.mark.parametrize("command", ["extract", "report", "preprocess"])
    def test_no_helper_work_outlives_the_command(self, small_corpus, tmp_path, monkeypatch, command, fails,
                                                 block_pool):
        # Two tracks of each genre, so that report's split and k=3 fit.
        records = load_manifest((small_corpus / "manifest.csv").read_text())
        rows = [(small_corpus / rec.path, genre.token) for genre in sorted({rec.genre for rec in records})
                for rec in [rec for rec in records if rec.genre == genre][:2]]
        if fails:
            rows.insert(1, (tmp_path / "ghost.wav", rows[0][1]))  # fails at its read
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,game,genre,title\n" + "".join(f"{p},g,{genre},t\n" for p, genre in rows))
        monkeypatch.setattr(audio_io, "_cores", lambda: 2)
        for jobs in ("1", "2"):
            block_pool.futures.clear()
            rc = cli.main([command, "--manifest", str(manifest), "--out", str(tmp_path / jobs), "--jobs", jobs])
            assert rc == (2 if fails else 0)
            assert block_pool.futures and all(future.done() for future in block_pool.futures)

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
        for jobs in ("1", "2"):
            out = tmp_path / f"o{jobs}"
            assert cli.main(["extract", "--manifest", str(manifest), "--out", str(out), "--n-mfcc", "20",
                             "--jobs", jobs]) == 0
            assert (out / "features.csv").read_text() == ",".join(["track_id"] + feature_names(20) + ["genre"]) + "\n"
            assert json.loads((out / "features.json").read_text()) == []
            pre = tmp_path / f"pre{jobs}"
            assert cli.main(["preprocess", "--manifest", str(manifest), "--out", str(pre), "--jobs", jobs]) == 0
            assert (pre / "manifest.csv").read_text() == "path,game,genre,title\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_file_that_shrinks_after_its_header_is_read_is_a_track_error(self, small_corpus, tmp_path,
                                                                         monkeypatch, capsys, jobs):
        track = load_manifest((small_corpus / "manifest.csv").read_text())[0]
        wav, out = tmp_path / "shrinks.wav", tmp_path / "o"
        wav.write_bytes((small_corpus / track.path).read_bytes())
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,game,genre,title\nshrinks.wav,g,action_rpg,t\n")
        assert cli.main(["extract", "--manifest", str(manifest), "--out", str(out)]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*")}
        capsys.readouterr()
        real_parse = dataset.parse_wav

        def parse(file):
            parsed = real_parse(file)
            os.truncate(file.name, wav.stat().st_size // 2)  # half its frames are gone before any is read
            return parsed

        monkeypatch.setattr(dataset, "parse_wav", parse)
        assert cli.main(["extract", "--manifest", str(manifest), "--out", str(out), "--jobs", jobs]) == 2
        assert capsys.readouterr().err == (f"error [extract]: {wav}: preprocess: "
                                           "data chunk cut short: the file shrank after its header was read\n")
        assert {p: p.read_bytes() for p in out.rglob("*")} == before

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("rate", [44100, 48000], ids=["polyphase", "equal-rate"])
    def test_non_finite_float_sample_fails_its_track_wherever_it_sits(self, tmp_path, capsys, rate, jobs):
        # 8 s of float32 stereo and 1 s clips: the clip's rows come from 3.5-4.5 s, and the frame at 7 s lies
        # in a resampler block (or, at 48 kHz, a span of the equal-rate path) that holds none of them.
        x = np.random.default_rng(12).uniform(-0.5, 0.5, (8 * rate, 2)).astype("<f4")
        wav, out = tmp_path / "bad.wav", tmp_path / "o"
        (tmp_path / "good.wav").write_bytes(wav_bytes(x.tobytes(), 3, 2, rate, 32))
        wav.write_bytes(wav_bytes(x.tobytes(), 3, 2, rate, 32))
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,game,genre,title\ngood.wav,g,action_rpg,t\nbad.wav,g,action_rpg,t\n")
        args = ["extract", "--manifest", str(manifest), "--out", str(out), "--clip-seconds", "1", "--jobs", jobs]
        assert cli.main(args) == 0
        before = {p: p.read_bytes() for p in out.rglob("*")}
        capsys.readouterr()
        for at, value in [((0, 0), np.nan), ((7 * rate, 1), np.inf), ((-1, -1), -np.inf)]:
            bad = x.copy()
            bad[at] = value
            wav.write_bytes(wav_bytes(bad.tobytes(), 3, 2, rate, 32))
            assert cli.main(args) == 2, at
            assert capsys.readouterr().err == (f"error [extract]: {wav}: preprocess: "
                                               "data chunk holds NaN or Inf samples\n")
            assert {p: p.read_bytes() for p in out.rglob("*")} == before

    @pytest.mark.parametrize("rate", [44100, 48000], ids=["polyphase", "equal-rate"])
    def test_float64_mixdown_overflow_fails_its_track_with_one_line_and_no_warning(self, tmp_path, rate):
        # A fresh interpreter, so that a numpy RuntimeWarning would reach its stderr as it would a user's.
        x = np.random.default_rng(13).uniform(-0.5, 0.5, (2 * rate, 2))
        wav, out = tmp_path / "loud.wav", tmp_path / "o"
        wav.write_bytes(wav_bytes(x.astype("<f8").tobytes(), 3, 2, rate, 64))
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,game,genre,title\nloud.wav,g,action_rpg,t\n")
        args = ["-m", "vgmfeat", "extract", "--manifest", str(manifest), "--out", str(out), "--clip-seconds", "1"]
        assert run_child(args).returncode == 0
        before = tree(out)
        x[rate // 3] = 1.7e308  # finite samples whose sum is not
        wav.write_bytes(wav_bytes(x.astype("<f8").tobytes(), 3, 2, rate, 64))
        child = run_child(args)
        assert (child.returncode, child.stderr) == (2, f"error [extract]: {wav}: preprocess: channel mixdown "
                                                       "overflows: float samples sum past the float64 range\n")
        assert tree(out) == before

    def test_reading_the_whole_file_where_there_are_no_positional_reads_gives_the_same_table(
            self, small_corpus, tmp_path, monkeypatch):
        real_parse, sources = dataset.parse_wav, []

        def parse(source):
            sources.append(type(source))
            return real_parse(source)

        monkeypatch.setattr(dataset, "parse_wav", parse)
        tables = []
        for positional in (True, False):
            if not positional:
                monkeypatch.delattr(os, "preadv")  # as on Windows
            out = tmp_path / str(positional)
            assert cli.main(["extract", "--manifest", str(small_corpus / "manifest.csv"), "--out", str(out)]) == 0
            tables.append((out / "features.csv").read_bytes())
        assert bytes not in sources[:9] and sources[9:] == [bytes] * 9
        assert tables[0] == tables[1]

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


def report_files(corpus):
    """Every file `report` declares for the corpus, by name, with 1 s clips."""
    with tempfile.TemporaryDirectory() as out:
        assert cli.main(["report", "--manifest", str(Path(corpus) / "manifest.csv"), "--out", out,
                         "--clip-seconds", "1"]) == 0
        return {name: (Path(out) / name).read_bytes() for name in declared_files(out)}


class TestMetamorphicReports:
    """Inputs that give every preprocessed clip the same bits give the same report files.

    A scale by a power of two commutes with every rounding in the chain and the
    gain undoes it, a pcm16 sample is exact in float32, and the mean of equal
    pcm16 channels is that channel. Between them these pin the mixdown order,
    the gain and the resampler's block grid.
    """

    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        """A 9-track pcm16 corpus, each track's integer samples, and its report files."""
        d = tmp_path_factory.mktemp("metamorphic")
        write_corpus(d, seed=5, games_per_genre=1, tracks_per_game=3, duration_s=2.0)
        ints = {rec.path: np.round(decode_wav((d / rec.path).read_bytes()).samples * 2**15).astype(int)
                for rec in load_manifest((d / "manifest.csv").read_text())}
        return d, ints, report_files(d)

    @staticmethod
    def variant(base, encode):
        """report_files of the base corpus with each track re-encoded as encode(integer samples)."""
        corpus, ints, _ = base
        with tempfile.TemporaryDirectory() as d:
            (Path(d) / "manifest.csv").write_bytes((corpus / "manifest.csv").read_bytes())
            for name, k in ints.items():
                (Path(d) / name).write_bytes(encode(k))
            return report_files(d)

    @settings(derandomize=True, max_examples=4, deadline=None)
    @example(exponent=-3)
    @example(exponent=0)  # the pcm16 tracks re-encoded as float32
    @given(exponent=st.integers(-40, 40))
    def test_float32_scaled_by_a_power_of_two(self, base, exponent):
        got = self.variant(base, lambda k: wav_bytes((k * 2.0 ** (exponent - 15)).astype("<f4").tobytes(),
                                                     3, 1, 44100, 32))
        assert got == base[2]

    @settings(derandomize=True, max_examples=3, deadline=None)
    @example(channels=2)
    @given(channels=st.integers(2, 5))
    def test_equal_channels_mix_down_to_their_mono_source(self, base, channels):
        got = self.variant(base, lambda k: wav_bytes(pcm_bytes(np.repeat(k[:, None], channels, axis=1), 16),
                                                     1, channels, 44100, 16))
        assert got == base[2]


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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_fails_and_leaves_out_as_it_was(self, tmp_path, capsys, cell):
        from vgmfeat.dataset import LabeledDataset, write_feature_table_csv

        rng = np.random.default_rng(56)
        labels = np.arange(9) % 3
        ds = LabeledDataset(rng.standard_normal((9, 43)), labels, [f"t{i}" for i in range(9)], feature_names())
        csv_path = tmp_path / "features.csv"
        csv_path.write_text(write_feature_table_csv(ds))
        out = tmp_path / "cls"
        assert cli.main(["classify", "--features-csv", str(csv_path), "--out", str(out), "--k", "1"]) == 0
        before = {path: path.read_bytes() for path in out.iterdir()}
        lines = csv_path.read_text().splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[1 + feature_names().index("mfcc_mean_3")] = cell
        lines[1] = ",".join(cells)  # t0, which the default split trains on
        csv_path.write_text("".join(lines))
        capsys.readouterr()
        assert cli.main(["classify", "--features-csv", str(csv_path), "--out", str(out), "--k", "1"]) == 2
        assert f"feature table row 2, column mfcc_mean_3: '{cell}' is not finite" in capsys.readouterr().err
        assert {path: path.read_bytes() for path in out.iterdir()} == before

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


def tree(root):
    """Every path under root, with its bytes, or None for a directory."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
            for p in sorted(Path(root).rglob("*"))}


def manifest_of(corpus, tmp_path, n, extra_rows=()):
    """A manifest in tmp_path of the corpus's first n tracks, by absolute path, then extra_rows."""
    rows = [f"{corpus / rec.path},{rec.game},{rec.genre.token},{rec.title}"
            for rec in load_manifest((corpus / "manifest.csv").read_text())[:n]]
    path = tmp_path / f"first{n}.csv"
    path.write_text("path,game,genre,title\n" + "".join(row + "\n" for row in [*rows, *extra_rows]))
    return path


class TestStagedCommit:
    """Outputs go to <out>/.vgmfeat-<pid>/ and are moved into --out only once every one is written."""

    @pytest.mark.parametrize("command", ["preprocess", "extract", "summarize", "classify", "report"])
    def test_no_staging_directory_is_left(self, small_corpus, tmp_path, command):
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            assert cli.main([command, "--manifest", str(small_corpus / "manifest.csv"), "--out", str(out),
                             "--clip-seconds", "1", "--jobs", jobs]) == 0
            assert [p.name for p in out.iterdir() if p.name.startswith(".vgmfeat-")] == []
            on_disk = {name for name, data in tree(out).items() if data is not None}
            assert on_disk == set(declared_files(out)) | {"run_manifest.json"}

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_run_leaves_out_unchanged(self, small_corpus, tmp_path, capsys, jobs):
        out = tmp_path / "out"
        common = ["report", "--out", str(out), "--clip-seconds", "1", "--jobs", jobs]
        assert cli.main(common + ["--manifest", str(small_corpus / "manifest.csv")]) == 0
        before = tree(out)
        capsys.readouterr()
        # Every track but the last succeeds, and with other flags, so that a commit would change every file.
        manifest = manifest_of(small_corpus, tmp_path, 9, [f"{tmp_path / 'ghost.wav'},g,action_rpg,t"])
        assert cli.main(common + ["--manifest", str(manifest), "--n-mfcc", "12"]) == 2
        assert "ghost.wav: read: " in capsys.readouterr().err
        assert tree(out) == before

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_rename_failing_midway_leaves_each_file_old_or_new(self, small_corpus, tmp_path, monkeypatch, jobs):
        common = ["report", "--manifest", str(small_corpus / "manifest.csv"), "--clip-seconds", "1", "--jobs", jobs]
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert cli.main(common + ["--out", str(out)]) == 0
        assert cli.main(common + ["--out", str(fresh), "--n-mfcc", "12"]) == 0
        old, new = tree(out), tree(fresh)
        real_replace, moved = os.replace, []

        def replace(src, dst):
            if len(moved) == 10:
                raise OSError("rename failed")
            real_replace(src, dst)
            moved.append(dst)

        monkeypatch.setattr(os, "replace", replace)
        assert cli.main(common + ["--out", str(out), "--n-mfcc", "12"]) == 2
        monkeypatch.undo()
        got = tree(out)
        assert set(got) == set(old) == set(new)  # no staging directory either
        assert all(got[name] in (old[name], new[name]) for name in got)
        # The first files were moved, the last track's series and the run manifest were not.
        last_mfcc = sorted(name for name in got if name.endswith("_mfcc.csv"))[-1]
        assert got["features.csv"] == new["features.csv"] != old["features.csv"]
        assert got[last_mfcc] == old[last_mfcc] != new[last_mfcc]

    def test_extract_after_summarize_removes_the_files_it_replaces(self, small_corpus, tmp_path):
        flags = ["--manifest", str(small_corpus / "manifest.csv"), "--clip-seconds", "1"]
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert cli.main(["summarize", "--out", str(out), *flags]) == 0
        assert len(declared_files(out)) == 1 + 9 * 5
        (out / "notes.txt").write_text("mine")  # listed by no manifest
        assert cli.main(["extract", "--out", str(out), *flags]) == 0
        assert cli.main(["extract", "--out", str(fresh), *flags]) == 0
        # genre_summary.csv and the series are gone, and so is the series directory they emptied.
        assert tree(out) == {**tree(fresh), "notes.txt": b"mine"}

    def test_chained_runs_keep_the_inputs_they_read_from_out(self, small_corpus, tmp_path):
        out, flags = tmp_path / "out", ["--clip-seconds", "1"]
        assert cli.main(["preprocess", "--manifest", str(small_corpus / "manifest.csv"), "--out", str(out)]) == 0
        wavs = declared_files(out)
        before = tree(out)
        # extract reads the WAVs and manifest.csv that preprocess listed: they are inputs, not stale files.
        assert cli.main(["extract", "--manifest", str(out / "manifest.csv"), "--out", str(out), *flags]) == 0
        assert all(tree(out)[name] == before[name] for name in wavs)
        assert cli.main(["report", "--manifest", str(out / "manifest.csv"), "--out", str(out), *flags]) == 0
        table = (out / "features.csv").read_bytes()
        # classify reads the features.csv that report listed; features.json it neither read nor wrote.
        assert cli.main(["classify", "--features-csv", str(out / "features.csv"), "--out", str(out)]) == 0
        assert (out / "features.csv").read_bytes() == table
        assert not (out / "features.json").exists() and not (out / "series").exists()
        assert all(tree(out)[name] == before[name] for name in wavs)

    def test_unreadable_run_manifest_fails_before_any_move(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["extract", "--manifest", str(small_corpus / "manifest.csv"), "--clip-seconds", "1", "--out", str(out)]
        assert cli.main(args) == 0
        (out / "run_manifest.json").unlink()
        (out / "run_manifest.json").mkdir()
        before = tree(out)
        capsys.readouterr()
        assert cli.main(args + ["--n-mfcc", "12"]) == 2
        assert "run_manifest.json" in capsys.readouterr().err
        assert tree(out) == before

    def test_listed_names_outside_out_are_never_removed(self, small_corpus, tmp_path):
        out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
        (out / "series").mkdir(parents=True)
        (out / "series" / "old.csv").write_text("stale")
        elsewhere.mkdir()
        (elsewhere / "x.csv").write_text("keep")
        (out / "link").symlink_to(elsewhere, target_is_directory=True)
        (out / "file_link.csv").symlink_to(elsewhere / "x.csv")
        outside, absolute = tmp_path / "outside.txt", tmp_path / "absolute.txt"
        for path in (outside, absolute):
            path.write_text("keep")
        listed = ["../outside.txt", str(absolute), "series/../../outside.txt", "series", "", 7, "series//old.csv",
                  "link/x.csv", "file_link.csv", "./features.csv", "features.json"]
        (out / "run_manifest.json").write_text(json.dumps({"command": "summarize", "files": listed}))
        args = ["extract", "--manifest", str(small_corpus / "manifest.csv"), "--clip-seconds", "1", "--out", str(out)]
        assert cli.main(args) == 0
        assert outside.read_text() == absolute.read_text() == (elsewhere / "x.csv").read_text() == "keep"
        assert (out / "file_link.csv").is_symlink()
        assert not (out / "series").exists()
        # ./features.csv names the features.csv this run wrote.
        assert (out / "features.csv").is_file() and (out / "features.json").is_file()
        # A manifest that is not JSON lists nothing.
        (out / "run_manifest.json").write_text("not json")
        assert cli.main(args) == 0
        assert declared_files(out) == ["features.csv", "features.json"]


class TestOutputMemory:
    # Runs command on manifests in turn, in a fresh interpreter, so that no earlier test's state
    # is traced, each under tracemalloc with 25 frames. Prints each run's traced peak and the
    # largest growths from the second run's end to the last run's end.
    CHILD = """
import json, sys, tracemalloc
from vgmfeat import audio_io, cli
audio_io._cores = lambda: 1  # one block chunk per resample, on any host
command, out, *manifests = sys.argv[1:]
peaks, snapshots = [], []
for k, manifest in enumerate(manifests):
    tracemalloc.start(25)
    try:
        assert cli.main([command, "--manifest", manifest, "--out", f"{out}/{k}"]) == 0
        peaks.append(tracemalloc.get_traced_memory()[1])
        snapshots.append(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
growth = snapshots[-1].compare_to(snapshots[1], "traceback")[:5]
print(json.dumps({"peaks": peaks, "growth": ["\\n".join([str(stat), *stat.traceback.format()]) for stat in growth]}))
"""

    @pytest.mark.parametrize("command, first_track", [("summarize", "series/000_*"), ("preprocess", "000_*.wav")])
    def test_peak_grows_by_less_than_one_track_of_outputs(self, small_corpus, tmp_path, command, first_track):
        # Each track's outputs are written as soon as it is done: 9 tracks peak no higher than 1
        # but for the table and the file names. Holding them until the last track adds 8 tracks.
        # The first run fills first-call caches, such as the FFT plan.
        manifests = [str(manifest_of(small_corpus, tmp_path, n)) for n in (1, 1, 9)]
        proc = run_child(["-c", self.CHILD, command, str(tmp_path / "out"), *manifests])
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        one, nine = result["peaks"][1:]
        one_track = sum(path.stat().st_size for path in (tmp_path / "out" / "1").glob(first_track))
        assert nine - one <= one_track, (f"{one / 1e6:.2f} -> {nine / 1e6:.2f} MB; largest growths:\n"
                                         + "\n".join(result["growth"]))


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

    def test_clip_of_no_sample_rejected_before_any_track_is_read(self, small_corpus, tmp_path, monkeypatch,
                                                                  capsys):
        # 0.00001 s is 0.48 samples at 48 kHz, which round to none: a clip of no sample cannot be written.
        monkeypatch.setattr(dataset, "parse_wav", lambda data: pytest.fail("a track was read"))
        out = tmp_path / "out"
        rc = cli.main(["preprocess", "--manifest", str(small_corpus / "manifest.csv"), "--out", str(out),
                       "--clip-seconds", "0.00001"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: clip_duration_s must give a finite sample count of at least 1")
        assert not out.exists()

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

    # An empty list of families would select every column.
    @pytest.mark.parametrize("families", ["tempo,bogus", "", ",", " , "])
    @pytest.mark.parametrize("command", ["classify", "report"])
    def test_unknown_feature_family_before_extraction(self, small_corpus, tmp_path, monkeypatch, capsys, command,
                                                      families):
        monkeypatch.setattr(dataset, "parse_wav", lambda data: pytest.fail("a track was read"))
        out = tmp_path / "out"
        rc = cli.main([command, "--manifest", str(small_corpus / "manifest.csv"), "--out", str(out),
                       "--features", families])
        assert rc == 1
        assert "--features: must be comma-separated names from tempo,zcr," in capsys.readouterr().err
        assert not out.exists()

    # 9 tracks, 3 per genre: the default split trains on 6, each leave-one-out fold on 8.
    # A header-only manifest has no tracks to split.
    @pytest.mark.parametrize("flags, message, empty", [
        (["--k", "100"], "k must be in [1, 6], got 100", False),
        (["--protocol", "loocv", "--k", "100"], "k must be in [1, 8], got 100", False),
        (["--test-fraction", "0.01"], "class adventure_rpg with 3 tracks cannot give 0 test and 3 train items", False),
        ([], "no tracks to split", True),
    ], ids=["k", "loocv-k", "test-fraction", "empty"])
    @pytest.mark.parametrize("command", ["classify", "report"])
    def test_evaluation_size_errors_before_extraction(self, small_corpus, tmp_path, monkeypatch, capsys,
                                                      command, flags, message, empty):
        def extract_track(*args):
            raise AssertionError("a track was extracted")

        manifest = small_corpus / "manifest.csv"
        if empty:
            manifest = tmp_path / "m.csv"
            manifest.write_text("path,game,genre,title\n")
        monkeypatch.setattr(cli, "extract_track", extract_track)
        out = tmp_path / "out"
        rc = cli.main([command, "--manifest", str(manifest), "--out", str(out), *flags])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

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

    @pytest.mark.parametrize("command", ["synth-corpus", "preprocess", "extract"])
    def test_out_that_is_a_file_is_a_data_error(self, small_corpus, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("")
        manifest = [] if command == "synth-corpus" else ["--manifest", str(small_corpus / "manifest.csv")]
        assert cli.main([command, "--out", str(out), *manifest]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error [{command}]: ") and str(out) in err
        assert out.read_text() == ""

    def test_help_exits_zero(self):
        assert cli.main(["--help"]) == 0

    def test_hidden_command_not_advertised(self, capsys):
        cli.main(["--help"])
        out = capsys.readouterr().out
        assert "synth-corpus" not in out
        assert "classify" in out


# Neither locale coercion nor Python's UTF-8 mode: the locale's encoding, and the file
# system's, is ASCII.
ASCII_LOCALE = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}


@pytest.mark.skipif(sys.platform == "win32", reason="the C locale is POSIX")
class TestTextEncoding:
    """Manifests and text outputs are UTF-8 with \\n newlines whatever the locale."""

    @pytest.fixture(scope="class")
    def japanese_corpus(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("japanese_corpus")
        write_corpus(d, seed=3, games_per_genre=1, tracks_per_game=1, duration_s=2.0)
        text = (d / "manifest.csv").read_text(encoding="utf-8")
        (d / "action_rpg_game1_track1.wav").rename(d / fs_name("戦闘曲.wav"))  # under an ASCII locale too
        text = text.replace("action_rpg_game1_track1.wav", "戦闘曲.wav").replace("theme 1", "テーマ")
        (d / "manifest.csv").write_text(text, encoding="utf-8")
        # As Excel's "CSV UTF-8" saves it: the same text after a byte order mark.
        (d / "bom.csv").write_text(text, encoding="utf-8-sig")
        return d

    @staticmethod
    def run(args, locale_env):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, **locale_env}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "vgmfeat", *args], env=env, capture_output=True)

    @pytest.mark.parametrize("command", ["preprocess", "extract", "summarize"])
    def test_ascii_locale_gives_the_same_bytes(self, japanese_corpus, tmp_path, command):
        outputs = []
        for name, locale_env in (("default", {}), ("ascii", ASCII_LOCALE)):
            out = tmp_path / name
            proc = self.run([command, "--manifest", str(japanese_corpus / "manifest.csv"), "--out", str(out),
                             "--clip-seconds", "1"], locale_env)
            assert proc.returncode == 0, proc.stderr
            files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
            outputs.append((files, proc.stdout.replace(str(out).encode(), b"OUT")))
        assert outputs[0] == outputs[1]
        files, stdout = outputs[0]
        # The name reaches the outputs as UTF-8: in a CSV, or in the names of the files written.
        assert "戦闘曲".encode() in b"".join(files.values()) + stdout
        assert not any(b"\r" in data for path, data in files.items() if path.suffix != ".wav")

    def test_error_line_gives_the_same_bytes(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,game,genre,title\nenc/無い.wav,g,action_rpg,t\n", encoding="utf-8")
        track = tmp_path / "enc" / "無い.wav"
        want = f"error [extract]: {track}: read: [Errno 2] No such file or directory: '{track}'\n".encode()
        for locale_env in ({}, ASCII_LOCALE):
            proc = self.run(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "o")], locale_env)
            assert (proc.returncode, proc.stderr) == (2, want), locale_env

    def test_manifest_with_byte_order_mark(self, japanese_corpus, tmp_path):
        outs = []
        for manifest in ("manifest.csv", "bom.csv"):
            out = tmp_path / manifest
            proc = self.run(["extract", "--manifest", str(japanese_corpus / manifest), "--out", str(out),
                             "--clip-seconds", "1"], ASCII_LOCALE)
            assert proc.returncode == 0, proc.stderr
            outs.append((out / "features.csv").read_bytes())
        assert outs[0] == outs[1] and outs[0].startswith(b"track_id,")


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
