import numpy as np
import pytest
from hypothesis import given, strategies as st

from vgmfeat.audio_io import AudioBuffer, PreprocessSpec, encode_wav
from vgmfeat.dataset import (
    GenreLabel,
    TrackFeatures,
    TrackRecord,
    analyze_clip,
    extract_track,
    feature_names,
    feature_table_json,
    frame_series_csv,
    load_manifest,
    read_feature_table_csv,
    select_features,
    summarize_by_genre,
    write_feature_table_csv,
    write_genre_summary_csv,
)
from vgmfeat.errors import TrackError
from vgmfeat.synth import make_click_track, write_corpus

from conftest import sine

GENRES = ("adventure_rpg", "action_rpg", "strategy_rpg")


def manifest_text(rows):
    return "path,game,genre,title\n" + "\n".join(",".join(r) for r in rows) + "\n"


class TestGenreLabel:
    def test_stable_codes(self):
        assert [int(g) for g in GenreLabel] == [0, 1, 2]
        assert GenreLabel.from_token("Adventure_RPG") is GenreLabel.ADVENTURE_RPG
        assert GenreLabel.ADVENTURE_RPG.token == "adventure_rpg"

    def test_unknown_token(self):
        with pytest.raises(ValueError):
            GenreLabel.from_token("roguelike")


class TestLoadManifest:
    def test_corpus_shape_preserved_in_order(self):
        rows = [
            (f"g{g}_game{i}_t{j}.wav", f"game{g}{i}", GENRES[g], f"t{j}")
            for g in range(3)
            for i in range(3)
            for j in range(3)
        ]
        records = load_manifest(manifest_text(rows))
        assert len(records) == 27
        assert [r.path for r in records] == [r[0] for r in rows]
        assert [r.genre.token for r in records] == [r[2] for r in rows]

    def test_header_only_is_empty(self):
        assert load_manifest("path,game,genre,title\n") == []

    def test_unknown_genre_names_row(self):
        text = manifest_text([("a.wav", "g", "adventure_rpg", "t"), ("b.wav", "g", "roguelike", "t")])
        with pytest.raises(ValueError, match="row 3"):
            load_manifest(text)
        with pytest.raises(ValueError, match="row 2"):
            load_manifest(manifest_text([("a.wav", "g", "roguelike", "t")]))

    def test_missing_column_is_schema_error(self):
        with pytest.raises(ValueError, match="header"):
            load_manifest("path,game,genre\na.wav,g,adventure_rpg\n")

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="row 2"):
            load_manifest(manifest_text([("", "g", "action_rpg", "t")]))

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError):
            load_manifest("")


class TestTrackFeatures:
    def test_vector_round_trip(self):
        rng = np.random.default_rng(20)
        vec = rng.standard_normal(43)
        feats = TrackFeatures.from_vector(vec)
        np.testing.assert_array_equal(feats.as_vector(), vec)
        assert len(feature_names()) == 43

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            TrackFeatures.from_vector(np.zeros(10))

    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_round_trip_any_n_mfcc(self, n_mfcc, seed):
        vec = np.random.default_rng(seed).standard_normal(17 + 2 * n_mfcc)
        feats = TrackFeatures.from_vector(vec)
        assert len(feats.mfcc_mean) == len(feats.mfcc_range) == n_mfcc
        np.testing.assert_array_equal(feats.as_vector(), vec)

    @given(st.integers(0, 100).filter(lambda n: n < 19 or (n - 17) % 2))
    def test_invalid_lengths_rejected(self, length):
        with pytest.raises(ValueError):
            TrackFeatures.from_vector(np.zeros(length))


class TestExtractTrack:
    def test_click_track_tempo(self, tmp_path):
        buf = make_click_track(120.0, 30.0, 44100, rng=np.random.default_rng(21))
        path = tmp_path / "clicks.wav"
        path.write_bytes(encode_wav(buf, "pcm16"))
        rec = TrackRecord(str(path), "g", GenreLabel.ACTION_RPG, "t")
        feats = extract_track(rec)
        assert 118.0 <= feats.tempo_bpm <= 122.0
        assert len(feats.as_vector()) == 43

    def test_pure_tone_chroma_and_zcr(self, tmp_path):
        buf = AudioBuffer(sine(440.0, 16.0, 48000), 48000)
        path = tmp_path / "tone.wav"
        path.write_bytes(encode_wav(buf, "float32"))
        rec = TrackRecord("tone.wav", "g", GenreLabel.ADVENTURE_RPG, "t")
        feats = extract_track(rec, base_dir=str(tmp_path))
        assert feats.chroma_mean.argmax() == 9  # pitch class A
        assert feats.zcr_std < 1e-3

    def test_silent_file_error_carries_path_and_stage(self, tmp_path):
        path = tmp_path / "silent.wav"
        path.write_bytes(encode_wav(AudioBuffer(np.zeros(20 * 48000), 48000), "pcm16"))
        rec = TrackRecord(str(path), "g", GenreLabel.ADVENTURE_RPG, "t")
        with pytest.raises(TrackError) as err:
            extract_track(rec)
        assert "silent.wav" in str(err.value)
        assert err.value.stage == "preprocess"

    def test_missing_file_error(self):
        rec = TrackRecord("/nonexistent/nope.wav", "g", GenreLabel.ACTION_RPG, "t")
        with pytest.raises(TrackError) as err:
            extract_track(rec)
        assert "nope.wav" in str(err.value)
        assert err.value.stage == "read"

    def test_deterministic(self, tmp_path):
        buf = make_click_track(95.0, 16.0, 44100, rng=np.random.default_rng(22))
        buf = AudioBuffer(buf.samples + sine(330.0, 16.0, 44100, 0.3), 44100)
        path = tmp_path / "mix.wav"
        path.write_bytes(encode_wav(buf, "pcm16"))
        rec = TrackRecord(str(path), "g", GenreLabel.STRATEGY_RPG, "t")
        a = extract_track(rec).as_vector()
        b = extract_track(rec).as_vector()
        np.testing.assert_array_equal(a, b)


class TestSummarizeByGenre:
    def test_single_track_per_genre(self):
        rng = np.random.default_rng(23)
        pairs = [(TrackFeatures.from_vector(rng.standard_normal(43)), g) for g in GenreLabel]
        summary = summarize_by_genre(pairs)
        assert [g for g in summary.genres] == list(GenreLabel)
        for i, (feats, _) in enumerate(pairs):
            np.testing.assert_array_equal(summary.mean[i], feats.as_vector())
            np.testing.assert_array_equal(summary.minimum[i], feats.as_vector())
            np.testing.assert_array_equal(summary.maximum[i], feats.as_vector())
            np.testing.assert_array_equal(summary.std[i], 0.0)
        np.testing.assert_array_equal(summary.range_width, 0.0)

    def test_identical_tracks_have_zero_std(self):
        vec = np.arange(43, dtype=np.float64)
        pairs = [(TrackFeatures.from_vector(vec), GenreLabel.ACTION_RPG)] * 2
        summary = summarize_by_genre(pairs)
        np.testing.assert_array_equal(summary.std, 0.0)
        assert summary.track_counts.tolist() == [2]

    def test_matches_independent_aggregation(self):
        rng = np.random.default_rng(24)
        vectors = rng.standard_normal((27, 43))
        labels = [GenreLabel(i % 3) for i in range(27)]
        pairs = [(TrackFeatures.from_vector(v), g) for v, g in zip(vectors, labels)]
        summary = summarize_by_genre(pairs)
        for gi, genre in enumerate(GenreLabel):
            block = np.array([v for v, g in zip(vectors, labels) if g == genre])
            for j in range(43):
                col = sorted(block[:, j])
                mean = sum(col) / len(col)
                var = sum((v - mean) ** 2 for v in col) / len(col)
                assert abs(summary.mean[gi, j] - mean) < 1e-12
                assert abs(summary.std[gi, j] - var**0.5) < 1e-12
                assert summary.minimum[gi, j] == col[0]
                assert summary.maximum[gi, j] == col[-1]
        assert summary.track_counts.sum() == 27

    def test_permutation_invariant(self):
        rng = np.random.default_rng(25)
        vectors = rng.standard_normal((12, 43))
        labels = [GenreLabel(i % 3) for i in range(12)]
        pairs = [(TrackFeatures.from_vector(v), g) for v, g in zip(vectors, labels)]
        a = summarize_by_genre(pairs)
        order = rng.permutation(12)
        b = summarize_by_genre([pairs[i] for i in order])
        np.testing.assert_allclose(a.mean, b.mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(a.std, b.std, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(a.minimum, b.minimum)
        np.testing.assert_array_equal(a.maximum, b.maximum)

    def test_invariants(self):
        rng = np.random.default_rng(26)
        pairs = [
            (TrackFeatures.from_vector(rng.standard_normal(43)), GenreLabel(int(rng.integers(3))))
            for _ in range(20)
        ]
        summary = summarize_by_genre(pairs)
        assert np.all(summary.minimum <= summary.mean + 1e-12)
        assert np.all(summary.mean <= summary.maximum + 1e-12)
        assert summary.track_counts.sum() == 20

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_by_genre([])


class TestSerialization:
    def rows(self, n=6):
        rng = np.random.default_rng(27)
        return [
            (
                f"track_{i}.wav",
                TrackFeatures.from_vector(rng.standard_normal(43) * 100),
                GenreLabel(i % 3),
            )
            for i in range(n)
        ]

    def test_csv_round_trip_is_byte_identical(self):
        rows = self.rows()
        text = write_feature_table_csv(rows)
        ds = read_feature_table_csv(text)
        rebuilt = write_feature_table_csv(
            [
                (tid, TrackFeatures.from_vector(ds.matrix[i]), GenreLabel(int(ds.labels[i])))
                for i, tid in enumerate(ds.track_ids)
            ]
        )
        assert rebuilt == text

    def test_csv_header_and_labels(self):
        text = write_feature_table_csv(self.rows())
        header = text.splitlines()[0].split(",")
        assert header[0] == "track_id"
        assert header[-1] == "genre"
        assert header[1:-1] == feature_names()
        ds = read_feature_table_csv(text)
        assert ds.matrix.shape == (6, 43)
        assert ds.labels.tolist() == [0, 1, 2, 0, 1, 2]

    def test_json_mirrors_schema(self):
        import json

        rows = self.rows(3)
        entries = json.loads(feature_table_json(rows))
        assert len(entries) == 3
        assert list(entries[0].keys()) == ["track_id"] + feature_names() + ["genre"]
        assert entries[1]["genre"] == "action_rpg"

    def test_summary_csv_shape(self):
        rows = self.rows(9)
        summary = summarize_by_genre([(f, g) for _, f, g in rows])
        text = write_genre_summary_csv(summary)
        lines = text.splitlines()
        assert len(lines) == 4  # header + one row per genre
        assert lines[0].startswith("genre,track_count,tempo_bpm_mean,tempo_bpm_std")
        assert lines[1].split(",")[0] == "adventure_rpg"
        assert lines[1].split(",")[1] == "3"

    def test_frame_series_csv(self, tmp_path):
        buf = AudioBuffer(sine(440.0, 1.0, 48000), 48000)
        _, series = analyze_clip(buf)
        chroma_csv = frame_series_csv(series["chroma"])
        lines = chroma_csv.splitlines()
        assert lines[0] == "frame," + ",".join(f"chroma_{pc}" for pc in
                                               ("c", "cs", "d", "ds", "e", "f", "fs", "g", "gs", "a", "as", "b"))
        assert len(lines) == 1 + series["chroma"].n_frames
        zcr_csv = frame_series_csv(series["zcr"])
        assert zcr_csv.splitlines()[0] == "frame,zcr"


class TestSelectFeatures:
    def test_family_selection(self):
        rows = self.make_rows()
        ds = read_feature_table_csv(write_feature_table_csv(rows))
        subset = select_features(ds, ["tempo", "chroma"])
        assert subset.matrix.shape == (4, 13)
        assert subset.feature_names[0] == "tempo_bpm"
        assert all(n.startswith(("tempo", "chroma")) for n in subset.feature_names)
        mfcc_only = select_features(ds, ["mfcc"])
        assert mfcc_only.matrix.shape == (4, 26)

    def test_unknown_family_rejected(self):
        ds = read_feature_table_csv(write_feature_table_csv(self.make_rows()))
        with pytest.raises(ValueError):
            select_features(ds, ["spectral_flatness"])

    def make_rows(self):
        rng = np.random.default_rng(28)
        return [
            (f"t{i}", TrackFeatures.from_vector(rng.standard_normal(43)), GenreLabel(i % 3))
            for i in range(4)
        ]


class TestEndToEndCorpus:
    def test_small_corpus_extracts(self, tmp_path):
        manifest = write_corpus(tmp_path, seed=3, games_per_genre=1, tracks_per_game=1, duration_s=16.0)
        records = load_manifest(manifest.read_text())
        assert len(records) == 3
        spec = PreprocessSpec()
        for rec in records:
            feats = extract_track(rec, spec, base_dir=str(tmp_path))
            vec = feats.as_vector()
            assert np.all(np.isfinite(vec))
            assert 0.0 <= feats.zcr_mean <= 1.0
