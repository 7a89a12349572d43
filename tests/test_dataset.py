import mmap
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vgmfeat import audio_io, cli, dataset
from vgmfeat.audio_io import AudioBuffer, PreprocessSpec, encode_wav, parse_wav, preprocess
from vgmfeat.dataset import (
    AnalysisSpec,
    GenreLabel,
    LabeledDataset,
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
from vgmfeat.features import (
    PITCH_CLASSES,
    FrameSeries,
    chroma,
    mfcc,
    min_clip_samples,
    spectral_centroid,
    tempo_from_spectrogram,
)
from vgmfeat.spectral import (
    STFT_BLOCK_FRAMES,
    WINDOW_FUNCTIONS,
    StftParams,
    apply_filterbank,
    mel_filterbank,
    stft,
)
from vgmfeat.synth import make_click_track, write_corpus

from conftest import pcm_bytes, sine, wav_bytes
from reference import one_shot_analysis, savetxt_series_csv

GENRES = ("adventure_rpg", "action_rpg", "strategy_rpg")


def manifest_text(rows):
    return "path,game,genre,title\n" + "\n".join(",".join(r) for r in rows) + "\n"


def table(matrix, labels):
    """A LabeledDataset over the 43 default columns, tracks named t0, t1, ..."""
    matrix = np.asarray(matrix, dtype=np.float64).reshape(len(labels), 43)
    return LabeledDataset(matrix, np.array([int(g) for g in labels], dtype=int),
                          [f"t{i}" for i in range(len(labels))], feature_names())


def by_name(row, n_mfcc=13):
    """A feature row as a dict keyed by feature_names(n_mfcc)."""
    return dict(zip(feature_names(n_mfcc), row, strict=True))


class TestAnalysisSpec:
    @pytest.mark.parametrize("counts, message", [
        ({"n_mfcc": 0}, "n_mfcc must be >= 1, got 0"),
        ({"n_mels": 0, "n_mfcc": 0}, "n_mels must be >= 1, got 0"),
        ({"n_mels": -3}, "n_mels must be >= 1, got -3"),
        ({"n_mfcc": 14, "n_mels": 13}, "n_mfcc must be <= n_mels"),
    ])
    def test_counts_checked_at_construction(self, counts, message):
        with pytest.raises(ValueError, match=message):
            AnalysisSpec(**counts)

    def test_one_band_one_coefficient_is_accepted(self):
        assert AnalysisSpec(n_mfcc=1, n_mels=1).n_mels == 1


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


class TestFeatureRow:
    """analyze_clip's row holds, under each feature_names column, the statistic of that column's series."""

    @pytest.fixture(scope="class")
    def clip(self):
        buf = make_click_track(120.0, 8.0, 48000, rng=np.random.default_rng(20))
        return AudioBuffer(buf.samples + sine(330.0, 8.0, 48000, 0.3), 48000)

    @pytest.mark.parametrize("n_mfcc", [1, 13, 20])
    def test_columns_are_the_statistics_of_their_series(self, clip, n_mfcc):
        spec = AnalysisSpec(n_mfcc=n_mfcc)
        row, series = analyze_clip(clip, spec)
        assert row.dtype == np.float64
        feats = by_name(row, n_mfcc)
        assert feats["tempo_bpm"] == tempo_from_spectrogram(stft(clip, spec.stft)).bpm
        for kind, unit in (("zcr", ""), ("centroid", "_hz")):
            values = series[kind].values
            assert feats[f"{kind}_mean{unit}"] == values.mean()
            assert feats[f"{kind}_std{unit}"] == values.std()
        chroma_means = series["chroma"].values.mean(axis=1)
        for i, pc in enumerate(PITCH_CLASSES):
            assert feats[f"chroma_mean_{pc}"] == chroma_means[i]
        ceps = series["mfcc"].values
        assert ceps.shape[0] == n_mfcc
        for i in range(n_mfcc):
            assert feats[f"mfcc_mean_{i}"] == ceps[i].mean()
            assert feats[f"mfcc_range_{i}"] == ceps[i].max() - ceps[i].min()

    def test_analysis_runs_on_the_calling_thread_alone(self, clip, monkeypatch, block_pool):
        # The clip's STFT and extractors submit nothing to the block pool, however many cores there are.
        monkeypatch.setattr(audio_io, "_cores", lambda: 3)
        analyze_clip(clip)
        assert block_pool.futures == []


class TestAnalysisOracle:
    """analyze_clip's blocks and reused buffers against whole-clip arrays, bit for bit."""

    # At a rate of 4 hops per second the shortest beat lag is 2 frames, so every clip
    # of 3 hops and n_fft samples has a tempo; shorter clips fail in both.
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([(256, 64), (256, 96), (512, 128), (128, 128)]),  # 96 does not divide 256
        window=st.sampled_from(WINDOW_FUNCTIONS),
        anchor=st.sampled_from(["one", "half", "n_fft", "block", "blocks"]),
        offset=st.integers(-1, 1),
        frames=st.integers(2 * STFT_BLOCK_FRAMES, 6 * STFT_BLOCK_FRAMES),
    )
    @example(shape=(256, 96), window="hamming", anchor="block", offset=1, frames=0)
    @example(shape=(256, 96), window="hann", anchor="blocks", offset=0, frames=3 * STFT_BLOCK_FRAMES)
    @example(shape=(256, 64), window="rectangular", anchor="n_fft", offset=1, frames=0)
    @example(shape=(512, 128), window="hann", anchor="block", offset=-1, frames=0)
    @example(shape=(128, 128), window="hamming", anchor="half", offset=1, frames=0)
    def test_matches_whole_clip_oracle(self, shape, window, anchor, offset, frames):
        params = StftParams(*shape, window)
        hop = params.hop
        n = {"one": 1, "half": params.n_fft // 2 + offset, "n_fft": params.n_fft + offset,
             "block": STFT_BLOCK_FRAMES * hop + offset, "blocks": frames * hop + offset}[anchor]
        rate = 4 * hop
        spec = AnalysisSpec(params, n_mfcc=5, n_mels=24)
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        try:
            want_row, want_series = one_shot_analysis(x, spec, rate)
        except ValueError:
            with pytest.raises(ValueError):
                analyze_clip(AudioBuffer(x, rate), spec)
            return
        row, series = analyze_clip(AudioBuffer(x, rate), spec)
        assert np.array_equal(row, want_row), f"{n} samples"
        assert series.keys() == want_series.keys()
        for kind, values in want_series.items():
            assert np.array_equal(series[kind].values, values), f"{kind}, {n} samples"


def analysis_clip():
    """15 s at 48 kHz of clicks over a tone, and the bytes of its magnitude spectrogram."""
    clip = make_click_track(120.0, 15.0, 48000, rng=np.random.default_rng(21))
    clip = AudioBuffer(clip.samples + sine(330.0, 15.0, 48000, 0.05), 48000)
    return clip, (1 + len(clip.samples) // StftParams.hop) * (StftParams.n_fft // 2 + 1) * 8


def traced_peak(call):
    """Peak bytes tracemalloc sees during call(); numpy reports its buffers to tracemalloc."""
    call()  # first-call caches, such as the FFT plan, are not part of the bound
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAnalysisMemory:
    @pytest.mark.parametrize("spare_cores", [0, 1])
    def test_peak_stays_within_one_point_six_magnitudes(self, spare_cores, monkeypatch):
        # The magnitude, squared in place into the power, is the one full-size array
        # analyze_clip holds, whatever the core count; measured at 1.48 magnitudes.
        monkeypatch.setattr(audio_io, "_cores", lambda: 1 + spare_cores)
        clip, mag_bytes = analysis_clip()
        peak = traced_peak(lambda: analyze_clip(clip))
        assert peak <= 1.6 * mag_bytes, f"{peak / mag_bytes:.2f} magnitudes"

    def test_stft_holds_the_magnitude_and_block_scratch_alone(self):
        # Measured at 1.41 magnitudes: the block's windowed frames and spectrum, and the
        # edge blocks' padded samples. A padded copy of the clip adds about half a magnitude.
        clip, mag_bytes = analysis_clip()
        peak = traced_peak(lambda: stft(clip, StftParams()))
        assert peak <= 1.5 * mag_bytes, f"{peak / mag_bytes:.3f} magnitudes"

    # Each extractor's own peak, measured at 0.041 (chroma), 0.004 (centroid), 0.092
    # (tempo: one block of onset flux) and 0.376 (mel bands plus MFCC) magnitudes. Each bound
    # sits 0.15-0.25 magnitude above, so a full-size copy of the spectrogram (one magnitude) shows.
    @pytest.mark.parametrize("extractor, bound", [
        ("chroma", 0.25), ("spectral_centroid", 0.25), ("tempo_from_spectrogram", 0.25), ("mel_mfcc", 0.625),
    ])
    def test_each_extractor_stays_within_its_own_bound(self, extractor, bound):
        clip, mag_bytes = analysis_clip()
        mag = stft(clip, StftParams())
        power = mag.to_power()
        calls = {
            "chroma": lambda: chroma(power),
            "spectral_centroid": lambda: spectral_centroid(mag),
            "tempo_from_spectrogram": lambda: tempo_from_spectrogram(mag),
            "mel_mfcc": lambda: mfcc(apply_filterbank(power, mel_filterbank(48000, StftParams.n_fft, 128)), 13),
        }
        peak = traced_peak(calls[extractor])
        assert peak <= bound * mag_bytes, f"{peak / mag_bytes:.3f} magnitudes"


class TestMinClipSamples:
    # The ZCR frame decides the 4096 case; the shortest tempo lag decides the rest.
    @pytest.mark.parametrize("rate, n_fft, hop, need", [
        (48000, 2048, 512, 16896), (48000, 2048, 2048, 18432), (22050, 1024, 256, 7680),
        (8000, 4096, 128, 4096), (1000, 256, 64, 448),
    ])
    def test_analyze_clip_accepts_exactly_the_minimum(self, rate, n_fft, hop, need):
        params = StftParams(n_fft, hop)
        assert min_clip_samples(params, rate) == need
        spec = AnalysisSpec(params, n_mfcc=4, n_mels=8)
        x = np.random.default_rng(8).uniform(-0.5, 0.5, need)
        analyze_clip(AudioBuffer(x, rate), spec)
        with pytest.raises(ValueError):
            analyze_clip(AudioBuffer(x[:-1], rate), spec)


class TestExtractTrack:
    def test_click_track_tempo(self, tmp_path):
        buf = make_click_track(120.0, 30.0, 44100, rng=np.random.default_rng(21))
        path = tmp_path / "clicks.wav"
        path.write_bytes(encode_wav(buf, "pcm16"))
        rec = TrackRecord(str(path), "g", GenreLabel.ACTION_RPG, "t")
        row, _ = extract_track(rec)
        assert 118.0 <= by_name(row)["tempo_bpm"] <= 122.0
        assert len(row) == 43

    def test_pure_tone_chroma_and_zcr(self, tmp_path):
        buf = AudioBuffer(sine(440.0, 16.0, 48000), 48000)
        path = tmp_path / "tone.wav"
        path.write_bytes(encode_wav(buf, "float32"))
        rec = TrackRecord("tone.wav", "g", GenreLabel.ADVENTURE_RPG, "t")
        feats = by_name(extract_track(rec, base_dir=str(tmp_path))[0])
        assert max(PITCH_CLASSES, key=lambda pc: feats[f"chroma_mean_{pc}"]) == "a"
        assert feats["zcr_std"] < 1e-3

    def test_silent_file_error_carries_path_and_stage(self, tmp_path):
        path = tmp_path / "silent.wav"
        path.write_bytes(encode_wav(AudioBuffer(np.zeros(20 * 48000), 48000), "pcm16"))
        rec = TrackRecord(str(path), "g", GenreLabel.ADVENTURE_RPG, "t")
        with pytest.raises(TrackError) as err:
            extract_track(rec)
        assert "silent.wav" in str(err.value)
        assert err.value.stage == "preprocess"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_track_from_a_pipe_gives_the_file_clip(self, tmp_path):
        data = encode_wav(AudioBuffer(sine(440.0, 16.0, 44100), 44100), "pcm16")
        (tmp_path / "file.wav").write_bytes(data)
        os.mkfifo(tmp_path / "pipe.wav")
        writer = threading.Thread(target=(tmp_path / "pipe.wav").write_bytes, args=(data,), daemon=True)
        writer.start()
        clips = [dataset.process_track(tmp_path / name, PreprocessSpec(), "x", lambda clip: clip.samples.tobytes())
                 for name in ("pipe.wav", "file.wav")]
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert clips[0] == clips[1]

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
        a, _ = extract_track(rec)
        b, _ = extract_track(rec)
        np.testing.assert_array_equal(a, b)


class TestTrackMemory:
    """process_track holds the clip and the resampler's scratch, and nothing the size of the file."""

    @staticmethod
    def peak_over_bound(tmp_path, monkeypatch, rate, channels, bits, seconds, chunk_mb):
        ints = np.random.default_rng(24).integers(-2 ** (bits - 1), 2 ** (bits - 1), (seconds * rate, channels))
        path = tmp_path / "track.wav"
        path.write_bytes(wav_bytes(pcm_bytes(ints, bits), 1, channels, rate, bits))
        del ints
        # The clip and the resampler's scratch made on the heap, where tracemalloc sees them, not in mappings.
        monkeypatch.setattr(audio_io, "_mapped_empty", np.empty, raising=False)
        monkeypatch.setattr(audio_io, "_cores", lambda: 2)
        pre = PreprocessSpec()
        tracemalloc.start()
        try:
            dataset.process_track(path, pre, "x", lambda clip: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The clip, plus the resampler's scratch for each of its 2 chunks: up to 2 MB of kernel rows,
        # one block's input span and its bytes, and one block's output periods, chunk_mb in all.
        return peak - (8 * pre.clip_samples + 2 * chunk_mb * 2**20)

    def test_track_path_holds_no_full_length_decoded_array(self, tmp_path, monkeypatch):
        # 20 s of 96 kHz 24-bit stereo: its frames decoded to float64 would take 2.7 times the file's size,
        # 11 MB. A chunk's scratch is 0.6 MB at 96 -> 48 kHz.
        over = self.peak_over_bound(tmp_path, monkeypatch, 96000, 2, 24, 20, chunk_mb=1)
        assert over < 2**20, f"{over / 2**20:.2f} MB over"

    def test_long_track_path_holds_nothing_the_size_of_its_file(self, tmp_path, monkeypatch):
        # 240 s of 44.1 kHz 16-bit mono: the file, 20 MB, is 3.7 times the clip. A chunk's scratch is
        # 4.4 MB at 44.1 -> 48 kHz.
        over = self.peak_over_bound(tmp_path, monkeypatch, 44100, 1, 16, 240, chunk_mb=5)
        assert over < 2**20, f"{over / 2**20:.2f} MB over"

    def test_no_track_scratch_outlives_its_track(self, tmp_path, monkeypatch):
        # (rate, channels, bits, format tag): each track after the first reads wider byte spans than the one
        # before, so byte scratch kept from one track to the next would have to grow. At 48 kHz the calling
        # thread reads the file itself, in resample's equal-rate path.
        layouts = [(44100, 1, 16, 1), (44100, 2, 16, 1), (44100, 2, 24, 1), (48000, 2, 32, 3)]
        paths = []
        for k, (rate, channels, bits, tag) in enumerate(layouts):
            x = np.random.default_rng(k).uniform(-0.5, 0.5, (4 * rate, channels))
            payload = x.astype("<f4").tobytes() if tag == 3 else pcm_bytes(np.round(x * 2 ** (bits - 1)), bits)
            paths.append(tmp_path / f"track{k}.wav")
            paths[-1].write_bytes(wav_bytes(payload, tag, channels, rate, bits))
        # Every buffer made on the heap, where tracemalloc sees it, not in mappings.
        monkeypatch.setattr(audio_io, "_mapped_empty", np.empty, raising=False)
        monkeypatch.setattr(audio_io, "_cores", lambda: 2)
        pre = PreprocessSpec(clip_duration_s=1.0)
        dataset.process_track(paths[0], pre, "x", lambda clip: None)  # the pool's threads start before tracing
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            held = []
            for path in paths[1:]:
                dataset.process_track(path, pre, "x", lambda clip: None)
                held.append(tracemalloc.get_traced_memory()[0] - start)
        finally:
            tracemalloc.stop()
        assert all(size < 64 * 2**10 for size in held), held


def preprocessed(seconds, pre, rate=44100):
    """The clip preprocess returns for a click track over a tone, in the mapping resample gave it."""
    buf = make_click_track(110.0, seconds, rate, rng=np.random.default_rng(25))
    buf = AudioBuffer(buf.samples + sine(220.0, seconds, rate, 0.2), rate)
    return preprocess(parse_wav(encode_wav(buf, "pcm16")), pre)


def handed_over(clip):
    clip._handed_over = True
    return clip


def own_mapping(samples):
    """The mmap that samples fill, which np.frombuffer keeps as its base or behind a memoryview there."""
    return getattr(samples.base, "obj", samples.base)


def resident_bytes(samples):
    """Rss, from /proc/self/smaps, of the mapping that samples fill."""
    mapping = own_mapping(samples)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        # A flag set on exactly its pages makes the mapping an entry of its own, even if the kernel had
        # merged it with a neighbouring one; it moves no page in or out.
        mapping.madvise(mmap.MADV_NOHUGEPAGE)
    start = samples.ctypes.data
    with open("/proc/self/smaps") as smaps:
        lines = iter(smaps.read().splitlines())
    for line in lines:
        if line.startswith(f"{start:08x}-"):
            end = int(line.split()[0].split("-")[1], 16)
            assert end - start == -(-len(mapping) // mmap.PAGESIZE) * mmap.PAGESIZE, line
            for field in lines:
                if field.startswith("Rss:"):
                    return int(field.split()[1]) * 1024
    raise AssertionError(f"no smaps entry starts at {start:x}")


class TestClipHandover:
    """A clip that process_track hands to the analysis goes back to the OS as the STFT reads it."""

    @pytest.mark.skipif(not (os.path.exists("/proc/self/smaps") and hasattr(mmap, "MADV_DONTNEED")),
                        reason="needs /proc/self/smaps and MADV_DONTNEED")
    def test_only_the_last_blocks_pages_stay_resident(self, tmp_path):
        path = tmp_path / "track.wav"
        path.write_bytes(encode_wav(preprocessed(20.0, PreprocessSpec(clip_duration_s=20.0)), "pcm16"))
        seen = {}

        def last(clip):
            seen["before"] = resident_bytes(clip.samples)
            analyze_clip(clip)
            seen["after"] = resident_bytes(clip.samples)
            seen["n"] = len(clip.samples)

        dataset.process_track(path, PreprocessSpec(), "analyze", last)
        n, hop, half, page = seen["n"], StftParams.hop, StftParams.n_fft // 2, mmap.PAGESIZE
        # The last block's first sample, or the one its right edge reflects from if that is lower.
        first = min((n // hop) // STFT_BLOCK_FRAMES * STFT_BLOCK_FRAMES * hop - half, n - 1 - half)
        assert seen["before"] >= 8 * n  # resample wrote every page of the clip
        assert seen["after"] <= -(-8 * n // page) * page - 8 * first // page * page, seen

    @pytest.mark.parametrize("n_clip", [65536, 65537, 131072, 720000])
    def test_a_clip_not_handed_over_keeps_its_samples_and_gives_the_same_analysis(self, n_clip):
        # A clip of 65536 samples ends in a one-frame block that reflects its right edge from a sample just
        # below its first, on a page boundary: the release must stop below that sample too.
        pre = PreprocessSpec(clip_duration_s=n_clip / 48000)
        clip, other = preprocessed(16.0, pre), preprocessed(16.0, pre)
        assert len(clip.samples) == n_clip and isinstance(own_mapping(clip.samples), mmap.mmap)
        samples = clip.samples.copy()
        mag = stft(clip, StftParams()).values
        row, series = analyze_clip(clip)
        assert np.array_equal(clip.samples, samples)
        got_mag = stft(handed_over(other), StftParams()).values
        assert np.array_equal(got_mag, mag)
        got_row, got_series = analyze_clip(handed_over(preprocessed(16.0, pre)))
        assert np.array_equal(got_row, row)
        assert all(np.array_equal(got_series[kind].values, series[kind].values) for kind in series)
        if hasattr(mmap, "MADV_DONTNEED"):
            assert not other.samples[: n_clip // 2].any()  # it was given back, and reads as zeros

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(shape=st.sampled_from([(2048, 512), (256, 64), (256, 96), (1024, 1024)]),
           blocks=st.integers(1, 4), offset=st.integers(-2, 2))
    @example(shape=(2048, 512), blocks=1, offset=0)  # a one-frame last block reflecting from below its start
    def test_handed_over_stft_matches_the_one_of_a_copy(self, shape, blocks, offset):
        params = StftParams(*shape)
        n = max(1, blocks * STFT_BLOCK_FRAMES * params.hop + offset)
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        mapped = audio_io._mapped_empty(n)
        mapped[:] = x
        got = stft(handed_over(AudioBuffer(mapped, 8000)), params).values
        assert np.array_equal(got, stft(AudioBuffer(x, 8000), params).values), n

    def test_padded_and_tiny_clips_give_the_bytes_of_a_run_without_release(self, tmp_path, monkeypatch):
        path = tmp_path / "short.wav"
        path.write_bytes(encode_wav(preprocessed(6.0, PreprocessSpec(clip_duration_s=6.0)), "pcm16"))
        (tmp_path / "m.csv").write_text("path,game,genre,title\nshort.wav,g,action_rpg,t\n")

        def outputs(out):
            assert cli.main(["summarize", "--manifest", str(tmp_path / "m.csv"), "--out", str(out), "--pad-short"]) == 0
            # A clip of n_fft/2 samples or fewer is padded whole; the ZCR needs n_fft, so only the STFT runs on it.
            tiny = [dataset.process_track(path, PreprocessSpec(clip_duration_s=n / 48000), "stft",
                                          lambda clip: stft(clip, StftParams()).values.tobytes())
                    for n in (1, 2, 1023, 1024)]
            return {p.name: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}, tiny

        released = outputs(tmp_path / "released")
        monkeypatch.delattr(mmap, "MADV_DONTNEED", raising=False)  # stft releases nothing, as before the handover
        assert outputs(tmp_path / "kept") == released


class TestSummarizeByGenre:
    def test_single_track_per_genre(self):
        vectors = np.random.default_rng(23).standard_normal((3, 43))
        summary = summarize_by_genre(table(vectors, list(GenreLabel)))
        assert [g for g in summary.genres] == list(GenreLabel)
        assert summary.feature_names == feature_names()
        for i, vec in enumerate(vectors):
            np.testing.assert_array_equal(summary.mean[i], vec)
            np.testing.assert_array_equal(summary.minimum[i], vec)
            np.testing.assert_array_equal(summary.maximum[i], vec)
            np.testing.assert_array_equal(summary.std[i], 0.0)
        np.testing.assert_array_equal(summary.range_width, 0.0)

    def test_identical_tracks_have_zero_std(self):
        vec = np.arange(43, dtype=np.float64)
        summary = summarize_by_genre(table([vec, vec], [GenreLabel.ACTION_RPG] * 2))
        np.testing.assert_array_equal(summary.std, 0.0)
        assert summary.track_counts.tolist() == [2]

    def test_matches_independent_aggregation(self):
        rng = np.random.default_rng(24)
        vectors = rng.standard_normal((27, 43))
        labels = [GenreLabel(i % 3) for i in range(27)]
        summary = summarize_by_genre(table(vectors, labels))
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
        a = summarize_by_genre(table(vectors, labels))
        order = rng.permutation(12)
        b = summarize_by_genre(table(vectors[order], [labels[i] for i in order]))
        np.testing.assert_allclose(a.mean, b.mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(a.std, b.std, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(a.minimum, b.minimum)
        np.testing.assert_array_equal(a.maximum, b.maximum)

    def test_invariants(self):
        rng = np.random.default_rng(26)
        vectors, labels = [], []
        for _ in range(20):
            vectors.append(rng.standard_normal(43))
            labels.append(GenreLabel(int(rng.integers(3))))
        summary = summarize_by_genre(table(vectors, labels))
        assert np.all(summary.minimum <= summary.mean + 1e-12)
        assert np.all(summary.mean <= summary.maximum + 1e-12)
        assert summary.track_counts.sum() == 20

    def test_columns_follow_the_table(self):
        rng = np.random.default_rng(29)
        ds = LabeledDataset(rng.standard_normal((4, 57)), np.array([0, 0, 2, 2]),
                            ["a", "b", "c", "d"], feature_names(20))
        summary = summarize_by_genre(ds)
        assert summary.feature_names == feature_names(20)
        assert summary.mean.shape == (2, 57)
        assert write_genre_summary_csv(summary).splitlines()[0].count(",") == 1 + 5 * 57

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_by_genre(table(np.zeros((0, 43)), []))


class TestSerialization:
    def dataset(self, n=6):
        rng = np.random.default_rng(27)
        return table(rng.standard_normal((n, 43)) * 100, [GenreLabel(i % 3) for i in range(n)])

    def test_csv_round_trip_is_byte_identical(self):
        ds = self.dataset()
        text = write_feature_table_csv(ds)
        back = read_feature_table_csv(text)
        assert back.track_ids == ds.track_ids
        assert back.feature_names == ds.feature_names
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_allclose(back.matrix, ds.matrix, rtol=1e-8)
        assert write_feature_table_csv(back) == text

    def test_csv_header_and_labels(self):
        text = write_feature_table_csv(self.dataset())
        header = text.splitlines()[0].split(",")
        assert header[0] == "track_id"
        assert header[-1] == "genre"
        assert header[1:-1] == feature_names()
        ds = read_feature_table_csv(text)
        assert ds.matrix.shape == (6, 43)
        assert ds.labels.tolist() == [0, 1, 2, 0, 1, 2]

    def test_empty_table_round_trips_its_columns(self):
        empty = LabeledDataset(np.zeros((0, 57)), np.zeros(0, dtype=int), [], feature_names(20))
        text = write_feature_table_csv(empty)
        assert text == ",".join(["track_id"] + feature_names(20) + ["genre"]) + "\n"
        back = read_feature_table_csv(text)
        assert back.matrix.shape == (0, 57)
        assert back.feature_names == feature_names(20)
        assert feature_table_json(empty) == "[]\n"

    def test_json_values_equal_csv_values(self):
        import json

        ds = self.dataset()
        from_csv = read_feature_table_csv(write_feature_table_csv(ds))
        entries = json.loads(feature_table_json(ds))
        assert [e["track_id"] for e in entries] == from_csv.track_ids
        matrix = np.array([[e[name] for name in ds.feature_names] for e in entries])
        np.testing.assert_array_equal(matrix, from_csv.matrix)

    def test_json_mirrors_schema(self):
        import json

        entries = json.loads(feature_table_json(self.dataset(3)))
        assert len(entries) == 3
        assert list(entries[0].keys()) == ["track_id"] + feature_names() + ["genre"]
        assert entries[1]["genre"] == "action_rpg"

    def test_summary_csv_shape(self):
        summary = summarize_by_genre(self.dataset(9))
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

    @pytest.mark.parametrize("kind, d", [("zcr", 1), ("chroma", 12), ("mfcc", 13), ("mfcc", 20)])
    @pytest.mark.parametrize("n_frames", [0, 1, 37])
    def test_frame_series_csv_matches_savetxt(self, kind, d, n_frames):
        rng = np.random.default_rng(d * 100 + n_frames)
        values = rng.standard_normal((d, n_frames)) * 10.0 ** rng.integers(-8, 8, size=(d, n_frames))
        series = FrameSeries(values, kind)
        assert frame_series_csv(series) == savetxt_series_csv(series)

    EDGE_FLOATS = [-0.0, 5e-324, -2.2250738585072e-309, 1e300, -1e300, 1e-300, -1e-300,
                   float("inf"), float("-inf"), float("nan")]

    @settings(derandomize=True, max_examples=200)
    @given(st.integers(1, 13), st.integers(0, 4), st.data())
    def test_frame_series_csv_matches_savetxt_on_any_float(self, d, n_frames, data):
        floats = st.one_of(st.sampled_from(self.EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
        cells = data.draw(st.lists(floats, min_size=d * n_frames, max_size=d * n_frames))
        series = FrameSeries(np.array(cells, dtype=np.float64).reshape(d, n_frames), "chroma" if d == 12 else "x")
        assert frame_series_csv(series) == savetxt_series_csv(series)

    def test_read_names_row_and_column_of_unknown_genre(self):
        lines = write_feature_table_csv(self.dataset(3)).splitlines(keepends=True)
        lines[2] = lines[2].rsplit(",", 1)[0] + ",roguelike\n"
        with pytest.raises(ValueError, match=r"feature table row 3, column genre: unknown genre 'roguelike'"):
            read_feature_table_csv("".join(lines))

    def test_read_names_row_and_column_of_bad_number(self):
        lines = write_feature_table_csv(self.dataset(3)).splitlines(keepends=True)
        cells = lines[3].split(",")
        cells[2] = "abc"  # zcr_mean
        lines[3] = ",".join(cells)
        with pytest.raises(ValueError, match=r"feature table row 4, column zcr_mean: .*'abc'"):
            read_feature_table_csv("".join(lines))


class TestSelectFeatures:
    def test_family_selection(self):
        ds = read_feature_table_csv(write_feature_table_csv(self.make_dataset()))
        subset = select_features(ds, ["tempo", "chroma"])
        assert subset.matrix.shape == (4, 13)
        assert subset.feature_names[0] == "tempo_bpm"
        assert all(n.startswith(("tempo", "chroma")) for n in subset.feature_names)
        mfcc_only = select_features(ds, ["mfcc"])
        assert mfcc_only.matrix.shape == (4, 26)

    def test_unknown_family_rejected(self):
        ds = read_feature_table_csv(write_feature_table_csv(self.make_dataset()))
        with pytest.raises(ValueError):
            select_features(ds, ["spectral_flatness"])

    def make_dataset(self):
        rng = np.random.default_rng(28)
        return table(rng.standard_normal((4, 43)), [GenreLabel(i % 3) for i in range(4)])


class TestEndToEndCorpus:
    def test_small_corpus_extracts(self, tmp_path):
        manifest = write_corpus(tmp_path, seed=3, games_per_genre=1, tracks_per_game=1, duration_s=16.0)
        records = load_manifest(manifest.read_text())
        assert len(records) == 3
        spec = PreprocessSpec()
        for rec in records:
            row, _ = extract_track(rec, spec, base_dir=str(tmp_path))
            assert np.all(np.isfinite(row))
            assert 0.0 <= by_name(row)["zcr_mean"] <= 1.0
