"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The end-to-end criteria drive the real CLI on a generated corpus.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from vgmfeat import cli
from vgmfeat.audio_io import AudioBuffer, center_trim, peak_normalize, resample
from vgmfeat.classify import apply_standardization, evaluate_split, fit_knn, knn_predict
from vgmfeat.dataset import LabeledDataset, read_feature_table_csv
from vgmfeat.features import PITCH_CLASSES, chroma, mfcc, spectral_centroid, tempo_bpm, zero_crossing_rate
from vgmfeat.spectral import StftParams, apply_filterbank, fft_real, mel_filterbank, stft
from vgmfeat.synth import make_click_track

from conftest import sine
from reference import brute_force_knn, naive_rdft


@contextmanager
def criterion(number, label):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL [{time.perf_counter() - started:.1f}s]")
        raise
    print(f"criterion {number} ({label}): PASS [{time.perf_counter() - started:.1f}s]")


@pytest.fixture(scope="module")
def pipeline(corpus_dir, tmp_path_factory):
    """preprocess -> extract -> classify on the 27-track synthetic corpus."""
    work = tmp_path_factory.mktemp("pipeline")
    pre, feats = work / "pre", work / "feats"
    cls_split, cls_loocv = work / "cls_split", work / "cls_loocv"

    started = time.perf_counter()
    assert cli.main(["preprocess", "--manifest", str(corpus_dir / "manifest.csv"),
                     "--out", str(pre), "--jobs", "2"]) == 0
    assert cli.main(["extract", "--manifest", str(pre / "manifest.csv"),
                     "--out", str(feats), "--jobs", "2"]) == 0
    assert cli.main(["classify", "--features-csv", str(feats / "features.csv"),
                     "--out", str(cls_split), "--protocol", "split",
                     "--test-fraction", "0.3333", "--seed", "0", "--k", "3"]) == 0
    assert cli.main(["classify", "--features-csv", str(feats / "features.csv"),
                     "--out", str(cls_loocv), "--protocol", "loocv", "--k", "3"]) == 0
    elapsed = time.perf_counter() - started

    return {
        "work": work,
        "pre": pre,
        "features_csv": feats / "features.csv",
        "split_report": json.loads((cls_split / "report.json").read_text()),
        "loocv_report": json.loads((cls_loocv / "report.json").read_text()),
        "elapsed": elapsed,
    }


def test_criterion_1_fft_matches_naive_dft():
    with criterion(1, "FFT vs naive DFT + Parseval"):
        started = time.perf_counter()
        for n in (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096):
            for seed in (0, 1):
                frame = np.random.default_rng(1000 * seed + n).standard_normal(n)
                got = fft_real(frame)
                want = naive_rdft(frame)
                assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-9
                time_energy = np.sum(frame**2)
                freq_energy = (
                    np.abs(got[0]) ** 2
                    + np.abs(got[-1]) ** 2
                    + 2.0 * np.sum(np.abs(got[1:-1]) ** 2)
                ) / n
                assert abs(time_energy - freq_energy) / time_energy < 1e-6
        assert time.perf_counter() - started < 10.0


def test_criterion_2_preprocessing_exactness():
    with criterion(2, "preprocessing exactness"):
        peak = peak_normalize(AudioBuffer(np.array([0.3, -0.8, 0.1]), 48000), -5.0)
        assert abs(np.max(np.abs(peak.samples)) - 10 ** (-5.0 / 20.0)) < 1e-9
        assert abs(np.max(np.abs(peak.samples)) - 0.5623413) < 1e-7

        ramp = AudioBuffer(np.arange(60 * 48000, dtype=np.float64), 48000)
        clipped = center_trim(ramp, 15.0)
        assert clipped.samples[0] == 1_080_000
        assert len(clipped.samples) == 720_000

        x = AudioBuffer(np.random.default_rng(2).standard_normal(44100) * 0.4, 44100)
        same = resample(x, 44100)
        np.testing.assert_array_equal(same.samples, x.samples)


def test_criterion_3_feature_golden_signals():
    with criterion(3, "feature golden signals"):
        started = time.perf_counter()

        # bin-centered tone: exact centroid under a rectangular window
        n = 192 * 256 + 1
        tone44 = AudioBuffer(0.5 * np.cos(2 * np.pi * 44 * np.arange(n) / 2048), 48000)
        rect = spectral_centroid(stft(tone44, StftParams(2048, 512, "rectangular")))
        np.testing.assert_allclose(rect.values, 1031.25, atol=1e-6)

        # same tone under Hann: symmetric leakage keeps it within 5 Hz
        hann_tone = AudioBuffer(sine(1031.25, 15.0), 48000)
        hann = spectral_centroid(stft(hann_tone, StftParams()))
        assert abs(hann.values.mean() - 1031.25) < 5.0

        # octave-equivalent chroma argmax at pitch class A
        for freq in (440.0, 880.0):
            spec = stft(AudioBuffer(sine(freq, 1.0), 48000), StftParams(), kind="power")
            assert PITCH_CLASSES[chroma(spec).values.mean(axis=1).argmax()] == "a"

        # C major triad: top three mean-chroma classes are C, E, G
        triad = sine(261.63, 1.0, amplitude=0.3) + sine(329.63, 1.0, amplitude=0.3) + sine(392.0, 1.0, amplitude=0.3)
        spec = stft(AudioBuffer(triad, 48000), StftParams(), kind="power")
        mean_chroma = chroma(spec).values.mean(axis=1)
        assert {PITCH_CLASSES[i] for i in np.argsort(mean_chroma)[-3:]} == {"c", "e", "g"}

        # alternating signal crosses at every sample pair
        alternating = AudioBuffer(np.tile([0.7, -0.7], 24000), 48000)
        np.testing.assert_allclose(zero_crossing_rate(alternating).values, 1.0)

        # gain moves only the cepstral DC coefficient
        noise = 0.3 * np.random.default_rng(3).standard_normal(48000)
        bank = mel_filterbank(48000, 2048)

        def cepstra(gain):
            power = stft(AudioBuffer(noise * gain, 48000), StftParams(), kind="power")
            return mfcc(apply_filterbank(power, bank), 13).values

        quiet, loud = cepstra(1.0), cepstra(5.0)
        assert np.max(np.abs(loud[1:] - quiet[1:])) < 1e-6

        assert time.perf_counter() - started < 30.0


def test_criterion_4_tempo_click_tracks():
    with criterion(4, "tempo on click tracks"):
        started = time.perf_counter()
        for bpm in (60.0, 90.0, 120.0, 150.0):
            track = make_click_track(bpm, 15.0, 48000, rng=np.random.default_rng(int(bpm)))
            estimate = tempo_bpm(track)
            assert abs(estimate.bpm - bpm) <= 2.0, f"{bpm} BPM estimated as {estimate.bpm}"
        assert time.perf_counter() - started < 20.0


def test_criterion_5_knn_matches_brute_force():
    with criterion(5, "KNN vs exhaustive search"):
        started = time.perf_counter()
        rng = np.random.default_rng(4)
        train = rng.standard_normal((200, 41))
        train[160:] = train[:40]  # duplicated points create exact distance ties
        labels = rng.integers(0, 3, size=200)
        queries = np.vstack([rng.standard_normal((80, 41)), train[rng.integers(0, 200, 20)]])
        for k in (1, 3, 5):
            model = fit_knn(train, labels, k)
            for q in queries:
                z = apply_standardization(model.standardization, q[None, :])[0]
                want = brute_force_knn(model.train_matrix, model.train_labels, z, k)
                assert int(knn_predict(model, q)) == want
        assert time.perf_counter() - started < 10.0


def test_criterion_6_end_to_end_synthetic_corpus(pipeline):
    with criterion(6, "end-to-end synthetic corpus"):
        split_acc = pipeline["split_report"]["accuracy"]
        loocv_acc = pipeline["loocv_report"]["accuracy"]
        assert split_acc >= 0.9, f"split accuracy {split_acc}"
        assert loocv_acc >= 0.9, f"LOOCV accuracy {loocv_acc}"
        assert np.array(pipeline["split_report"]["confusion"]).sum() == 9
        assert np.array(pipeline["loocv_report"]["confusion"]).sum() == 27
        assert pipeline["elapsed"] < 120.0, f"pipeline took {pipeline['elapsed']:.0f}s"


def test_criterion_7_chance_level_with_permuted_labels(pipeline):
    with criterion(7, "chance level under label permutation"):
        started = time.perf_counter()
        ds = read_feature_table_csv(pipeline["features_csv"].read_text())
        accuracies = []
        for seed in range(1000):
            shuffled = np.random.default_rng(seed).permutation(ds.labels)
            permuted = LabeledDataset(ds.matrix, shuffled, ds.track_ids, ds.feature_names)
            report = evaluate_split(permuted, 1.0 / 3.0, seed=seed, k=3)
            accuracies.append(report.accuracy)
        mean_accuracy = float(np.mean(accuracies))
        assert 0.28 <= mean_accuracy <= 0.38, f"mean accuracy {mean_accuracy:.4f}"
        assert time.perf_counter() - started < 120.0


def test_criterion_8_determinism(pipeline, corpus_dir, tmp_path_factory):
    with criterion(8, "byte-identical rerun"):
        work = tmp_path_factory.mktemp("rerun")
        pre, feats, cls = work / "pre", work / "feats", work / "cls"
        assert cli.main(["preprocess", "--manifest", str(corpus_dir / "manifest.csv"),
                         "--out", str(pre), "--jobs", "2"]) == 0
        assert cli.main(["extract", "--manifest", str(pre / "manifest.csv"),
                         "--out", str(feats), "--jobs", "2"]) == 0
        assert cli.main(["classify", "--features-csv", str(feats / "features.csv"),
                         "--out", str(cls), "--protocol", "split",
                         "--test-fraction", "0.3333", "--seed", "0", "--k", "3"]) == 0
        assert (feats / "features.csv").read_bytes() == pipeline["features_csv"].read_bytes()
        first_report = (pipeline["work"] / "cls_split" / "report.json").read_bytes()
        assert (cls / "report.json").read_bytes() == first_report
