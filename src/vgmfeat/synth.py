"""Synthetic labeled corpora for end-to-end tests.

Each genre gets its own tempo band and tone register, so the generated
tracks are separable by the same features the real pipeline extracts.
"""

from pathlib import Path

import numpy as np

from .audio_io import AudioBuffer, encode_wav
from .dataset import GenreLabel, TrackRecord, write_manifest

# (bpm band, tone register in Hz, root pitch set) per genre
GENRE_PROFILES = {
    GenreLabel.ADVENTURE_RPG: ((66.0, 84.0), (110.0, 175.0), (110.0, 130.81, 146.83)),
    GenreLabel.ACTION_RPG: ((100.0, 122.0), (330.0, 520.0), (329.63, 392.0, 440.0)),
    GenreLabel.STRATEGY_RPG: ((138.0, 164.0), (990.0, 1560.0), (987.77, 1174.66, 1318.51)),
}


def make_tone(freq_hz: float, duration_s: float, sample_rate_hz: int, amplitude: float = 0.5) -> AudioBuffer:
    t = np.arange(round(duration_s * sample_rate_hz)) / sample_rate_hz
    return AudioBuffer(amplitude * np.sin(2.0 * np.pi * freq_hz * t), sample_rate_hz)


def make_click_track(
    bpm: float,
    duration_s: float,
    sample_rate_hz: int,
    click_ms: float = 10.0,
    amplitude: float = 0.9,
    rng: np.random.Generator | None = None,
) -> AudioBuffer:
    """Noise bursts of click_ms at every beat, silence in between."""
    n = round(duration_s * sample_rate_hz)
    x = np.zeros(n)
    click_len = max(1, round(click_ms / 1000.0 * sample_rate_hz))
    rng = rng or np.random.default_rng(0)
    burst_env = np.linspace(1.0, 0.0, click_len)
    period = 60.0 / bpm * sample_rate_hz
    beat = 0.0
    while round(beat) < n:
        start = round(beat)
        stop = min(n, start + click_len)
        x[start:stop] += amplitude * burst_env[: stop - start] * rng.uniform(0.5, 1.0, stop - start)
        beat += period
    return AudioBuffer(x, sample_rate_hz)


def synth_track(genre: GenreLabel, rng: np.random.Generator, duration_s: float, sample_rate_hz: int) -> tuple:
    """One labeled track: clicks in the genre tempo band plus tones in its register.

    Returns (AudioBuffer, bpm used).
    """
    (bpm_lo, bpm_hi), (reg_lo, reg_hi), roots = GENRE_PROFILES[genre]
    bpm = float(rng.uniform(bpm_lo, bpm_hi))
    root = float(rng.choice(roots))
    fifth = root * 1.5
    drift = float(rng.uniform(0.99, 1.01))

    clicks = make_click_track(bpm, duration_s, sample_rate_hz, rng=rng)
    tone = make_tone(root * drift, duration_s, sample_rate_hz, amplitude=0.35)
    tone2 = make_tone(min(fifth * drift, reg_hi * 1.6), duration_s, sample_rate_hz, amplitude=0.2)
    hiss = 0.002 * rng.standard_normal(len(clicks.samples))

    mix = clicks.samples + tone.samples + tone2.samples + hiss
    mix *= 0.9 / np.max(np.abs(mix))
    return AudioBuffer(mix, sample_rate_hz), bpm


def write_corpus(
    out_dir,
    seed: int = 0,
    games_per_genre: int = 3,
    tracks_per_game: int = 3,
    duration_s: float = 20.0,
    sample_rate_hz: int = 44100,
) -> Path:
    """Write a labeled WAV corpus plus manifest.csv; returns the manifest path.

    The default shape is 3 genres x 3 games x 3 tracks = 27 files. Paths in
    the manifest are relative to the output directory.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    records = []
    for genre in GenreLabel:
        for game_no in range(1, games_per_genre + 1):
            game = f"{genre.token}_game{game_no}"
            for track_no in range(1, tracks_per_game + 1):
                buf, bpm = synth_track(genre, rng, duration_s, sample_rate_hz)
                name = f"{game}_track{track_no}.wav"
                (out_dir / name).write_bytes(encode_wav(buf, "pcm16"))
                records.append(TrackRecord(name, game, genre, f"theme {track_no} ({bpm:.0f} bpm)"))

    manifest = out_dir / "manifest.csv"
    manifest.write_text(write_manifest(records))
    return manifest
