import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from vgmfeat import cli


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """27-track synthetic corpus (3 genres x 3 games x 3 tracks), seed 7."""
    d = tmp_path_factory.mktemp("corpus")
    assert cli.main(["synth-corpus", "--out", str(d), "--seed", "7"]) == 0
    return d


def sine(freq_hz, duration_s=1.0, sample_rate_hz=48000, amplitude=0.5, phase=0.0):
    t = np.arange(round(duration_s * sample_rate_hz)) / sample_rate_hz
    return amplitude * np.sin(2.0 * np.pi * freq_hz * t + phase)


def wav_bytes(payload, format_tag, channels, rate, bits, block=None):
    """A 16-byte-fmt RIFF/WAVE file around `payload`; `block` overrides the fmt chunk's block_align."""
    block = channels * bits // 8 if block is None else block
    return b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, format_tag, channels, rate, rate * block, block, bits),
            b"data",
            struct.pack("<I", len(payload)),
            payload,
        ]
    )


def pcm_bytes(ints, bits):
    """Little-endian integer PCM samples: unsigned bytes at 8 bits, two's complement otherwise."""
    ints = np.asarray(ints)
    if bits == 8:
        return ints.astype(np.uint8).tobytes()
    return ints.astype("<i4").view(np.uint8).reshape(-1, 4)[:, : bits // 8].tobytes()
