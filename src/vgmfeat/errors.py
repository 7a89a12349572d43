"""Exception types shared across the toolkit."""


class VgmfeatError(Exception):
    """Base class for all toolkit errors."""


class WavDecodeError(VgmfeatError):
    """Raised when a WAV container is malformed; message names the bad chunk."""


class UnsupportedWavError(WavDecodeError):
    """Raised when the container is valid but the codec is not handled."""


class SilentAudioError(VgmfeatError):
    """Raised when peak normalization is asked to scale an all-zero or subnormal-peak signal."""


class TooShortError(VgmfeatError):
    """Raised when an input is shorter than the requested clip length."""


class NoTempoError(VgmfeatError):
    """Raised when the onset envelope is empty (pure silence)."""


class TrackError(VgmfeatError):
    """Wraps any per-track failure with the track path and pipeline stage."""

    def __init__(self, path, stage, cause):
        super().__init__(f"{path}: {stage}: {cause}")
        self.path = path
        self.stage = stage
        self.cause = cause
