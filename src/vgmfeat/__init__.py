"""Soundtrack feature extraction and KNN genre classification for game music."""

import os

# One BLAS thread fixes the summation order of every matrix product, so output
# bits do not depend on the machine; per-track workers (--jobs) are the
# parallelism, with block helpers, one per core beyond the first, taking resampler blocks.
# This must run before the submodules below import numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from .audio_io import (
    AudioBuffer,
    PreprocessSpec,
    WavFile,
    center_trim,
    decode_wav,
    encode_wav,
    parse_wav,
    peak_normalize,
    preprocess,
    resample,
)
from .classify import (
    EvalReport,
    KnnModel,
    StandardizationParams,
    evaluate_loocv,
    evaluate_split,
    fit_knn,
    fit_standardization,
    knn_predict,
)
from .dataset import (
    AnalysisSpec,
    GenreLabel,
    GenreSummary,
    LabeledDataset,
    TrackRecord,
    analyze_clip,
    extract_track,
    feature_names,
    load_manifest,
    summarize_by_genre,
)
from .features import (
    FrameSeries,
    TempoEstimate,
    chroma,
    mfcc,
    spectral_centroid,
    tempo_bpm,
    zero_crossing_rate,
)
from .spectral import (
    Spectrogram,
    StftParams,
    apply_filterbank,
    mel_filterbank,
    stft,
)

__version__ = "0.1.0"
