"""Soundtrack feature extraction and KNN genre classification for game music."""

from .audio_io import (
    AudioBuffer,
    PreprocessSpec,
    center_trim,
    decode_wav,
    encode_wav,
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
    TrackFeatures,
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
    fft_real,
    mel_filterbank,
    stft,
)

__version__ = "0.1.0"
