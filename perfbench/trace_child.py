"""Traced in-process run of the vgmfeat CLI, for per-layer metrics.

    PYTHONPATH=src python perfbench/trace_child.py METRICS.json <vgmfeat arguments>

Wraps the public functions at each module boundary of vgmfeat (the table
WRAPPED below), calls vgmfeat.cli.main in this process and writes the
per-layer metrics as JSON. No program file is changed: the wrappers replace
every reference to the original function in the loaded vgmfeat modules.

Spans are kept per thread, so self time stays right when `--jobs N` runs
tracks on a thread pool. A span opened on a thread that has no open span of
its own is a child of the root span (cli.main), the span that caused it.
A layer's self time is its span minus the union of its child spans.

A function named here that the program no longer has is reported as a
warning and the metrics that need it are left out; nothing crashes.
"""

import functools
import json
import sys
import threading
import time


def _per_item(args, out):
    return len(out.per_item)


# "module.function" -> {counter metric: count(args, result)}
WRAPPED = {
    "audio_io.decode_wav": {"audio_io.decode_bytes": lambda args, out: len(args[0])},
    "audio_io.resample": {"audio_io.resample_out_samples": lambda args, out: len(out.samples)},
    "audio_io.peak_normalize": {},
    "audio_io.center_trim": {},
    "audio_io.preprocess": {"clip_samples": lambda args, out: len(out.samples)},
    "spectral.stft": {"spectral.stft_frames": lambda args, out: out.n_frames},
    "spectral.mel_filterbank": {},
    "spectral.apply_filterbank": {},
    "features.zero_crossing_rate": {},
    "features.spectral_centroid": {},
    "features.chroma": {},
    "features.mfcc": {},
    "features.tempo_from_spectrogram": {},
    "dataset.extract_track": {},
    "dataset.analyze_clip": {},
    "dataset.frame_series_csv": {
        "dataset.series_csv_values": lambda args, out: args[0].values.size,
        "dataset.series_csv_bytes": lambda args, out: len(out.encode()),
    },
    "dataset.write_feature_table_csv": {},
    "dataset.read_feature_table_csv": {},
    "dataset.feature_table_json": {},
    "dataset.summarize_by_genre": {},
    "dataset.write_genre_summary_csv": {},
    "classify.evaluate_split": {"classify.predictions": _per_item},
    "classify.evaluate_loocv": {"classify.predictions": _per_item},
    "cli.main": {},
}

# time metric -> (wrapped functions, "total" span time or "self" time)
TIMED = {
    "audio_io.decode_s": (("audio_io.decode_wav",), "total"),
    "audio_io.resample_s": (("audio_io.resample",), "total"),
    "audio_io.normalize_trim_s": (("audio_io.peak_normalize", "audio_io.center_trim"), "total"),
    "audio_io.preprocess_self_s": (("audio_io.preprocess",), "self"),
    "spectral.stft_s": (("spectral.stft",), "total"),
    "spectral.mel_s": (("spectral.mel_filterbank", "spectral.apply_filterbank"), "total"),
    "features.zcr_s": (("features.zero_crossing_rate",), "total"),
    "features.centroid_s": (("features.spectral_centroid",), "total"),
    "features.chroma_s": (("features.chroma",), "total"),
    "features.mfcc_s": (("features.mfcc",), "total"),
    "features.tempo_s": (("features.tempo_from_spectrogram",), "total"),
    "dataset.analyze_clip_self_s": (("dataset.analyze_clip",), "self"),
    "dataset.extract_track_self_s": (("dataset.extract_track",), "self"),
    "dataset.series_csv_s": (("dataset.frame_series_csv",), "total"),
    "dataset.feature_table_s": (
        ("dataset.write_feature_table_csv", "dataset.read_feature_table_csv", "dataset.feature_table_json"),
        "total",
    ),
    "dataset.summary_s": (("dataset.summarize_by_genre", "dataset.write_genre_summary_csv"), "total"),
    "classify.evaluate_s": (("classify.evaluate_split", "classify.evaluate_loocv"), "total"),
    "cli.self_s": (("cli.main",), "self"),
}

UNITS = {
    "audio_io.decode_bytes": "bytes",
    "audio_io.resample_out_samples": "samples",
    "audio_io.resample_ns_per_sample": "ns/sample",
    "audio_io.resample_useful_ratio": "ratio",
    "spectral.stft_frames": "frames",
    "dataset.series_csv_values": "values",
    "dataset.series_csv_bytes": "bytes",
    "classify.predictions": "count",
    **{name: "s" for name in TIMED},
}


class Span:
    __slots__ = ("name", "start", "end", "children")

    def __init__(self, name):
        self.name = name
        self.start = self.end = 0.0
        self.children = []

    def total(self):
        return self.end - self.start

    def self_time(self):
        covered, reach = 0.0, self.start
        for child in sorted(self.children, key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        return self.total() - covered


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.broken = set()  # counters whose function no longer returns what they read
        self.root = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name, fn, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self.root
            span = Span(name)
            if parent is None:
                self.root = span
            stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
                    if parent is not None:
                        parent.children.append(span)
            with self._lock:
                for metric, count in counters.items():
                    try:
                        self.counts[metric] = self.counts.get(metric, 0) + count(args, out)
                    except (AttributeError, TypeError, IndexError):
                        self.broken.add(metric)
            return out

        return traced


def install(tracer):
    """Wrap every function in WRAPPED; returns ({key: wrapper}, warnings)."""
    import vgmfeat.cli  # noqa: F401  loads every module the CLI uses

    modules = [m for name, m in sys.modules.items() if name == "vgmfeat" or name.startswith("vgmfeat.")]
    wrappers, warnings = {}, []
    for key, counters in WRAPPED.items():
        module_name, func_name = key.rsplit(".", 1)
        orig = getattr(sys.modules.get(f"vgmfeat.{module_name}"), func_name, None)
        if not callable(orig):
            warnings.append(f"vgmfeat.{key} not found; the metrics that need it are absent")
            continue
        wrappers[key] = tracer.wrap(key, orig, counters)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrappers[key])
    return wrappers, warnings


def layer_metrics(tracer, wrappers, warnings):
    """Per-layer metrics from the recorded spans; metrics whose functions are missing are left out."""
    metrics = {}
    for metric, (functions, kind) in TIMED.items():
        if all(f in wrappers for f in functions):
            spans = [s for s in tracer.spans if s.name in functions]
            metrics[metric] = sum(s.self_time() if kind == "self" else s.total() for s in spans)
    for key, counters in WRAPPED.items():
        if key in wrappers:
            for metric in counters:
                if metric in tracer.broken:
                    warnings.append(f"{metric} could not be counted from vgmfeat.{key}; it is absent")
                else:
                    metrics[metric] = tracer.counts.get(metric, 0)
    resampled = metrics.get("audio_io.resample_out_samples")
    if resampled and "audio_io.resample_s" in metrics:
        metrics["audio_io.resample_ns_per_sample"] = metrics["audio_io.resample_s"] * 1e9 / resampled
    if resampled and "clip_samples" in metrics:
        metrics["audio_io.resample_useful_ratio"] = metrics["clip_samples"] / resampled
    metrics.pop("clip_samples", None)
    return {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}


def main(argv):
    if len(argv) < 2:
        print("usage: trace_child.py METRICS.json <vgmfeat arguments>", file=sys.stderr)
        return 1
    tracer = Tracer()
    wrappers, warnings = install(tracer)
    if "cli.main" not in wrappers:
        print("trace_child: vgmfeat.cli.main not found", file=sys.stderr)
        return 3
    exit_code = wrappers["cli.main"](argv[1:])
    metrics = layer_metrics(tracer, wrappers, warnings)
    result = {"exit_code": exit_code, "metrics": metrics, "warnings": warnings}
    with open(argv[0], "w") as fh:
        json.dump(result, fh, indent=2)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
