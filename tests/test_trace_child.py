"""The benchmark's per-layer tracer wraps vgmfeat functions by name: each one it names must exist and be reached."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from vgmfeat import cli, dataset  # cli loads every module the CLI uses, as the tracer does
from vgmfeat.synth import make_click_track, write_corpus

TRACE_CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "trace_child.py"


def load_trace_child():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count_calls(monkeypatch, keys):
    """Rebind each "module.function", as the tracer does, to a wrapper that counts its calls.

    Every loaded vgmfeat module attribute that is the function is rebound, so
    a call the tracer would time is counted; a call through a reference held
    anywhere else (a table, a default argument) is not.
    """
    counts = dict.fromkeys(keys, 0)
    modules = [m for name, m in sys.modules.items() if name == "vgmfeat" or name.startswith("vgmfeat.")]
    for key in keys:
        module_name, func_name = key.rsplit(".", 1)
        orig = getattr(sys.modules[f"vgmfeat.{module_name}"], func_name)

        def counted(*args, _key=key, _orig=orig, **kwargs):
            counts[_key] += 1
            return _orig(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    monkeypatch.setattr(module, attr, counted)
    return counts


def test_every_wrapped_function_exists():
    # A renamed or folded function drops the metrics that need it; the harness only warns.
    missing = []
    for key in load_trace_child().WRAPPED:
        module_name, func_name = key.rsplit(".", 1)
        if not callable(getattr(sys.modules.get(f"vgmfeat.{module_name}"), func_name, None)):
            missing.append(key)
    assert missing == []


def test_analysis_reaches_every_extractor_through_its_traced_name(monkeypatch):
    # Work inlined into analyze_clip, or called through a captured reference, leaves its layer's time at 0.
    keys = [key for key in load_trace_child().WRAPPED if key.startswith(("features.", "spectral."))]
    counts = count_calls(monkeypatch, keys)
    dataset.analyze_clip(make_click_track(120.0, 8.0, 48000, rng=np.random.default_rng(20)))
    assert [key for key, n in counts.items() if n == 0] == []


def test_cli_renders_every_series_through_its_traced_name(monkeypatch, tmp_path):
    write_corpus(tmp_path, seed=3, games_per_genre=1, tracks_per_game=1, duration_s=2.0)
    counts = count_calls(monkeypatch, ["dataset.frame_series_csv"])
    out = tmp_path / "out"
    assert cli.main(["summarize", "--manifest", str(tmp_path / "manifest.csv"), "--out", str(out),
                     "--clip-seconds", "2"]) == 0
    assert counts["dataset.frame_series_csv"] == len(list((out / "series").iterdir())) == 15
