"""The benchmark's per-layer tracer wraps vgmfeat functions by name: each one it names must exist."""

import importlib.util
import sys
from pathlib import Path

import vgmfeat.cli  # noqa: F401  loads every module the CLI uses, as the tracer does

TRACE_CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "trace_child.py"


def load_trace_child():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists():
    # A renamed or folded function drops the metrics that need it; the harness only warns.
    missing = []
    for key in load_trace_child().WRAPPED:
        module_name, func_name = key.rsplit(".", 1)
        if not callable(getattr(sys.modules.get(f"vgmfeat.{module_name}"), func_name, None)):
            missing.append(key)
    assert missing == []
