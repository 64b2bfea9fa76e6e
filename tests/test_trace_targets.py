"""The traced benchmark (``perfbench/tracing.py``) wraps package callables
by name; every name it wraps must still exist, or every traced run breaks."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = _load_tracing().targets()
    assert targets
    for owner, attr, make in targets:
        assert callable(getattr(owner, attr)), f"{getattr(owner, '__name__', owner)}.{attr}"
        assert callable(make)
