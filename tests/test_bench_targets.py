"""The benchmark's traced run looks its targets up by name and silently
drops the metrics of any that no longer resolve, so every name it traces
must stay a callable of the package."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_callable():
    targets = _load_tracing().TARGETS
    assert targets
    for target in targets:
        obj = importlib.import_module(f"haarwords.{target.module}")
        for attr in target.path.split("."):
            obj = getattr(obj, attr, None)
        assert callable(obj), f"{target.name} does not resolve to a callable"
