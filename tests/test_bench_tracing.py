import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_run_finds_every_wrapped_function():
    # the traced benchmark resolves (module, function) pairs with getattr,
    # so a library function it names must not disappear
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{function}"
        for module, function in tracing.WRAPPED
        if not hasattr(importlib.import_module(f"geopump.{module}"), function)
    ]
    assert missing == []
