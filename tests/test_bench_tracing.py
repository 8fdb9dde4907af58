import importlib
import importlib.util
from pathlib import Path

from geopump.cli import main

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


def test_traced_asymptote_counts_its_rate_kernels(tmp_path):
    # 5000 draws are two row blocks: each block calls both rate routes once,
    # and the draws are made once
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    argv = ["asymptote", "--samples", "5000", "--seed", "1", "--out", str(tmp_path / "r.csv")]
    with tracer.traced_run():
        assert main(argv) == 0
    (counts,) = tracer.counts
    assert counts["asymptotics.p_infinity.calls"] == 2
    assert counts["asymptotics.p_infinity_axis_route.calls"] == 2
    assert counts["sampling.sample_loop_params.calls"] == 1
