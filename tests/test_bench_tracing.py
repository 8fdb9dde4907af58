import importlib

from geopump import phase_diagram
from geopump.cli import main


def test_traced_run_finds_every_wrapped_function(load_bench):
    # the traced benchmark resolves (module, function) pairs with getattr,
    # so a library function it names must not disappear
    tracing = load_bench("tracing")
    missing = [
        f"{module}.{function}"
        for module, function in tracing.WRAPPED
        if not hasattr(importlib.import_module(f"geopump.{module}"), function)
    ]
    assert missing == []


def test_traced_asymptote_counts_its_rate_kernels(tmp_path, load_bench):
    # 5000 draws are two row blocks: each block calls both rate routes once,
    # and the draws are made once
    tracing = load_bench("tracing")
    tracer = tracing.Tracer()
    argv = ["asymptote", "--samples", "5000", "--seed", "1", "--out", str(tmp_path / "r.csv")]
    with tracer.traced_run():
        assert main(argv) == 0
    (counts,) = tracer.counts
    assert counts["asymptotics.p_infinity.calls"] == 2
    assert counts["asymptotics.p_infinity_axis_route.calls"] == 2
    assert counts["sampling.sample_loop_params.calls"] == 1


def test_traced_verify_counts_its_probe_and_phase_average(tmp_path, load_bench):
    # five drives of 100 000 raw cycles for the norm probe, and one phase
    # average over a 25-point theta grid; the trace checks read stacked
    # pump_trace_blocks, which the tracer does not count, so pump_trace adds
    # no cycles; the loop operators come one stack per draw set (nine calls,
    # the stable-curve points among them), one per matrix-power closed form
    # (1) and one per norm probe (5)
    tracing = load_bench("tracing")
    tracer = tracing.Tracer()
    with tracer.traced_run():
        assert main(["verify", "--seed", "1", "--out", str(tmp_path / "v.csv")]) == 0
    (counts,) = tracer.counts
    assert counts["evolution.propagate_state.calls"] == 5
    assert counts["evolution.cycles"] == 500_000
    assert counts["asymptotics.phi_average.calls"] == 1
    assert counts["evolution.build_loop_operator.calls"] == 15


def test_traced_phase_diagram_counts_its_grid(tmp_path, load_bench):
    # the tracer's phase-diagram hook reads the diagram's axes and verdicts
    tracing = load_bench("tracing")
    tracer = tracing.Tracer()
    flags = ["--theta-grid", "20", "--phi-grid", "20", "--n-max", "60", "--offset", "0"]
    with tracer.traced_run():
        assert main(["phase-diagram", *flags, "--out", str(tmp_path / "pd.csv")]) == 0
    (counts,) = tracer.counts
    stable = int((phase_diagram(20, 20, 60, offset=0.0).orders > 0).sum())
    assert counts["stability.grid_points"] == 400
    assert counts["stability.grid_stable_points"] == stable == 76
