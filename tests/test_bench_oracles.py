import pytest

from geopump.cli import main


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["pump-trace", "phase-grid", "rate-draws", "verify"])
def test_workload_output_passes_its_oracle(tmp_path, load_bench, name, seed):
    # the benchmark's own argv builders and oracles
    workload = load_bench("workloads").WORKLOADS[name]
    argv = workload.argv(seed)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert workload.check(out, argv, seed) == []
