import importlib.util
import sys
from pathlib import Path

import pytest

from geopump.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _workloads():
    # the benchmark's own argv builders and oracles, loaded from bench/ by path
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["pump-trace", "phase-grid", "rate-draws"])
def test_workload_output_passes_its_oracle(tmp_path, name, seed):
    workload = _workloads()[name]
    argv = workload.argv(seed)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert workload.check(out, argv, seed) == []
