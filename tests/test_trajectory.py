import importlib.util
import json
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "trajectory.py"


def _load():
    spec = importlib.util.spec_from_file_location("tools_trajectory", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_keeps_each_runs_last_line_and_the_tier1_counts(tmp_path, monkeypatch):
    # every subprocess is canned: the record is assembled from their output
    trajectory = _load()
    calls = []

    def canned(argv, **kwargs):
        calls.append(argv)
        if argv[:2] == ["git", "rev-parse"]:
            out = "abc123\n"
        elif argv[:2] == ["git", "status"]:
            out = " M src/geopump/cli.py\n"
        elif argv[1] == "bench/run.py":
            result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"run_s": 0.1}}
            out = f"# machine: nproc=2, python=3.11\nrun_s 0.1 s\n{json.dumps(result)}\n"
        else:
            out = "....\n3.10s call     tests/test_x.py::test_y\n4 passed, 1 failed in 5.00s\n"
        return subprocess.CompletedProcess(argv, 0, out, "")

    monkeypatch.setattr(trajectory, "_run", canned)
    monkeypatch.setattr(trajectory, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 15, "workloads": [{"name": "pump-trace"}, {"name": "verify"}]})
    )
    assert trajectory.main(["29"]) == 0
    record = json.loads((tmp_path / "BENCH_29.json").read_text())
    assert record["commit"] == "abc123" and record["dirty"] is True
    assert record["seed"] == 3 and record["seconds"] == 15
    assert sorted(record["workloads"]) == ["pump-trace", "verify"]
    assert record["workloads"]["verify"]["machine"] == "nproc=2, python=3.11"
    assert record["workloads"]["verify"]["result"]["metrics"] == {"run_s": 0.1}
    assert (record["tier1"]["passed"], record["tier1"]["failed"]) == (4, 1)
    bench_argv = [argv[1:] for argv in calls if argv[1] == "bench/run.py"]
    assert bench_argv[0] == [
        "bench/run.py", "--workload", "pump-trace", "--seed", "3", "--seconds", "15"
    ]
