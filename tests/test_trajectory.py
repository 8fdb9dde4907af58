import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "trajectory.py"


def _load():
    spec = importlib.util.spec_from_file_location("tools_trajectory", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_DIFF = b"diff --git a/src/geopump/cli.py b/src/geopump/cli.py\n-old\n+new\n"


def _canned_record(tmp_path, monkeypatch, diff):
    # every subprocess is canned: the record is assembled from their output
    trajectory = _load()
    calls = []

    def canned(argv, text=True, **kwargs):
        calls.append(argv)
        if argv[:2] == ["git", "rev-parse"]:
            out = "abc123\n"
        elif argv[:2] == ["git", "status"]:
            out = " M src/geopump/cli.py\n" if diff else ""
        elif argv[:2] == ["git", "diff"]:
            assert argv[2:] == ["HEAD", "--binary"] and text is False
            out = diff
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
    return json.loads((tmp_path / "BENCH_29.json").read_text()), calls


def test_record_keeps_each_runs_last_line_and_the_tier1_counts(tmp_path, monkeypatch):
    record, calls = _canned_record(tmp_path, monkeypatch, _DIFF)
    assert record["commit"] == "abc123" and record["dirty"] is True
    assert record["diff_sha256"] == hashlib.sha256(_DIFF).hexdigest()
    assert record["seed"] == 3 and record["seconds"] == 15
    assert sorted(record["workloads"]) == ["pump-trace", "verify"]
    assert record["workloads"]["verify"]["machine"] == "nproc=2, python=3.11"
    assert record["workloads"]["verify"]["result"]["metrics"] == {"run_s": 0.1}
    assert (record["tier1"]["passed"], record["tier1"]["failed"]) == (4, 1)
    bench_argv = [argv[1:] for argv in calls if argv[1] == "bench/run.py"]
    assert bench_argv[0] == [
        "bench/run.py", "--workload", "pump-trace", "--seed", "3", "--seconds", "15"
    ]


def test_a_clean_tree_records_the_hash_of_no_bytes(tmp_path, monkeypatch):
    record, _ = _canned_record(tmp_path, monkeypatch, b"")
    assert record["dirty"] is False
    assert record["diff_sha256"] == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


# one failing property test and one passing test, run under the repo's
# pytest settings: hypothesis's failure report imports libcst, which imports
# the deprecated mypy_extensions.TypedDict; raised as an error, that warning
# ends the run with an internal error (exit 3) before the second test
_TWO_TESTS = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    # the tier-1 count above reads "N passed, M failed" from pytest's summary
    (tmp_path / "test_two.py").write_text(_TWO_TESTS, encoding="utf-8")
    argv = [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_two.py"]
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTEST_")}
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, env=env)
    assert done.returncode == 1, done.stdout[-2000:]
    assert "1 failed, 1 passed" in done.stdout.splitlines()[-1]
