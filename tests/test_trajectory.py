import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "trajectory.py"


def _load():
    spec = importlib.util.spec_from_file_location("tools_trajectory", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_DIFF = b"diff --git a/src/geopump/cli.py b/src/geopump/cli.py\n-old\n+new\n"


def _sweep_line(seed):
    # a canned child's line for one seed: "tight" fails at seeds 7 and 250,
    # whose value 0.75 is its worst (first at seed 7); "flat" reads 0.5 at every seed
    tight = 0.75 if seed in (7, 250) else seed / 1000
    rows = [["tight", tight <= 0.5, tight, 0.5], ["flat", True, 0.5, 0.5 + 1e-12]]
    return json.dumps(rows)


def _archive(files):
    buffer = io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w") as tar:
        for name, text in files.items():
            data = text.encode()
            info = tarfile.TarInfo(name)
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
    return buffer.getvalue()


# a canned pair's metrics by side: the change wins pairs 0 and 3 of each
# metric, loses pair 2 and ties pair 1
_PAIRED = {
    "parent": [{"run_s": 1.0, "rows_per_s": 100.0}] * 4,
    "change": [
        {"run_s": 0.9, "rows_per_s": 110.0},
        {"run_s": 1.0, "rows_per_s": 100.0},
        {"run_s": 1.1, "rows_per_s": 90.0},
        {"run_s": 0.8, "rows_per_s": 120.0},
    ],
}


def _canned_record(tmp_path, monkeypatch, diff, args=()):
    # every subprocess is canned: the record is assembled from their output
    trajectory = _load()
    calls, paired = [], []

    def canned(argv, text=True, cwd=None, **kwargs):
        calls.append(argv)
        if argv[:2] == ["git", "rev-parse"]:
            out = "abc123\n" if argv[2] == "HEAD" else "def456\n"
        elif argv[:2] == ["git", "archive"]:
            assert argv[2:] == ["--format=tar", "be961e8"] and text is False
            out = _archive({"src/geopump/a.py": "old = 1\n", "bench/run.py": ""})
        elif argv[:2] == ["git", "ls-files"]:
            out = "src/geopump/a.py\0src/geopump/b.py\0deleted.py\0"
        elif argv[:2] == ["git", "status"]:
            out = " M src/geopump/cli.py\n" if diff else ""
        elif argv[:2] == ["git", "diff"]:
            assert argv[2:] == ["HEAD", "--binary"] and text is False
            out = diff
        elif argv[1:] == ["-m", "compileall", "-q", "src"]:
            if cwd is not None:
                paired.append(("warm", Path(cwd)))
            out = ""
        elif argv[1] == "-c" and argv[2] == trajectory._RECIPE:
            # a recipe's child writes its argv, and verify's exits 3; the
            # parent checkout's verify writes other bytes
            assert "src" in kwargs["env"]["PYTHONPATH"]
            recipe, text = argv[4:], " ".join(argv[4:])
            if recipe[0] == "verify" and cwd is not None and Path(cwd).name == "parent":
                text += "!"
            Path(argv[3]).write_text(text)
            code = 3 if recipe[0] == "verify" else 0
            out = f"check_id passed value\n{json.dumps([0.5, code, 30.5, 1000])}\n"
        elif argv[1] == "-c":  # the verify sweep's child
            assert argv[2] == trajectory._SWEEP and "src" in kwargs["env"]["PYTHONPATH"]
            out = "".join(_sweep_line(seed) + "\n" for seed in range(int(argv[3])))
        elif argv[1] == "bench/run.py" and cwd is not None:
            side = Path(cwd).name
            files = sorted(str(f.relative_to(cwd)) for f in Path(cwd).rglob("*.py"))
            paired.append((side, argv[3], files, (Path(cwd) / "src/geopump/a.py").read_text()))
            done = sum(1 for run in paired if run[:2] == (side, argv[3])) - 1
            metrics = {k: {"value": v, "unit": "-"} for k, v in _PAIRED[side][done].items()}
            result = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
            out = f"# machine: nproc=2\n{json.dumps(result)}\n"
        elif argv[1] == "bench/run.py":
            result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"run_s": 0.1}}
            out = f"# machine: nproc=2, python=3.11\nrun_s 0.1 s\n{json.dumps(result)}\n"
        else:
            out = "....\n3.10s call     tests/test_x.py::test_y\n4 passed, 1 failed in 5.00s\n"
        return subprocess.CompletedProcess(argv, 0, out, "")

    monkeypatch.setattr(trajectory, "_run", canned)
    monkeypatch.setattr(trajectory, "ROOT", tmp_path)
    monkeypatch.setattr(trajectory, "PAIRS", 4)
    package = tmp_path / "src" / "geopump"
    (package / "__pycache__").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # wc -l counts no line without its newline
    (package / "notes.txt").write_text("\n" * 5)
    (package / "__pycache__" / "c.py").write_text("\n" * 7)
    end_to_end = [{"name": "run_s", "better": "lower"}, {"name": "rows_per_s", "better": "higher"}]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 15, "workloads": [{"name": "pump-trace"}, {"name": "verify"}],
        "end_to_end": end_to_end,
    }))
    assert trajectory.main(["29", *args]) == 0
    record = json.loads((tmp_path / "BENCH_29.json").read_text())
    return record, calls, paired


def test_record_keeps_each_runs_last_line_and_the_tier1_counts(tmp_path, monkeypatch):
    record, calls, _ = _canned_record(tmp_path, monkeypatch, _DIFF)
    assert record["commit"] == "abc123" and record["dirty"] is True
    assert record["diff_sha256"] == hashlib.sha256(_DIFF).hexdigest()
    assert record["seed"] == 3 and record["seconds"] == 15 and record["pyc_warmed"] is True
    assert sorted(record["workloads"]) == ["pump-trace", "verify"]
    assert record["workloads"]["verify"]["machine"] == "nproc=2, python=3.11"
    assert record["workloads"]["verify"]["result"]["metrics"] == {"run_s": 0.1}
    assert (record["tier1"]["passed"], record["tier1"]["failed"]) == (4, 1)
    assert record["src_lines"] == 2  # wc -l src/geopump/*.py
    bench_argv = [argv[1:] for argv in calls if argv[1] == "bench/run.py"]
    assert bench_argv[0] == [
        "bench/run.py", "--workload", "pump-trace", "--seed", "3", "--seconds", "15"
    ]
    # the caches are written before the first bench run, so its children read them
    warm = calls.index([sys.executable, "-m", "compileall", "-q", "src"])
    assert warm < min(i for i, argv in enumerate(calls) if argv[1] == "bench/run.py")
    assert "pairs" not in record  # only --against runs them


def test_record_counts_the_lines_of_each_module(tmp_path, monkeypatch):
    # wc -l of each src/geopump/*.py by module name: no other file, nothing in __pycache__
    record, _, _ = _canned_record(tmp_path, monkeypatch, _DIFF)
    assert record["src_lines_by_module"] == {"a": 2, "b": 0}
    assert record["src_lines"] == sum(record["src_lines_by_module"].values())


_AGAINST = ("--against", "be961e8")


def test_pairs_run_in_sibling_checkouts_of_equal_path_length(tmp_path, monkeypatch):
    _, _, paired = _canned_record(tmp_path, monkeypatch, _DIFF, _AGAINST)
    warmed = [path for step, path, *_ in paired if step == "warm"]
    assert [path.name for path in warmed] == ["parent", "change"]
    assert warmed[0].parent == warmed[1].parent != tmp_path
    assert len(str(warmed[0])) == len(str(warmed[1]))
    assert paired.index(("warm", warmed[1])) < min(
        i for i, run in enumerate(paired) if run[0] != "warm"
    )
    runs = {side: (files, text) for side, _, files, text in paired[2:]}
    # the parent is REV's archive; the change, the tree's listed files that exist
    assert runs["parent"] == (["bench/run.py", "src/geopump/a.py"], "old = 1\n")
    assert runs["change"] == (["src/geopump/a.py", "src/geopump/b.py"], "x = 1\ny = 2\n")
    assert not warmed[0].parent.exists()  # the checkouts go with the run


def test_pairs_alternate_which_side_runs_first(tmp_path, monkeypatch):
    _, _, paired = _canned_record(tmp_path, monkeypatch, _DIFF, _AGAINST)
    order = [(side, workload) for side, workload, *_ in paired if side != "warm"]
    sides = ["parent", "change", "change", "parent"] * 2
    assert order == [(side, "pump-trace") for side in sides] + [(side, "verify") for side in sides]


def test_pairs_count_wins_by_each_metrics_better_and_ties_for_neither(tmp_path, monkeypatch):
    record, _, _ = _canned_record(tmp_path, monkeypatch, _DIFF, _AGAINST)
    pairs = record["pairs"]
    assert (pairs["against"], pairs["k"]) == ("def456", 4)
    assert sorted(pairs["workloads"]) == ["pump-trace", "verify"]
    run_s = pairs["workloads"]["verify"]["run_s"]
    assert run_s["parent"] == {"values": [1.0] * 4, "median": 1.0, "quartiles": [1.0, 1.0]}
    assert run_s["change"]["values"] == [0.9, 1.0, 1.1, 0.8]
    assert run_s["change"]["median"] == 0.95
    assert run_s["change"]["quartiles"] == [0.875, 1.025]
    for metric in ("run_s", "rows_per_s"):  # lower and higher are better
        for workload in pairs["workloads"].values():
            assert (workload[metric]["change_wins"], workload[metric]["parent_wins"]) == (2, 1)


def test_the_verify_sweep_keeps_each_checks_worst_seed_bound_and_failures(tmp_path, monkeypatch):
    record, calls, _ = _canned_record(tmp_path, monkeypatch, _DIFF)
    sweep = record["verify_sweep"]
    assert sweep["seeds"] == 300
    sweeps = [argv[3] for argv in calls if argv[1] == "-c" and argv[2] != _load()._RECIPE]
    assert sweeps == ["300"]  # one child for all seeds
    assert sweep["checks"] == {
        "tight": {"worst": 0.75, "worst_seed": 7, "bound": 0.5, "failing_seeds": [7, 250]},
        "flat": {"worst": 0.5, "worst_seed": 0, "bound": 0.5 + 1e-12, "failing_seeds": []},
    }


def test_the_sweep_child_prints_one_line_per_seed_in_check_order():
    # the child's own code, at two seeds, against run_checks in this process
    from geopump.checks import run_checks

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", _load()._SWEEP, "2"], cwd=ROOT,
                          capture_output=True, text=True, env=env, check=True)
    want = [[[r.name, r.passed, r.value, r.bound] for r in run_checks(seed)] for seed in (0, 1)]
    assert [json.loads(line) for line in done.stdout.splitlines()] == want


def test_each_recipe_records_its_runs_usage_and_output_digest(tmp_path, monkeypatch):
    record, calls, _ = _canned_record(tmp_path, monkeypatch, _DIFF)
    recipes = _load().RECIPES
    assert sorted(record["recipes"]) == sorted(recipes)
    for name, row in record["recipes"].items():
        argv = recipes[name]
        assert row["argv"] == argv and row["wall_s"] >= 0 and row["main_s"] == 0.5
        assert (row["ru_maxrss_mib"], row["ru_minflt"]) == (30.5, 1000)
        assert row["exit_code"] == (3 if argv[0] == "verify" else 0)
        assert row["sha256"] == hashlib.sha256(" ".join(argv).encode()).hexdigest()
        assert "bytes_equal" not in row  # only --against runs the parent's
    assert sum(1 for argv in calls if argv[1:3] == ["-c", _load()._RECIPE]) == len(recipes)


def test_against_runs_each_recipe_once_in_the_parent_and_compares_bytes(tmp_path, monkeypatch):
    record, calls, _ = _canned_record(tmp_path, monkeypatch, _DIFF, _AGAINST)
    # the canned parent's verify writes other bytes; every other recipe, the same
    equal = {name: row["bytes_equal"] for name, row in record["recipes"].items()}
    assert equal == {name: name != "verify" for name in _load().RECIPES}
    assert sum(1 for argv in calls if argv[1:3] == ["-c", _load()._RECIPE]) == 2 * len(equal)


def test_the_recipe_child_writes_the_bytes_main_writes(tmp_path):
    # the child's own code on a 10-cycle simulate, against main in this process
    from geopump.cli import main

    argv = ["simulate", "--theta", "1", "--phi", "0.3", "--cycles", "10"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    row = _load().recipe(argv)
    assert row["exit_code"] == 0 and row["ru_maxrss_mib"] > 0 and row["ru_minflt"] > 0
    assert row["wall_s"] >= row["main_s"] > 0
    assert row["sha256"] == hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest()


def test_a_clean_tree_records_the_hash_of_no_bytes(tmp_path, monkeypatch):
    record, _, _ = _canned_record(tmp_path, monkeypatch, b"")
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
