"""Write BENCH_<n>.json: one point of the performance trajectory.

    python3 tools/trajectory.py N [--against REV]

For each workload in BENCHMARK.json this runs

    python3 bench/run.py --workload W --seed 3 --seconds S

as a subprocess, S being BENCHMARK.json's run_seconds, and keeps the run's
`# machine:` line and its last stdout line, one JSON object with correct,
attempted, failed and metrics.  Before the first run it writes the
bytecode caches of src with `python -m compileall -q src`, which writes
them whatever PYTHONDONTWRITEBYTECODE says, so every run's set-up reads
warm caches (pyc_warmed in the file).  It then times one tier-1 run (the
pytest command in ROADMAP.md) and counts its passes and failures, runs
verify's battery (geopump.checks.run_checks) at seeds 0-299 in one child
and keeps, for each check, its worst value, that value's seed, its bound
and its failing seeds (verify_sweep), and records src_lines, the total
`wc -l src/geopump/*.py` prints.  It runs each recipe of RECIPES, the
north star's CLI runs at scale, once as a fresh child that calls
geopump.cli.main(argv + ["--out", <tmp file>]), and keeps its wall time,
the time in main, the child's ru_maxrss in MiB and ru_minflt, main's exit
code and the SHA-256 of the output (recipes).  The file goes to the root
of the checkout, with the commit from `git rev-parse HEAD`, whether the
working tree differed from it, and diff_sha256, the SHA-256 of `git diff
HEAD --binary` (untracked files aside), so that a point measured before
its commit names the tree it measured; a clean tree gives the hash of no
bytes.

With --against REV it also measures the working tree against REV in
PAIRS (10) pairs of runs.  REV is exported with `git archive` to
<tmp>/parent and the working tree's tracked and unignored files are
copied to <tmp>/change, sibling paths of equal length, since peak RSS
moves with the checkout path's length; both get the same compileall
warming.  Each workload then runs PAIRS times per side, alternating
which side goes first.  For each workload and end-to-end metric of
BENCHMARK.json the record holds both sides' values, medians and
quartiles, and the pairs each side won by that metric's `better` (a tie
counts for neither).  A change that claims a gain quotes these pairs.
Each recipe also runs once in <tmp>/parent, and its record says whether
the parent wrote the same bytes (bytes_equal).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SEED = 3
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
SWEEP_SEEDS = 300
PAIRS = 10
SIDES = ("parent", "change")  # names of equal length, so are the checkouts' paths
WARM = [sys.executable, "-m", "compileall", "-q", "src"]
# the child of verify_sweep: one line per seed, [name, passed, value, bound] per check
_SWEEP = """
import json, sys
from geopump.checks import run_checks
for seed in range(int(sys.argv[1])):
    print(json.dumps([[r.name, r.passed, r.value, r.bound] for r in run_checks(seed)]))
"""
# the north star's CLI runs at scale, by name
RECIPES = {
    "simulate-csv": ["simulate", "--theta", "1", "--phi", "0.3", "--cycles", "1000000"],
    "simulate-json": ["simulate", "--theta", "1", "--phi", "0.3", "--cycles", "1000000",
                      "--format", "json"],
    "phase-diagram-1000x1000": ["phase-diagram", "--theta-grid", "1000", "--phi-grid", "1000",
                                "--n-max", "200"],
    "phase-diagram-n100000": ["phase-diagram", "--theta-grid", "100", "--phi-grid", "100",
                              "--n-max", "100000"],
    "asymptote": ["asymptote", "--samples", "1000000", "--seed", "3"],
    "asymptote-json": ["asymptote", "--samples", "1000000", "--seed", "3", "--format", "json"],
    "band-scan": ["band-scan", "--a", "1", "--k-grid", "1000000"],
    "verify": ["verify", "--seed", "3"],
}
# the child of a recipe: argv is [out, *recipe]; its last line holds main_s,
# main's exit code and the child's own ru_maxrss (KiB on Linux) and ru_minflt
_RECIPE = """
import json, resource, sys, time
from geopump.cli import main
start = time.perf_counter()
code = main(sys.argv[2:] + ["--out", sys.argv[1]])
main_s = time.perf_counter() - start
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps([main_s, code, usage.ru_maxrss / 1024, usage.ru_minflt]))
"""


def _run(argv, text=True, cwd=None, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=cwd or ROOT, capture_output=True, text=text, **kwargs)


def bench(workload: str, seconds: float, cwd=None) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(seconds)]
    done = _run(argv, cwd=cwd, check=True)
    lines = done.stdout.splitlines()
    machine = next(line for line in lines if line.startswith("# machine: "))
    return {"machine": machine.removeprefix("# machine: "), "result": json.loads(lines[-1])}


def _src_env() -> dict:
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def tier1() -> dict:
    start = perf_counter()
    done = _run(TIER1, env=_src_env())
    wall_s = perf_counter() - start
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|error)", summary)}
    return {
        "wall_s": round(wall_s, 3),
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0) + counts.get("error", 0),
        "exit_code": done.returncode,
        "summary": summary,
    }


def verify_sweep() -> dict:
    done = _run([sys.executable, "-c", _SWEEP, str(SWEEP_SEEDS)], env=_src_env(), check=True)
    checks = {}
    for seed, line in enumerate(done.stdout.splitlines()):
        for name, passed, value, bound in json.loads(line):
            row = checks.setdefault(
                name, {"worst": value, "worst_seed": seed, "bound": bound, "failing_seeds": []}
            )
            if value > row["worst"]:  # a check passes when value <= bound
                row["worst"], row["worst_seed"] = value, seed
            if not passed:
                row["failing_seeds"].append(seed)
    return {"seeds": SWEEP_SEEDS, "checks": checks}


def _sha256(path: Path) -> str:
    # in pieces: a child's ru_maxrss counts this process's peak RSS when it
    # was spawned, so the outputs, up to about 100 MiB, are never held whole
    digest = hashlib.sha256()
    with path.open("rb") as f:
        for piece in iter(lambda: f.read(1 << 20), b""):
            digest.update(piece)
    return digest.hexdigest()


def recipe(argv: list, cwd=None) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        start = perf_counter()
        done = _run([sys.executable, "-c", _RECIPE, str(out), *argv], cwd=cwd, env=_src_env(),
                    check=True)
        wall_s = perf_counter() - start
        main_s, code, maxrss_mib, minflt = json.loads(done.stdout.splitlines()[-1])
        digest = _sha256(out) if out.exists() else None
    return {"argv": argv, "wall_s": wall_s, "main_s": main_s, "ru_maxrss_mib": maxrss_mib,
            "ru_minflt": minflt, "exit_code": code, "sha256": digest}


def src_lines() -> int:
    # newlines, as wc -l counts them, in the package's modules
    return sum(path.read_bytes().count(b"\n") for path in (ROOT / "src" / "geopump").glob("*.py"))


def checkouts(rev: str, tmp: Path) -> dict:
    """{"parent": <tmp>/parent holding `git archive REV`, "change": <tmp>/change
    holding the working tree's tracked and unignored files}, both warmed."""
    paths = {side: tmp / side for side in SIDES}
    archive = _run(["git", "archive", "--format=tar", rev], text=False, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # extractall takes a filter from Python 3.10.12, 3.11.4 and 3.12 on
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(paths["parent"], **safe)
    listed = _run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                  check=True).stdout
    for name in filter(None, listed.split("\0")):
        if (ROOT / name).is_file():  # a tracked file deleted from the tree is listed too
            (paths["change"] / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, paths["change"] / name)
    for path in paths.values():
        _run(WARM, cwd=path, check=True)
    return paths


def _side(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "quartiles": [q1, q3]}


def _paired(parent: list, change: list, better: str) -> dict:
    sign = 1 if better == "higher" else -1
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    return {
        "parent": _side(parent),
        "change": _side(change),
        "change_wins": sum(g > 0 for g in gains),
        "parent_wins": sum(g < 0 for g in gains),
    }


def pairs(rev: str, declared: dict, recipes: dict) -> dict:
    """The paired workload runs against REV; each of `recipes` (name:
    record) gains bytes_equal from one run of it in REV's checkout."""
    values = {wl["name"]: {side: [] for side in SIDES} for wl in declared["workloads"]}
    with tempfile.TemporaryDirectory() as tmp:
        paths = checkouts(rev, Path(tmp))
        for workload, runs in values.items():
            for i in range(PAIRS):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    result = bench(workload, declared["run_seconds"], cwd=paths[side])["result"]
                    runs[side].append(result["metrics"])
        for row in recipes.values():
            parent = recipe(row["argv"], cwd=paths["parent"])
            row["bytes_equal"] = parent["sha256"] == row["sha256"]
    return {
        "against": _run(["git", "rev-parse", rev], check=True).stdout.strip(),
        "k": PAIRS,
        "workloads": {
            workload: {
                metric["name"]: _paired(
                    *([m[metric["name"]]["value"] for m in runs[side]] for side in SIDES),
                    metric["better"],
                )
                for metric in declared["end_to_end"]
            }
            for workload, runs in values.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="number of the change; the file is BENCH_<n>.json")
    parser.add_argument("--against", metavar="REV", help="also run pairs against this revision")
    args = parser.parse_args(argv)
    n = args.n
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    _run(WARM, check=True)
    record = {
        "n": n,
        "commit": _run(["git", "rev-parse", "HEAD"], check=True).stdout.strip(),
        "dirty": bool(_run(["git", "status", "--porcelain"], check=True).stdout.strip()),
        "diff_sha256": hashlib.sha256(
            _run(["git", "diff", "HEAD", "--binary"], text=False, check=True).stdout
        ).hexdigest(),
        "seed": SEED,
        "seconds": seconds,
        "pyc_warmed": True,
        "workloads": {wl["name"]: bench(wl["name"], seconds) for wl in declared["workloads"]},
        "recipes": {name: recipe(argv) for name, argv in RECIPES.items()},
        "tier1": tier1(),
        "verify_sweep": verify_sweep(),
        "src_lines": src_lines(),
    }
    if args.against is not None:
        record["pairs"] = pairs(args.against, declared, record["recipes"])
    out = ROOT / f"BENCH_{n}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
