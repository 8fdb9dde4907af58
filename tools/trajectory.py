"""Write BENCH_<n>.json: one point of the performance trajectory.

    python3 tools/trajectory.py N

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
`wc -l src/geopump/*.py` prints.  The
file goes to the root of the checkout, with the commit from `git rev-parse
HEAD`, whether the working tree differed from it, and diff_sha256, the
SHA-256 of `git diff HEAD --binary` (untracked files aside), so that a
point measured before its commit names the tree it measured; a clean tree
gives the hash of no bytes.  A change that claims a gain quotes the
numbers of two such files, before and after.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SEED = 3
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
SWEEP_SEEDS = 300
# the child of verify_sweep: one line per seed, [name, passed, value, bound] per check
_SWEEP = """
import json, sys
from geopump.checks import run_checks
for seed in range(int(sys.argv[1])):
    print(json.dumps([[r.name, bool(r.passed), r.value, r.bound] for r in run_checks(seed)]))
"""


def _run(argv, text=True, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=text, **kwargs)


def bench(workload: str, seconds: float) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(seconds)]
    done = _run(argv, check=True)
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


def src_lines() -> int:
    # newlines, as wc -l counts them, in the package's modules
    return sum(path.read_bytes().count(b"\n") for path in (ROOT / "src" / "geopump").glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="number of the change; the file is BENCH_<n>.json")
    n = parser.parse_args(argv).n
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    _run([sys.executable, "-m", "compileall", "-q", "src"], check=True)
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
        "tier1": tier1(),
        "verify_sweep": verify_sweep(),
        "src_lines": src_lines(),
    }
    out = ROOT / f"BENCH_{n}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
