"""Write BENCH_<n>.json: one point of the performance trajectory.

    python3 tools/trajectory.py N

For each workload in BENCHMARK.json this runs

    python3 bench/run.py --workload W --seed 3 --seconds S

as a subprocess, S being BENCHMARK.json's run_seconds, and keeps the run's
`# machine:` line and its last stdout line, one JSON object with correct,
attempted, failed and metrics.  It then times one tier-1 run (the pytest
command in ROADMAP.md) and counts its passes and failures.  The file goes
to the root of the checkout, with the commit from `git rev-parse HEAD`,
whether the working tree differed from it, and diff_sha256, the SHA-256 of
`git diff HEAD --binary` (untracked files aside), so that a point measured
before its commit names the tree it measured; a clean tree gives the hash
of no bytes.  A change that claims a gain quotes the numbers of two such
files, before and after.
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


def _run(argv, text=True, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=text, **kwargs)


def bench(workload: str, seconds: float) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(seconds)]
    done = _run(argv, check=True)
    lines = done.stdout.splitlines()
    machine = next(line for line in lines if line.startswith("# machine: "))
    return {"machine": machine.removeprefix("# machine: "), "result": json.loads(lines[-1])}


def tier1() -> dict:
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    start = perf_counter()
    done = _run(TIER1, env=env)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="number of the change; the file is BENCH_<n>.json")
    n = parser.parse_args(argv).n
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    record = {
        "n": n,
        "commit": _run(["git", "rev-parse", "HEAD"], check=True).stdout.strip(),
        "dirty": bool(_run(["git", "status", "--porcelain"], check=True).stdout.strip()),
        "diff_sha256": hashlib.sha256(
            _run(["git", "diff", "HEAD", "--binary"], text=False, check=True).stdout
        ).hexdigest(),
        "seed": SEED,
        "seconds": seconds,
        "workloads": {wl["name"]: bench(wl["name"], seconds) for wl in declared["workloads"]},
        "tier1": tier1(),
    }
    out = ROOT / f"BENCH_{n}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
