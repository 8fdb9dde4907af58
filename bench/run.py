"""Benchmark of the geopump command line: one workload, one seed, one result.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run drives `geopump.cli.main` in this process, one call after another
(a closed loop with one client, no threads), and checks every output
against an oracle from bench/workloads.py.  Fresh child interpreters
measure set-up time and peak RSS.  The process and its children are pinned
to one CPU.

--trace 0 prints the end-to-end metrics: run_s (mean time of one CLI call
after one untimed warm-up, stdout captured), rows_per_s, peak_rss_mib,
setup_s (mean time of fresh interpreters importing geopump.cli and the
command's lazy imports) and ok_frac (1 - failed/attempted).  run_s and
setup_s are in nominal seconds: wall times divided by the host's slow-down
over the same stretch, read from reference kernels (bench/reference.py)
timed between the calls, because a shared host's speed drifts far more
between runs than a program change worth catching.  The median call and
the wall-time means are printed beside them.

--trace 1 prints the per-layer metrics: self time and call counts of the
package's public functions, wrapped from outside (bench/tracing.py), from
traced CLI calls paired with untraced ones; trace.overhead_s is the
difference of their medians.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Outputs, spans and a
result record with the machine and toolchain go to .bench_work/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from reference import KERNELS, Reference
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = Path(__file__).resolve().parent / "child.py"

MIN_TIMED_CALLS = 3  # timed calls per set, however long each takes
MIN_TRACED_PAIRS = 2  # so that counts can be compared between traced calls
SETUP_CHILDREN = 5
CHILD_TIMEOUT_S = 60  # a fresh pump-trace call takes 2-4 s


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def machine_info() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "llc": None,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.partition(":")[2].strip()
                break
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    with contextlib.suppress(OSError):
        levels = []
        for index in caches.glob("index*"):
            level = int((index / "level").read_text())
            levels.append((level, f"L{level} {(index / 'size').read_text().strip()}"))
        info["llc"] = max(levels)[1] if levels else None
    return info


class Outcomes:
    """Every CLI call of one set, judged against the first call's output.

    A call fails when it exits non-zero, when its bytes differ from the
    first call's, or when the first call's bytes fail the workload's
    oracle (then every call with those bytes fails).
    """

    def __init__(self, workload, argv, seed):
        self.workload, self.argv, self.seed = workload, argv, seed
        self.attempted = 0
        self.failures: dict[str, str] = {}  # call label -> why it failed
        self.digest = None
        self.problems: list[str] = []

    def record(self, label: str, rc, out: Path, detail: str = "") -> None:
        self.attempted += 1
        if rc != 0:
            last = detail.strip().splitlines()[-1:]  # the CLI's error or FAIL line
            self.failures[label] = f"exit {rc} {' '.join(last)}".strip()
            return
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if self.digest is None:
            self.digest = digest
            self.problems = self.workload.check(out, self.argv, self.seed)
        if digest != self.digest:
            self.failures[label] = "output bytes differ from the first call"
        elif self.problems:
            self.failures[label] = "; ".join(self.problems)


def cli_call(cli, argv: list[str], out: Path) -> tuple[object, float, str]:
    """One timed `geopump ARGV --out OUT` call with stdout and stderr captured."""
    out.unlink(missing_ok=True)
    gc.collect()
    captured = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            rc = cli.main([*argv, "--out", str(out)])
    except Exception as exc:  # the call failed; the set goes on and counts it
        rc = f"raised {exc!r}"
    return rc, perf_counter() - start, captured.getvalue()


def child(*args: str) -> tuple[dict, float]:
    """Run bench/child.py in a fresh interpreter; its JSON report and wall time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    report = json.loads(proc.stdout.splitlines()[-1])
    if not Path(report["geopump"]).resolve().is_relative_to(SRC):
        raise BenchError(f"child imported geopump from {report['geopump']}, not {SRC}")
    return report, wall


def tail_percentile(samples: list[float]) -> str:
    """Highest of p50..p99.9 with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = -(-len(ordered) * p // 100)  # ceil
        if len(ordered) - rank >= 10:
            return f"p{p:g}={ordered[int(rank) - 1]:.6g} s"
    return "no percentile has 10 samples beyond it"


def measure(wl, seed: int, seconds: float) -> tuple[dict, Outcomes, dict]:
    """--trace 0: the end-to-end metrics of one set.

    Every timed interval is bracketed by readings of the reference kernels
    (bench/reference.py); times are reported in nominal seconds, wall times
    divided by the host's slow-down over the readings of the same phase.
    Calls and readings are both averaged by their mean, so that both
    measure the same mix of the host's fast and slow spells; the median
    call is printed beside the mean.
    """
    argv = wl.argv(seed)
    outcomes = Outcomes(wl, argv, seed)
    ref = Reference()

    setup_wall, setup_reads = [], [ref.read()]
    for _ in range(SETUP_CHILDREN):
        setup_wall.append(child("import", *wl.lazy_modules)[1])
        setup_reads.append(ref.read())
    setup_slow = ref.slowdown(setup_reads)
    setup = [wall / setup_slow for wall in setup_wall]

    out = WORK / f"{wl.name}-child.out"
    report, _ = child("run", str(out), *argv)
    outcomes.record("fresh-process call", report["rc"], out)

    import geopump.cli as cli

    out = WORK / f"{wl.name}.out"
    rc, warm_s, text = cli_call(cli, argv, out)
    outcomes.record("warm-up call", rc, out, text)
    ref.fit(warm_s)
    walls, run_reads = [], [ref.read()]
    start = perf_counter()
    while len(walls) < MIN_TIMED_CALLS or perf_counter() - start < seconds:
        rc, elapsed, text = cli_call(cli, argv, out)
        run_reads.append(ref.read())
        outcomes.record(f"timed call {len(walls)}", rc, out, text)
        walls.append(elapsed)
    run_slow = ref.slowdown(run_reads)
    times = [wall / run_slow for wall in walls]

    run_s = statistics.fmean(times)
    metrics = {
        "run_s": (run_s, "s"),
        "rows_per_s": (wl.rows / run_s, "rows/s"),
        "peak_rss_mib": (report["maxrss_kib"] / 1024.0, "MiB"),
        "setup_s": (statistics.fmean(setup), "s"),
        "ok_frac": (1.0 - len(outcomes.failures) / outcomes.attempted, "ratio"),
    }
    notes = {
        "run_s": f"mean of n={len(times)} timed calls in nominal seconds, median {statistics.median(times):.6g} s, "
        f"min {min(times):.6g} s, max {max(times):.6g} s, {tail_percentile(times)}; wall mean "
        f"{statistics.fmean(walls):.6g} s, host {run_slow:.3f}x slower than nominal over {len(run_reads)} readings",
        "setup_s": f"mean of {SETUP_CHILDREN} fresh interpreters in nominal seconds; wall mean "
        f"{statistics.fmean(setup_wall):.6g} s, host {setup_slow:.3f}x slower than nominal",
        "ok_frac": f"failed_frac = {len(outcomes.failures)}/{outcomes.attempted} calls attempted",
        "reference": "kernels " + ", ".join(f"{k} {nominal:g} s" for k, (_, nominal) in KERNELS.items())
        + " nominal (bench/reference.py)",
    }
    samples = {"run_wall_s": walls, "run_reference_s": run_reads,
               "setup_wall_s": setup_wall, "setup_reference_s": setup_reads}
    return metrics, outcomes, {**samples, "notes": notes}


# per-layer self times: metric name -> span names whose self time it sums
SELF_TIME_METRICS = {
    "cli.build_config_s": ("cli.main", "cli.build_config"),
    "cli.table_s": ("cli.run",),
    "cli.serialize_s": ("cli.to_csv", "cli.to_json"),
    "cli.write_s": ("cli.emit",),
    "evolution.pump_trace_s": ("evolution.pump_trace",),
    "evolution.propagate_state_s": ("evolution.propagate_state",),
    "stability.phase_diagram_s": ("stability.phase_diagram",),
    "stability.classify_s": ("stability.classify",),
    "asymptotics.p_infinity_s": ("asymptotics.p_infinity",),
    "asymptotics.p_infinity_axis_route_s": ("asymptotics.p_infinity_axis_route",),
    "asymptotics.phi_average_s": ("asymptotics.phi_average",),
    "su2.axis_angle_from_euler_s": ("su2.axis_angle_from_euler",),
    "su2.euler_from_loop_s": ("su2.euler_from_loop",),
    "su2.power_s": ("su2.power",),
    "band.winding_number_s": ("band.winding_number",),
    "band.pump_profile_s": ("band.pump_profile",),
    "sampling.sample_loop_params_s": ("sampling.sample_loop_params",),
    "checks.run_checks_s": ("checks.run_checks",),
}

# per-layer counts; each must repeat exactly between traced calls
COUNT_METRICS = {
    "cli.cells": "count",
    "cli.output_bytes": "bytes",
    "evolution.build_loop_operator.calls": "count",
    "evolution.cycles": "count",
    "stability.classify.calls": "count",
    "stability.recurrence_steps": "count",
    "stability.stable_points": "count",
    "stability.marginal_points": "count",
    "asymptotics.p_infinity.calls": "count",
    "asymptotics.p_infinity_axis_route.calls": "count",
    "su2.axis_angle_from_euler.calls": "count",
    "su2.power.calls": "count",
    "band.winding_number.calls": "count",
}


def measure_traced(wl, seed: int, seconds: float) -> tuple[dict, Outcomes, dict]:
    """--trace 1: the per-layer metrics of one set."""
    argv = wl.argv(seed)
    outcomes = Outcomes(wl, argv, seed)
    reports = [child("import", *wl.lazy_modules)[0] for _ in range(SETUP_CHILDREN)]

    import geopump.cli as cli

    out = WORK / f"{wl.name}.out"
    rc, _, text = cli_call(cli, argv, out)
    outcomes.record("warm-up call", rc, out, text)
    tracer = Tracer()
    plain, traced = [], []
    start = perf_counter()
    while len(traced) < MIN_TRACED_PAIRS or perf_counter() - start < seconds:
        rc, elapsed, text = cli_call(cli, argv, out)
        outcomes.record(f"untraced call {len(plain)}", rc, out, text)
        plain.append(elapsed)
        with tracer.traced_run():
            rc, elapsed, text = cli_call(cli, argv, out)
        outcomes.record(f"traced call {len(traced)}", rc, out, text)
        traced.append(elapsed)

    counts = tracer.counts[0]
    for i, other in enumerate(tracer.counts[1:], start=1):
        if other != counts:
            drift = sorted(k for k in counts.keys() | other.keys() if counts[k] != other[k])
            outcomes.failures.setdefault(f"traced call {i}", f"counts differ from traced call 0: {drift}")

    selfs = [tracer.self_times(i) for i in range(len(tracer.runs))]
    metrics = {
        name: (statistics.median(sum(s.get(span, 0.0) for span in spans) for s in selfs), "s")
        for name, spans in SELF_TIME_METRICS.items()
    }
    metrics.update({name: (counts[name], unit) for name, unit in COUNT_METRICS.items()})
    grid = counts["stability.grid_points"]
    metrics["stability.stable_frac"] = (counts["stability.grid_stable_points"] / grid if grid else 0.0, "ratio")
    metrics["setup.import_cli_s"] = (statistics.median(r["import_cli_s"] for r in reports), "s")
    checks_s = statistics.median(r["import_lazy_s"] for r in reports) if "geopump.checks" in wl.lazy_modules else 0.0
    metrics["setup.import_checks_s"] = (checks_s, "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")

    spans = WORK / f"spans-{wl.name}-seed{seed}.csv"
    tracer.write(spans)
    notes = {
        "trace.overhead_s": f"median of {len(traced)} traced calls minus median of {len(plain)} untraced",
        "spans": str(spans.relative_to(ROOT)),
    }
    return metrics, outcomes, {"traced_s": traced, "untraced_s": plain, "counts": dict(counts), "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "geopump" / "cli.py").is_file():
        print(f"bench: no geopump sources at {SRC}; run inside a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import geopump

    if not Path(geopump.__file__).resolve().is_relative_to(SRC):
        print(f"bench: geopump was imported from {geopump.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    machine = machine_info()
    # one CPU for this process and the children it starts, so that the
    # reference kernels read the same CPU's contention as the work they scale
    machine["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {machine["pinned_cpu"]})
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"# workload {wl.name} seed {args.seed}: geopump {' '.join(wl.argv(args.seed))}")
    try:
        measured = measure_traced if args.trace else measure
        metrics, outcomes, detail = measured(wl, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    for label, reason in outcomes.failures.items():
        print(f"# FAILED {label}: {reason}", file=sys.stderr)
    notes = detail.pop("notes")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        shown = f"{value:>14.6g}" if isinstance(value, float) else f"{value:>14d}"
        print(f"{name:40s} {shown} {unit}{note}")
    for name in notes.keys() - metrics.keys():
        print(f"# {name}: {notes[name]}")

    result = {
        "correct": not outcomes.failures,
        "attempted": outcomes.attempted,
        "failed": len(outcomes.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "argv": wl.argv(args.seed), "machine": machine, "failures": outcomes.failures,
        "samples": detail, **result,
    }
    path = WORK / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
