"""The four benchmark workloads: the CLI arguments each one generates from the
seed, and the independent oracle that checks the bytes it writes.  Why each
workload is in the set is recorded in BENCHMARK.json.

A check returns a list of problems; an empty list means the output is right.
Oracles never call into geopump: they rebuild what they need from the loop
formula and plain numpy, so a defect in the package cannot hide in the
oracle too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

PUMP_CYCLES = 200_000  # one call takes 1.5-3 s, so a run holds several calls
GRID = 200
GRID_N_MAX = 200
GRID_TOL = 1e-9
RATE_SAMPLES = 40_000
VERIFY_CHECKS = 18

# oracle tolerances, fixed before any run was measured
Q_TOL = 1e-9  # |q_n - |(U^n)_10|^2| for a matrix_power oracle up to n = 1e6 and beyond
PREFIX_MEAN_TOL = 1e-12
ROUTE_TOL = 1e-10  # |p_inf - p_inf_axis|, the package's own route-equivalence bound
RATE_CEILING = 0.5 + 1e-12  # p_inf <= 1/2 up to rounding, as in `verify`'s pump-rate-ceiling
P_G_TOL = 1e-15

ORACLE_SAMPLES = 64  # cycle indices of pump-trace checked against U^n


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int  # data rows the command writes
    lazy_modules: tuple[str, ...]  # modules the command imports only when it runs
    argv: Callable[[int], list[str]]
    check: Callable[[Path, list[str], int], list[str]]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def loop_operator(theta, omega, phi) -> np.ndarray:
    """Loop operator U(theta, omega, phi) from its defining formula; array
    arguments give a stack of matrices, shape (..., 2, 2)."""
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    u = np.array(
        [
            [c * np.exp(-1j * phi), -s * np.exp(-1j * (omega - phi))],
            [s * np.exp(1j * (omega - phi)), c * np.exp(1j * phi)],
        ]
    )
    return np.moveaxis(u, (0, 1), (-2, -1))


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float data of a geopump CSV file, past its metadata block."""
    with open(path, encoding="utf-8") as fh:
        line = fh.readline()
        while line.startswith("# "):
            line = fh.readline()
        header = line.rstrip("\n").split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def _shape_problems(header, data, columns, rows) -> list[str]:
    problems = []
    if header != list(columns):
        problems.append(f"columns {header} != {list(columns)}")
    if data.shape != (rows, len(columns)):
        problems.append(f"table shape {data.shape} != {(rows, len(columns))}")
    return problems


# --- pump-trace -----------------------------------------------------------

def _pump_trace_argv(seed: int) -> list[str]:
    rng = _rng(seed, 0)
    theta = rng.uniform(0.0, math.pi)
    omega = rng.uniform(0.0, 2.0 * math.pi)
    phi = rng.uniform(-0.5 * math.pi, 0.5 * math.pi)
    return [
        "simulate",
        "--theta", repr(float(theta)),
        "--omega", repr(float(omega)),
        "--phi", repr(float(phi)),
        "--cycles", str(PUMP_CYCLES),
        "--format", "csv",
    ]


def _check_pump_trace(path: Path, argv: list[str], seed: int) -> list[str]:
    header, data = read_csv(path)
    problems = _shape_problems(header, data, ("cycle", "q", "p"), PUMP_CYCLES)
    if problems:
        return problems
    cycle, q, p = data.T
    n = np.arange(1, PUMP_CYCLES + 1)
    if not np.array_equal(cycle, n):
        problems.append("cycle column is not 1..n")
    if q.min() < 0.0 or q.max() > 1.0:
        problems.append(f"q leaves [0, 1]: min {q.min()!r}, max {q.max()!r}")
    drift = float(np.max(np.abs(p - np.cumsum(q) / n)))
    if drift > PREFIX_MEAN_TOL:
        problems.append(f"p is not the prefix mean of q: worst gap {drift:.3e}")
    u = loop_operator(*(float(_flag(argv, f)) for f in ("--theta", "--omega", "--phi")))
    picks = _rng(seed, 1).integers(1, PUMP_CYCLES + 1, size=ORACLE_SAMPLES)
    worst = 0.0
    for j in (1, PUMP_CYCLES, *picks.tolist()):
        expected = abs(np.linalg.matrix_power(u, j)[1, 0]) ** 2
        worst = max(worst, abs(q[j - 1] - expected))
    if worst > Q_TOL:
        problems.append(f"q differs from |(U^n)_10|^2 by {worst:.3e}")
    return problems


# --- phase-grid -----------------------------------------------------------

def _phase_grid_argv(seed: int) -> list[str]:
    return [
        "phase-diagram",
        "--theta-grid", str(GRID),
        "--phi-grid", str(GRID),
        "--n-max", str(GRID_N_MAX),
        "--offset", "0.5",
        "--threads", "1",
        "--format", "csv",
    ]


def _first_diagonal_powers(us: np.ndarray) -> np.ndarray:
    """First n <= GRID_N_MAX with |(U^n)_01| < GRID_TOL per matrix, 0 if none,
    by iterated products P <- U P, written out entrywise over the stack."""
    u00, u01, u10, u11 = us[:, 0, 0], us[:, 0, 1], us[:, 1, 0], us[:, 1, 1]
    a, b = np.ones(len(us), dtype=complex), np.zeros(len(us), dtype=complex)
    c, d = b.copy(), a.copy()
    order = np.zeros(len(us), dtype=int)
    for n in range(1, GRID_N_MAX + 1):
        a, b, c, d = u00 * a + u01 * c, u00 * b + u01 * d, u10 * a + u11 * c, u10 * b + u11 * d
        order[(order == 0) & (np.abs(b) < GRID_TOL)] = n
    return order


def _check_phase_grid(path: Path, argv: list[str], seed: int) -> list[str]:
    header, data = read_csv(path)
    problems = _shape_problems(header, data, ("theta", "phi", "stable", "order"), GRID * GRID)
    if problems:
        return problems
    theta, phi, stable, order = data.T
    mids = np.arange(GRID) + 0.5
    want_theta = np.repeat(mids * math.pi / GRID, GRID)
    want_phi = np.tile(-0.5 * math.pi + mids * math.pi / GRID, GRID)
    if np.max(np.abs(theta - want_theta)) > 1e-12 or np.max(np.abs(phi - want_phi)) > 1e-12:
        problems.append("grid coordinates are not the cell midpoints")
    if not np.array_equal(stable > 0, order > 0) or not set(np.unique(stable)) <= {0.0, 1.0}:
        problems.append("stable flag and order disagree")
    # every cell, not a sample: a wrong verdict on a few marginal cells must show
    wrong = int(np.count_nonzero(order != _first_diagonal_powers(loop_operator(want_theta, 0.0, want_phi))))
    if wrong:
        problems.append(f"{wrong} of {GRID * GRID} cells have the wrong order")
    return problems


# --- rate-draws -----------------------------------------------------------

def _rate_draws_argv(seed: int) -> list[str]:
    return ["asymptote", "--samples", str(RATE_SAMPLES), "--seed", str(seed), "--format", "json"]


def _check_rate_draws(path: Path, argv: list[str], seed: int) -> list[str]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    data = np.array(doc["rows"], dtype=float).reshape(-1, 5)
    problems = _shape_problems(doc["columns"], data, ("theta", "phi", "p_inf", "p_inf_axis", "p_g"), RATE_SAMPLES)
    if problems:
        return problems
    theta, phi, p_inf, p_axis, p_g = data.T
    if theta.min() < 0.0 or theta.max() > math.pi or np.max(np.abs(phi)) > 0.5 * math.pi:
        problems.append("draws leave the canonical ranges")
    if p_inf.min() < 0.0 or p_inf.max() > RATE_CEILING:
        problems.append(f"p_inf leaves [0, 1/2]: min {p_inf.min()!r}, max {p_inf.max()!r}")
    gap = float(np.max(np.abs(p_inf - p_axis)))
    if gap > ROUTE_TOL:
        problems.append(f"|p_inf - p_inf_axis| reaches {gap:.3e}")
    gap = float(np.max(np.abs(p_g - 0.5 * np.sin(0.5 * theta))))
    if gap > P_G_TOL:
        problems.append(f"p_g differs from sin(theta/2)/2 by {gap:.3e}")
    return problems


# --- verify ---------------------------------------------------------------

def _verify_argv(seed: int) -> list[str]:
    return ["verify", "--seed", str(seed)]


def _check_verify(path: Path, argv: list[str], seed: int) -> list[str]:
    header, data = read_csv(path)
    problems = _shape_problems(header, data, ("check_id", "passed", "value"), VERIFY_CHECKS)
    if not problems and not np.all(data[:, 1] == 1):
        failed = data[data[:, 1] != 1, 0].astype(int).tolist()
        problems.append(f"checks {failed} did not pass")
    return problems


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("pump-trace", PUMP_CYCLES, (), _pump_trace_argv, _check_pump_trace),
        Workload("phase-grid", GRID * GRID, (), _phase_grid_argv, _check_phase_grid),
        Workload("rate-draws", RATE_SAMPLES, (), _rate_draws_argv, _check_rate_draws),
        Workload("verify", VERIFY_CHECKS, ("geopump.checks",), _verify_argv, _check_verify),
    )
}
