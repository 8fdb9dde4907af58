"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with -s or in captured
output) and then asserts, so `pytest -v tests/test_acceptance.py` doubles
as the acceptance report.  Tolerances are part of the contract and must
not be loosened here.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy.stats import kstest

from geopump import (
    DriveCycle,
    LoopParams,
    RemovableSingularityWarning,
    build_loop_operator,
    classify,
    curve_order,
    matrix_power_closed_form,
    p_infinity,
    p_infinity_axis_route,
    p_geometric,
    phase_diagram,
    phi_average,
    power,
    propagate_state,
    pump_profile,
    pump_trace,
    stable_curve,
    trajectory_angles,
    winding_number,
)
from geopump.cli import main
from geopump.sampling import make_rng, sample_loop_params

SEED = 20260819


def _report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_01_convergence_to_asymptotic_rate():
    rng = make_rng(SEED)
    draws = sample_loop_params(
        rng, 100, theta_range=(0.1, math.pi - 0.1), phi_range=(-1.4, 1.4)
    )
    start = time.perf_counter()
    hits = 0
    worst = 0.0
    for lp in map(LoopParams, *draws):
        gap = abs(pump_trace(lp, 10_000).p[-1] - p_infinity(lp.theta, lp.phi))
        worst = max(worst, gap)
        hits += gap < 2e-2
    elapsed = time.perf_counter() - start
    ok = hits >= 95 and elapsed < 30.0
    _report(
        "01 convergence-to-asymptotic-rate",
        ok,
        f"{hits}/100 within 2e-2 (worst {worst:.3e}) in {elapsed:.1f}s",
    )


def test_02_rate_ceiling_attained_at_half_turn():
    thetas = np.linspace(0.0, math.pi, 200)
    phis = np.linspace(-math.pi / 2, math.pi / 2, 200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RemovableSingularityWarning)
        top = float(np.max(p_infinity(thetas[:, None], phis[None, :])))
    row_gap = float(np.max(np.abs(p_infinity(math.pi, phis) - 0.5)))
    ok = top <= 0.5 + 1e-12 and row_gap <= 1e-12
    _report(
        "02 rate-ceiling",
        ok,
        f"grid max {top:.17g}, half-turn row off ceiling by {row_gap:.3e}",
    )


def test_03_phase_average_equals_geometric_rate():
    start = time.perf_counter()
    worst = max(
        abs(phi_average(float(theta), 10_000) - 0.5 * math.sin(theta / 2.0))
        for theta in np.linspace(0.0, math.pi, 50)
    )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 5.0
    _report(
        "03 phase-average-identity", ok, f"worst gap {worst:.3e} in {elapsed:.2f}s"
    )


def test_04_route_equivalence():
    theta, omega, phi = sample_loop_params(make_rng(SEED + 1), 1000)
    gap = p_infinity(theta, phi) - p_infinity_axis_route(theta, omega, phi)
    worst = float(np.max(np.abs(gap)))
    ok = worst < 1e-10
    _report("04 route-equivalence", ok, f"worst |direct - axis| = {worst:.3e}")


def test_05_closed_form_powers():
    rng = make_rng(SEED + 2)
    worst = 0.0
    for lp in map(LoopParams, *sample_loop_params(rng, 200)):
        u = build_loop_operator(lp.theta, lp.omega, lp.phi)
        m = np.eye(2, dtype=complex)
        for n in range(1, 101):
            m = u @ m
            closed = matrix_power_closed_form(lp.theta, lp.omega, lp.phi, n)
            worst = max(worst, float(np.max(np.abs(closed - m))))
    ok = worst < 1e-10
    _report("05 closed-form-powers", ok, f"worst entry gap {worst:.3e} over n<=100")


def test_06_stability_exactness_on_rational_curves():
    mismatches = 0
    curves = 0
    for q in range(1, 13):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            curves += 1
            expected = curve_order(p, q)
            assert (expected * p) % (2 * q) == 0
            for theta, phi in stable_curve(p, q, 5):
                lp = LoopParams(theta, 0.0, phi)
                verdict = classify(lp.theta, lp.phi, 2 * expected + 2)
                u = build_loop_operator(lp.theta, lp.omega, lp.phi)
                oracle = None
                m = np.eye(2, dtype=complex)
                for n in range(1, 2 * expected + 3):
                    m = u @ m
                    if max(abs(m[0, 1]), abs(m[1, 0])) < 1e-9:
                        oracle = n
                        break
                if not (verdict.stable and verdict.order == expected == oracle):
                    mismatches += 1
    ok = mismatches == 0
    _report(
        "06 stability-exactness",
        ok,
        f"{mismatches} mismatches over {curves} curves x 5 points (q <= 12)",
    )


def test_07_boundary_is_stable_order_two():
    diagram = phase_diagram(9, 9, 5, offset=0.0)
    checked = 0
    bad = 0
    for theta, row in zip(diagram.theta_values, diagram.verdicts):
        for phi, verdict in zip(diagram.phi_values, row):
            boundary = (
                theta == 0.0
                or abs(theta - math.pi) < 1e-15
                or abs(abs(phi) - math.pi / 2) < 1e-15
            )
            if not boundary:
                continue
            checked += 1
            if not (verdict.stable and verdict.order <= 2):
                bad += 1
    ok = bad == 0 and checked >= 32
    _report("07 boundary-stability", ok, f"{checked - bad}/{checked} boundary points stable at order <= 2")


def test_08_stable_points_are_rare_inside():
    diagram = phase_diagram(100, 100, 200)
    stable = sum(v.stable for row in diagram.verdicts for v in row)
    fraction = stable / 10_000.0
    ok = fraction < 0.05
    _report("08 interior-stability-fraction", ok, f"{fraction:.4%} of 100x100 cells stable")


def test_09_norm_preserved_over_a_million_cycles():
    rng = make_rng(SEED + 3)
    worst = 0.0
    for lp in map(LoopParams, *sample_loop_params(rng, 10)):
        _, drift = propagate_state(lp, 1_000_000)
        worst = max(worst, drift)
    ok = worst < 1e-9
    _report("09 norm-preservation", ok, f"worst drift {worst:.3e} after 1e6 cycles x 10 drives")


def test_10_band_model_topology_and_profiles():
    rng = make_rng(SEED + 4)
    problems = []

    mismatch = 0
    drawn = 0
    while drawn < 200:
        v, w = rng.uniform(-2.0, 2.0, size=2)
        if abs(abs(v) - abs(w)) <= 1e-3 or abs(w) <= 1e-3:
            continue
        drawn += 1
        if winding_number(float(v), float(w)) != int(abs(v) < abs(w)):
            mismatch += 1
    if mismatch:
        problems.append(f"{mismatch} winding mismatches")

    inverted = pump_profile(DriveCycle(a=1.0), 128)
    edge = np.isclose(np.abs(inverted.k_values), math.pi)
    if inverted.tpt_count != 2:
        problems.append(f"a=1 tpt_count {inverted.tpt_count}")
    if not (np.all(inverted.p_g_values[edge] == 0.5) and np.all(inverted.p_g_values[~edge] == 0.0)):
        problems.append("a=1 profile not 1/2 at zone edge and 0 elsewhere")

    gapped = pump_profile(DriveCycle(a=3.0), 128)
    if gapped.tpt_count != 0 or np.any(gapped.p_g_values != 0.0):
        problems.append("a=3 profile not identically zero")

    tangential = pump_profile(DriveCycle(a=0.0), 128)
    if np.any(tangential.p_g_values != 0.0):
        problems.append("a=0 tangential closings pump")

    ok = not problems
    _report("10 band-model", ok, "; ".join(problems) or "winding and all three drive profiles exact")


def test_11_jump_angles_equidistribute():
    rng = make_rng(SEED + 5)
    draws = sample_loop_params(
        rng, 10, theta_range=(0.1, math.pi - 0.1), phi_range=(-1.4, 1.4)
    )
    worst = 0.0
    for lp in map(LoopParams, *draws):
        angles = trajectory_angles(lp.theta, lp.phi, 100_000)
        worst = max(worst, float(kstest(angles / (2.0 * math.pi), "uniform").statistic))
    ok = worst < 0.01
    _report("11 equidistribution", ok, f"worst KS statistic {worst:.5f} at n=1e5")


def test_12_byte_determinism_across_threads(tmp_path):
    recipes = {
        "phase-diagram": ["--theta-grid", "16", "--phi-grid", "16", "--n-max", "60"],
        "band-scan": ["--a", "1.0", "--k-grid", "64"],
    }
    failures = []
    for command, flags in recipes.items():
        blobs = set()
        for rerun in range(2):
            for threads in ("1", "2", "8"):
                out = tmp_path / f"{command}-{rerun}-{threads}.csv"
                code = main([command, *flags, "--threads", threads, "--out", str(out)])
                if code != 0:
                    failures.append(f"{command} exit {code}")
                blobs.add(out.read_bytes())
        if len(blobs) != 1:
            failures.append(f"{command} produced {len(blobs)} distinct outputs")
    ok = not failures
    _report("12 determinism", ok, "; ".join(failures) or "identical bytes across reruns and threads 1/2/8")
