"""Invariant battery behind `geopump verify`.

Each check exercises one contract of the library against an independent
route (closed form vs. iterated matrices, direct formula vs. chart chain,
analytic criterion vs. numerical accumulation) and reports the measured
worst case next to its bound.  The battery is deterministic for a given
seed.

The Kolmogorov-Smirnov statistic of the jump angles is computed in-house
as max(D+, D-) with numpy; SciPy's `kstest` serves only as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import p_geometric, p_infinity, p_infinity_axis_route, phi_average
from .band import (
    ChainParams,
    DriveCycle,
    GapClosedError,
    pump_profile,
    theta_of_k,
    tpt_events,
    winding_number,
)
from .evolution import (
    build_loop_operator,
    propagate_state,
    pump_trace,
    trajectory_angles,
)
from .sampling import make_rng, sample_loop_params
from .stability import (
    classify,
    curve_order,
    matrix_power_closed_form,
    off_diagonal_magnitude,
    stable_curve,
)
from .su2 import (
    HALF_PI,
    TWO_PI,
    LoopParams,
    axis_angle_from_euler,
    axis_angle_matrices,
    euler_from_loop,
    euler_matrices,
    power,
    su2_defect,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    bound: float


_INTERIOR = {
    "theta_range": (1e-3, math.pi - 1e-3),
    "phi_range": (-HALF_PI + 1e-3, HALF_PI - 1e-3),
}


def _first_diagonal_power(u, n_max, tol=1e-9):
    m = np.eye(2, dtype=complex)
    for n in range(1, n_max + 1):
        m = u @ m
        if max(abs(m[0, 1]), abs(m[1, 0])) < tol:
            return n
    return None


def _check_special_unitary(rng):
    loops = map(LoopParams, *sample_loop_params(rng, 500))
    worst = max(su2_defect(build_loop_operator(lp)) for lp in loops)
    return worst, 1e-12


def _loop_operators(theta, omega, phi):
    return np.array([build_loop_operator(LoopParams(*v)) for v in zip(theta, omega, phi)])


def _check_euler_right_inverse(rng):
    theta, omega, phi = sample_loop_params(rng, 500)
    rebuilt = euler_matrices(*euler_from_loop(theta, omega, phi))
    return np.max(np.abs(rebuilt - _loop_operators(theta, omega, phi))), 1e-12


def _check_axis_chain(rng):
    theta, omega, phi = sample_loop_params(rng, 500, **_INTERIOR)
    rebuilt = axis_angle_matrices(*axis_angle_from_euler(*euler_from_loop(theta, omega, phi)))
    return np.max(np.abs(rebuilt - _loop_operators(theta, omega, phi))), 1e-10


def _check_power_semigroup(rng):
    worst = 0.0
    for lp in map(LoopParams, *sample_loop_params(rng, 20)):
        u = build_loop_operator(lp)
        n, m = (int(v) for v in rng.integers(0, 10_001, size=2))
        diff = power(u, n + m) - power(u, n) @ power(u, m)
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst, 1e-10


def _check_characteristic_recurrence(rng):
    eye = np.eye(2)
    worst = 0.0
    for lp in map(LoopParams, *sample_loop_params(rng, 500)):
        u = build_loop_operator(lp)
        residual = u @ u - (u[0, 0] + u[1, 1]) * u + eye
        worst = max(worst, float(np.max(np.abs(residual))))
    return worst, 1e-12


def _check_closed_form_powers(rng):
    worst = 0.0
    for lp in map(LoopParams, *sample_loop_params(rng, 100)):
        u = build_loop_operator(lp)
        for n in rng.integers(0, 101, size=10):
            diff = matrix_power_closed_form(lp, int(n)) - power(u, int(n))
            worst = max(worst, float(np.max(np.abs(diff))))
    return worst, 1e-10


def _check_off_diagonal_closed_form(rng):
    worst = 0.0
    for lp in map(LoopParams, *sample_loop_params(rng, 100)):
        u = build_loop_operator(lp)
        for n in rng.integers(1, 201, size=5):
            direct = abs(power(u, int(n))[0, 1])
            worst = max(worst, abs(direct - off_diagonal_magnitude(lp, int(n))))
    return worst, 1e-10


def _check_route_equivalence(rng):
    theta, omega, phi = sample_loop_params(rng, 1000, **_INTERIOR)
    gap = p_infinity(theta, phi) - p_infinity_axis_route(theta, omega, phi)
    return np.max(np.abs(gap)), 1e-10


def _check_phase_average(rng):
    worst = 0.0
    for theta in np.linspace(0.0, math.pi, 25):
        worst = max(worst, abs(phi_average(float(theta), 10_000) - p_geometric(float(theta))))
    return worst, 1e-6


def _check_rate_ceiling(rng):
    theta = np.linspace(0.0, math.pi, 100)[:, None]
    phi = np.linspace(-HALF_PI, HALF_PI, 100)[None, :]
    return np.max(p_infinity(theta, phi)), 0.5 + 1e-12


def _check_trace_projection(rng):
    worst = 0.0
    for lp in map(LoopParams, *sample_loop_params(rng, 20)):
        u = build_loop_operator(lp)
        trace = pump_trace(lp, 300)
        for j in (1, 2, 3, 7, 50, 299, 300):
            expected = abs(power(u, j)[1, 0]) ** 2
            worst = max(worst, abs(trace.q[j - 1] - expected))
    return worst, 1e-10


def _check_phase_shift_symmetry(rng):
    worst = 0.0
    for lp in map(LoopParams, *sample_loop_params(rng, 50)):
        shifted = LoopParams(lp.theta, lp.omega, lp.phi + math.pi)
        dq = pump_trace(lp, 300).q - pump_trace(shifted, 300).q
        worst = max(worst, float(np.max(np.abs(dq))))
    return worst, 1e-12


def _check_norm_preservation(rng):
    worst = 0.0
    for lp in map(LoopParams, *sample_loop_params(rng, 5)):
        _, err = propagate_state(lp, 100_000)
        worst = max(worst, err)
    return worst, 1e-9


def _check_winding_criterion(rng):
    mismatches = 0
    drawn = 0
    while drawn < 200:
        v, w = rng.uniform(-2.0, 2.0, size=2)
        if abs(abs(v) - abs(w)) <= 1e-6 or abs(w) <= 1e-6:
            continue
        try:  # a gap too small for the sampler to resolve is redrawn too
            winding = winding_number(ChainParams(float(v), float(w)))
        except GapClosedError:
            continue
        drawn += 1
        if winding != (1 if abs(v) < abs(w) else 0):
            mismatches += 1
    return float(mismatches), 0.5


def _check_rational_orders(rng):
    mismatches = 0
    for q in range(1, 9):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            expected = curve_order(p, q)
            for theta, phi in stable_curve(p, q, 4).points:
                lp = LoopParams(theta, 0.0, phi)
                verdict = classify(lp, 2 * expected + 2)
                oracle = _first_diagonal_power(
                    build_loop_operator(lp), 2 * expected + 2
                )
                if not verdict.stable or verdict.order != expected or oracle != expected:
                    mismatches += 1
    return float(mismatches), 0.5


def _check_band_profiles(rng):
    bad = 0
    profile = pump_profile(DriveCycle(a=1.0), 128)
    closing = np.isclose(((profile.k_values * 1.0) % TWO_PI), math.pi, atol=1e-9)
    if profile.tpt_count != 2:
        bad += 1
    if not np.all(profile.p_g_values[closing] == 0.5):
        bad += 1
    if not np.all(profile.p_g_values[~closing] == 0.0):
        bad += 1
    quiet = pump_profile(DriveCycle(a=0.0), 128)
    if quiet.tpt_count != 0 or np.any(quiet.p_g_values != 0.0):
        bad += 1
    return float(bad), 0.5


def _sampled_inversions(dc):
    """The momentum of each transversal closing across which the winding flips.

    The winding is sampled at the midpoint of each cyclic interval between
    consecutive transversal closings; raises GapClosedError when a midpoint
    is too close to a closing to resolve.
    """
    events = [e for e in tpt_events(dc) if e.transversal]
    windings = []
    for i, event in enumerate(events):
        end = events[(i + 1) % len(events)].time_fraction + (i == len(events) - 1)
        t = 0.5 * (event.time_fraction + end) % 1.0
        windings.append(winding_number(ChainParams(dc.v_at(t), dc.w, dc.l)))
    # interval i follows closing i; the one before closing i is interval i-1
    return tuple(e.k_star for i, e in enumerate(events) if windings[i] != windings[i - 1])


def _check_one_d_consistency(rng):
    mismatches = 0
    for a in np.linspace(-3.0, 3.0, 20):
        dc = DriveCycle(a=float(a))
        inverted = _sampled_inversions(dc)
        for k_star in (math.pi, 0.0):
            if (k_star in inverted) != (theta_of_k(dc, k_star) == math.pi):
                mismatches += 1
    return float(mismatches), 0.5


def _ks_uniform(x):
    """One-sample KS statistic of x in [0, 1] against the uniform law.

    max(D+, D-) over the sorted sample, each written as SciPy's `kstest`
    writes it; the uniform CDF is the identity on [0, 1], so the float is
    the same.
    """
    x = np.sort(x)
    n = x.size
    d_plus = np.max(np.arange(1, n + 1) / n - x)
    d_minus = np.max(x - np.arange(0, n) / n)
    return float(max(d_plus, d_minus))


def _check_equidistribution(rng):
    worst = 0.0
    for lp in map(LoopParams, *sample_loop_params(rng, 5, **_INTERIOR)):
        angles = trajectory_angles(lp, 20_000)
        worst = max(worst, _ks_uniform(angles / TWO_PI))
    return worst, 0.01


_CHECKS = (
    ("loop-operator-special-unitary", _check_special_unitary),
    ("euler-chart-right-inverse", _check_euler_right_inverse),
    ("axis-angle-chain-consistency", _check_axis_chain),
    ("power-semigroup", _check_power_semigroup),
    ("characteristic-recurrence", _check_characteristic_recurrence),
    ("closed-form-matrix-powers", _check_closed_form_powers),
    ("off-diagonal-closed-form", _check_off_diagonal_closed_form),
    ("pump-rate-route-equivalence", _check_route_equivalence),
    ("phase-average-matches-geometric", _check_phase_average),
    ("pump-rate-ceiling", _check_rate_ceiling),
    ("trace-projection-identity", _check_trace_projection),
    ("phase-shift-symmetry", _check_phase_shift_symmetry),
    ("norm-preservation", _check_norm_preservation),
    ("winding-matches-gap-criterion", _check_winding_criterion),
    ("rational-turn-orders", _check_rational_orders),
    ("band-inversion-profile", _check_band_profiles),
    ("one-d-band-consistency", _check_one_d_consistency),
    ("jump-angle-equidistribution", _check_equidistribution),
)


def run_checks(seed: int = 0) -> tuple[CheckResult, ...]:
    """Run the whole battery with one seeded stream; order is fixed."""
    rng = make_rng(seed)
    results = []
    for name, fn in _CHECKS:
        value, bound = fn(rng)
        results.append(CheckResult(name, value <= bound, float(value), float(bound)))
    return tuple(results)
