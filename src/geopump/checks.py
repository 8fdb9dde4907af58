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
from dataclasses import dataclass, replace

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
from .evolution import build_loop_operator, propagate_state, pump_trace, trajectory_angles
from .sampling import make_rng, sample_loop_params
from .stability import _scan, matrix_power_closed_form, off_diagonal_magnitude, stable_curve
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
    return np.max(su2_defect(build_loop_operator(*sample_loop_params(rng, 500)))), 1e-12


def _check_euler_right_inverse(rng):
    theta, omega, phi = sample_loop_params(rng, 500)
    rebuilt = euler_matrices(*euler_from_loop(theta, omega, phi))
    return np.max(np.abs(rebuilt - build_loop_operator(theta, omega, phi))), 1e-12


def _check_axis_chain(rng):
    theta, omega, phi = sample_loop_params(rng, 500, **_INTERIOR)
    rebuilt = axis_angle_matrices(*axis_angle_from_euler(*euler_from_loop(theta, omega, phi)))
    return np.max(np.abs(rebuilt - build_loop_operator(theta, omega, phi))), 1e-10


def _check_power_semigroup(rng):
    worst = 0.0
    for u in build_loop_operator(*sample_loop_params(rng, 20)):
        n, m = (int(v) for v in rng.integers(0, 10_001, size=2))
        diff = power(u, n + m) - power(u, n) @ power(u, m)
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst, 1e-10


def _check_characteristic_recurrence(rng):
    u = build_loop_operator(*sample_loop_params(rng, 500))
    trace = (u[:, 0, 0] + u[:, 1, 1])[:, None, None]
    return np.max(np.abs(u @ u - trace * u + np.eye(2))), 1e-12


def _drives_and_powers(rng, low, high, size):
    """100 drives as (theta, omega, phi) columns, `size` exponents in [low,
    high) for each, and the oracle U^n of each, one stacked power per exponent."""
    theta, omega, phi = sample_loop_params(rng, 100)
    ns, u = rng.integers(low, high, size=(100, size)), build_loop_operator(theta, omega, phi)
    powers = np.empty(ns.shape + (2, 2), dtype=complex)
    for n in set(ns.ravel().tolist()):  # np.unique would import numpy.ma: 1.5 MiB of RSS
        drive, draw = np.nonzero(ns == n)
        powers[drive, draw] = power(u[drive], n)
    return (theta[:, None], omega[:, None], phi[:, None]), ns, powers


def _check_closed_form_powers(rng):
    (theta, omega, phi), ns, powers = _drives_and_powers(rng, 0, 101, 10)
    return np.max(np.abs(matrix_power_closed_form(theta, omega, phi, ns) - powers)), 1e-10


def _check_off_diagonal_closed_form(rng):
    (theta, _, phi), ns, powers = _drives_and_powers(rng, 1, 201, 5)
    # abs of each numpy complex scalar, as np.abs of a complex array rounds otherwise
    direct = np.fromiter(map(abs, powers[..., 0, 1].ravel()), float, ns.size)
    return np.max(np.abs(direct - off_diagonal_magnitude(theta, phi, ns).ravel())), 1e-10


def _check_route_equivalence(rng):
    theta, omega, phi = sample_loop_params(rng, 1000, **_INTERIOR)
    gap = p_infinity(theta, phi) - p_infinity_axis_route(theta, omega, phi)
    return np.max(np.abs(gap)), 1e-10


def _check_phase_average(rng):
    theta = np.linspace(0.0, math.pi, 25)
    return np.max(np.abs(phi_average(theta, 10_000) - p_geometric(theta))), 1e-6


def _check_rate_ceiling(rng):
    theta = np.linspace(0.0, math.pi, 100)[:, None]
    phi = np.linspace(-HALF_PI, HALF_PI, 100)[None, :]
    return np.max(p_infinity(theta, phi)), 0.5 + 1e-12


def _check_trace_projection(rng):
    theta, omega, phi = sample_loop_params(rng, 20)
    q = np.array([pump_trace(lp, 300).q for lp in map(LoopParams, theta, omega, phi)])
    u = build_loop_operator(theta, omega, phi)
    worst = 0.0
    for j in (1, 2, 3, 7, 50, 299, 300):
        # abs and square of each numpy scalar, as the stacked forms round otherwise
        expected = np.fromiter((abs(z) ** 2 for z in power(u, j)[:, 1, 0]), float, len(u))
        worst = max(worst, np.max(np.abs(q[:, j - 1] - expected)))
    return worst, 1e-10


def _check_phase_shift_symmetry(rng):
    worst = 0.0
    for lp in map(LoopParams, *sample_loop_params(rng, 50)):
        dq = pump_trace(lp, 300).q - pump_trace(replace(lp, phi=lp.phi + math.pi), 300).q
        worst = max(worst, float(np.max(np.abs(dq))))
    return worst, 1e-12


def _check_norm_preservation(rng):
    loops = map(LoopParams, *sample_loop_params(rng, 5))
    return max(propagate_state(lp, 100_000)[1] for lp in loops), 1e-9


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
    pairs = [(p, q) for q in range(1, 9) for p in range(1, q + 1) if math.gcd(p, q) == 1]
    curves = [stable_curve(p, q, 4) for p, q in pairs]
    theta, phi = np.array([point for curve in curves for point in curve.points]).T
    expected = [curve.order for curve in curves for _ in curve.points]
    # one scan to the largest bound: a return past a point's own is a mismatch anyway
    orders, _ = _scan(theta, phi, 2 * max(expected) + 2, 1e-9)
    mismatches = sum(
        order != want or _first_diagonal_power(u, 2 * want + 2) != want
        for order, u, want in zip(orders.tolist(), build_loop_operator(theta, 0.0, phi), expected)
    )
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
    theta, _, phi = sample_loop_params(rng, 5, **_INTERIOR)
    return max(_ks_uniform(a / TWO_PI) for a in trajectory_angles(theta, phi, 20_000)), 0.01


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
